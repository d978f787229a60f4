"""Lasso traces and the two independent evaluation routes."""

from __future__ import annotations

import base64
import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import all_lassos, gen_formula
from ltledge.batch import label_block, window_block
from ltledge.formula import desugar_edges, rewrite_logic
from ltledge.semantics import (
    LassoTrace,
    UnknownAtomError,
    dump_trace,
    eval_formula,
    eval_oracle,
    load_trace,
    normalize_position,
    stutter_at,
    trace_from_doc,
    trace_to_doc,
    unroll,
)
from ltledge.syntax import parse, render

GOLDEN = Path(__file__).with_name("eval_golden.json")
A_TRUE_THEN_FALSE = LassoTrace(("a",), ((True,),), ((False,),))


def test_trace_validation():
    with pytest.raises(ValueError):
        LassoTrace(("a",), (), ())
    with pytest.raises(ValueError):
        LassoTrace(("a",), ((True, True),), ((False,),))
    with pytest.raises(ValueError):
        LassoTrace(("a", "a"), (), ((True, True),))


def test_normalize_position_folds_into_loop():
    t = LassoTrace(("a",), ((True,), (False,)), ((True,), (False,), (True,)))
    assert [normalize_position(t, i) for i in range(9)] == [0, 1, 2, 3, 4, 2, 3, 4, 2]


def test_stutter_at_duplicates_a_stem_state():
    assert stutter_at(A_TRUE_THEN_FALSE, 0) == LassoTrace(
        ("a",), ((True,), (True,)), ((False,),)
    )
    with pytest.raises(IndexError):
        stutter_at(A_TRUE_THEN_FALSE, 1)


def test_a_trace_built_from_lists_stores_tuples():
    # Lists used to be kept as given: the trace evaluated, but hashing it
    # raised TypeError, and so did stutter_at (a list added to a tuple).
    t = LassoTrace(["a"], [[True]], [(False,)])
    assert t == A_TRUE_THEN_FALSE
    assert hash(t) == hash(A_TRUE_THEN_FALSE)
    assert stutter_at(t, 0) == stutter_at(A_TRUE_THEN_FALSE, 0)
    assert unroll(t, 1) == unroll(A_TRUE_THEN_FALSE, 1)


def test_unroll_moves_loop_copies_into_stem():
    t = unroll(A_TRUE_THEN_FALSE, 2)
    assert t == LassoTrace(("a",), ((True,), (False,), (False,)), ((False,),))
    assert unroll(A_TRUE_THEN_FALSE, 0) == A_TRUE_THEN_FALSE


def test_next_is_sensitive_to_stuttering():
    # X a is false on the original word but true once s0 is repeated
    f = parse("X a")
    assert eval_formula(f, A_TRUE_THEN_FALSE) is False
    assert eval_formula(f, stutter_at(A_TRUE_THEN_FALSE, 0)) is True


def test_eval_basic_connectives():
    t = LassoTrace(("a", "b"), ((True, False),), ((False, True),))
    assert eval_formula(parse("a"), t) is True
    assert eval_formula(parse("b"), t) is False
    assert eval_formula(parse("a & !b"), t) is True
    assert eval_formula(parse("a -> b"), t) is False
    assert eval_formula(parse("a <-> !b"), t) is True
    assert eval_formula(parse("true"), t) is True
    assert eval_formula(parse("false"), t) is False


def test_eval_temporal_operators():
    t = LassoTrace(("a", "b"), ((True, False),), ((False, True),))
    assert eval_formula(parse("G a"), t) is False
    assert eval_formula(parse("F b"), t) is True
    assert eval_formula(parse("G F b"), t) is True
    assert eval_formula(parse("a U b"), t) is True
    assert eval_formula(parse("b U a"), t) is True   # right holds immediately
    assert eval_formula(parse("X X a"), t) is False


def test_until_is_strong():
    never = LassoTrace(("a", "b"), (), ((True, False),))
    assert eval_formula(parse("a U b"), never) is False
    assert eval_formula(parse("G a"), never) is True


EVALUATORS = pytest.mark.parametrize(
    "evaluate", [eval_formula, eval_oracle], ids=["window", "label"]
)


@EVALUATORS
def test_eval_at_positions(evaluate):
    t = LassoTrace(("a",), ((True,), (False,)), ((True,),))
    assert evaluate(parse("a"), t, 0) is True
    assert evaluate(parse("a"), t, 1) is False
    assert evaluate(parse("a"), t, 2) is True
    assert evaluate(parse("G a"), t, 2) is True
    assert evaluate(parse("G a"), t, 99) is True
    # the witness for position 1 lies one wrap of the loop ahead
    loop_only = LassoTrace(
        ("a", "b", "c"), (), ((False, False, False), (True, False, False))
    )
    assert evaluate(parse("c U a"), loop_only, 1) is True
    assert evaluate(parse("c U a"), loop_only, 0) is False


@EVALUATORS
def test_edge_operators_fire_on_change(evaluate):
    t = LassoTrace(("a",), ((False,), (True,)), ((True,),))
    assert evaluate(parse("up a"), t, 0) is True
    assert evaluate(parse("up a"), t, 1) is False
    assert evaluate(parse("down a"), t, 0) is False
    assert evaluate(parse("edge a"), t, 0) is True


def test_unknown_atom_is_reported():
    with pytest.raises(UnknownAtomError) as info:
        eval_formula(parse("zz"), A_TRUE_THEN_FALSE)
    assert "zz" in str(info.value)


@EVALUATORS
def test_negative_position_is_rejected(evaluate):
    with pytest.raises(ValueError):
        evaluate(parse("a"), A_TRUE_THEN_FALSE, -1)


def _golden_bits(evaluate, f, traces, fold_offset):
    bits = []
    for t in traces:
        n = t.stem_len + t.loop_len
        for p in [*range(n), n + fold_offset]:
            bits.append(evaluate(f, t, p))
    return np.array(bits, dtype=bool)


@EVALUATORS
def test_evaluators_reproduce_the_golden_corpus(evaluate):
    # Values recorded from the recursive interpreter that eval_formula
    # used to be; see the description fields of the file.
    doc = json.loads(GOLDEN.read_text())
    traces = list(all_lassos(("p", "q"), 2, 2))
    for case in doc["cases"]:
        f = parse(case["formula"])
        want = np.unpackbits(
            np.frombuffer(base64.b64decode(case["values"]), dtype=np.uint8)
        ).astype(bool)
        got = _golden_bits(evaluate, f, traces, doc["fold_offset"])
        assert np.array_equal(got, want[: got.size]), case["formula"]
        assert not want[got.size :].any()


def test_trace_documents_round_trip():
    t = LassoTrace(("a", "b"), ((True, False),), ((False, True), (True, True)))
    assert trace_from_doc(trace_to_doc(t)) == t
    assert load_trace(dump_trace(t)) == t


@pytest.mark.parametrize("field", ["stem", "loop"])
@pytest.mark.parametrize("value", [2, -1, 1.0, "1", None, [1]])
def test_trace_values_must_be_booleans_or_0_1(field, value):
    doc = {"atoms": ["a", "b"], "stem": [[0, 1], [True, False]],
           "loop": [[1, 0]]}
    doc[field][0][1] = value
    with pytest.raises(ValueError, match=f"^trace document: field '{field}': "
                                         "values must be booleans or 0/1, "
                                         "not "):
        trace_from_doc(doc)


@pytest.mark.parametrize("value", [[0] * 200_000, "1" * 200_000],
                         ids=["list", "string"])
def test_bad_trace_value_message_is_bounded(value):
    doc = {"atoms": ["a"], "stem": [[value]], "loop": [[1]]}
    with pytest.raises(ValueError, match="^trace document: field 'stem': "
                                         "values must be") as info:
        trace_from_doc(doc)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("doc", [
    {"atoms": ["a"], "stem": [[1]], "loop": [1]},
    {"atoms": ["a"], "stem": "10", "loop": [[1]]},
    {"atoms": ["a"], "stem": [[1, 0]], "loop": [[1]]},
    {"atoms": ["a"], "stem": [], "loop": []},
    {"atoms": ["a", "a"], "stem": [], "loop": [[1, 1]]},
])
def test_malformed_trace_documents_are_value_errors(doc):
    with pytest.raises(ValueError):
        trace_from_doc(doc)


@pytest.mark.parametrize("name", ["", "a b", "G", "true"])
def test_trace_atoms_must_be_atom_names(name):
    doc = {"atoms": ["a", name], "stem": [], "loop": [[0, 1]]}
    with pytest.raises(ValueError, match="^trace document: field 'atoms': "
                                         f"{name!r} is not an atom name$"):
        trace_from_doc(doc)


@pytest.mark.parametrize("doc, kind", [
    ([1, 2], "list"), (None, "NoneType"), ("ab", "str"), (5, "int"),
])
def test_a_trace_document_must_be_an_object(doc, kind):
    with pytest.raises(ValueError, match="^trace document: must be a JSON "
                                         f"object, not {kind}$"):
        trace_from_doc(doc)


def test_loaded_trace_shares_one_read_only_cell_array():
    doc = {"atoms": ["a", "b"], "stem": [[0, 1], [True, False]],
           "loop": [[1, 1]]}
    t = trace_from_doc(doc)
    assert t == LassoTrace(("a", "b"), ((False, True), (True, False)),
                           ((True, True),))
    assert {type(v) for state in t.stem + t.loop for v in state} == {bool}
    built = LassoTrace(t.atoms, t.stem, t.loop)
    for trace in (t, built):
        assert trace._cells is trace._cells
        assert not trace._cells.flags.writeable
        assert trace._cells.tolist() == [list(s) for s in t.stem + t.loop]
    assert trace_from_doc({"atoms": [], "stem": [], "loop": [[]]}).loop == ((),)


def test_oracle_agrees_on_the_pinned_examples():
    f = parse("X a")
    assert eval_oracle(f, A_TRUE_THEN_FALSE) is False
    longer = LassoTrace(("a",), ((True,), (True,)), ((False,),))
    assert eval_formula(f, longer) is True
    assert eval_oracle(f, longer) is True


def test_eval_routes_agree_on_random_formulas():
    rng = random.Random(11)
    traces = list(all_lassos(("p", "q"), 2, 2))
    for _ in range(60):
        f = gen_formula(rng, 3)
        for t in traces[:: 7]:
            assert eval_formula(f, t) == eval_oracle(f, t)


def test_desugaring_preserves_eval():
    rng = random.Random(13)
    traces = list(all_lassos(("p", "q"), 2, 1))
    for _ in range(60):
        f = gen_formula(rng, 3)
        plain = desugar_edges(f)
        for t in traces[:: 5]:
            assert eval_formula(f, t) == eval_formula(plain, t)


def test_rewrite_logic_preserves_eval_and_is_idempotent():
    rng = random.Random(17)
    traces = list(all_lassos(("p", "q"), 2, 1))
    for _ in range(60):
        f = gen_formula(rng, 3)
        g = rewrite_logic(f)
        assert rewrite_logic(g) == g
        for t in traces[:: 5]:
            assert eval_formula(f, t) == eval_formula(g, t)


def test_unrolling_never_changes_eval():
    rng = random.Random(19)
    for _ in range(40):
        f = gen_formula(rng, 3)
        t = LassoTrace(
            ("p", "q"),
            tuple(
                (rng.random() < 0.5, rng.random() < 0.5)
                for _ in range(rng.randrange(3))
            ),
            tuple(
                (rng.random() < 0.5, rng.random() < 0.5)
                for _ in range(rng.randrange(1, 3))
            ),
        )
        base = eval_formula(f, t)
        for k in (1, 2, 3):
            assert eval_formula(f, unroll(t, k)) == base


def test_next_free_formulas_ignore_stuttering():
    rng = random.Random(23)
    for _ in range(80):
        f = gen_formula(rng, 3, next_free=True)
        t = LassoTrace(
            ("p", "q"),
            tuple(
                (rng.random() < 0.5, rng.random() < 0.5)
                for _ in range(rng.randrange(1, 4))
            ),
            tuple(
                (rng.random() < 0.5, rng.random() < 0.5)
                for _ in range(rng.randrange(1, 3))
            ),
        )
        base = eval_formula(f, t)
        for i in range(len(t.stem)):
            assert eval_formula(f, stutter_at(t, i)) == base


# Long 3-atom lassos: the label route's ``U`` composes its per-position
# maps in log depth, so these reach spans that the 2-state golden corpus
# cannot.  A column is random with a random density, never true or
# always true.  In a wrap trace, ``a`` runs across the loop wrap to the
# only ``b``, a quarter of the way round the loop, and is broken halfway
# round and at the last stem position, so from the stem's start ``a``
# holds for the whole stem but one state and still ``a U b`` fails.
LONG_FORMULAS = [
    "a U b", "G(a U b)", "F(a U b)", "!(a U b)", "G F(a U b)",
    "(a U b) U c", "a U (b U c)", "G(a -> (b U c))", "F G(!(a U X b))",
    "(up a U b) | G(c U down a)", "true U b", "a U false", "false U c",
    "a U true", "G(true U c)", "F(a U false)", "!(c U (a U (b U !c)))",
]
LONG_SHAPES = [(0, 1), (0, 400), (1, 1), (3000, 1), (3000, 400), (1500, 257),
               (777, 2), (2, 399), (64, 64), (2999, 3)]


def _long_columns(rng: random.Random, stem_len: int, loop_len: int,
                  wrap: bool) -> np.ndarray:
    n = stem_len + loop_len
    nprng = np.random.default_rng(rng.randrange(1 << 30))
    cols = [nprng.random(n) < rng.uniform(0.02, 0.98) for _ in range(3)]
    if wrap:
        cols[0] = np.ones(n, dtype=bool)
        cols[0][[max(0, stem_len - 1), stem_len + loop_len // 2]] = False
        cols[1] = np.zeros(n, dtype=bool)
        cols[1][stem_len + loop_len // 4] = True
    for j in range(3):
        mode = rng.choice(["kept"] * 3 + ["never", "always"])
        if mode != "kept" and not (wrap and j < 2):
            cols[j] = np.full(n, mode == "always")
    return np.stack(cols, axis=1)


def _long_trace(rng: random.Random, stem_len: int, loop_len: int,
                wrap: bool) -> LassoTrace:
    cells = _long_columns(rng, stem_len, loop_len, wrap)
    states = tuple(map(tuple, cells.tolist()))
    return LassoTrace(("a", "b", "c"), states[:stem_len], states[stem_len:])


def test_eval_routes_agree_on_long_traces():
    rng = random.Random(31)
    formulas = [parse(text) for text in LONG_FORMULAS]
    formulas += [gen_formula(rng, 4, ("a", "b", "c")) for _ in range(8)]
    for stem_len, loop_len in LONG_SHAPES:
        for wrap in (False, False, True):
            t = _long_trace(rng, stem_len, loop_len, wrap)
            n = stem_len + loop_len
            positions = {0, stem_len // 2, stem_len, n - 1, n + 3 * loop_len + 1}
            for f in formulas:
                for p in sorted(positions):
                    assert eval_formula(f, t, p) == eval_oracle(f, t, p), (
                        render(f), stem_len, loop_len, p)


def test_batch_routes_agree_on_long_traces():
    rng = random.Random(37)
    formulas = [parse(text) for text in LONG_FORMULAS]
    for stem_len, loop_len in LONG_SHAPES:
        rows = [_long_columns(rng, stem_len, loop_len, wrap)
                for wrap in (False, True) * 3]
        stems = np.stack([r[:stem_len] for r in rows])
        loops = np.stack([r[stem_len:] for r in rows])
        for f in formulas:
            window = window_block(f, ("a", "b", "c"), stems, loops)
            label = label_block(f, ("a", "b", "c"), stems, loops)
            assert np.array_equal(window, label), (render(f), stem_len,
                                                   loop_len)
