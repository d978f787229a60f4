"""Bounded stuttering falsification: pinned witnesses, minimization, bounds."""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_lassos, formula_strategy, gen_formula
from ltledge import falsifier, formula
from ltledge.batch import compile_formula, enumerate_states, label_block
from ltledge.falsifier import (
    Counterexample,
    SearchBounds,
    _first_flip,
    _flips,
    _loop_chunk,
    _loop_stutters,
    _reconstruct,
    _search_blocks,
    _stem_layer,
    cex_from_doc,
    cex_to_doc,
    falsify,
    minimize,
)
from ltledge.formula import (
    And,
    ConstFalse,
    ConstTrue,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    children_of,
    subformulas,
)
from ltledge.semantics import (
    LassoTrace,
    eval_formula,
    stutter_at,
    unroll,
)
from ltledge.syntax import parse, render

GOLDEN = Path(__file__).with_name("falsify_golden.json")


def test_next_has_the_textbook_counterexample():
    cex = falsify(parse("X a"))
    assert cex_to_doc(cex) == {
        "formula": "X a",
        "trace": {"atoms": ["a"], "stem": [[True]], "loop": [[False]]},
        "stutter_index": 0,
        "value_before": False,
        "value_after": True,
    }


def test_counterexamples_recheck_by_construction():
    for text in ("X a", "up a", "down b", "edge a", "!(X a)", "X a U b"):
        cex = falsify(parse(text))
        assert cex is not None, text
        f = parse(text)
        assert eval_formula(f, cex.trace) == cex.value_before
        assert (
            eval_formula(f, stutter_at(cex.trace, cex.stutter_index))
            == cex.value_after
        )
        assert cex.value_before != cex.value_after


def test_rise_needs_a_two_state_stem_at_default_bounds():
    # with a stem of length <= 1 the flip only shows up via the loop
    cex = falsify(parse("up a"))
    assert cex_to_doc(cex)["trace"] == {
        "atoms": ["a"], "stem": [[False], [True]], "loop": [[False]],
    }
    tight = falsify(parse("up a"), SearchBounds(max_stem=1))
    assert cex_to_doc(tight)["trace"] == {
        "atoms": ["a"], "stem": [[False]], "loop": [[True]],
    }


def test_stutter_invariant_formulas_survive():
    for text in ("G a", "F a", "a U b", "F(up a)", "G(up a -> X b)", "X true"):
        assert falsify(parse(text)) is None, text


def test_minimize_is_idempotent_and_never_grows():
    cex = falsify(parse("X a"), SearchBounds(max_stem=3, max_loop=2))
    small = minimize(cex)
    assert minimize(small) == small
    assert len(small.trace.stem) <= len(cex.trace.stem)
    assert len(small.trace.loop) <= len(cex.trace.loop)
    assert len(small.trace.stem) == 1 and len(small.trace.loop) == 1


def test_minimize_rejects_a_forged_counterexample():
    cex = falsify(parse("X a"))
    forged = dataclasses.replace(cex, value_before=True, value_after=True)
    with pytest.raises(ValueError):
        minimize(forged)


@pytest.mark.parametrize("index", [5, -1])
def test_minimize_rejects_a_stutter_index_outside_the_stem(index):
    doc = cex_to_doc(falsify(parse("X a")))
    doc["stutter_index"] = index
    with pytest.raises(ValueError, match="not a valid counterexample"):
        minimize(cex_from_doc(doc))


def _record_stem_layers(monkeypatch) -> list[int]:
    """Record the stem length of each stem layer the search builds."""
    built = []

    def recording(program, states, n_loops, vectors, s, live, **kwargs):
        built.append(s + 1)
        return _stem_layer(program, states, n_loops, vectors, s, live,
                           **kwargs)

    monkeypatch.setattr(falsifier, "_stem_layer", recording)
    return built


def _block_flips(program, loops, first, max_stem, max_unroll):
    """Every flip of a search block, by draining ``_flips`` with a fixed
    stem limit, as candidates in search order."""
    found = []
    for s, rows, k, i, before in _flips(program, loops, [max_stem],
                                        max_unroll):
        loop_idx, stem_idx = np.divmod(rows, 1 << loops.shape[2] * s)
        found += zip((first + loop_idx).tolist(), [s] * rows.size,
                     stem_idx.tolist(), k.tolist(), i.tolist(),
                     before.tolist())
    return sorted(found)


def _search_flips(program, num_atoms, bounds):
    """``(loop_len, every flip of the block)`` per block of the whole
    bounded search."""
    return [(loop_len, _block_flips(program, loops, first, bounds.max_stem,
                                    bounds.max_unroll))
            for loop_len, first, loops in _search_blocks(program, num_atoms,
                                                         bounds)]


def test_falsify_stops_at_a_first_flip_no_longer_stem_can_beat(monkeypatch):
    built = _record_stem_layers(monkeypatch)
    cex = falsify(parse("X a"))
    # The flip of stem 1 on the first loop settles the search; the
    # default bounds allow stems of 4.
    assert built == [1]
    assert (cex.trace.stem_len, cex.trace.loop_len) == (1, 1)


def _untrusted(cex):
    """An equal counterexample that minimize checks and searches as if
    it came from elsewhere: it lost falsify's mark in the round trip."""
    copy = cex_from_doc(cex_to_doc(cex))
    assert copy == cex and not hasattr(copy, "_searched")
    return copy


def _count_calls(monkeypatch, name):
    """Count the calls minimize makes to the falsifier's ``name``."""
    calls, orig = [], getattr(falsifier, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(falsifier, name, counting)
    return calls


def test_minimize_searches_only_stems_that_can_beat_its_input(monkeypatch):
    cex = falsify(parse("X a"))
    assert len(cex.trace.stem) == 1
    built = _record_stem_layers(monkeypatch)
    small = minimize(_untrusted(cex))
    # One block, of loop length 1, whose deepest stem layer is of length
    # 1; the default bounds allow 4.  Longer loops cannot beat a
    # one-state loop with an unrolled stem of 1.
    assert built == [1]
    assert (small.trace.stem_len, small.trace.loop_len,
            small.stutter_index) == (1, 1, 0)
    # falsify's own first flip at (1, 1, 0) can only be tied, and it wins
    # every tie: nothing is searched.
    built.clear()
    assert minimize(cex) is cex
    assert built == []


def test_minimize_searches_longer_loops_only_below_its_input(monkeypatch):
    cex = falsify(parse("up a"))
    assert (cex.trace.stem_len, cex.trace.loop_len,
            cex.stutter_index) == (2, 1, 0)
    searched = []

    def recording(program, loops, stem_limit, max_unroll):
        searched.append((loops.shape[1], stem_limit[0], max_unroll))
        return _flips(program, loops, stem_limit, max_unroll)

    monkeypatch.setattr(falsifier, "_flips", recording)
    small = minimize(_untrusted(cex))
    # The loop-1 block finds a stem of 1 with one loop state; a longer
    # loop would need an unrolled stem below 1, so none is searched.
    assert searched == [(1, 2, 2)]
    assert cex_to_doc(small)["trace"] == {
        "atoms": ["a"], "stem": [[False]], "loop": [[True]],
    }
    # falsify's own flip at position 0 wins a tie of size, so on its own
    # loop length only shorter unrolled stems are searched.
    searched.clear()
    assert minimize(cex) == small
    assert searched == [(1, 1, 1)]


def test_minimize_returns_its_input_when_nothing_ranks_before_it(
        monkeypatch):
    trusted = falsify(parse("X a"))
    cex = _untrusted(trusted)
    calls = _count_calls(monkeypatch, "eval_formula")
    searched = _count_calls(monkeypatch, "_flips")
    # The search finds the input itself first: only the entry check
    # evaluates it.
    assert minimize(cex) is cex
    assert len(calls) == 2
    # falsify re-checked its own counterexample before returning it, and
    # at (1, 1, 0) nothing can rank before it.
    calls.clear()
    searched.clear()
    assert minimize(trusted) is trusted
    assert (calls, searched) == ([], [])


def test_the_mark_of_falsify_is_no_field(monkeypatch):
    cex = falsify(parse("X a"))
    copy = _untrusted(cex)
    assert hash(copy) == hash(cex) and repr(copy) == repr(cex)
    assert dataclasses.asdict(copy) == dataclasses.asdict(cex)
    # A replaced counterexample carries no mark, so a forged one is
    # caught.
    forged = dataclasses.replace(cex, value_after=cex.value_before)
    assert not hasattr(forged, "_searched")
    with pytest.raises(ValueError, match="not a valid counterexample"):
        minimize(forged)
    # Under other bounds the input is no longer that search's first flip.
    evaluated = _count_calls(monkeypatch, "eval_formula")
    assert minimize(cex, SearchBounds(max_stem=3)) is cex
    assert len(evaluated) == 2


@pytest.mark.parametrize("bounds", [
    SearchBounds(), SearchBounds(max_stem=3, max_loop=2, max_unroll=2),
])
def test_trusted_and_checked_minimize_agree(bounds):
    # The trusted input is searched only for what strictly beats it, the
    # checked copy for what ties it too; both keep the same answer.
    rng = random.Random(53)
    refuted = searched = 0
    for _ in range(1000):
        f = gen_formula(rng, 4, ("p", "q"))
        cex = falsify(f, bounds)
        if cex is None:
            continue
        refuted += 1
        searched += (cex.trace.stem_len, cex.trace.loop_len,
                     cex.stutter_index) != (1, 1, 0)
        assert (cex_to_doc(minimize(cex, bounds))
                == cex_to_doc(minimize(_untrusted(cex), bounds))), render(f)
    assert refuted > 300 and searched > 100


def test_minimize_reuses_the_plan_of_falsify(monkeypatch):
    fold, folded = falsifier._fold, []

    def counting(f):
        folded.append(f)
        return fold(f)

    monkeypatch.setattr(falsifier, "_fold", counting)
    falsifier._plan.cache_clear()
    cex = falsify(parse("up a U X b"))
    assert cex is not None and len(folded) == 1
    minimize(cex)
    assert len(folded) == 1


def test_a_plan_walks_its_formula_once(monkeypatch):
    # The fold runs over the plan's own list of subformulas; the only
    # other walk is compile_formula's, of the fold (here "c").
    postorder, walked = formula.postorder, []

    def counting(root, *args):
        walked.append(root)
        return postorder(root, *args)

    monkeypatch.setattr(formula, "postorder", counting)
    f = parse("G(up a -> X (b | !b)) & c")
    falsifier._plan.cache_clear()
    assert falsifier._plan(f)[0] == ("a", "b", "c")
    assert walked.count(f) == 1


def test_the_first_flip_cut_is_exact():
    # falsify settles each block at a first flip on its first loop; its
    # answer is still the least flip of the first block that has any, in
    # the search that builds every stem layer.
    rng = random.Random(43)
    formulas = [gen_formula(rng, 4, ("p", "q")) for _ in range(300)]
    formulas += [gen_formula(rng, 4, ("p", "q", "r")) for _ in range(12)]
    refuted = 0
    for f in formulas:
        atom_names = atoms_of(f) or ("p",)
        program = compile_formula(f, atom_names)
        want = None
        for loop_len, found in _search_flips(program, len(atom_names),
                                             SearchBounds()):
            if found:
                want = _reconstruct(f, atom_names, loop_len, found[0])
                break
        assert falsify(f) == want, render(f)
        refuted += want is not None
    assert refuted > 50


def test_the_first_flip_cut_keeps_each_blocks_first_flip(monkeypatch):
    # Over two atoms each loop length of the test above is one block,
    # whose first loop is constant, and no stutter inside a constant loop
    # flips anything: the cut there only meets stem stutters.  Blocks
    # that start at every other two-state loop, at unroll depth 4, also
    # cut on loop stutters, in groups walked after the one that cut.
    seen = []

    def counting(*args):
        for layer in _flips(*args):
            seen.append(layer[1].size)
            yield layer

    rng = random.Random(47)
    loops = enumerate_states(2, 2)
    bounds = SearchBounds(max_stem=3, max_unroll=4)
    blocks = cut = 0
    for _ in range(200):
        program = compile_formula(gen_formula(rng, 4, ("p", "q")), ("p", "q"))
        for first in range(1, 16):
            block = loops[first:]
            full = _block_flips(program, block, first, 3, 4)
            if full:
                seen.clear()
                with monkeypatch.context() as m:
                    m.setattr(falsifier, "_flips", counting)
                    assert _first_flip(program, block, first, bounds) == full[0]
                blocks += 1
                cut += sum(seen) < len(full)
    assert blocks > 800 and cut > 700


def test_next_free_programs_are_not_searched(monkeypatch):
    def refuse(*args):
        raise AssertionError("_search_blocks called")

    monkeypatch.setattr(falsifier, "_search_blocks", refuse)
    for text in ("G a", "a U (b & F !c)", "true", "!(p <-> G F q)",
                 # Every X and edge node folds away.
                 "X true", "X(q | !q)", "edge(p | (q -> q))",
                 "!((p -> p) | edge q)", "p U X(q | !q)"):
        assert falsify(parse(text)) is None, text
    # The bounds are still checked first.
    with pytest.raises(ValueError, match=r"max_stem=12\).*budget"):
        falsify(parse("a & b & c"), SearchBounds(max_stem=12))
    with pytest.raises(ValueError, match=r"max_unroll=100000\).*budget"):
        falsify(parse("G a"), SearchBounds(max_stem=0, max_unroll=100000))
    with pytest.raises(ValueError, match="over the search cap"):
        falsify(parse("a & b & c & d"))
    # A formula that folds away is checked as written: its 4 atoms, and
    # its 65 nodes (the folded program is the one node true).
    with pytest.raises(ValueError, match="over the search cap"):
        falsify(parse("X(a | !a) & (b | !b) & (c -> c) & (d <-> d)"))
    chain = " & ".join(("a", "b", "c") * 20)
    with pytest.raises(ValueError, match=r"max_stem=6\).*x 9 positions x 65 "):
        falsify(parse(f"X(({chain}) -> true)"), SearchBounds(max_stem=6))


def _assert_same_labels(f, g):
    """``f`` and ``g`` agree at position 0 of every lasso of stem and
    loop up to 2 over p and q, labeled as eval_oracle does, a block of
    lassos of one shape per call."""
    for stems, loops in LASSO_BLOCKS:
        assert (label_block(f, ("p", "q"), stems, loops)
                == label_block(g, ("p", "q"), stems, loops)).all(), \
            (render(f), render(g))


def test_the_fold_is_exact():
    # The fold keeps the value at position 0 of every short lasso, and
    # the search over the folded program finds the same candidates as
    # over the formula.
    rng = random.Random(41)
    folded = searched = 0
    for _ in range(2000):
        f = gen_formula(rng, 4, ("p", "q"))
        g = falsifier._fold(subformulas(f))
        if g is f:
            continue
        folded += 1
        _assert_same_labels(f, g)
        if searched < 300:
            searched += 1
            atom_names = atoms_of(f) or ("p",)
            want, got = (_search_flips(compile_formula(h, atom_names),
                                       len(atom_names), SearchBounds())
                         for h in (f, g))
            assert got == want, (render(f), render(g))
    assert folded > 600 and searched == 300


def test_the_fold_of_a_connective_over_one_formula_is_complete():
    # A connective whose operands name one formula x besides constants,
    # each plain or as !x, is a function of x alone: its fold is a
    # constant, x or !x.  The fold is exact over every operand pair.
    true, false = ConstTrue(), ConstFalse()
    operands = [parse(t) for t in ("true", "false", "p", "!p", "X q", "!X q")]
    nodes = [Not(a) for a in operands]
    nodes += [kind(a, b) for kind in (And, Or, Implies, Iff)
              for a in operands for b in operands]
    complete = 0
    for f in nodes:
        g = falsifier._fold(subformulas(f))
        _assert_same_labels(f, g)
        named = {a.child if type(a) is Not else a
                 for a in children_of(f)} - {true, false}
        if len(named) <= 1:
            assert g in {true, false, *named, *map(Not, named)}, render(f)
            complete += 1
    assert (len(nodes), complete) == (150, 118)


def test_next_free_programs_have_no_candidates():
    # The evidence behind falsify's next-free rule: the full search finds
    # no flip in any of them.
    rng = random.Random(31)
    for atoms in (("p", "q"), ("p", "q", "r")):
        for _ in range(100):
            f = gen_formula(rng, 4, atoms, next_free=True)
            atom_names = atoms_of(f) or ("p",)
            program = compile_formula(f, atom_names)
            blocks = _search_flips(program, len(atom_names), SearchBounds())
            assert not any(found for _, found in blocks), render(f)


@pytest.mark.parametrize("value", [1.5, "3", None, True])
@pytest.mark.parametrize("name", ["max_stem", "max_loop", "max_unroll",
                                  "atom_cap"])
def test_bounds_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"SearchBounds {name} must be an "
                                         f"integer, not {value!r}"):
        SearchBounds(**{name: value})


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_loop=0)
    with pytest.raises(ValueError):
        SearchBounds(max_stem=-1)
    with pytest.raises(ValueError):
        SearchBounds(atom_cap=0)


def test_atom_cap_is_enforced_but_adjustable():
    f = parse("a & b & c & X d")
    with pytest.raises(ValueError):
        falsify(f)
    cex = falsify(f, SearchBounds(max_stem=2, max_loop=1, atom_cap=4))
    assert cex is not None


def test_the_atom_cap_is_checked_before_the_budget():
    # Stems of 12 states over 4 atoms are over the budget too; the cap
    # is named first, by every search.
    f = parse("a & b & c & X d")
    cex = falsify(f, SearchBounds(max_stem=2, max_loop=1, atom_cap=4))
    too_long = SearchBounds(max_stem=12)
    capped = "formula has 4 atoms, over the search cap of 3"
    with pytest.raises(ValueError, match=capped):
        falsify(f, too_long)
    with pytest.raises(ValueError, match=capped):
        minimize(cex, too_long)
    nodes = len(compile_formula(f, atoms_of(f)))
    with pytest.raises(ValueError, match=capped):
        _loop_chunk(nodes, 4, too_long)
    with pytest.raises(ValueError, match=r"max_stem=12\).*budget"):
        _loop_chunk(nodes, 4, dataclasses.replace(too_long, atom_cap=4))


def test_search_size_is_checked_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_states called")

    cex = falsify(parse("X a"))
    monkeypatch.setattr("ltledge.falsifier.enumerate_states", refuse)
    too_long = SearchBounds(max_stem=12)
    with pytest.raises(ValueError, match=r"max_stem=12\).*budget of 2\*\*27"):
        falsify(parse("a & b & c"), too_long)
    with pytest.raises(ValueError, match="max_loop=9"):
        falsify(parse("a & b & c"), SearchBounds(max_loop=9))
    with pytest.raises(ValueError, match="max_stem=30"):
        minimize(cex, SearchBounds(max_stem=30))
    with pytest.raises(ValueError, match=r"max_unroll=100000\).*budget"):
        falsify(parse("a & b & c"), SearchBounds(max_unroll=100000))
    # A block holds every program node at each position of each lasso.
    # A 900-operand conjunction (902 nodes) gets 5 loops per block instead
    # of 32, 25.8 MB each where 32 loops would take 165 MB; a program for
    # which the block of one loop cannot fit is refused.
    atoms = ("a", "b", "c")
    program = compile_formula(parse(" & ".join(atoms * 300)), atoms)
    chunk = _loop_chunk(len(program), len(atoms), SearchBounds())
    block = 7 * len(program) << 12
    assert (len(program), chunk) == (902, 5)
    assert chunk * block <= 1 << 27 < 32 * block
    with pytest.raises(ValueError, match=r"max_stem=6\).*x 9 positions x 62 "):
        falsify(parse(" & ".join(atoms * 20)), SearchBounds(max_stem=6))
    monkeypatch.undo()
    # The unroll depth allocates nothing: these blocks are the defaults'.
    deep = SearchBounds(max_unroll=50)
    program = compile_formula(parse("a & b & c"), atoms)
    assert _loop_chunk(len(program), len(atoms), deep) == 32
    sizes = [loops.shape[0]
             for _, _, loops in _search_blocks(program, len(atoms), deep)]
    assert len(sizes) == 19
    assert sizes == [8] + [32] * 18  # 2**3 loops of one state
    assert falsify(parse("a & b & c"), deep) is None


def test_counterexample_document_round_trip():
    cex = falsify(parse("X a U b"))
    assert cex_from_doc(cex_to_doc(cex)) == cex
    doc = cex_to_doc(cex)
    doc.update(value_before=int(cex.value_before),
               value_after=int(cex.value_after))
    assert cex_from_doc(doc) == cex


@pytest.mark.parametrize("field,value", [
    ("formula", 5),
    ("formula", ["X a"]),
    ("value_before", "false"),
    ("value_after", "true"),
    ("value_before", 2),
    ("value_after", None),
    ("value_before", 0.0),
    ("stutter_index", "0"),
    ("stutter_index", 0.5),
    ("stutter_index", True),
    ("stutter_index", None),
])
def test_counterexample_document_field_types_are_checked(field, value):
    doc = cex_to_doc(falsify(parse("X a")))
    doc[field] = value
    with pytest.raises(ValueError,
                       match=f"^malformed counterexample document: {field} "
                             "must be "):
        cex_from_doc(doc)


@pytest.mark.parametrize("field", ["stutter_index", "value_before",
                                   "value_after", "formula"])
def test_counterexample_document_messages_are_bounded(field):
    doc = cex_to_doc(falsify(parse("X a")))
    doc[field] = [0] * 200_000
    with pytest.raises(ValueError, match=f"^malformed .*: {field} ") as info:
        cex_from_doc(doc)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("doc, kind", [
    ([], "list"), (None, "NoneType"), ("X a", "str"),
])
def test_a_counterexample_document_must_be_an_object(doc, kind):
    with pytest.raises(ValueError, match="^counterexample document must be "
                                         f"a JSON object, not {kind}$"):
        cex_from_doc(doc)


def test_counterexample_document_missing_field():
    doc = cex_to_doc(falsify(parse("X a")))
    del doc["value_after"]
    with pytest.raises(ValueError, match="malformed counterexample document"):
        cex_from_doc(doc)


def test_unrolled_stutter_positions_are_reachable():
    # this formula is only refuted by repeating a state inside a loop copy
    f = parse("X a")
    narrow = SearchBounds(max_stem=0, max_loop=2, max_unroll=2)
    cex = falsify(f, narrow)
    assert cex is not None
    assert len(cex.trace.stem) >= 1  # the witness trace arrives pre-unrolled
    assert eval_formula(f, cex.trace) == cex.value_before


def test_random_counterexamples_are_genuine():
    rng = random.Random(41)
    bounds = SearchBounds(max_stem=2, max_loop=2, max_unroll=1)
    found = 0
    for _ in range(80):
        f = gen_formula(rng, 3)
        cex = falsify(f, bounds)
        if cex is None:
            continue
        found += 1
        assert eval_formula(f, cex.trace) == cex.value_before
        stuttered = stutter_at(cex.trace, cex.stutter_index)
        assert eval_formula(f, stuttered) == cex.value_after
    assert found > 5


def _explicit_unit(f, atom_names, bounds, loop_len, chunk_start, chunk_size):
    """Every flip of a search block by explicit relabeling: every
    unrolled, stuttered copy of every lasso is built and labeled from
    scratch.  Candidates in search order."""
    loops = enumerate_states(len(atom_names), loop_len)
    loops = loops[chunk_start : chunk_start + chunk_size]
    found = []
    for stem_len in range(bounds.max_stem + 1):
        stems = enumerate_states(len(atom_names), stem_len)
        n_stems = stems.shape[0]
        row_stems = np.tile(stems, (loops.shape[0], 1, 1))
        row_loops = np.repeat(loops, n_stems, axis=0)
        base = label_block(f, atom_names, row_stems, row_loops)
        for k in range(bounds.max_unroll + 1):
            unrolled = np.concatenate([row_stems] + [row_loops] * k, axis=1)
            new = (range(stem_len) if k == 0 else
                   range(stem_len + (k - 1) * loop_len, stem_len + k * loop_len))
            for i in new:
                stuttered = np.insert(unrolled, i + 1, unrolled[:, i, :],
                                      axis=1)
                vals = label_block(f, atom_names, stuttered, row_loops)
                for r in np.flatnonzero(base != vals).tolist():
                    found.append((chunk_start + r // n_stems, stem_len,
                                  r % n_stems, k, i, bool(base[r])))
    return sorted(found)


def _relabel_hits(monkeypatch, texts, bounds):
    """Check every block of the search of each formula in ``texts``
    against :func:`_explicit_unit`; the number of blocks with a flip and
    the most groups of live stutters any block walked."""
    groups = []

    def counting(*args):
        groups.append(0)
        for live in _loop_stutters(*args):
            groups[-1] += 1
            yield live

    monkeypatch.setattr(falsifier, "_loop_stutters", counting)
    hits = 0
    for text in texts:
        f = parse(text)
        atom_names = atoms_of(f) or ("p",)
        program = compile_formula(f, atom_names)
        chunk = _loop_chunk(len(program), len(atom_names), bounds)
        starts = [(loop_len, start)
                  for loop_len in range(1, bounds.max_loop + 1)
                  for start in range(0, 1 << len(atom_names) * loop_len,
                                     chunk)]
        blocks = _search_flips(program, len(atom_names), bounds)
        for (loop_len, found), (want_len, start) in zip(blocks, starts,
                                                        strict=True):
            want = _explicit_unit(f, atom_names, bounds, loop_len, start,
                                  chunk)
            assert (loop_len, found) == (want_len, want), (text, start)
            hits += bool(want)
    return hits, max(groups)


def test_search_units_match_explicit_relabeling(monkeypatch):
    rng = random.Random(23)
    bounds = SearchBounds(max_stem=2, max_loop=2, max_unroll=2)
    texts = ["X a", "up a U b", "G(up a -> X b | c)", "F(!a & X a & X b)"]
    texts += [render(gen_formula(rng, 4, ("p", "q"))) for _ in range(40)]
    hits, _ = _relabel_hits(monkeypatch, texts, bounds)
    assert hits > 20


# Unrolled four times, the live stutters of a two-state loop outgrow a
# group and split: the entries so far walk down to position 0 on their
# own, and the later groups move through the stem layers on their own.
# Of these formulas, only the last one's flips change if that walk skips
# its final step.
SPLIT_BOUNDS = SearchBounds(max_stem=2, max_loop=2, max_unroll=4)
SPLIT_TEXTS = [
    "G !down edge(p | q)", "F down edge p",
    "G(X down q | ((false <-> p) & down p | q))",
    "edge(G edge(p & q) & q)",
    "G(edge down p <-> up p | (q | p)) U edge((up false <-> q) <-> down p)",
]


def test_split_stutter_groups_match_explicit_relabeling(monkeypatch):
    hits, groups = _relabel_hits(monkeypatch, SPLIT_TEXTS, SPLIT_BOUNDS)
    assert hits == 6 and groups > 1


def _slice_last_layers(monkeypatch) -> list[bool]:
    """Lower the size from which a last stem layer is searched one
    prepended state at a time to 2**4 rows, so that every 2-atom last
    layer of two stems or more is, and record ``fresh`` for each
    one-state part built: False where a later group rebuilds it."""
    parts = []

    def recording(program, states, *args, **kwargs):
        if states.shape[1] == 1:
            parts.append(kwargs.get("fresh", True))
        return _stem_layer(program, states, *args, **kwargs)

    monkeypatch.setattr(falsifier, "_CHUNK_TARGET_ROWS", 1 << 4)
    monkeypatch.setattr(falsifier, "_stem_layer", recording)
    return parts


def test_a_sliced_last_layer_keeps_every_flip(monkeypatch):
    # At this size the search blocks hold one loop each, so the flips of
    # the whole search are compared, not those of each block.
    rng = random.Random(31)
    bounds = SearchBounds(max_stem=3, max_loop=2, max_unroll=2)
    formulas = [gen_formula(rng, 4, ("p", "q")) for _ in range(200)]

    def search(f):
        atom_names = atoms_of(f) or ("p",)
        program = compile_formula(f, atom_names)
        flips = sorted((loop_len, *c) for loop_len, found
                       in _search_flips(program, len(atom_names), bounds)
                       for c in found)
        cex = falsify(f, bounds)
        return flips, cex, cex and minimize(cex, bounds)

    whole = [search(f) for f in formulas]
    parts = _slice_last_layers(monkeypatch)
    assert [search(f) for f in formulas] == whole
    assert True in parts and False in parts
    assert sum(bool(flips) for flips, _, _ in whole) > 50


def test_sliced_last_layers_of_split_groups_match_explicit_relabeling(
        monkeypatch):
    parts = _slice_last_layers(monkeypatch)
    hits, groups = _relabel_hits(monkeypatch, SPLIT_TEXTS, SPLIT_BOUNDS)
    assert hits == 41 and groups > 1
    assert True in parts and False in parts


@pytest.mark.parametrize("stems", [3, 0])
def test_minimize_agrees_with_the_search_of_the_whole_bounds(stems):
    # Inputs: every flipping stutter of every lasso of stem <= 2,
    # loop <= 2, unrolled up to twice.  Expected: the smallest candidate
    # of the whole bounded search if it is no larger than the input,
    # else the input; an input of the same size loses, as the later one
    # in visit order.
    rng = random.Random(29)
    bounds = SearchBounds(max_stem=stems, max_loop=2, max_unroll=2)
    texts = ["X a", "up a", "X X a", "X a U b", "edge a & X b"]
    texts += [render(gen_formula(rng, 4, ("p", "q"))) for _ in range(6)]
    inputs = ties = 0
    for text in texts:
        f = parse(text)
        atom_names = atoms_of(f) or ("p",)
        ranked = []
        program = compile_formula(f, atom_names)
        for loop_len, found in _search_flips(program, len(atom_names),
                                             bounds):
            for c in found:
                _, stem_len, _, k, i, _ = c
                key = (stem_len + k * loop_len, loop_len, i)
                ranked.append(((key, (loop_len, *c[:5])), loop_len, c))
        if not ranked:
            continue
        (key, _), loop_len, c = min(ranked)
        want = _reconstruct(f, atom_names, loop_len, c)
        for t in all_lassos(atom_names, 2, 2):
            for k in range(bounds.max_unroll + 1):
                trace = unroll(t, k)
                before = eval_formula(f, trace)
                for i in range(trace.stem_len):
                    after = eval_formula(f, stutter_at(trace, i))
                    if before == after:
                        continue
                    cex = Counterexample(f, trace, i, before, after)
                    own = (trace.stem_len, trace.loop_len, i)
                    expected = cex if own < key else want
                    assert minimize(cex, bounds) == expected, (text, cex)
                    inputs += 1
                    ties += own == key and cex != want
    assert inputs > 500 and ties > 5


LASSOS = list(all_lassos(("p", "q"), 2, 2))


def _lasso_blocks() -> list[tuple[np.ndarray, np.ndarray]]:
    """LASSOS as label_block reads them: one (stems, loops) block per
    shape."""
    shapes = {}
    for t in LASSOS:
        shapes.setdefault((t.stem_len, t.loop_len), []).append(t)
    return [tuple(np.array([getattr(t, part) for t in ts], dtype=bool)
                  .reshape(len(ts), -1, 2) for part in ("stem", "loop"))
            for ts in shapes.values()]


LASSO_BLOCKS = _lasso_blocks()


@settings(max_examples=300, deadline=None)
@given(formula_strategy(), st.sampled_from(LASSOS), st.integers(0, 2),
       st.data())
def test_one_step_sweep_agrees_with_explicit_relabeling(f, t, k, data):
    unrolled = unroll(t, k)
    assume(unrolled.stem_len > 0)
    i = data.draw(st.integers(0, unrolled.stem_len - 1), label="i")
    # The search meets the stutter at i in the first unrolled copy that
    # holds it, and the lasso as the row of its stem among all stems of
    # that length (the first state's first atom most significant).
    depth = 0 if i < t.stem_len else (i - t.stem_len) // t.loop_len + 1
    row = int("0" + "".join(str(int(v)) for state in t.stem for v in state), 2)
    program = compile_formula(f, t.atoms)
    loop = np.array(t.loop, dtype=bool).reshape(1, -1, 2)
    flipped = any(
        s == t.stem_len and (row, depth, i) in zip(rows.tolist(), ks.tolist(),
                                                   positions.tolist())
        for s, rows, ks, positions, _ in _flips(program, loop, [t.stem_len],
                                                depth))
    before, after = (
        label_block(f, t.atoms,
                    np.array(trace.stem, dtype=bool).reshape(1, -1, 2),
                    np.array(trace.loop, dtype=bool).reshape(1, -1, 2))[0]
        for trace in (t, stutter_at(unrolled, i)))
    assert flipped == (before != after)


@pytest.mark.parametrize("name", ["max_stem", "max_loop"])
def test_huge_bounds_are_refused_without_building_their_size(name):
    # 2**(3 * 10**7) stems or loops would be a 3.75 MB integer before the
    # comparison with the budget; the exponent alone refuses them.
    f = parse("a & b & X c")
    with pytest.raises(ValueError, match="max_stem=9"):
        falsify(f, SearchBounds(max_stem=9))  # plans f
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"{name}=10000000\) needs all "
                           r"2\*\*30000000 .*budget of 2\*\*27 bytes"):
            falsify(f, SearchBounds(**{name: 10**7}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_live_stutters_stay_within_a_block():
    # A tautology whose inner G keeps diverging down to position 0, so
    # that many stutters stay live through every layer.  falsify folds it
    # to true and searches nothing, so its program is searched directly.
    # The bound is one block's labels held whole, (positions x nodes x
    # lassos) = 7 x 9 x 2**17 bytes, at any unroll depth.
    f = parse("G(a -> X (b & c)) | !G(a -> X (b & c))")
    program = compile_formula(f, ("a", "b", "c"))
    bounds = SearchBounds(max_unroll=50)
    tracemalloc.start()
    try:
        blocks = _search_flips(program, 3, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks and not any(found for _, found in blocks)
    assert len(program) == 9
    assert peak <= 7 * 9 * 2**17


@pytest.mark.parametrize("text", [
    "G(up !p -> X q | r)",
    "F(up !p & X !r & !q)",
    "F(!p & X p & X(r & q))",
    "(!up p | X r | !q) U (up !q & X r & q)",
])
def test_a_full_search_copies_nothing_per_row(text):
    # Four closed 3-atom schema shapes, searched whole at the default
    # bounds.  Each stem layer and each move of the live stutters is one
    # broadcast step, and the last layer of a full block is searched one
    # prepended state at a time.  Copying the letters, tails and live
    # vectors per row peaked at 6.2, 7.1, 7.1 and 9.0 MiB, and holding the
    # whole last layer at 4.2, 4.8, 4.8 and 5.9 MiB.
    f = parse(text)
    assert falsifier._plan(f)[2] is not None  # searched, not folded away
    falsify(f, SearchBounds(max_stem=0, max_loop=1))  # plans f
    tracemalloc.start()
    try:
        assert falsify(f) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


GOLDEN_SEED = 17
GOLDEN_DRAWS = 300
GOLDEN_HAND_WRITTEN = (
    ("X a", None),
    ("up a", None),
    ("up a", {"max_stem": 1}),
    ("X a", {"max_stem": 0, "max_loop": 2, "max_unroll": 2}),
    ("X a U b", {"max_stem": 3, "max_loop": 2}),
    # The four search-3atom schema shapes (all closed), then more
    # 3-atom formulas.
    ("G(up p -> X q | r)", None),
    ("F(up p & X q & !r)", None),
    ("F(!p & X p & X (q | !r))", None),
    ("(!up p | X q | r) U (up q & X !r & p)", None),
    ("G(up p -> X q & r)", None),
    ("(up p -> X q) U r", None),
    ("F(X p & !q) | G r", None),
    ("edge p & X (q U r)", {"max_stem": 2, "max_loop": 2, "max_unroll": 1}),
)


def _golden_corpus() -> list[tuple[str, dict | None]]:
    """The seeded draws (distinct renderings, in draw order), then the
    hand-written cases."""
    rng = random.Random(GOLDEN_SEED)
    texts: list[str] = []
    while len(texts) < GOLDEN_DRAWS:
        text = render(gen_formula(rng, 4, ("p", "q")))
        if text not in texts:
            texts.append(text)
    return [(text, None) for text in texts] + list(GOLDEN_HAND_WRITTEN)


def _golden_case(text: str, bounds: dict | None) -> dict:
    search = SearchBounds(**(bounds or {}))
    cex = falsify(parse(text), search)
    return {
        "formula": text,
        "bounds": bounds,
        "falsify": None if cex is None else cex_to_doc(cex),
        "minimize": None if cex is None else cex_to_doc(minimize(cex, search)),
    }


def test_falsify_and_minimize_reproduce_the_golden_corpus():
    # Counterexamples recorded from the search that relabeled every
    # stuttered copy from scratch; see the description fields.
    doc = json.loads(GOLDEN.read_text())
    corpus = _golden_corpus()
    assert [(c["formula"], c["bounds"]) for c in doc["cases"]] == corpus
    for case in doc["cases"]:
        assert _golden_case(case["formula"], case["bounds"]) == case


if __name__ == "__main__":
    # python tests/test_falsifier.py rewrites the golden file from the
    # current search.  The committed file was recorded with the search
    # that "recorded_with" names, before the one-step stutter check.
    cases = [_golden_case(text, bounds) for text, bounds in _golden_corpus()]
    GOLDEN.write_text(json.dumps({
        "recorded_with": "falsifier that relabeled every unrolled, "
                         "stuttered copy of each lasso from scratch "
                         "(np.insert + label_block per stutter position)",
        "seed": GOLDEN_SEED,
        "formulas_from": f"render(conftest.gen_formula(random.Random(seed), "
                         f"4, ('p', 'q'))), the first {GOLDEN_DRAWS} "
                         f"distinct renderings in draw order; then the "
                         f"hand-written cases of GOLDEN_HAND_WRITTEN",
        "case": "'bounds' are SearchBounds keyword arguments (null: the "
                "defaults); 'falsify' is cex_to_doc of falsify(formula, "
                "bounds) or null; 'minimize' is cex_to_doc of "
                "minimize(that counterexample, bounds) or null",
        "cases": cases,
    }, indent=1) + "\n")
