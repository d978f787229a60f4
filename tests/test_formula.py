"""AST helpers: traversal, rebuilding, edge sugar and logic rewrites."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from conftest import formula_strategy, gen_formula
from ltledge import formula
from ltledge import (
    Closed,
    LassoTrace,
    analyze,
    check_proof,
    eval_formula,
    eval_oracle,
    instantiate,
    normalize,
    render_proof,
)
from ltledge.formula import (
    Always,
    And,
    AnyEdge,
    Atom,
    ConstFalse,
    ConstTrue,
    Eventually,
    FallEdge,
    Formula,
    Next,
    Not,
    Or,
    RiseEdge,
    Until,
    atoms_of,
    build_and,
    build_or,
    children_of,
    desugar_edges,
    normalize_edge_negations,
    rebuild,
    rewrite_logic,
    spine,
    subformulas,
    transform_bottom_up,
)
from ltledge.syntax import parse, render


def test_nodes_are_hashable_and_comparable():
    assert Atom("p") == Atom("p")
    assert Atom("p") != Atom("q")
    assert len({ConstTrue(), ConstTrue(), ConstFalse()}) == 2
    assert And(Atom("p"), Atom("q")) != And(Atom("q"), Atom("p"))


def test_equal_nodes_are_one_node():
    assert parse("a & b") is And(Atom("a"), Atom("b"))
    assert Atom(name="a") is Atom("a")
    assert And(right=Atom("b"), left=Atom("a")) is parse("a & b")
    with pytest.raises(TypeError):
        Not(Atom("a"), Atom("b"))
    with pytest.raises(TypeError):
        Atom(label="a")


def test_pickled_and_copied_nodes_are_interned():
    f = parse("G(up a -> X b | c U !d)")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f


def _interned() -> int:
    return sum(len(kind._table) for kind in Formula.__subclasses__())


def test_dropped_formulas_leave_the_table():
    gc.collect()
    before = _interned()
    f = parse(" & ".join(f"dropped{i}" for i in range(40)))
    assert _interned() == before + 79
    del f
    gc.collect()
    assert _interned() == before


def test_threads_intern_one_node_per_formula():
    texts = [f"G(x{i} -> F y{i}) & !x{i}" for i in range(300)]
    got: list[list] = []

    def build():
        got.append([parse(t) for t in texts])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6
    for nodes in zip(*got):
        assert all(g is nodes[0] for g in nodes)


def test_children_and_rebuild_round_trip():
    f = parse("up p & !(q U r)")
    kids = children_of(f)
    assert kids == (RiseEdge(Atom("p")), Not(Until(Atom("q"), Atom("r"))))
    assert rebuild(f, kids) == f
    assert rebuild(f, (Atom("z"), parse("t U w"))) == parse("z & (t U w)")
    assert children_of(Atom("p")) == ()


def test_subformulas_is_postorder_and_deduplicated():
    f = parse("up p & !(q U r)")
    assert [render(g) for g in subformulas(f)] == [
        "p", "up p", "q", "r", "q U r", "!(q U r)", "up p & !(q U r)",
    ]
    twice = parse("p & p")
    assert [render(g) for g in subformulas(twice)] == ["p", "p & p"]


def test_atoms_of_keeps_first_occurrence_order():
    assert atoms_of(parse("q & up p | r U q")) == ("q", "p", "r")
    assert atoms_of(ConstTrue()) == ()


def test_transform_bottom_up_substitutes_atoms():
    swap = lambda g: Atom("w") if g == Atom("p") else g
    assert transform_bottom_up(parse("p & X p"), swap) == parse("w & X w")


def test_desugar_edges_expands_all_three_operators():
    got = desugar_edges(parse("up p | down p | edge p"))
    assert got == parse("(!p & X p) | (p & X !p) | ((!p & X p) | (p & X !p))")


def test_normalize_expands_any_edges_and_leaves_rise_and_fall_alone():
    got = normalize(parse("edge p & up q"))
    assert got == parse("(up p | down p) & up q")
    assert normalize(parse("up q")) == RiseEdge(Atom("q"))


def test_normalize_resugars_both_edge_definitions():
    assert normalize(parse("!p & X p")) == RiseEdge(Atom("p"))
    assert normalize(parse("p & X !p")) == FallEdge(Atom("p"))
    assert normalize(parse("!p & X q")) == parse("!p & X q")


def test_normalize_edge_negations_applies_dualities():
    got = normalize_edge_negations(parse("up !p & down !q & edge !r"))
    assert got == parse("down p & up q & edge r")


def test_flatten_and_build_round_trip():
    f = parse("p & (q & r) & s")
    assert [render(g) for g in spine(f, And)] == ["p", "q", "r", "s"]
    assert [render(g) for g in spine(parse("p | q | r"), Or)] == ["p", "q", "r"]
    assert build_and([Atom("p"), Atom("q"), Atom("r")]) == parse("p & q & r")
    assert build_and([]) == ConstTrue()
    assert build_or([]) == ConstFalse()
    assert build_or([Atom("p")]) == Atom("p")


def test_rewrite_logic_collapses_double_negation():
    assert rewrite_logic(parse("!!p")) == Atom("p")
    assert rewrite_logic(parse("p -> q")) == parse("p -> q")


def test_rewrite_logic_distributes_temporal_over_junctions():
    assert rewrite_logic(parse("G(p & q)")) == parse("G p & G q")
    assert rewrite_logic(parse("F(p | q)")) == parse("F p | F q")


def test_rewrite_logic_reaches_its_fixpoint_in_one_pass():
    # each distribution step re-normalizes the nodes it builds, so a wide
    # conjunction under G needs no pass per operand; the result is one
    # left-nested chain, as parse builds it, like every conjunction of
    # the normal form
    names = [f"a{i}" for i in range(300)]
    f = parse("G(" + " & ".join(names) + ")")
    assert rewrite_logic(f) == build_and([Always(Atom(n)) for n in names])


def _formula_lines_run(call) -> int:
    """Lines of ``ltledge/formula.py`` that ``call()`` executes."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename == formula.__file__ else None

    sys.settrace(scope)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_edge_pairs_fold_without_a_rescan_per_fold():
    # Each fold of a conjunct pair reads only the pairs it changes, so
    # twice the pairs take about twice the lines; a scan of every
    # conjunct per fold takes four times as many.
    def pairs(n: int) -> Formula:
        atoms = [Atom(f"a{i}") for i in range(n)]
        return build_and([g for a in atoms for g in (Not(a), Next(a))])

    lines = []
    for n in (150, 300):
        f, want = pairs(n), build_and([RiseEdge(Atom(f"a{i}"))
                                       for i in range(n)])
        lines.append(_formula_lines_run(lambda: rewrite_logic(f)))
        assert rewrite_logic(f) == want
    assert lines[1] < 2.5 * lines[0], lines


@pytest.mark.parametrize("text, expected", [
    ("G(!p -> !X p)", "!F up p"),
    ("G(!p & q -> !X p)", "!F(up p & q)"),
    ("G(!edge p)", "G !up p & G !down p"),
    ("F(edge p)", "F up p | F down p"),
    ("!G(!p -> !X p) & X G(!p -> !X p)", "down F up p"),
    ("G(!edge !p & (q | false) U (q -> p))",
     "G !up p & G !down p & G((q | false) U (q -> p))"),
    ("G((a & b) & c)", "G a & G b & G c"),
    ("up !!p & X !!q", "up p & X q"),
    ("F !(!p & X p & q)", "F !up p | F !q"),
    ("G(x -> !(!p & X p))", "!F(x & up p)"),
    # a fold's edge pairs again, with its first occurrence
    ("!a & X a & up a & X !(up a)", "down up a & up a"),
    ("X !(up a) & up a & !a & X a", "down up a & up a"),
])
def test_normalize_reaches_forms_that_chain_several_rewrites(text, expected):
    # each needs a rewrite that exposes another: a fold under a
    # distribution, an expansion before one, a double negation before a fold
    assert render(normalize(parse(text))) == expected


@pytest.mark.parametrize("n", [150, 1000])
@pytest.mark.parametrize("op", ["&", "|"])
@pytest.mark.parametrize("wrap", ["{}", "G({})", "F({})", "X({})",
                                  "G(a -> {})"])
def test_normal_forms_of_wide_chains_read_back(n, op, wrap):
    # the normal form nests its chains as parse does, so its text is
    # flat and reads back at any width
    g = normalize(parse(wrap.format(f" {op} ".join(
        f"a{i}" for i in range(n)))))
    assert parse(render(g)) is g


def test_normal_form_chains_are_the_parsed_chains():
    assert normalize(parse("G(p & q & r)")) is parse("G p & G q & G r")


@settings(max_examples=200)
@given(formula_strategy())
def test_rebuild_identity(f):
    assert rebuild(f, children_of(f)) == f


@settings(max_examples=200)
@given(formula_strategy())
def test_subformulas_closed_under_children(f):
    subs = subformulas(f)
    assert subs[-1] == f
    seen = set(subs)
    for g in subs:
        for child in children_of(g):
            assert child in seen


def test_desugar_removes_every_edge_node():
    rng = random.Random(7)
    for _ in range(200):
        f = gen_formula(rng, 4)
        plain = desugar_edges(f)
        kinds = {type(g) for g in subformulas(plain)}
        assert not kinds & {RiseEdge, FallEdge, AnyEdge}


def _chain(symbol: str, nested: str) -> Formula:
    names = [("a", "b", "c")[i % 3] for i in range(5000)]
    if nested == "left":
        return parse(f" {symbol} ".join(names))
    build = build_and if symbol == "&" else build_or
    return build([Atom(n) for n in names])


LONG_CHAINS = {
    "and-left": lambda: _chain("&", "left"),
    "or-left": lambda: _chain("|", "left"),
    "and-right": lambda: _chain("&", "right"),
    "or-right": lambda: _chain("|", "right"),
    "always-and": lambda: Always(_chain("&", "left")),
}


@pytest.mark.parametrize("make", LONG_CHAINS.values(), ids=LONG_CHAINS)
def test_long_chains_work_everywhere(make):
    # & and | chains are exempt from the nesting limit, so every walk
    # must handle one far deeper than the interpreter's recursion limit
    f, g = make(), make()
    assert f == g and hash(f) == hash(g)
    assert len(subformulas(f)) > 5000
    assert atoms_of(f) == ("a", "b", "c")
    assert desugar_edges(f) is f
    assert normalize(normalize(f)) is normalize(f)
    verdict = analyze(f)
    assert isinstance(verdict, Closed)
    assert check_proof(verdict.proof)
    trace = LassoTrace(("a", "b", "c"), ((True, True, True),),
                       ((True, False, True),))
    assert eval_formula(f, trace) == eval_oracle(f, trace)
    body, warnings = instantiate("existence/A/0", {"P": f})
    assert body == Eventually(f) and warnings == ()


@pytest.mark.parametrize("symbol", ["&", "|"])
def test_text_proofs_of_long_chains(symbol):
    # the text proof of an n-operand chain has n lines of up to n
    # operands, so 1200 operands (past the recursion limit of 1000)
    # keep it to a few megabytes
    text = f" {symbol} ".join(["a"] * 1200)
    lines = render_proof(analyze(parse(text)).proof).splitlines()
    assert len(lines) >= 2 * 1200 - 1  # a line per operand and operator
    assert lines[-1].split("] ", 1)[1].startswith(text + "  <==  ")
