"""AST helpers: traversal, rebuilding, edge sugar and logic rewrites."""

from __future__ import annotations

import random

from hypothesis import given, settings

from conftest import formula_strategy, gen_formula
from ltledge.formula import (
    And,
    AnyEdge,
    Atom,
    ConstFalse,
    ConstTrue,
    FallEdge,
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
    expand_any_edges,
    flatten_and,
    flatten_or,
    normalize_edge_negations,
    rebuild,
    resugar_edges,
    rewrite_logic,
    subformulas,
    transform_bottom_up,
)
from ltledge.syntax import parse, render


def test_nodes_are_hashable_and_comparable():
    assert Atom("p") == Atom("p")
    assert Atom("p") != Atom("q")
    assert len({ConstTrue(), ConstTrue(), ConstFalse()}) == 2
    assert And(Atom("p"), Atom("q")) != And(Atom("q"), Atom("p"))


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


def test_expand_any_edges_leaves_rise_and_fall_alone():
    got = expand_any_edges(parse("edge p & up q"))
    assert got == parse("(up p | down p) & up q")
    assert expand_any_edges(parse("up q")) == RiseEdge(Atom("q"))


def test_resugar_edges_recognizes_both_definitions():
    assert resugar_edges(parse("!p & X p")) == RiseEdge(Atom("p"))
    assert resugar_edges(parse("p & X !p")) == FallEdge(Atom("p"))
    assert resugar_edges(parse("!p & X q")) == parse("!p & X q")


def test_normalize_edge_negations_applies_dualities():
    got = normalize_edge_negations(parse("up !p & down !q & edge !r"))
    assert got == parse("down p & up q & edge r")


def test_flatten_and_build_round_trip():
    f = parse("p & (q & r) & s")
    assert [render(g) for g in flatten_and(f)] == ["p", "q", "r", "s"]
    assert [render(g) for g in flatten_or(parse("p | q | r"))] == ["p", "q", "r"]
    assert build_and([Atom("p"), Atom("q"), Atom("r")]) == parse("p & (q & r)")
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
    # conjunction under G needs no pass per operand
    names = [f"a{i}" for i in range(300)]
    f = parse("G(" + " & ".join(names) + ")")
    assert rewrite_logic(f) == parse(" & ".join(f"G {n}" for n in names))


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
