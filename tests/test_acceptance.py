"""Acceptance suite: one test per shipped guarantee, at its stated bounds.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test carries its own runtime ceiling where the
guarantee includes one; the random streams are seeded so failures
reproduce.
"""

from __future__ import annotations

import random
import time

import numpy as np

from conftest import all_lassos, gen_formula
from ltledge.analyzer import Closed, Rule, analyze, check_proof
from ltledge.batch import enumerate_states, label_block, window_block
from ltledge.falsifier import falsify, minimize
from ltledge.formula import (
    Always,
    And,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    RiseEdge,
    Until,
)
from ltledge.patterns import catalog, check_catalog, instantiate
from ltledge.semantics import LassoTrace, eval_formula, eval_oracle, stutter_at
from ltledge.syntax import parse, render

ONE_ATOM_LASSOS = list(all_lassos(("a",), 3, 2))


def test_criterion_01_next_counterexample_reproduced_exactly():
    t0 = time.monotonic()
    cex = minimize(falsify(parse("X a")))
    elapsed = time.monotonic() - t0
    assert len(cex.trace.stem) == 1
    assert len(cex.trace.loop) == 1
    assert cex.stutter_index == 0
    # false on the original word, true once the first state is repeated
    assert (cex.value_before, cex.value_after) == (False, True)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_edge_definitions_match_their_expansions():
    t0 = time.monotonic()
    # stems of length 0..3 and loops of length 1..2 over one atom:
    # 15 stems x 6 loops = 90 lassos, checked exhaustively
    assert len(ONE_ATOM_LASSOS) == 90
    pairs = [
        (parse("up a"), parse("!a & X a")),
        (parse("down a"), parse("a & X !a")),
        (parse("edge a"), parse("(!a & X a) | (a & X !a)")),
    ]
    mismatches = 0
    for sugared, expanded in pairs:
        for t in ONE_ATOM_LASSOS:
            for pos in range(len(t.stem) + len(t.loop)):
                if eval_formula(sugared, t, pos) != eval_formula(expanded, t, pos):
                    mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_edge_dualities_hold_exhaustively():
    pairs = [
        (parse("up !a"), parse("down a")),
        (parse("down !a"), parse("up a")),
        (parse("edge !a"), parse("edge a")),
    ]
    mismatches = 0
    for left, right in pairs:
        for t in ONE_ATOM_LASSOS:
            for pos in range(len(t.stem) + len(t.loop)):
                if eval_formula(left, t, pos) != eval_formula(right, t, pos):
                    mismatches += 1
    assert mismatches == 0


def test_criterion_04_evaluation_routes_agree_at_scale():
    t0 = time.monotonic()
    atoms = ("p", "q")
    blocks = []
    for stem_len in range(4):
        for loop_len in (1, 2):
            stems = enumerate_states(2, stem_len)
            loops = enumerate_states(2, loop_len)
            blocks.append((
                np.tile(stems, (loops.shape[0], 1, 1)),
                np.repeat(loops, stems.shape[0], axis=0),
            ))
    assert sum(b[0].shape[0] for b in blocks) == 1700

    rng = random.Random(2024)
    formulas = [gen_formula(rng, 4, atoms) for _ in range(10_000)]
    disagreements = 0
    for f in formulas:
        for row_stems, row_loops in blocks:
            scan = window_block(f, atoms, row_stems, row_loops)
            fixpoint = label_block(f, atoms, row_stems, row_loops)
            if not np.array_equal(scan, fixpoint):
                disagreements += 1

    # bridge: the scalar evaluators are one-row calls of the same two
    # routes; check on a sampled grid that batching changes no row
    sample_rng = random.Random(99)
    for f in sample_rng.sample(formulas, 40):
        row_stems, row_loops = blocks[sample_rng.randrange(len(blocks))]
        idx = sample_rng.randrange(row_stems.shape[0])
        t = LassoTrace(
            atoms,
            tuple(tuple(bool(v) for v in s) for s in row_stems[idx]),
            tuple(tuple(bool(v) for v in s) for s in row_loops[idx]),
        )
        scan = window_block(f, atoms, row_stems, row_loops)
        fixpoint = label_block(f, atoms, row_stems, row_loops)
        assert eval_formula(f, t) == bool(scan[idx])
        assert eval_oracle(f, t) == bool(fixpoint[idx])

    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_05_closure_schemas_survive_falsification():
    t0 = time.monotonic()
    rng = random.Random(2025)
    atoms = ("p", "q")

    def nf(depth=3):
        return gen_formula(rng, depth, atoms, next_free=True)

    survivors = 0
    for _ in range(500):
        a, b = nf(), nf()
        c, d, e, fp = nf(2), nf(2), nf(2), nf(2)
        schemas = [
            Eventually(And(Not(a), And(Next(a), Next(b)))),
            Eventually(And(RiseEdge(a), And(Next(b), c))),
            Always(Implies(RiseEdge(a), Or(Next(b), c))),
            Until(
                Or(Not(RiseEdge(a)), Or(Next(b), c)),
                And(RiseEdge(d), And(Next(e), fp)),
            ),
        ]
        for f in schemas:
            assert falsify(f) is None, render(f)
            survivors += 1
    elapsed = time.monotonic() - t0
    assert survivors == 2000
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_06_closed_verdicts_are_never_falsified():
    t0 = time.monotonic()
    rng = random.Random(2026)
    closed: dict = {}
    for _ in range(10_000):
        f = gen_formula(rng, 4, ("p", "q"))
        verdict = analyze(f)
        if isinstance(verdict, Closed) and f not in closed:
            closed[f] = verdict
    violations = []
    for f, verdict in closed.items():
        assert check_proof(verdict.proof), render(f)
        if falsify(f) is not None:
            violations.append(render(f))
    elapsed = time.monotonic() - t0
    assert violations == []
    assert len(closed) > 100  # the fuzz actually exercised the analyzer
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_07_catalog_closed_with_the_expected_derivation():
    t0 = time.monotonic()
    report = check_catalog()
    elapsed = time.monotonic() - t0
    assert report.all_closed
    assert len(report.entries) == 20

    verdict = catalog().verdict_for("existence/D/1")
    assert isinstance(verdict, Closed)
    order: list[Rule] = []
    stack = [verdict.proof]
    while stack:
        node = stack.pop(0)
        order.append(node.rule)
        stack = list(node.premises) + stack
    for rule in (Rule.PROP_A, Rule.PROP_E, Rule.PROP_U, Rule.NOT):
        assert rule in order
    # outermost first: the implication schema applies at the root, then the
    # until and eventually schemas discharge the pieces it exposes
    assert order.index(Rule.PROP_A) < order.index(Rule.PROP_U)
    assert order.index(Rule.PROP_A) < order.index(Rule.PROP_E)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_08_worked_examples_end_to_end():
    drop = parse("G(down hold -> pos_above_tbl)")
    push = parse("!down hold U down button")
    belt = parse("G(down hold -> X(!hold U sensor))")
    robot, warnings = instantiate(
        "existence/D/1",
        {"P": parse("scl"), "Q": parse("mgn"), "R": parse("!mgn")},
    )
    assert warnings == ()
    assert robot == parse(
        "G(up mgn & F down mgn -> X(!down mgn U scl) & !down mgn)"
    )
    for f in (drop, push, belt, robot):
        verdict = analyze(f)
        assert isinstance(verdict, Closed), render(f)
        assert check_proof(verdict.proof)
        assert falsify(f) is None, render(f)


def test_criterion_09_next_free_completeness_and_negation_invariance():
    rng = random.Random(2027)
    for _ in range(1000):
        f = gen_formula(rng, 4, ("p", "q"), next_free=True, edge_free=True)
        assert isinstance(analyze(f), Closed), render(f)
    for _ in range(1000):
        f = gen_formula(rng, 4, ("p", "q"))
        same = isinstance(analyze(f), Closed) == isinstance(analyze(Not(f)), Closed)
        assert same, render(f)


def test_criterion_10_parse_render_round_trip():
    rng = random.Random(2028)
    failures = 0
    for _ in range(10_000):
        f = gen_formula(rng, 5, ("p", "q", "r"))
        if parse(render(f)) != f:
            failures += 1
    assert failures == 0
