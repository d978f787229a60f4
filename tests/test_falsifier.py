"""Bounded stuttering falsification: pinned witnesses, minimization, bounds."""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import gen_formula
from ltledge.falsifier import (
    Counterexample,
    SearchBounds,
    cex_from_doc,
    cex_to_doc,
    falsify,
    minimize,
)
from ltledge.semantics import LassoTrace, eval_formula, stutter_at, unroll
from ltledge.syntax import parse


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


def test_search_is_deterministic_across_job_counts():
    for text in ("X a", "up a", "edge b"):
        assert falsify(parse(text), jobs=2) == falsify(parse(text))


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


def test_search_size_is_checked_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_states called")

    cex = falsify(parse("X a"))
    monkeypatch.setattr("ltledge.falsifier.enumerate_states", refuse)
    too_long = SearchBounds(max_stem=12)
    with pytest.raises(ValueError, match=r"max_stem=12\).*budget of 2\*\*23"):
        falsify(parse("a & b & c"), too_long)
    with pytest.raises(ValueError, match="max_loop=9"):
        falsify(parse("a & b & c"), SearchBounds(max_loop=9))
    with pytest.raises(ValueError, match="max_unroll=50"):
        falsify(parse("a & b & c"), SearchBounds(max_unroll=50))
    with pytest.raises(ValueError, match="max_stem=30"):
        minimize(cex, SearchBounds(max_stem=30))


def test_counterexample_document_round_trip():
    cex = falsify(parse("X a U b"))
    assert cex_from_doc(cex_to_doc(cex)) == cex


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
