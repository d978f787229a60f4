"""Vectorized batch evaluation of many lassos at once.

``eval_formula`` is itself a one-row call of the window route, so the
comparison with it checks that batching many rows changes no row; the
independent reference for both routes is the recorded corpus in
``eval_golden.json`` (see ``test_semantics``), and the two routes are
cross-checked against each other below.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from conftest import gen_formula
from ltledge.batch import (
    _label_temporal,
    _root_rows,
    _window_temporal,
    compile_formula,
    enumerate_states,
    label_block,
    step,
    window_block,
)
from ltledge.formula import subformulas
from ltledge.semantics import LassoTrace, eval_formula
from ltledge.syntax import parse


def test_enumerate_states_shape_and_order():
    s = enumerate_states(2, 2)
    assert s.shape == (16, 2, 2)
    assert s.dtype == np.bool_
    # lexicographic with the first atom most significant
    assert s[0].astype(int).tolist() == [[0, 0], [0, 0]]
    assert s[1].astype(int).tolist() == [[0, 0], [0, 1]]
    assert s[-1].astype(int).tolist() == [[1, 1], [1, 1]]
    assert enumerate_states(1, 0).shape == (1, 0, 1)


def test_enumerate_states_is_cached_and_read_only():
    s = enumerate_states(1, 2)
    assert s is enumerate_states(1, 2)
    with pytest.raises(ValueError):
        s[0, 0, 0] = True


def _rows(num_atoms: int, stem_len: int, loop_len: int):
    stems = enumerate_states(num_atoms, stem_len)
    loops = enumerate_states(num_atoms, loop_len)
    row_stems = np.tile(stems, (loops.shape[0], 1, 1))
    row_loops = np.repeat(loops, stems.shape[0], axis=0)
    return row_stems, row_loops


def _scalar(f, atoms, row_stems, row_loops):
    out = []
    for stem, loop in zip(row_stems, row_loops):
        t = LassoTrace(
            atoms,
            tuple(tuple(bool(v) for v in state) for state in stem),
            tuple(tuple(bool(v) for v in state) for state in loop),
        )
        out.append(eval_formula(f, t))
    return np.array(out, dtype=bool)


@pytest.mark.parametrize("text", [
    "a", "!a", "X a", "G a", "F a", "a U b", "up a", "down b", "edge a",
    "X X a", "G F a", "F G b", "(X a -> G F b) & b", "a U (b U a)",
    "G(up a -> X b)", "!(!a U b)", "up a U down b",
])
def test_both_routes_match_scalar_eval(text):
    f = parse(text)
    atoms = ("a", "b")
    for stem_len, loop_len in [(0, 1), (1, 1), (2, 2), (1, 3)]:
        row_stems, row_loops = _rows(2, stem_len, loop_len)
        want = _scalar(f, atoms, row_stems, row_loops)
        got_w = window_block(f, atoms, row_stems, row_loops)
        got_l = label_block(f, atoms, row_stems, row_loops)
        assert np.array_equal(got_w, want), (text, stem_len, loop_len, "window")
        assert np.array_equal(got_l, want), (text, stem_len, loop_len, "label")


def test_routes_agree_on_random_formulas():
    rng = random.Random(29)
    atoms = ("p", "q")
    blocks = [_rows(2, s, l) for s in range(3) for l in (1, 2)]
    for _ in range(150):
        f = gen_formula(rng, 4, atoms)
        for row_stems, row_loops in blocks:
            got_w = window_block(f, atoms, row_stems, row_loops)
            got_l = label_block(f, atoms, row_stems, row_loops)
            assert np.array_equal(got_w, got_l), f


# Every node class: atoms, both constants, the connectives, X, the edges,
# F, G and U, each over operands that differ from one another.
EVERY_NODE_CLASS = parse(
    "(true -> !a) & (b | false) & (a <-> X b) & up a & down b & edge a"
    " | G a & F b | a U b")


@pytest.mark.parametrize("temporal", [_label_temporal, _window_temporal])
def test_step_matches_the_labels_at_every_position(temporal):
    # The node vectors at position p are one step from those at its
    # successor (p + 1, or the loop start after the last position).
    atoms = ("a", "b")
    program = compile_formula(EVERY_NODE_CLASS, atoms)
    assert ({kind for kind, _, _ in program}
            == {type(g) for g in subformulas(EVERY_NODE_CLASS)})
    assert len({kind for kind, _, _ in program}) == 15
    for stem_len, loop_len in [(0, 1), (1, 2), (2, 3), (3, 1)]:
        cells = np.concatenate(_rows(2, stem_len, loop_len), axis=1)
        rows = _root_rows(program, cells, stem_len, temporal)
        width = stem_len + loop_len
        for p in range(width):
            nxt = rows[:, p + 1 if p + 1 < width else stem_len]
            got = step(program, cells[:, p].T, nxt)
            assert np.array_equal(got, rows[:, p]), (stem_len, loop_len, p)


def test_step_writes_each_node_in_place():
    # One step over 2**17 rows holds its output and nothing per node: the
    # parent made a temporary row vector for each node.
    atoms = ("a", "b")
    program = compile_formula(EVERY_NODE_CLASS, atoms)
    rng = np.random.default_rng(5)
    rows = 1 << 17
    letter = rng.integers(0, 2, (len(atoms), rows), dtype=np.uint8) > 0
    nxt = rng.integers(0, 2, (len(program), rows), dtype=np.uint8) > 0
    step(program, letter, nxt)  # warm up
    tracemalloc.start()
    try:
        out = step(program, letter, nxt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (len(program), rows)
    assert peak < out.nbytes + rows // 2
