"""Exact evaluation of one formula over many same-shape lassos.

Home of the package's two evaluation algorithms, each implemented once.
Not part of the public API: the falsifier calls :func:`label_block`,
and ``semantics.eval_formula`` / ``semantics.eval_oracle`` are one-row
calls of the two routes.  Both routes label every distinct subformula
bottom-up over the canonical positions ``0 ..< stem + loop`` and share
the pointwise connectives, ``Next`` and the edges (the successor of the
last position wraps to the loop start).  They resolve ``G``/``F``/``U``
independently:

* the window route (:func:`window_block`, ``eval_formula``) scans
  forward over a loop-doubled copy of each row, up to the witness bound
  ``stem + 2*loop``, with no fixpoint reasoning;
* the label route (:func:`label_block`, ``eval_oracle``) resolves the
  loop by a backward fixpoint before propagating back through the stem.

Keeping the two resolvers separate is what makes the eval/eval_oracle
cross-check, and the falsifier's re-check of its candidates, meaningful.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .formula import (
    Always,
    And,
    AnyEdge,
    Atom,
    ConstFalse,
    ConstTrue,
    Eventually,
    FallEdge,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    RiseEdge,
    Until,
    subformulas,
)


@lru_cache(maxsize=64)
def enumerate_states(num_atoms: int, length: int) -> np.ndarray:
    """All state sequences of ``length`` over ``num_atoms`` atoms.

    Shape (count, length, num_atoms) with count = (2**num_atoms)**length,
    ordered lexicographically: earlier positions vary slowest, and within
    a state the first atom is the most significant bit.  The returned
    array is cached and read-only.
    """
    states = 1 << num_atoms
    count = states**length
    out = np.zeros((count, length, num_atoms), dtype=bool)
    codes = np.arange(count)
    for pos in range(length):
        code = (codes // states ** (length - 1 - pos)) % states
        for j in range(num_atoms):
            out[:, pos, j] = (code >> (num_atoms - 1 - j)) & 1
    out.flags.writeable = False
    return out


def _shifted(arr: np.ndarray, wrap_to: int) -> np.ndarray:
    """Successor view: column p becomes column p+1, last wraps to ``wrap_to``."""
    out = np.empty_like(arr)
    out[:, :-1] = arr[:, 1:]
    out[:, -1] = arr[:, wrap_to]
    return out


def _boolean_row(g: Formula, label: dict, cells: np.ndarray, index: dict,
                 wrap_to: int) -> np.ndarray | None:
    """Rows shared by both routes: atoms, constants, connectives, steps."""
    n, cols = cells.shape[0], cells.shape[1]
    if isinstance(g, Atom):
        return cells[:, :, index[g.name]]
    if isinstance(g, ConstTrue):
        return np.ones((n, cols), dtype=bool)
    if isinstance(g, ConstFalse):
        return np.zeros((n, cols), dtype=bool)
    if isinstance(g, Not):
        return ~label[g.child]
    if isinstance(g, And):
        return label[g.left] & label[g.right]
    if isinstance(g, Or):
        return label[g.left] | label[g.right]
    if isinstance(g, Implies):
        return ~label[g.left] | label[g.right]
    if isinstance(g, Iff):
        return label[g.left] == label[g.right]
    if isinstance(g, Next):
        return _shifted(label[g.child], wrap_to)
    if isinstance(g, RiseEdge):
        child = label[g.child]
        return ~child & _shifted(child, wrap_to)
    if isinstance(g, FallEdge):
        child = label[g.child]
        return child & ~_shifted(child, wrap_to)
    if isinstance(g, AnyEdge):
        child = label[g.child]
        return child != _shifted(child, wrap_to)
    return None


def _first_at_or_after(hits: np.ndarray) -> np.ndarray:
    """Per column p, the first column ``>= p`` where ``hits`` holds.

    Rows without such a column get the row width.
    """
    width = hits.shape[1]
    first = np.where(hits, np.arange(width), width)
    return np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]


def _window_temporal(g: Formula, label: dict, stem_len: int,
                     loop_len: int) -> np.ndarray:
    """``G``/``F``/``U`` rows by a forward scan of a bounded window.

    Each row is extended by a second loop copy, to ``stem + 2*loop``
    columns, and a start ``p < stem + loop`` is judged on the columns
    from ``p`` up to that bound, with no fixpoint reasoning.  The window
    suffices: positions ``>= stem`` repeat with period ``loop``, so the
    columns from ``p`` cover every suffix reachable from ``p``, and a
    witness (or violation) of ``F``/``G`` exists iff one exists in the
    window.  For strong until, if ``A U B`` holds at ``p`` with some
    witness, the *minimal* witness ``i0`` also works (it inherits ``A``
    on ``[p, i0)`` from the larger one).  Were ``i0 >= stem + 2*loop``,
    the position one period earlier would carry the same suffix, lie at
    or after ``p`` and precede ``i0``, so it would be a smaller witness;
    hence ``i0`` always lies inside the window.
    """
    width = stem_len + loop_len

    def doubled(row: np.ndarray) -> np.ndarray:
        return np.concatenate([row, row[:, stem_len:]], axis=1)

    if isinstance(g, Eventually):
        ext = doubled(label[g.child])
        acc = np.logical_or.accumulate(ext[:, ::-1], axis=1)
        return acc[:, ::-1][:, :width]
    if isinstance(g, Always):
        ext = doubled(label[g.child])
        acc = np.logical_and.accumulate(ext[:, ::-1], axis=1)
        return acc[:, ::-1][:, :width]
    if isinstance(g, Until):
        # A U B holds at p iff B holds at some column from p on, and A
        # fails at no column from p before the first such one.
        left, right = doubled(label[g.left]), doubled(label[g.right])
        first_right = _first_at_or_after(right)
        first_fail = _first_at_or_after(~left)
        holds = (first_right < right.shape[1]) & (first_right <= first_fail)
        return holds[:, :width]
    raise TypeError(f"not a formula: {g!r}")


def _label_temporal(g: Formula, label: dict, stem_len: int,
                    loop_len: int) -> np.ndarray:
    """``G``/``F``/``U`` rows by backward fixpoint labeling.

    The successor of the last position wraps to the loop start.  The
    loop is resolved first (``F``/``G`` are constant across a loop, ``U``
    needs two backward passes: a shortest witness path around the loop
    crosses the wrap edge at most once), then values propagate back
    through the stem.
    """
    if isinstance(g, Eventually):
        child = label[g.child]
        row = np.empty_like(child)
        # From inside the loop every loop position is in the future.
        loop_any = child[:, stem_len:].any(axis=1)
        row[:, stem_len:] = loop_any[:, None]
        if stem_len:
            stem_suffix = np.logical_or.accumulate(
                child[:, stem_len - 1 :: -1], axis=1
            )[:, ::-1]
            row[:, :stem_len] = stem_suffix | loop_any[:, None]
        return row
    if isinstance(g, Always):
        child = label[g.child]
        row = np.empty_like(child)
        loop_all = child[:, stem_len:].all(axis=1)
        row[:, stem_len:] = loop_all[:, None]
        if stem_len:
            stem_suffix = np.logical_and.accumulate(
                child[:, stem_len - 1 :: -1], axis=1
            )[:, ::-1]
            row[:, :stem_len] = stem_suffix & loop_all[:, None]
        return row
    if isinstance(g, Until):
        left, right = label[g.left], label[g.right]
        row = right.copy()
        last = stem_len + loop_len - 1
        for _ in range(2):
            row[:, last] = right[:, last] | (left[:, last] & row[:, stem_len])
            for p in range(last - 1, stem_len - 1, -1):
                row[:, p] = right[:, p] | (left[:, p] & row[:, p + 1])
        for p in range(stem_len - 1, -1, -1):
            row[:, p] = right[:, p] | (left[:, p] & row[:, p + 1])
        return row
    raise TypeError(f"not a formula: {g!r}")


_Temporal = Callable[[Formula, dict, int, int], np.ndarray]


def _root_rows(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
               loops: np.ndarray, temporal: _Temporal) -> np.ndarray:
    """Truth of ``f`` at every canonical position ``0 ..< stem + loop``.

    Labels every distinct subformula bottom-up with a boolean matrix of
    shape (traces, positions); ``temporal`` is the route's resolver for
    ``G``/``F``/``U`` (:func:`_window_temporal` or :func:`_label_temporal`).
    """
    stem_len, loop_len = stems.shape[1], loops.shape[1]
    cells = np.concatenate([stems, loops], axis=1)
    index = {name: j for j, name in enumerate(atoms)}
    label: dict[Formula, np.ndarray] = {}
    for g in subformulas(f):
        row = _boolean_row(g, label, cells, index, stem_len)
        if row is None:
            row = temporal(g, label, stem_len, loop_len)
        label[g] = row
    return label[f]


def window_block(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
                 loops: np.ndarray) -> np.ndarray:
    """Truth of ``f`` at position 0 for each lasso, scan route.

    ``stems`` has shape (n, stem_len, len(atoms)); ``loops`` likewise
    with a nonempty loop.  Returns a boolean vector of length n.
    """
    return _root_rows(f, atoms, stems, loops, _window_temporal)[:, 0].copy()


def label_block(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
                loops: np.ndarray) -> np.ndarray:
    """Truth of ``f`` at position 0 for each lasso, labeling route."""
    return _root_rows(f, atoms, stems, loops, _label_temporal)[:, 0].copy()
