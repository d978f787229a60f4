"""Exact evaluation of one formula over many same-shape lassos.

Home of the package's two evaluation algorithms, each implemented once.
Not part of the public API: the falsifier runs the compiled program and
:func:`step` directly, and ``semantics.eval_formula`` /
``semantics.eval_oracle`` are one-row calls of the two routes.

A formula is compiled once (:func:`compile_formula`, which keeps the
most recent programs) into a flat post-order program: one instruction
``(node class, slot, slot)`` per distinct subformula, children before
parents and the root last, where the slots are the children's
instruction numbers (an atom's first slot is its column in the atom
tuple).  :func:`_root_rows` runs the program
over a block of lassos and keeps every node's truth at every canonical
position ``0 ..< stem + loop`` in one position-major tensor of shape
(positions, nodes, lassos), so no call walks or hashes the formula tree.
Both routes share the pointwise connectives, ``Next`` and the edges
(the successor of the last position wraps to the loop start).  They
resolve ``G``/``F``/``U`` independently:

* the window route (:func:`window_block`, ``eval_formula``) scans
  forward over a loop-doubled copy of each row, up to the witness bound
  ``stem + 2*loop``, with no fixpoint reasoning;
* the label route (:func:`label_block`, ``eval_oracle``) resolves the
  loop by a backward fixpoint before propagating back through the stem.
  Its ``U`` composes the one-step maps ``x -> B | (A & x)`` of the
  positions in log depth, so neither route loops over positions in
  Python (see :func:`_label_temporal`).

Keeping the two resolvers separate is what makes the eval/eval_oracle
cross-check, and the falsifier's re-check of its candidates, meaningful.

Every node's value at a position is a function of the letter there, its
children's values there, and the node vector at the next position; that
one-position form of the program is :func:`step`.
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
    children_of,
    subformulas,
)

# A compiled formula: (node class, slot, slot) per distinct subformula, in
# post-order; unused slots are -1.
Program = tuple[tuple[type, int, int], ...]

# Node class -> value from the children's values at the same position.
_POINTWISE = {
    ConstTrue: lambda a, b: True,
    ConstFalse: lambda a, b: False,
    Not: lambda a, b: ~a,
    And: lambda a, b: a & b,
    Or: lambda a, b: a | b,
    Implies: lambda a, b: ~a | b,
    Iff: lambda a, b: a == b,
}
# Node class -> value from the child's values now and at the next position.
_SUCCESSOR = {
    Next: lambda now, nxt: nxt,
    RiseEdge: lambda now, nxt: ~now & nxt,
    FallEdge: lambda now, nxt: now & ~nxt,
    AnyEdge: lambda now, nxt: now != nxt,
}
# Node class -> value from the children's values now and the node's own
# value at the next position.
_RECURRENCE = {
    Eventually: lambda a, b, nxt: a | nxt,
    Always: lambda a, b, nxt: a & nxt,
    Until: lambda a, b, nxt: b | (a & nxt),
}


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


@lru_cache(maxsize=16)
def compile_formula(f: Formula, atoms: tuple[str, ...]) -> Program:
    """Flat post-order program of ``f`` over the atom columns ``atoms``.

    One instruction per distinct subformula (nodes are interned, so equal
    subformulas are one node).  Raises KeyError for an atom not in
    ``atoms``.  Formulas are interned and programs are tuples, so the
    most recent programs are cached: the re-checks of a search's
    counterexamples compile the formula as written once (the search
    itself runs the program of its fold, kept in the falsifier's plan).
    """
    column = {name: j for j, name in enumerate(atoms)}
    slots: dict[Formula, int] = {}
    program = []
    for g in subformulas(f):
        kind = type(g)
        if kind is Atom:
            args = [column[g.name]]
        elif kind in _POINTWISE or kind in _SUCCESSOR or kind in _RECURRENCE:
            args = [slots[c] for c in children_of(g)]
        else:
            raise TypeError(f"not a formula: {g!r}")
        slots[g] = len(program)
        program.append((kind, *args, *[-1] * (2 - len(args))))
    return tuple(program)


def step(program: Program, letter: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Node vectors at one position, from the letter there and the next one.

    ``letter`` has shape (atoms, lassos) and ``nxt``, the node vectors at
    the next position, (nodes, lassos); so does the result.
    """
    cur = np.empty_like(nxt)
    for slot, (kind, a, b) in enumerate(program):
        if kind is Atom:
            cur[slot] = letter[a]
        elif kind in _POINTWISE:
            cur[slot] = _POINTWISE[kind](cur[a], cur[b])
        elif kind in _SUCCESSOR:
            cur[slot] = _SUCCESSOR[kind](cur[a], nxt[a])
        else:
            cur[slot] = _RECURRENCE[kind](cur[a], cur[b], nxt[slot])
    return cur


def _first_at_or_after(hits: np.ndarray) -> np.ndarray:
    """Per position p, the first position ``>= p`` where ``hits`` holds.

    Lassos without such a position get the number of positions.
    """
    length = hits.shape[0]
    first = np.where(hits, np.arange(length)[:, None], length)
    return np.minimum.accumulate(first[::-1], axis=0)[::-1]


def _window_temporal(kind: type, left: np.ndarray, right: np.ndarray,
                     out: np.ndarray, stem_len: int) -> None:
    """``G``/``F``/``U`` rows by a forward scan of a bounded window.

    ``left`` and ``right`` are the children's rows (``left`` only for
    ``G``/``F``), ``out`` the node's, each of shape (positions, lassos).
    Each lasso is extended by a second loop copy, to ``stem + 2*loop``
    positions, and a start ``p < stem + loop`` is judged on the positions
    from ``p`` up to that bound, with no fixpoint reasoning.  The window
    suffices: positions ``>= stem`` repeat with period ``loop``, so the
    positions from ``p`` cover every suffix reachable from ``p``, and a
    witness (or violation) of ``F``/``G`` exists iff one exists in the
    window.  For strong until, if ``A U B`` holds at ``p`` with some
    witness, the *minimal* witness ``i0`` also works (it inherits ``A``
    on ``[p, i0)`` from the larger one).  Were ``i0 >= stem + 2*loop``,
    the position one period earlier would carry the same suffix, lie at
    or after ``p`` and precede ``i0``, so it would be a smaller witness;
    hence ``i0`` always lies inside the window.
    """
    width = out.shape[0]

    def doubled(rows: np.ndarray) -> np.ndarray:
        return np.concatenate([rows, rows[stem_len:]], axis=0)

    if kind is Until:
        # A U B holds at p iff B holds at some position from p on, and A
        # fails at no position from p before the first such one.
        right = doubled(right)
        first_right = _first_at_or_after(right)
        first_fail = _first_at_or_after(~doubled(left))
        holds = (first_right < right.shape[0]) & (first_right <= first_fail)
        out[...] = holds[:width]
    else:
        scan = np.logical_or if kind is Eventually else np.logical_and
        out[...] = scan.accumulate(doubled(left)[::-1], axis=0)[::-1][:width]


def _label_temporal(kind: type, left: np.ndarray, right: np.ndarray,
                    out: np.ndarray, stem_len: int) -> None:
    """``G``/``F``/``U`` rows by backward fixpoint labeling.

    Same arguments as :func:`_window_temporal`.  The successor of the
    last position wraps to the loop start.  ``F``/``G`` are constant
    across a loop, which is resolved first, and their stem values are a
    backward or/and-scan from the loop's value.

    ``U`` solves its one-step recurrence (:data:`_RECURRENCE`) with no
    loop over positions.  Position ``p`` maps the value ``x`` at its
    successor to ``B[p] | (A[p] & x)``; such a map is kept as the pair
    ``(A, B)``, and running ``(a2, b2)`` then ``(a1, b1)`` is again such
    a map, ``(a1 & a2, b1 | (a1 & b2))``.  The maps are laid out along
    the stem, the loop and the loop again but its last position, so
    that every stretch that starts in the loop and spans a whole turn is
    one slice.  Composing pairs whose spans double, in log depth as in a
    prefix scan, gives each position the map of the ``n`` positions from
    it (fewer near the end of the layout).  Its B part says "a witness
    of ``B`` within ``n`` steps, with ``A`` before it": the ``n``-th
    iterate from false, so it grows towards the least fixpoint, strong
    until's value.  The span doubles until it covers the whole loop from
    every loop position and reaches the loop entry and a whole turn
    beyond it from every stem position.  The B part has then reached
    the fixpoint: a shortest witness lies less than one turn past the
    loop entry (or past the position itself, in the loop), since a
    witness later than that recurs one turn earlier.
    """
    if kind is Until:
        # Position p holds the map of p ..< p + span, clipped to the layout.
        a = np.concatenate([left, left[stem_len:-1]])
        b = np.concatenate([right, right[stem_len:-1]])
        width, span = out.shape[0], 1
        while True:
            b[:-span] |= a[:-span] & b[span:]
            if 2 * span >= width:
                break
            a[:-span] &= a[span:]
            span *= 2
        out[...] = b[:width]
        return
    scan = np.logical_or if kind is Eventually else np.logical_and
    # From inside the loop every loop position is in the future.
    loop_value = scan.reduce(left[stem_len:], axis=0)
    out[stem_len:] = loop_value
    if stem_len:
        stem_suffix = scan.accumulate(left[stem_len - 1 :: -1], axis=0)
        out[:stem_len] = scan(stem_suffix[::-1], loop_value)


_Temporal = Callable[[type, np.ndarray, np.ndarray, np.ndarray, int], None]


def _root_rows(program: Program, cells: np.ndarray, stem_len: int,
               temporal: _Temporal) -> np.ndarray:
    """Truth of every node at every canonical position ``0 ..< stem + loop``.

    ``cells`` has shape (lassos, positions, atoms): the stems followed by
    the loops.  Returns a boolean tensor of shape (positions, nodes,
    lassos); the root is the last node.  ``temporal`` is the route's
    resolver for ``G``/``F``/``U`` (:func:`_window_temporal` or
    :func:`_label_temporal`).
    """
    rows = np.empty((cells.shape[1], len(program), cells.shape[0]), dtype=bool)
    for slot, (kind, a, b) in enumerate(program):
        out = rows[:, slot]
        if kind is Atom:
            out[...] = cells[:, :, a].T
            continue
        left, right = rows[:, a], rows[:, b]
        if kind in _POINTWISE:
            out[...] = _POINTWISE[kind](left, right)
        elif kind in _SUCCESSOR:
            rule = _SUCCESSOR[kind]
            out[:-1] = rule(left[:-1], left[1:])
            out[-1] = rule(left[-1], left[stem_len])
        else:
            temporal(kind, left, right, out, stem_len)
    return rows


def _block(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
           loops: np.ndarray, temporal: _Temporal) -> np.ndarray:
    cells = np.concatenate([stems, loops], axis=1)
    rows = _root_rows(compile_formula(f, atoms), cells, stems.shape[1],
                      temporal)
    return rows[0, -1].copy()


def window_block(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
                 loops: np.ndarray) -> np.ndarray:
    """Truth of ``f`` at position 0 for each lasso, scan route.

    ``stems`` has shape (n, stem_len, len(atoms)); ``loops`` likewise
    with a nonempty loop.  Returns a boolean vector of length n.
    """
    return _block(f, atoms, stems, loops, _window_temporal)


def label_block(f: Formula, atoms: tuple[str, ...], stems: np.ndarray,
                loops: np.ndarray) -> np.ndarray:
    """Truth of ``f`` at position 0 for each lasso, labeling route."""
    return _block(f, atoms, stems, loops, _label_temporal)
