"""Bounded search for stuttering counterexamples.

A counterexample to closure under stuttering is a lasso trace plus a
position whose duplication flips the formula's value.  The search
enumerates every lasso within the bounds (all loop contents, all stem
contents, all unroll depths) and every one-state stutter of it, and
reports the first flip in a fixed deterministic order: shorter loops
first, then loop contents lexicographically, then shorter stems, stem
contents, unroll depth, stutter position.

Stutters are applied to the unrolled trace.  At unroll depth ``k`` only
positions inside the k-th loop copy are new; duplicating an earlier
position yields the same infinite word as a stutter at a smaller depth,
so those are skipped.

The search walks stem layers.  Each block of loops is labeled once,
by the labeling route (``batch._root_rows`` with
``batch._label_temporal``), at the loop's own positions only.  Lasso
``(x u, v)`` has ``(u, v)`` as its suffix, so the node vectors at
position 0 of every lasso with a stem one state longer are one
backward ``batch.step`` from the layer before, which broadcasts its
tails under every state ``x`` (:func:`_stem_layer`), so no letter or
tail is copied per row; no stuttered copy is built and no stem
position is labeled.  The layers before the last are kept for the
stutters that follow.  The last layer of a full block, of
``_CHUNK_TARGET_ROWS`` lassos or more, is built and searched one
prepended state ``x`` at a time and is not kept, so it is never held
whole; smaller last layers are searched whole.

A stutter is followed as a live entry: a lasso, the stutter position,
and the stuttered word's node vector.  Duplicating position ``i``
leaves the suffix after it unchanged, so the stuttered word's vector at
``i`` is one step from the original one there.  The stutters of loop
positions, of every unroll depth, are walked back around the loop once,
at stem 0, all together, one step per unrolled position.  Each stem
layer then moves every live entry on by every prepended state, in one
broadcast step (:func:`_prepend`), drops it once its whole vector
equals the original's again (it would match at every earlier position
too), and adds the one new stutter, at position 0.  An entry whose
root still differs from the original's is a flip.  The entries are
held in groups no larger than the block's labels at all
``stem + loop`` positions would be.  Every candidate is re-checked
on explicit traces by the scan route before it is returned.

A search stops once its answer is settled.  :func:`_flips` yields a
block's flips layer by layer: the first group of live entries builds
each stem layer as it reaches it, and a stem limit, which the caller
may lower, is read before each layer.  Each caller owns its order.
:func:`falsify` wants only the first flip of the first block that has
one, and the order is loop, stem length, stem, depth, position: a flip
on the block's first loop at stem length ``s`` lowers the limit to
``s``, as no flip of a longer stem can come first.  :func:`minimize`
works out each block's stem and depth limits from its best candidate
so far, ranks the least flip of each layer by size, and returns its
input itself when that is the best.  The counterexample
:func:`falsify` returns carries the bounds it searched, outside its
fields; under the same bounds :func:`minimize` knows it as the first
flip in visit order, which wins every tie of size, so it neither
evaluates it again nor searches for what could only tie with it.

Two exact rules skip searches that cannot find anything.  A program
with no ``X`` or edge node (no node class in ``batch._SUCCESSOR``, the
classes whose :func:`batch.step` reads the next position) is closed
under stuttering, so :func:`falsify` returns None for it once the
bounds are checked: with a repeated letter every other node's step is
idempotent (pointwise nodes read only the letter and their children,
and ``F``/``G``/``U`` satisfy ``R(a, b, R(a, b, y)) = R(a, b, y)``), so
no stutter start diverges.  And :func:`minimize` searches only the
loop lengths, stems and unroll depths whose candidates can rank before
its input.

The first rule reads the formula as written, and a formula with no
``X`` or edge node is neither folded nor compiled.  It reads the
formula's fold (:func:`_fold`) too, the program searched, so it also
skips formulas whose ``X`` and edge nodes fold away, such as
``X(q | !q)``.  The fold applies laws that hold at every position of
every word, bottom-up, and folds again any node a law builds (``c`` is
a constant, ``a`` and ``b`` any operands, and a "same" operand is the
same interned node):

* a connective (``!``, ``&``, ``|``, ``->``, ``<->``) whose operands
  are constants and one formula ``x``, each plain or as ``!x``, is a
  function of ``x`` alone.  Its ufunc (``batch._UFUNC``), applied at
  ``x`` true and at ``x`` false, names its fold: a constant when the two
  agree, ``x`` for (true, false) and ``!x`` for (false, true).  So
  ``!!a`` is ``a``, ``a & !a`` false and ``true <-> a`` is ``a``;
  operands naming two formulas are left as they are;
* ``X c``, ``F c`` and ``G c`` are ``c``, ``F F a`` is ``F a`` and
  ``G G a`` is ``G a``; ``up c``, ``down c`` and ``edge c`` are false;
* ``a U c`` is ``c``, ``false U b`` is ``b``, ``true U b`` is ``F b``
  and ``a U a`` is ``a``.

The folded program runs over the formula's own atoms, in their order,
even where the fold drops one, so the search order and the traces are
the same.  The size budget and the atom cap read the formula as
written, and every counterexample is re-checked on it.  One cached
plan per formula (:func:`_plan`) holds its atoms, written size and
folded program, so :func:`minimize` does not walk or fold again what
:func:`falsify` searched.  The fold is the falsifier's own: evaluation
and closure analysis (``normalize``) do not use it, so a fold bug
cannot make the prover and the search agree on a wrong verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .batch import (
    _CONNECTIVES,
    _SUCCESSOR,
    _UFUNC,
    Program,
    _label_temporal,
    _root_rows,
    compile_formula,
    enumerate_states,
    step,
)
from .documents import boolean, read_fields
from .formula import (
    Always,
    AnyEdge,
    Atom,
    ConstFalse,
    ConstTrue,
    Eventually,
    FallEdge,
    Formula,
    Next,
    Not,
    RiseEdge,
    Until,
    children_of,
    subformulas,
    transform_bottom_up,
)
from .semantics import (
    LassoTrace,
    eval_formula,
    stutter_at,
    trace_from_doc,
    trace_to_doc,
    unroll,
)
from .syntax import parse, render

_CHUNK_TARGET_ROWS = 1 << 17
# Bytes that the largest array of one search may hold: a block's labels
# at every position (positions x program nodes x lassos), which bound its
# stem layers and its groups of live stutters, or the table of every loop
# or every stem of the longest length.  The defaults need 7 x 2**17 bytes
# per program node at 3 atoms.
_SEARCH_BUDGET_BITS = 27
# Loop-walk steps of one search: each block walks its stutters back over
# every unrolled loop position, one step each, whatever its stems.  The
# defaults need 106 at 3 atoms; unroll depth 1000 needs 53,000.
_WALK_BUDGET_BITS = 16


@dataclass(frozen=True)
class SearchBounds:
    max_stem: int = 4
    max_loop: int = 3
    max_unroll: int = 2
    atom_cap: int = 3

    def __post_init__(self) -> None:
        read_fields(vars(self), "SearchBounds",
                    [(name, True, int, "an integer") for name in vars(self)])
        if self.max_stem < 0 or self.max_loop < 1:
            raise ValueError("bounds need max_stem >= 0 and max_loop >= 1")
        if self.max_unroll < 0 or self.atom_cap < 1:
            raise ValueError("bounds need max_unroll >= 0 and atom_cap >= 1")


@dataclass(frozen=True)
class Counterexample:
    formula: Formula
    trace: LassoTrace
    stutter_index: int
    value_before: bool
    value_after: bool


# Live stutters as three aligned arrays: the lasso rows, the stutter
# offsets and the stuttered words' node vectors at the position reached.
# Row r of stem layer s is the lasso of loop r // 2**(atoms * s) after
# stem r % 2**(atoms * s), as in enumeration order.  The offset is the
# stutter position minus the stem length, so it stays fixed as states
# are prepended: -s ..< 0 in the stem, and q + (k - 1) * loop at loop
# position q of the k-th unrolled copy.
_Live = tuple[np.ndarray, np.ndarray, np.ndarray]


def _diverging(program: Program, letter: np.ndarray,
               vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose node vector changes when the state with ``letter`` and
    node vectors ``vectors`` is duplicated, and their new node vectors.

    After the duplication the copy is followed by the old word, so its
    vector is one :func:`step` from ``vectors``, and ``letter`` may
    broadcast to them; rows number their trailing shape in C order.
    """
    moved = step(program, letter, vectors)
    rows = np.flatnonzero((moved != vectors).any(axis=0)).astype(np.int32)
    return rows, moved.reshape(len(program), -1)[:, rows]


def _live(rows: np.ndarray, vectors: np.ndarray, offset: int) -> _Live:
    return rows, np.full(rows.size, offset, np.int32), vectors


def _joined(live: _Live, more: _Live) -> _Live:
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(live, more))


def _still_moved(program: Program, letter: np.ndarray, original: np.ndarray,
                 live: _Live) -> _Live:
    """Step the live vectors back one position, reading ``letter``, and
    keep the entries whose vector still differs from the ``original``
    one there, which is overwritten.  Earlier positions keep their
    letters, so an entry that matches again would match at every earlier
    position too.  ``rows`` may have a leading axis of states, as in
    :func:`_prepend`; the offsets follow its last axis, the entries."""
    rows, offsets, vectors = live
    vectors = step(program, letter, vectors)
    moved = np.not_equal(vectors, original, out=original).any(axis=0)
    return rows[moved], offsets[moved.nonzero()[-1]], vectors[:, moved]


def _stem_layer(program: Program, states: np.ndarray, n_loops: int,
                vectors: np.ndarray, s: int, live: _Live, fresh: bool = True
                ) -> tuple[np.ndarray, _Live]:
    """The stem layer of length ``s + 1`` from ``vectors``, the node
    vectors at position 0 of the lassos of stem length ``s``: its own
    vectors there, and ``live`` moved onto it joined, if ``fresh``, by
    the live stutters of its position 0.

    ``states`` holds the letters of the states prepended, one column
    each: every state, or a column slice of them, whose part of the
    layer is numbered as if those were all the states (see
    :func:`_prepend`).  Lasso ``(x u, v)`` has ``(u, v)`` as its suffix,
    so the layer is one broadcast :func:`step` of the tails, viewed as
    (nodes, loops, 1, stems), under the states, viewed as (atoms, 1,
    states, 1).  The new stutters are found after ``live`` has moved, so
    the two steps never hold their temporaries at once.
    """
    letter = states[:, None, :, None]
    tails = vectors.reshape(len(program), n_loops, 1, -1)
    vectors = step(program, letter, tails)
    flat = vectors.reshape(len(program), -1)
    live = _prepend(program, states, tails.shape[-1], flat, live)
    if not fresh:
        return flat, live
    return flat, _joined(live,
                         _live(*_diverging(program, letter, vectors), -s - 1))


def _prepend(program: Program, states: np.ndarray, stems: int,
             vectors: np.ndarray, live: _Live) -> _Live:
    """Move ``live`` from a layer of ``stems`` stems per loop to position
    0 of the next one, whose vectors are ``vectors``: the entry of row
    ``(u, v)`` goes to row ``(x u, v)`` for every state ``x`` of
    ``states``, by one broadcast :func:`step` of the live vectors, viewed
    as (nodes, 1, entries), under the states, viewed as (atoms, states,
    1).  Rows count the columns of ``states`` as all the states, so a
    column slice of them numbers its own part of the layer."""
    rows, offsets, moved = live
    if not rows.size:
        return live
    count = states.shape[1]
    stem = rows % stems
    rows = ((rows - stem) * count + stem
            + np.arange(0, count * stems, stems, dtype=np.int32)[:, None])
    return _still_moved(program, states[:, :, None], vectors[:, rows],
                        (rows, offsets, moved[:, None]))


def _loop_stutters(program: Program, loops: np.ndarray, labels: np.ndarray,
                   max_unroll: int, cap: int):
    """Yield the live stutters of loop positions at every unroll depth
    up to ``max_unroll`` on the stem-0 lassos, at position 0, in groups
    of at most ``cap`` entries.

    One broadcast :func:`step` finds the stutters that start at every
    loop position.  Walking the stutter position down from the deepest
    copy, all entries move back together, one step per position, and
    the stutter there joins them.  When it would overflow ``cap``, the
    entries so far are walked to position 0 on their own and yielded
    first.
    """
    loop_len = labels.shape[1]
    letters = loops.transpose(2, 1, 0)

    def back(live: _Live, j: int) -> _Live:
        rows = live[0]
        if not rows.size:
            return live
        q = j % loop_len
        return _still_moved(program, letters[:, q, rows], labels[:, q, rows],
                            live)

    rows, moved = _diverging(program, letters, labels)
    position, rows = np.divmod(rows, loops.shape[0])
    starts = [(rows[position == q], moved[:, position == q])
              for q in range(loop_len)]
    live = _live(rows[:0], moved[:, :0], 0)
    for i in range(max_unroll * loop_len - 1, -1, -1):
        live = back(live, i)
        start = _live(*starts[i % loop_len], i)
        if live[0].size + start[0].size > cap:
            for j in range(i - 1, -1, -1):
                live = back(live, j)
            yield live
            live = start
        else:
            live = _joined(live, start)
    yield live


def _flips(program: Program, loops: np.ndarray, stem_limit: list[int],
           max_unroll: int):
    """Yield ``(stem_len, rows, k, i, before)`` for the stutters that
    flip the root, per part of a layer that has any: the stutter at
    position ``i[n]`` of the lasso of row ``rows[n]``, unrolled ``k[n]``
    times, flips its value at position 0 from ``before[n]``.

    Each row's loop is one of ``loops``; its stem has ``stem_len`` of up
    to ``stem_limit[0]`` states, and its unroll depth is at most
    ``max_unroll``.  Only the loops are labeled; the stem layers and the
    stutters follow by :func:`step`.  No group of live stutters outgrows
    this block's labels at the ``stem + loop`` positions of its longest
    stems: a stem-0 group holds at most ``loop`` entries per loop, the
    stem stutters (at most one per lasso and layer) ride with the first
    group, and each layer multiplies entries at most by the number of
    states, as it does rows.

    The first group builds each stem layer as it reaches it, and
    ``stem_limit[0]`` is read before each layer, so the caller may lower
    it at a yield: the groups walk on up to the lowered limit.  Every
    layer but the last is kept whole for the later groups.  The last
    one, when it has ``_CHUNK_TARGET_ROWS`` rows or more, is built,
    moved into and searched one prepended state at a time, and never
    kept: a later group rebuilds its parts from the layer before.  Its
    rows are yielded numbered in the whole layer.
    """
    n_loops, loop_len, num_atoms = loops.shape
    labels = _root_rows(program, loops, 0, _label_temporal)
    states = enumerate_states(num_atoms, 1)[:, 0].T
    count = states.shape[1]
    layers = [labels[:, 0]]
    groups = _loop_stutters(program, loops, labels, max_unroll,
                            loop_len * n_loops)
    for g, live in enumerate(groups):
        for s in range(stem_limit[0] + 1):
            if s > stem_limit[0] or g and not live[0].size:
                break
            stems = count ** (s - 1) if s else 0  # per loop in layer s - 1
            if s < len(layers):  # stem 0, or a layer the first group kept
                if s:
                    live = _prepend(program, states, stems, layers[s], live)
                parts = [(None, layers[s], live)]
            elif (s < stem_limit[0]
                  or n_loops * count ** s < _CHUNK_TARGET_ROWS):
                vectors, live = _stem_layer(program, states, n_loops,
                                            layers[-1], s - 1, live)
                layers.append(vectors)
                parts = [(None, vectors, live)]
            else:  # the last layer, one prepended state x at a time
                parts = ((x, *_stem_layer(program, states[:, x:x + 1],
                                          n_loops, layers[-1], s - 1, live,
                                          fresh=g == 0))
                         for x in range(count))
            for x, vectors, (rows, offsets, moved) in parts:
                hit = moved[-1] != vectors[-1, rows]
                if not hit.any():
                    continue
                rows, offsets = rows[hit], offsets[hit]
                if x is not None:  # (loop, stem) in the part of x
                    loop, stem = np.divmod(rows, stems)
                    rows = (loop * count + x) * stems + stem
                k = np.where(offsets < 0, 0, offsets // loop_len + 1)
                yield s, rows, k, offsets + s, ~moved[-1, hit]


def _candidate(loops: np.ndarray, first: int, layer: tuple, n: int) -> tuple:
    """Flip ``n`` of a ``layer`` that :func:`_flips` yields for ``loops``,
    loop indices ``first`` onwards, as the candidate ``(loop_idx,
    stem_len, stem_idx, k, i, before)``."""
    s, rows, k, i, before = layer
    loop_idx, stem_idx = divmod(int(rows[n]), 1 << loops.shape[2] * s)
    return (first + loop_idx, s, stem_idx, int(k[n]), int(i[n]),
            bool(before[n]))


def _first_flip(program: Program, loops: np.ndarray, first: int,
                bounds: SearchBounds) -> tuple | None:
    """The first candidate of a block (see :func:`_candidate`) in search
    order: loop, stem length, stem, unroll depth, position.  Within a
    layer the row orders loop and stem, and the position orders depth
    and position.  A flip on the block's first loop at stem length ``s``
    lowers the stem limit of :func:`_flips` to ``s``, as no flip of a
    longer stem can come first."""
    limit, found = [bounds.max_stem], []
    for layer in _flips(program, loops, limit, bounds.max_unroll):
        s, rows, _, i, _ = layer
        found.append(_candidate(loops, first, layer, np.lexsort((i, rows))[0]))
        if found[-1][0] == first:
            limit[0] = s
    return min(found, default=None)


def _search_blocks(program: Program, num_atoms: int, bounds: SearchBounds):
    """Yield ``(loop_len, first, loops)`` per search block, in
    enumeration order: the loops of ``loop_len`` states from loop index
    ``first`` on.  The bounds are checked before anything is allocated.
    """
    chunk = _loop_chunk(len(program), num_atoms, bounds)
    for loop_len in range(1, bounds.max_loop + 1):
        loops = enumerate_states(num_atoms, loop_len)
        for first in range(0, len(loops), chunk):
            yield loop_len, first, loops[first:first + chunk]


_TRUE, _FALSE = ConstTrue(), ConstFalse()
# Operand values at x = true and at x = false, where x is the one formula
# besides constants that they name.
_CONSTANTS = {_TRUE: (True, True), _FALSE: (False, False)}
_X, _NOT_X = (True, False), (False, True)


def _fold(nodes: list[Formula]) -> Formula:
    """The formula whose subformulas, in postorder, are ``nodes`` (its
    root last), after the laws of the module docstring, applied
    bottom-up; equal to it at every position of every word."""
    return transform_bottom_up(nodes[-1], _fold_node, nodes)


def _fold_node(g: Formula) -> Formula:
    """One node whose children are folded, folded; so is a node a law
    builds."""
    kind = type(g)
    if kind is Not or kind in _CONNECTIVES:
        x, columns = None, []
        for a in children_of(g):
            y = a.child if type(a) is Not else a
            if a not in _CONSTANTS:
                if x is not None and y is not x:
                    return g  # a function of two formulas
                x = y
            columns.append(_CONSTANTS.get(a) or (_X if a is y else _NOT_X))
        high, low = (_UFUNC[kind](*values) for values in zip(*columns))
        if high == low:
            return _TRUE if high else _FALSE
        return x if high else g if kind is Not else _fold_node(Not(x))
    if kind in (Next, Eventually, Always):
        a = g.child
        return (a if a in _CONSTANTS or (kind is not Next and type(a) is kind)
                else g)
    if kind in (RiseEdge, FallEdge, AnyEdge):
        return _FALSE if g.child in _CONSTANTS else g
    if kind is not Until:
        return g  # an atom
    a, b = g.left, g.right
    if b in _CONSTANTS or a is _FALSE or a is b:
        return b
    return _fold_node(Eventually(b)) if a is _TRUE else g


@lru_cache(maxsize=16)
def _plan(f: Formula) -> tuple[tuple[str, ...], int, Program | None]:
    """All a search reads of ``f``: its atoms (``("p",)`` if none), its
    written node count and the program of its fold over those atoms, or
    None if no search can find a flip: the formula as written, or its
    fold, has no ``X`` or edge node.  A formula written without one is
    neither folded nor compiled."""
    nodes = subformulas(f)
    names = tuple(g.name for g in nodes if type(g) is Atom) or ("p",)
    if not any(type(g) in _SUCCESSOR for g in nodes):
        return names, len(nodes), None
    program = compile_formula(_fold(nodes), names)
    if not any(kind in _SUCCESSOR for kind, _, _ in program):
        return names, len(nodes), None
    return names, len(nodes), program


def _loop_chunk(nodes: int, num_atoms: int, bounds: SearchBounds) -> int:
    """Loops per search block, for a program of ``nodes`` nodes; every
    search is admitted or refused here, the atom cap first.

    A block covers (loop chunk) x (every stem of up to ``max_stem``
    states) lassos.  It is sized as their labels at the ``stem + loop``
    canonical positions of the longest stem, one byte per program node
    each, which no array of the block outgrows (see :func:`_flips`; its
    last stem layer, one node vector per lasso, is not even held whole
    once it reaches ``_CHUNK_TARGET_ROWS`` lassos, as a full block's
    does); the unroll depth costs no memory.  The chunk aims at
    ``_CHUNK_TARGET_ROWS`` lassos per block and shrinks only for a
    program whose block would go over the budget.  Raises ValueError,
    before anything is allocated, when the block of a single loop or
    the table of every loop or every stem of the longest length cannot
    fit, or when the live stutters of a single loop, one node vector per
    stutter start and stem, would not fit at once: the search holds
    them in groups, but its time grows with their number.  That check
    scales with the stems, so short stems also get a time bound: the
    loop walks of the whole search, ``max_unroll * loop_len`` steps per
    block, may take at most ``2**_WALK_BUDGET_BITS`` steps.  Lasso
    counts are powers of two, kept as exponents, and a table whose
    exponent is over the budget's is refused before it is sized.
    """
    if num_atoms > bounds.atom_cap:
        raise ValueError(
            f"formula has {num_atoms} atoms, over the search cap of "
            f"{bounds.atom_cap}; a larger cap needs "
            f"SearchBounds(atom_cap=...) in the Python API"
        )
    budget = 1 << _SEARCH_BUDGET_BITS
    for name, length in (("max_loop", bounds.max_loop),
                         ("max_stem", bounds.max_stem)):
        bits = num_atoms * length
        if bits > _SEARCH_BUDGET_BITS or (length * num_atoms) << bits > budget:
            raise _over_budget(
                bounds, name, f"all 2**{bits} {name[4:]}s of "
                f"{length} states over {num_atoms} atoms at once")
    stem_bits = num_atoms * bounds.max_stem
    width = bounds.max_stem + bounds.max_loop
    per_loop = (width * nodes) << stem_bits
    if per_loop > budget:
        raise _over_budget(
            bounds, "max_stem", f"search blocks of at least 2**{stem_bits} "
            f"lassos x {width} positions x {nodes} formula nodes "
            f"({num_atoms} atoms)")
    starts = bounds.max_unroll * bounds.max_loop + bounds.max_stem
    if (starts * nodes) << stem_bits > budget:
        raise _over_budget(
            bounds, "max_unroll", f"{starts} stutter starts x 2**{stem_bits} "
            f"stems x {nodes} formula nodes for a single loop")
    chunk = min(max(1, _CHUNK_TARGET_ROWS >> stem_bits), budget // per_loop)
    walk = bounds.max_unroll * sum(
        length * -(-(1 << num_atoms * length) // chunk)
        for length in range(1, bounds.max_loop + 1))
    if walk > 1 << _WALK_BUDGET_BITS:
        raise _over_budget(
            bounds, "max_unroll", f"{walk} loop-walk steps (unroll depth x "
            f"loop length, per block)", f"2**{_WALK_BUDGET_BITS} steps")
    return chunk


def _over_budget(bounds: SearchBounds, name: str, needs: str,
                 budget: str = f"2**{_SEARCH_BUDGET_BITS} bytes") -> ValueError:
    return ValueError(
        f"SearchBounds({name}={getattr(bounds, name)}) needs {needs}, over "
        f"the budget of {budget}"
    )


def _candidate_trace(atom_names: tuple[str, ...], loop_len: int,
                     candidate: tuple) -> LassoTrace:
    """The unrolled lasso of a candidate, on which its stutter lies."""
    loop_idx, stem_len, stem_idx, k = candidate[:4]
    stems = enumerate_states(len(atom_names), stem_len)
    loops = enumerate_states(len(atom_names), loop_len)
    stem = tuple(tuple(bool(v) for v in row) for row in stems[stem_idx])
    loop = tuple(tuple(bool(v) for v in row) for row in loops[loop_idx])
    return unroll(LassoTrace(atom_names, stem, loop), k)


def _reconstruct(f: Formula, atom_names: tuple[str, ...], loop_len: int,
                 candidate: tuple) -> Counterexample:
    i, before = candidate[4:]
    trace = _candidate_trace(atom_names, loop_len, candidate)
    got_before = eval_formula(f, trace)
    got_after = eval_formula(f, stutter_at(trace, i))
    if got_before != before or got_after == before:
        raise RuntimeError(
            "evaluation routes disagree on a counterexample candidate; "
            "this is a bug"
        )
    return Counterexample(f, trace, i, before, not before)


def falsify(f: Formula,
            bounds: SearchBounds | None = None) -> Counterexample | None:
    """First stuttering counterexample within bounds, or None.

    The counterexample is marked with ``bounds`` outside its fields, so
    that :func:`minimize` under the same bounds knows it as this search's
    first flip; a copy made by ``dataclasses.replace`` or read back by
    :func:`cex_from_doc` is not marked."""
    if bounds is None:
        bounds = SearchBounds()
    atom_names, nodes, program = _plan(f)
    _loop_chunk(nodes, len(atom_names), bounds)
    if program is None:
        return None  # next-free: closed under stuttering
    for loop_len, first, loops in _search_blocks(program, len(atom_names),
                                                 bounds):
        found = _first_flip(program, loops, first, bounds)
        if found:
            cex = _reconstruct(f, atom_names, loop_len, found)
            object.__setattr__(cex, "_searched", bounds)
            return cex
    return None


def minimize(cex: Counterexample,
             bounds: SearchBounds | None = None) -> Counterexample:
    """Smallest counterexample for the same formula within bounds.

    Smallest means shortest stem, then shortest loop, then lowest
    stutter position; the given counterexample itself is kept as the
    fallback, so the result is never worse.  Raises ValueError if the
    input does not actually witness a flip.

    A candidate with stem ``s``, loop ``l`` and unroll depth ``k`` has
    an unrolled stem of ``s + k * l``; it can rank before the best so
    far, of unrolled stem ``n`` and loop ``l0``, only if that is at most
    ``n``, and, if ``l`` is longer than ``l0``, only if it is less than
    ``n``.  So for each loop length only stems up to that limit and
    depths up to the limit ``// l`` are searched, and a limit of 0 ends
    the search (a stutter needs an unrolled stem of at least 1, and the
    limits only fall with longer loops and better candidates): the cost
    grows with the input's size, not with the bounds.  Within a stem
    layer the position orders size, so each layer's least flip by
    position, then row, is ranked.  The bounds are still checked whole,
    before the search is narrowed.  If the best candidate is the input
    itself (same trace, same stutter position), the input is returned.

    Ties of size go to the first candidate in visit order.  A block's
    candidates come after those of the blocks before it, so they win no
    tie against a best candidate found there, only against an input.  An
    input that :func:`falsify` returned under the same bounds is the
    search's first flip, which wins every tie: it is not evaluated
    again, and on its own loop length, when its position is 0, the limit
    is ``n - 1``, so an input of stem 1, loop 1 and position 0 needs no
    search at all.  Any other input is checked on entry and loses its
    ties.
    """
    if bounds is None:
        bounds = SearchBounds()
    f = cex.formula
    trusted = getattr(cex, "_searched", None) == bounds
    if not trusted:
        if not 0 <= cex.stutter_index < cex.trace.stem_len:
            raise ValueError("not a valid counterexample for its formula: "
                             f"stutter position {cex.stutter_index} outside "
                             f"stem of length {cex.trace.stem_len}")
        before = eval_formula(f, cex.trace)
        after = eval_formula(f, stutter_at(cex.trace, cex.stutter_index))
        if (before != cex.value_before or after != cex.value_after
                or before == after):
            raise ValueError("not a valid counterexample for its formula")
    atom_names, nodes, program = _plan(f)
    _loop_chunk(nodes, len(atom_names), bounds)
    size = cex.trace.stem_len
    within = replace(bounds, max_stem=min(bounds.max_stem, size))
    # (unrolled stem, loop length, position) and then the candidate,
    # which breaks ties in visit order; the input's -1 or inf puts it
    # before or after the candidates that tie with it.
    best = own = (size, cex.trace.loop_len, cex.stutter_index,
                  -1 if trusted else math.inf)
    for loop_len, first, loops in _search_blocks(program, len(atom_names),
                                                 within):
        n, l0, i0, order = best[:4]
        # A candidate of unrolled stem n ranks before the best on a
        # shorter loop; on loop l0 only at a lower position, or at the
        # same one against an unmarked input, which loses its ties.
        same_size = loop_len < l0 or loop_len == l0 and (
            i0 or order == math.inf)
        limit = n if same_size else n - 1
        if not limit:
            break  # a stutter needs an unrolled stem of 1 or more
        for layer in _flips(program, loops, [min(within.max_stem, limit)],
                            min(within.max_unroll, limit // loop_len)):
            _, rows, _, positions, _ = layer
            candidate = _candidate(loops, first, layer,
                                   np.lexsort((rows, positions))[0])
            _, s, _, k, i, _ = candidate
            best = min(best, (s + k * loop_len, loop_len, i, *candidate))
    if best is own:
        return cex
    loop_len, candidate = best[1], best[3:]
    if (candidate[4:] == (cex.stutter_index, cex.value_before)
            and _candidate_trace(atom_names, loop_len, candidate)
            == cex.trace):
        return cex  # the input itself, checked on entry
    return _reconstruct(f, atom_names, loop_len, candidate)


def cex_to_doc(cex: Counterexample) -> dict:
    return {
        "formula": render(cex.formula),
        "trace": trace_to_doc(cex.trace),
        "stutter_index": cex.stutter_index,
        "value_before": cex.value_before,
        "value_after": cex.value_after,
    }


def cex_from_doc(doc: dict) -> Counterexample:
    """Inverse of :func:`cex_to_doc`; the values accept 0/1 as well as
    booleans, the stutter index only an integer."""
    return read_fields(doc, "counterexample document", (
        ("formula", True, parse, "a formula text"),
        ("trace", True, trace_from_doc, "a trace document"),
        ("stutter_index", True, int, "an integer"),
        ("value_before", True, boolean, "a boolean"),
        ("value_after", True, boolean, "a boolean"),
    ), Counterexample)
