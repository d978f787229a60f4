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
by the labeling route (``batch.compile_formula``), at the loop's own
positions only.  Lasso ``(x u, v)`` has ``(u, v)`` as its suffix, so
the node vectors at position 0 of every lasso with a stem one state
longer are one backward ``batch.step`` per prepended state ``x`` from
the layer before; no stuttered copy is built and no stem position is
labeled.

A stutter is followed as a live entry: a lasso, the stutter position,
and the stuttered word's node vector.  Duplicating position ``i``
leaves the suffix after it unchanged, so the stuttered word's vector at
``i`` is one step from the original one there.  The stutters of loop
positions, of every unroll depth, are walked back around the loop once,
at stem 0, all together, one step per unrolled position.  Each stem
layer then moves every live entry on by the prepended state, drops it
once its whole vector equals the original's again (it would match at
every earlier position too), and adds the one new stutter, at position
0.  An entry whose root still differs from the original's is a flip.
The entries are held in groups no larger than the block's labels at
all ``stem + loop`` positions would be.  Every candidate is re-checked
on explicit traces by the scan route before it is returned.

A search stops once its answer is settled.  Stem layers are built when
a group first reaches them, and the stem bound is read before each
layer.  :func:`falsify` wants only the first flip of the first block
that has one, and the order is loop, stem length, stem, depth,
position: a flip on the block's first loop at stem length ``s`` lowers
the bound to ``s``, as no flip of a longer stem can come first.
:func:`minimize` lowers its limits after each block to the best
candidate so far, and returns its input itself when that is the best.

Two exact rules skip searches that cannot find anything.  A program
with no ``X`` or edge node (no node class in ``batch._SUCCESSOR``, the
table :func:`batch.step` reads) is closed under stuttering, so
:func:`falsify` returns None for it once the bounds are checked: with
a repeated letter every other node's step is idempotent (pointwise
nodes read only the letter and their children, and ``F``/``G``/``U``
satisfy ``R(a, b, R(a, b, y)) = R(a, b, y)``), so no stutter start
diverges.  And :func:`minimize` searches only the loop lengths, stems
and unroll depths whose candidates can rank before its input.

The program searched is the formula's fold (:func:`_fold`), so the
first rule also skips formulas whose ``X`` and edge nodes fold away,
such as ``X(q | !q)``.  The fold applies laws that hold at every
position of every word, bottom-up, and folds again any node a law
builds (``c`` is a constant, ``a`` and ``b`` any operands, and a
"same" operand is the same interned node):

* a connective (``!``, ``&``, ``|``, ``->``, ``<->``) whose operands
  are constants and one formula ``x``, each plain or as ``!x``, is a
  function of ``x`` alone.  Its truth table (``batch._POINTWISE``) at
  ``x`` true and at ``x`` false names its fold: a constant when the two
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

import reprlib
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .batch import (
    _POINTWISE,
    _SUCCESSOR,
    Program,
    _label_temporal,
    _root_rows,
    compile_formula,
    enumerate_states,
    step,
)
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
    vector is one :func:`step` from ``vectors``.
    """
    moved = step(program, letter, vectors)
    rows = np.flatnonzero((moved != vectors).any(axis=0)).astype(np.int32)
    return rows, moved[:, rows]


def _live(rows: np.ndarray, vectors: np.ndarray, offset: int) -> _Live:
    return rows, np.full(rows.size, offset, np.int32), vectors


def _no_stutters(vectors: np.ndarray) -> _Live:
    return _live(np.empty(0, dtype=np.int32), vectors[:, :0], 0)


def _joined(live: _Live, more: _Live) -> _Live:
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(live, more))


def _still_moved(program: Program, letter: np.ndarray, original: np.ndarray,
                 live: _Live) -> _Live:
    """Step the live vectors back one position, reading ``letter``, and
    keep the entries whose vector still differs from the ``original``
    one there, which is overwritten.  Earlier positions keep their
    letters, so an entry that matches again would match at every earlier
    position too."""
    rows, offsets, vectors = live
    vectors = step(program, letter, vectors)
    moved = np.not_equal(vectors, original, out=original).any(axis=0)
    return rows[moved], offsets[moved], vectors[:, moved]


def _stem_layer(program: Program, states: np.ndarray, n_loops: int,
               vectors: np.ndarray, s: int) -> tuple[np.ndarray, _Live]:
    """The stem layer of length ``s + 1`` from ``vectors``, the node
    vectors at position 0 of the lassos of stem length ``s``: its own
    vectors there, and the live stutters of its position 0.

    ``states`` holds the letters of every state, one column each.  Lasso
    ``(x u, v)`` has ``(u, v)`` as its suffix, so the layer is one
    :func:`step` per prepended state ``x``.
    """
    count = states.shape[1]
    stems = count**s
    letter = np.tile(np.repeat(states, stems, axis=1), n_loops)
    tails = vectors.reshape(len(program), n_loops, 1, stems)
    vectors = step(program, letter, np.repeat(tails, count, axis=2)
                   .reshape(len(program), -1))
    return vectors, _live(*_diverging(program, letter, vectors), -s - 1)


def _prepend(program: Program, states: np.ndarray, stems: int,
             vectors: np.ndarray, live: _Live) -> _Live:
    """Move ``live`` from a layer of ``stems`` stems per loop to position
    0 of the next one, whose vectors are ``vectors``: the entry of row
    ``(u, v)`` goes to row ``(x u, v)`` for every state ``x``."""
    rows, offsets, moved = live
    if not rows.size:
        return live
    count = states.shape[1]
    stem = rows % stems
    rows = ((rows - stem) * count + stem
            + np.arange(0, count * stems, stems, dtype=np.int32)[:, None])
    rows = rows.ravel()
    return _still_moved(
        program, np.repeat(states, stem.size, axis=1), vectors[:, rows],
        (rows, np.tile(offsets, count), np.tile(moved, count)))


def _loop_stutters(program: Program, loops: np.ndarray, labels: np.ndarray,
                   max_unroll: int, cap: int):
    """Yield the live stutters of loop positions at every unroll depth
    up to ``max_unroll`` on the stem-0 lassos, at position 0, in groups
    of at most ``cap`` entries.

    Walking the stutter position down from the deepest copy, all entries
    move back together, one step per position, and the stutter there
    joins them.  When it would overflow ``cap``, the entries so far are
    walked to position 0 on their own and yielded first.
    """
    loop_len = labels.shape[0]
    letters = loops.transpose(1, 2, 0)

    def back(live: _Live, j: int) -> _Live:
        rows = live[0]
        if not rows.size:
            return live
        q = j % loop_len
        return _still_moved(program, letters[q][:, rows], labels[q][:, rows],
                            live)

    starts = [_diverging(program, letters[q], labels[q])
              for q in range(loop_len)]
    live = _no_stutters(labels[0])
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


def _flips(program: Program, loops: np.ndarray, max_stem: int,
           max_unroll: int, first_only: bool = False):
    """Yield ``(stem_len, rows, k, i, before)`` for the stutters that
    flip the root, per layer that has any: the stutter at position
    ``i[n]`` of the lasso of row ``rows[n]``, unrolled ``k[n]`` times,
    flips its value at position 0 from ``before[n]``.

    Each row's loop is one of ``loops``; its stem has ``stem_len`` of up
    to ``max_stem`` states, and its unroll depth is at most
    ``max_unroll``.  Only the loops are labeled; the stem layers and the
    stutters follow by :func:`step`.  No group of live stutters outgrows
    this block's labels at the ``max_stem + loop`` positions of its
    longest stems: a stem-0 group holds at most ``loop`` entries per
    loop, the stem stutters (at most one per lasso and layer) ride with
    the first group, and each layer multiplies entries at most by the
    number of states, as it does rows.

    Stem layers are built when a group first reaches them, and
    ``max_stem`` is read before each layer.  With ``first_only``, a flip
    on the block's first loop at stem length ``s`` lowers it to ``s``:
    the search order is loop, stem length, stem, depth, position, so no
    flip of a longer stem comes first.  The groups walk on, up to
    stem ``s``, and the first flip is still among those yielded.
    """
    n_loops, loop_len, num_atoms = loops.shape
    labels = _root_rows(program, loops, 0, _label_temporal)
    states = enumerate_states(num_atoms, 1)[:, 0].T
    count = states.shape[1]
    layers = [(labels[0], _no_stutters(labels[0]))]
    groups = _loop_stutters(program, loops, labels, max_unroll,
                            loop_len * n_loops)
    for g, live in enumerate(groups):
        for s in range(max_stem + 1):
            if s > max_stem:
                break
            if s == len(layers):
                layers.append(_stem_layer(program, states, n_loops,
                                          layers[-1][0], s - 1))
            vectors, starts = layers[s]
            if s:
                live = _prepend(program, states, count ** (s - 1), vectors,
                                live)
                if g == 0:
                    live = _joined(live, starts)
                elif not live[0].size:
                    break
            rows, offsets, moved = live
            hit = moved[-1] != vectors[-1, rows]
            if hit.any():
                rows, offsets = rows[hit], offsets[hit]
                if first_only and rows.min() < count**s:
                    max_stem = s
                k = np.where(offsets < 0, 0, offsets // loop_len + 1)
                yield s, rows, k, offsets + s, ~moved[-1, hit]


def _search_unit(program: Program, loops: np.ndarray, first: int,
                 max_stem: int, max_unroll: int,
                 first_only: bool = False) -> list[tuple]:
    """Scan one block of the search space: every lasso whose loop is one
    of ``loops`` (loop indices ``first`` onwards), after every stem of
    up to ``max_stem`` states, unrolled up to ``max_unroll`` times.

    Returns candidate tuples ``(loop_idx, stem_len, stem_idx, k, i,
    before, after)``, at most one per (stem_len, k, i): the first in
    enumeration order.  They are listed by (stem_len, k, i).  With
    ``first_only`` only their minimum, the block's first flip, is exact:
    candidates of stems longer than a flip on the first loop may be
    missing (see :func:`_flips`).
    """
    n_states = 1 << loops.shape[2]
    found = {}
    for s, rows, k, i, before in _flips(program, loops, max_stem, max_unroll,
                                        first_only):
        # Within a layer the position names the stutter, and each
        # stutter's entries all live in one group.
        for ii in np.flatnonzero(np.bincount(i)).tolist():
            n = np.flatnonzero(i == ii)
            n = n[np.argmin(rows[n])]
            loop_idx, stem_idx = divmod(int(rows[n]), n_states**s)
            found[s, int(k[n]), ii] = (first + loop_idx, s, stem_idx,
                                       int(k[n]), ii, bool(before[n]),
                                       not before[n])
    return [found[key] for key in sorted(found)]


def _search_blocks(program: Program, num_atoms: int, bounds: SearchBounds,
                   beat: list[int] | None = None, first_only: bool = False):
    """Yield ``(loop_len, candidates)`` per search block, in enumeration
    order.  With ``beat = [n, l0]``, the unrolled stem and the loop
    length of a counterexample, only lassos that can rank before it are
    searched: their unrolled stem ``s + k * l`` is at most ``n``, and
    less than ``n`` for loops longer than ``l0``.  ``beat`` is read
    before each block, so the caller may lower it between blocks.
    ``first_only`` is passed to :func:`_search_unit`.  The bounds are
    checked before anything is allocated.
    """
    chunk = _loop_chunk(len(program), num_atoms, bounds)
    for loop_len in range(1, bounds.max_loop + 1):
        for first in range(0, 1 << num_atoms * loop_len, chunk):
            max_stem, max_unroll = bounds.max_stem, bounds.max_unroll
            if beat is not None:
                n, l0 = beat
                limit = n if loop_len <= l0 else n - 1
                if not limit:
                    break  # a stutter needs an unrolled stem of 1 or more
                max_stem = min(max_stem, limit)
                max_unroll = min(max_unroll, limit // loop_len)
            loops = enumerate_states(num_atoms, loop_len)[first:first + chunk]
            yield loop_len, _search_unit(program, loops, first, max_stem,
                                         max_unroll, first_only)


_TRUE, _FALSE = ConstTrue(), ConstFalse()
# Operand values at x = true and at x = false, where x is the one formula
# besides constants that they name; NumPy's, as ~True is -2.
_CONSTANTS = {_TRUE: (np.True_, np.True_), _FALSE: (np.False_, np.False_)}
_X, _NOT_X = (np.True_, np.False_), (np.False_, np.True_)


def _fold(f: Formula) -> Formula:
    """``f`` after the laws of the module docstring, applied bottom-up;
    equal to ``f`` at every position of every word."""
    return transform_bottom_up(f, _fold_node)


def _fold_node(g: Formula) -> Formula:
    """One node whose children are folded, folded; so is a node a law
    builds."""
    kind = type(g)
    truth = _POINTWISE.get(kind)
    if truth is not None:
        x, columns = None, []
        for a in children_of(g):
            y = a.child if type(a) is Not else a
            if a not in _CONSTANTS:
                if x is not None and y is not x:
                    return g  # a function of two formulas
                x = y
            columns.append(_CONSTANTS.get(a) or (_X if a is y else _NOT_X))
        columns += [_CONSTANTS[_FALSE]] * (2 - len(columns))  # unused slots
        high, low = (truth(*values) for values in zip(*columns))
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
def _plan(f: Formula) -> tuple[tuple[str, ...], int, Program]:
    """All a search reads of ``f``: its atoms (``("p",)`` if none), its
    written node count and the program of its fold over those atoms."""
    nodes = subformulas(f)
    names = tuple(g.name for g in nodes if type(g) is Atom) or ("p",)
    return names, len(nodes), compile_formula(_fold(f), names)


def _loop_chunk(nodes: int, num_atoms: int, bounds: SearchBounds) -> int:
    """Loops per search block, for a program of ``nodes`` nodes; every
    search is admitted or refused here, the atom cap first.

    A block covers (loop chunk) x (every stem of up to ``max_stem``
    states) lassos.  It is sized as their labels at the ``stem + loop``
    canonical positions of the longest stem, one byte per program node
    each, which no array of the block outgrows (see :func:`_flips`);
    the unroll depth costs no memory.  The chunk aims at
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
    i, before, after = candidate[4:]
    trace = _candidate_trace(atom_names, loop_len, candidate)
    got_before = eval_formula(f, trace)
    got_after = eval_formula(f, stutter_at(trace, i))
    if got_before != before or got_after != after or before == after:
        raise RuntimeError(
            "evaluation routes disagree on a counterexample candidate; "
            "this is a bug"
        )
    return Counterexample(f, trace, i, before, after)


def falsify(f: Formula,
            bounds: SearchBounds | None = None) -> Counterexample | None:
    """First stuttering counterexample within bounds, or None."""
    if bounds is None:
        bounds = SearchBounds()
    atom_names, nodes, program = _plan(f)
    _loop_chunk(nodes, len(atom_names), bounds)
    if not any(kind in _SUCCESSOR for kind, _, _ in program):
        return None  # next-free: closed under stuttering
    for loop_len, found in _search_blocks(program, len(atom_names), bounds,
                                          first_only=True):
        if found:
            return _reconstruct(f, atom_names, loop_len, min(found))
    return None


def _candidate_key(loop_len: int, candidate: tuple) -> tuple[int, int, int]:
    _, stem_len, _, k, i, _, _ = candidate
    return (stem_len + k * loop_len, loop_len, i)


def minimize(cex: Counterexample,
             bounds: SearchBounds | None = None) -> Counterexample:
    """Smallest counterexample for the same formula within bounds.

    Smallest means shortest stem, then shortest loop, then lowest
    stutter position; the given counterexample itself is kept as the
    fallback, so the result is never worse.  Raises ValueError if the
    input does not actually witness a flip.

    A candidate with stem ``s``, loop ``l`` and unroll depth ``k`` has
    an unrolled stem of ``s + k * l``; it can tie or beat the input only
    if that is at most the input's stem length ``n``, and, if ``l`` is
    longer than the input's loop, only if it is less than ``n``.  So for
    each loop length only stems up to that limit and depths up to the
    limit ``// l`` are searched, and a limit of 0 skips the loop length
    (a stutter needs an unrolled stem of at least 1): the cost grows
    with the input's size, not with the bounds.  After each block the
    best candidate so far takes the input's place in these limits.  The
    bounds are still checked whole, before the search is narrowed.  If
    the best candidate is the input itself (same trace, same stutter
    position), the input is returned, checked on entry.
    """
    if bounds is None:
        bounds = SearchBounds()
    f = cex.formula
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
    beat = [size, cex.trace.loop_len]
    best: tuple | None = None  # ((size key, visit order), loop_len, candidate)
    for loop_len, found in _search_blocks(program, len(atom_names), within,
                                          beat):
        for candidate in found:
            loop_idx, stem_len, stem_idx, k, i, _, _ = candidate
            visit = (loop_len, loop_idx, stem_len, stem_idx, k, i)
            ranked = (_candidate_key(loop_len, candidate), visit)
            if best is None or ranked < best[0]:
                best = (ranked, loop_len, candidate)
        if best is not None:
            beat[:] = best[0][0][:2]  # never above beat, as searched
    own_key = (size, cex.trace.loop_len, cex.stutter_index)
    if best is None or own_key < best[0][0]:
        return cex
    _, loop_len, candidate = best
    if (candidate[4:] == (cex.stutter_index, cex.value_before,
                          cex.value_after)
            and _candidate_trace(atom_names, loop_len, candidate)
            == cex.trace):
        return cex  # the input itself, checked above
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
    try:
        formula = parse(doc["formula"])
        trace = trace_from_doc(doc["trace"])
        index = doc["stutter_index"]
        before = doc["value_before"]
        after = doc["value_after"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed counterexample document: {exc}") from None
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError("malformed counterexample document: stutter_index "
                         f"must be an integer, not {reprlib.repr(index)}")
    for name, value in (("value_before", before), ("value_after", after)):
        if not isinstance(value, (bool, int)) or value not in (0, 1):
            raise ValueError(f"malformed counterexample document: {name} "
                             f"must be a boolean, not {reprlib.repr(value)}")
    return Counterexample(formula, trace, index, bool(before), bool(after))
