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

Each block of same-shape lassos is labeled once: the compiled formula
(``batch.compile_formula``) gives every node's truth at every canonical
position, by the labeling route.  No stuttered copy is built.
Duplicating position ``i`` leaves the suffix after it unchanged, so the
stuttered word's node vector at ``i + 1`` is the original one at ``i``,
and its vector at ``i`` is one backward ``batch.step`` from there; that
step depends only on the folded position, so it is taken once per
canonical position for all unroll depths.  Only the lassos whose vector
changed are swept back towards position 0, one step per position, and
a lasso is dropped as soon as its vector matches the original labels
again; a lasso still differing at the root at position 0 is a flip.
Every candidate is re-checked on explicit traces by the scan route
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .batch import (
    Program,
    _label_temporal,
    _root_rows,
    compile_formula,
    enumerate_states,
    step,
)
from .formula import Formula, atoms_of
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
# (positions x program nodes x lassos), or the table of every loop or
# every stem of the longest length.  The defaults need 7 x 2**17 bytes
# per program node at 3 atoms.
_SEARCH_BUDGET_BITS = 27


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


def _diverging(program: Program, letters: np.ndarray, labels: np.ndarray,
               q: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose node vector at canonical position ``q`` changes when
    the state there is duplicated, and their new node vectors.

    After the duplication the next position carries the old suffix from
    ``q``, so the new vector at ``q`` is one :func:`step` from
    ``labels[q]``.
    """
    moved = step(program, letters[q], labels[q])
    rows = np.flatnonzero((moved != labels[q]).any(axis=0))
    return rows, moved[:, rows]


def _sweep(program: Program, letters: np.ndarray, labels: np.ndarray,
           fold, i: int, rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rows among ``rows`` whose root at position 0 flips when position
    ``i`` of the unrolled lasso is duplicated.

    ``rows`` and their ``vectors`` at ``i`` come from :func:`_diverging`
    at ``fold(i)``; each step back to ``j`` reads the letter and the
    original labels at ``fold(j)``.  Positions before ``i`` keep their
    letters, so a row whose vector matches the original labels again
    matches at every earlier position too, and is dropped.
    """
    for j in range(i - 1, -1, -1):
        if not rows.size:
            break
        q = fold(j)
        vectors = step(program, letters[q][:, rows], vectors)
        moved = (vectors != labels[q][:, rows]).any(axis=0)
        rows, vectors = rows[moved], vectors[:, moved]
    return rows[vectors[-1] != labels[0, -1, rows]]


def _search_unit(program: Program, loops: np.ndarray, first: int,
                 max_stem: int, max_unroll: int) -> list[tuple]:
    """Scan one block of the search space: every lasso whose loop is one
    of ``loops`` (loop indices ``first`` onwards), after every stem of
    up to ``max_stem`` states, unrolled up to ``max_unroll`` times.

    Returns candidate tuples ``(loop_idx, stem_len, stem_idx, k, i,
    before, after)``, at most one per (stem_len, k, i): the first in
    enumeration order.  They are listed by (stem_len, k, i).
    """
    _, loop_len, num_atoms = loops.shape
    found: list[tuple] = []
    for stem_len in range(max_stem + 1):
        stems = enumerate_states(num_atoms, stem_len)
        n_stems, width = stems.shape[0], stem_len + loop_len
        # Row r holds loop r // n_stems after stem r % n_stems.
        cells = np.empty((loops.shape[0], n_stems, width, num_atoms),
                         dtype=bool)
        cells[:, :, :stem_len] = stems
        cells[:, :, stem_len:] = loops[:, None]
        cells = cells.reshape(-1, width, num_atoms)
        labels = _root_rows(program, cells, stem_len, _label_temporal)
        letters = cells.transpose(1, 2, 0)

        def fold(j: int) -> int:
            return j if j < stem_len else stem_len + (j - stem_len) % loop_len

        block: list[tuple] = []
        for q in range(width):
            # Unroll depths whose new positions fold to q: k = 0 for a
            # stem position, else each k >= 1, at i = q + (k - 1) * loop.
            depths = [0] if q < stem_len else range(1, max_unroll + 1)
            if not depths:
                continue
            start = _diverging(program, letters, labels, q)
            for k in depths:
                i = q + max(0, k - 1) * loop_len
                flips = _sweep(program, letters, labels, fold, i, *start)
                if flips.size:
                    r = int(flips[0])
                    before = bool(labels[0, -1, r])
                    block.append((first + r // n_stems, stem_len,
                                  r % n_stems, k, i, before, not before))
        found.extend(sorted(block, key=lambda c: (c[3], c[4])))
    return found


def _search_blocks(program: Program, num_atoms: int, bounds: SearchBounds,
                   unrolled_stem: int | None = None):
    """Yield ``(loop_len, candidates)`` per search block, in enumeration
    order.  With ``unrolled_stem``, loops of length ``l`` are unrolled at
    most ``unrolled_stem // l`` times.  The bounds are checked before
    anything is allocated.
    """
    chunk = _loop_chunk(len(program), num_atoms, bounds)
    for loop_len in range(1, bounds.max_loop + 1):
        max_unroll = bounds.max_unroll
        if unrolled_stem is not None:
            max_unroll = min(max_unroll, unrolled_stem // loop_len)
        loops = enumerate_states(num_atoms, loop_len)
        for first in range(0, loops.shape[0], chunk):
            yield loop_len, _search_unit(program, loops[first:first + chunk],
                                         first, bounds.max_stem, max_unroll)


def _atoms_for(f: Formula, bounds: SearchBounds) -> tuple[str, ...]:
    names = atoms_of(f) or ("p",)
    if len(names) > bounds.atom_cap:
        raise ValueError(
            f"formula has {len(names)} atoms, over the search cap of "
            f"{bounds.atom_cap}; a larger cap needs "
            f"SearchBounds(atom_cap=...) in the Python API"
        )
    return names


def _loop_chunk(nodes: int, num_atoms: int, bounds: SearchBounds) -> int:
    """Loops per search block, for a program of ``nodes`` nodes.

    A block labels (loop chunk) x (every stem of one length) lassos at
    their ``stem + loop`` canonical positions, one byte per program node
    each; the unroll depth costs no memory.  The chunk aims at
    ``_CHUNK_TARGET_ROWS`` lassos per block and shrinks only for a
    program whose block would go over the budget.  Raises ValueError,
    before anything is allocated, when the block of a single loop or
    the table of every loop or every stem of the longest length cannot
    fit.  Lasso counts are powers of two, kept as exponents.
    """
    stem_bits = num_atoms * bounds.max_stem
    width = bounds.max_stem + bounds.max_loop
    per_loop = (width * nodes) << stem_bits
    budget = 1 << _SEARCH_BUDGET_BITS
    for name, length in (("max_loop", bounds.max_loop),
                         ("max_stem", bounds.max_stem)):
        if (length * num_atoms) << (num_atoms * length) > budget:
            raise _over_budget(
                bounds, name, f"all 2**{num_atoms * length} {name[4:]}s of "
                f"{length} states over {num_atoms} atoms at once")
    if per_loop > budget:
        raise _over_budget(
            bounds, "max_stem", f"search blocks of at least 2**{stem_bits} "
            f"lassos x {width} positions x {nodes} formula nodes "
            f"({num_atoms} atoms)")
    return min(max(1, _CHUNK_TARGET_ROWS >> stem_bits), budget // per_loop)


def _over_budget(bounds: SearchBounds, name: str, needs: str) -> ValueError:
    return ValueError(
        f"SearchBounds({name}={getattr(bounds, name)}) needs {needs}, over "
        f"the budget of 2**{_SEARCH_BUDGET_BITS} bytes"
    )


def _reconstruct(f: Formula, atom_names: tuple[str, ...], loop_len: int,
                 candidate: tuple) -> Counterexample:
    loop_idx, stem_len, stem_idx, k, i, before, after = candidate
    stems = enumerate_states(len(atom_names), stem_len)
    loops = enumerate_states(len(atom_names), loop_len)
    stem = tuple(tuple(bool(v) for v in row) for row in stems[stem_idx])
    loop = tuple(tuple(bool(v) for v in row) for row in loops[loop_idx])
    base_trace = LassoTrace(atom_names, stem, loop)
    trace = unroll(base_trace, k)
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
    atom_names = _atoms_for(f, bounds)
    program = compile_formula(f, atom_names)
    for loop_len, found in _search_blocks(program, len(atom_names), bounds):
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
    if that is at most the input's stem length ``n``.  So only stems up
    to ``n`` and depths up to ``n // l`` are searched: the cost grows
    with the input's size, not with the bounds.  The bounds are still
    checked whole, before the search is narrowed.
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
    atom_names = _atoms_for(f, bounds)
    program = compile_formula(f, atom_names)
    _loop_chunk(len(program), len(atom_names), bounds)
    size = cex.trace.stem_len
    within = replace(bounds, max_stem=min(bounds.max_stem, size))
    best: tuple | None = None  # ((size key, visit order), loop_len, candidate)
    for loop_len, found in _search_blocks(program, len(atom_names), within,
                                          size):
        for candidate in found:
            loop_idx, stem_len, stem_idx, k, i, _, _ = candidate
            visit = (loop_len, loop_idx, stem_len, stem_idx, k, i)
            ranked = (_candidate_key(loop_len, candidate), visit)
            if best is None or ranked < best[0]:
                best = (ranked, loop_len, candidate)
    own_key = (size, cex.trace.loop_len, cex.stutter_index)
    if best is None or own_key < best[0][0]:
        return cex
    return _reconstruct(f, atom_names, best[1], best[2])


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
                         f"must be an integer, not {index!r}")
    for name, value in (("value_before", before), ("value_after", after)):
        if not isinstance(value, (bool, int)) or value not in (0, 1):
            raise ValueError(f"malformed counterexample document: {name} "
                             f"must be a boolean, not {value!r}")
    return Counterexample(formula, trace, index, bool(before), bool(after))
