"""Bounded search for stuttering counterexamples.

A counterexample to closure under stuttering is a lasso trace plus a
position whose duplication flips the formula's value.  The search
enumerates every lasso within the bounds (all loop contents, all stem
contents, all unroll depths), evaluates the formula on each trace and on
each one-state stutter of it with the vectorized labeling evaluator, and
reports the first flip in a fixed deterministic order: shorter loops
first, then loop contents lexicographically, then shorter stems, stem
contents, unroll depth, stutter position.

Stutters are applied to the unrolled trace.  At unroll depth ``k`` only
positions inside the k-th loop copy are new; duplicating an earlier
position yields the same infinite word as a stutter at a smaller depth,
so those are skipped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .batch import enumerate_states, label_block
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


def _stutter_positions(stem_len: int, loop_len: int, k: int) -> range:
    if k == 0:
        return range(stem_len)
    return range(stem_len + (k - 1) * loop_len, stem_len + k * loop_len)


def _search_unit(payload) -> list[tuple]:
    """Scan one (loop length, loop chunk) block of the search space.

    Returns candidate tuples ``(loop_idx, stem_len, stem_idx, k, i,
    before, after)``, at most one per (stem_len, k, i): the first in
    enumeration order.
    """
    f, atom_names, bounds, loop_len, chunk_start, chunk_size = payload
    loops_all = enumerate_states(len(atom_names), loop_len)
    loops = loops_all[chunk_start : chunk_start + chunk_size]
    found: list[tuple] = []
    for stem_len in range(bounds.max_stem + 1):
        stems = enumerate_states(len(atom_names), stem_len)
        n_stems = stems.shape[0]
        row_stems = np.tile(stems, (loops.shape[0], 1, 1))
        row_loops = np.repeat(loops, n_stems, axis=0)
        base = label_block(f, atom_names, row_stems, row_loops)
        for k in range(bounds.max_unroll + 1):
            pieces = [row_stems] + [row_loops] * k
            unrolled = np.concatenate(pieces, axis=1)
            for i in _stutter_positions(stem_len, loop_len, k):
                stuttered = np.insert(unrolled, i + 1, unrolled[:, i, :],
                                      axis=1)
                vals = label_block(f, atom_names, stuttered, row_loops)
                flips = np.flatnonzero(base != vals)
                if flips.size:
                    r = int(flips[0])
                    found.append((
                        chunk_start + r // n_stems,
                        stem_len,
                        r % n_stems,
                        k,
                        i,
                        bool(base[r]),
                        bool(vals[r]),
                    ))
    return found


def _search_units(f: Formula, atom_names: tuple[str, ...],
                  bounds: SearchBounds) -> list[tuple]:
    num_atoms = len(atom_names)
    n_stems_max = 1 << (num_atoms * bounds.max_stem)
    chunk = max(1, _CHUNK_TARGET_ROWS // n_stems_max)
    units = []
    for loop_len in range(1, bounds.max_loop + 1):
        n_loops = 1 << (num_atoms * loop_len)
        for start in range(0, n_loops, chunk):
            units.append((f, atom_names, bounds, loop_len, start, chunk))
    return units


def _atoms_for(f: Formula, bounds: SearchBounds) -> tuple[str, ...]:
    names = atoms_of(f) or ("p",)
    if len(names) > bounds.atom_cap:
        raise ValueError(
            f"formula has {len(names)} atoms, over the search cap of "
            f"{bounds.atom_cap}; a larger cap needs "
            f"SearchBounds(atom_cap=...) in the Python API"
        )
    return names


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


def falsify(f: Formula, bounds: SearchBounds | None = None,
            jobs: int = 1) -> Counterexample | None:
    """First stuttering counterexample within bounds, or None.

    With ``jobs > 1`` the search blocks run in worker processes; the
    result is identical to the sequential one because blocks are
    consumed in enumeration order.
    """
    if bounds is None:
        bounds = SearchBounds()
    atom_names = _atoms_for(f, bounds)
    units = _search_units(f, atom_names, bounds)
    for loop_len, found in _run_units(units, jobs):
        if found:
            best = min(found)
            return _reconstruct(f, atom_names, loop_len, best)
    return None


def _run_units(units: list[tuple], jobs: int):
    """Yield (loop_len, candidates) per unit, in enumeration order."""
    if jobs <= 1:
        for unit in units:
            yield unit[3], _search_unit(unit)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for unit, found in zip(units, pool.map(_search_unit, units)):
            yield unit[3], found


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
    """
    if bounds is None:
        bounds = SearchBounds()
    f = cex.formula
    before = eval_formula(f, cex.trace)
    after = eval_formula(f, stutter_at(cex.trace, cex.stutter_index))
    if (before != cex.value_before or after != cex.value_after
            or before == after):
        raise ValueError("not a valid counterexample for its formula")
    atom_names = _atoms_for(f, bounds)
    best: tuple | None = None  # ((size key, visit order), loop_len, candidate)
    for loop_len, found in _run_units(_search_units(f, atom_names, bounds), 1):
        for candidate in found:
            loop_idx, stem_len, stem_idx, k, i, _, _ = candidate
            visit = (loop_len, loop_idx, stem_len, stem_idx, k, i)
            ranked = (_candidate_key(loop_len, candidate), visit)
            if best is None or ranked < best[0]:
                best = (ranked, loop_len, candidate)
    own_key = (cex.trace.stem_len, cex.trace.loop_len, cex.stutter_index)
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
    try:
        formula = parse(doc["formula"])
        trace = trace_from_doc(doc["trace"])
        index = int(doc["stutter_index"])
        before = bool(doc["value_before"])
        after = bool(doc["value_after"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed counterexample document: {exc}") from None
    return Counterexample(formula, trace, index, before, after)
