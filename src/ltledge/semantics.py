"""Lasso traces and exact LTL evaluation on them.

A lasso trace denotes the infinite word ``stem . loop . loop . ...``
over a finite atom set.  On such words LTL evaluation is exact: every
suffix from position ``stemlen`` onwards repeats with period ``looplen``,
so quantifiers over the infinite future only need a bounded window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .batch import (
    _label_temporal,
    _root_rows,
    _Temporal,
    _window_temporal,
    compile_formula,
)
from .formula import Formula, atoms_of

State = tuple[bool, ...]


class UnknownAtomError(LookupError):
    """A formula mentions an atom the trace does not carry."""


def _check_states(label: str, states: tuple[State, ...], width: int) -> None:
    for i, state in enumerate(states):
        if len(state) != width:
            raise ValueError(
                f"{label} state {i} has {len(state)} values, expected {width}"
            )


@dataclass(frozen=True)
class LassoTrace:
    """Finite presentation of the infinite word stem . loop^omega.

    ``atoms`` fixes the columns; each state is a tuple of booleans in
    atom order.  The stem may be empty, the loop may not.
    """

    atoms: tuple[str, ...]
    stem: tuple[State, ...]
    loop: tuple[State, ...]

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"duplicate atoms in {self.atoms}")
        if not self.loop:
            raise ValueError("loop must be nonempty")
        _check_states("stem", self.stem, len(self.atoms))
        _check_states("loop", self.loop, len(self.atoms))

    @property
    def stem_len(self) -> int:
        return len(self.stem)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def state_at(self, p: int) -> State:
        """State of the denoted infinite word at position ``p``."""
        if p < len(self.stem):
            return self.stem[p]
        return self.loop[(p - len(self.stem)) % len(self.loop)]


def normalize_position(t: LassoTrace, p: int) -> int:
    """Fold ``p`` into the canonical range ``0 ..< stem_len + loop_len``."""
    if p < 0:
        raise ValueError(f"negative position {p}")
    if p < t.stem_len + t.loop_len:
        return p
    return t.stem_len + (p - t.stem_len) % t.loop_len


def stutter_at(t: LassoTrace, i: int) -> LassoTrace:
    """Duplicate the stem state at position ``i``.

    The result denotes exactly the original word with one position
    repeated.  Loop positions are deliberately not accepted: duplicating
    a state inside the loop would repeat it in every iteration, which is
    a different transformation.  Use :func:`unroll` first to expose loop
    positions as stem positions.
    """
    if not 0 <= i < t.stem_len:
        raise IndexError(f"stutter position {i} outside stem of length {t.stem_len}")
    stem = t.stem[: i + 1] + (t.stem[i],) + t.stem[i + 1 :]
    return LassoTrace(t.atoms, stem, t.loop)


def unroll(t: LassoTrace, k: int) -> LassoTrace:
    """Move ``k`` copies of the loop into the stem; denoted word unchanged."""
    if k < 0:
        raise ValueError(f"negative unroll count {k}")
    return LassoTrace(t.atoms, t.stem + t.loop * k, t.loop)


def _check_atoms(f: Formula, t: LassoTrace) -> None:
    for name in atoms_of(f):
        if name not in t.atoms:
            raise UnknownAtomError(
                f"formula atom {name!r} is not among the trace atoms "
                f"{list(t.atoms)}"
            )


def _eval_one_row(f: Formula, t: LassoTrace, p: int,
                  temporal: _Temporal) -> bool:
    _check_atoms(f, t)
    q = normalize_position(t, p)
    width = len(t.atoms)
    cells = np.array(t.stem + t.loop, dtype=bool).reshape(1, -1, width)
    rows = _root_rows(compile_formula(f, t.atoms), cells, t.stem_len, temporal)
    return bool(rows[q, -1, 0])


def eval_formula(f: Formula, t: LassoTrace, p: int = 0) -> bool:
    """Truth of ``f`` on the word denoted by ``t`` at position ``p``.

    Forward window scan: a one-row call of the batch window route, which
    resolves ``G``/``F``/``U`` by scanning up to the witness bound
    ``stem_len + 2*loop_len``.  Positions past the end fold into range.
    """
    return _eval_one_row(f, t, p, _window_temporal)


def eval_oracle(f: Formula, t: LassoTrace, p: int = 0) -> bool:
    """Same contract as :func:`eval_formula`, independent algorithm.

    Backward fixpoint labeling: a one-row call of the batch label route,
    which resolves ``G``/``F``/``U`` on the loop first and then
    propagates back through the stem.
    """
    return _eval_one_row(f, t, p, _label_temporal)


def trace_to_doc(t: LassoTrace) -> dict:
    """JSON-ready document with fields ``atoms``, ``stem``, ``loop``."""
    return {
        "atoms": list(t.atoms),
        "stem": [list(state) for state in t.stem],
        "loop": [list(state) for state in t.loop],
    }


def trace_from_doc(doc: dict) -> LassoTrace:
    """Inverse of :func:`trace_to_doc`; accepts 0/1 as well as booleans."""
    try:
        atoms = doc["atoms"]
        stem = doc["stem"]
        loop = doc["loop"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"trace document is missing field {exc}") from None
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("'atoms' must be a list of identifiers")

    def states(rows, label: str) -> tuple[State, ...]:
        if not isinstance(rows, list):
            raise ValueError(f"'{label}' must be a list of boolean lists")
        out = []
        for row in rows:
            if not isinstance(row, list) or not all(
                isinstance(v, (bool, int)) for v in row
            ):
                raise ValueError(f"'{label}' must be a list of boolean lists")
            out.append(tuple(bool(v) for v in row))
        return tuple(out)

    return LassoTrace(tuple(atoms), states(stem, "stem"), states(loop, "loop"))


def load_trace(text: str) -> LassoTrace:
    """Parse a JSON trace document."""
    return trace_from_doc(json.loads(text))


def dump_trace(t: LassoTrace) -> str:
    return json.dumps(trace_to_doc(t), indent=2)
