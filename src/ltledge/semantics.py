"""Lasso traces and exact LTL evaluation on them.

A lasso trace denotes the infinite word ``stem . loop . loop . ...``
over a finite atom set.  On such words LTL evaluation is exact: every
suffix from position ``stemlen`` onwards repeats with period ``looplen``,
so quantifiers over the infinite future only need a bounded window.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .batch import (
    _label_temporal,
    _root_rows,
    _Temporal,
    _window_temporal,
    compile_formula,
)
from .formula import Formula

State = tuple[bool, ...]


class UnknownAtomError(LookupError):
    """A formula mentions an atom the trace does not carry."""


def _check_states(label: str, states: Sequence[Sized], width: int) -> None:
    if set(map(len, states)) <= {width}:
        return
    i, state = next((i, s) for i, s in enumerate(states) if len(s) != width)
    raise ValueError(f"{label} state {i} has {len(state)} values, expected {width}")


@dataclass(frozen=True)
class LassoTrace:
    """Finite presentation of the infinite word stem . loop^omega.

    ``atoms`` fixes the columns; each state is a tuple of booleans in
    atom order.  The stem may be empty, the loop may not.  Lists are
    stored as tuples, so every trace is hashable.
    """

    atoms: tuple[str, ...]
    stem: tuple[State, ...]
    loop: tuple[State, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "stem", tuple(map(tuple, self.stem)))
        object.__setattr__(self, "loop", tuple(map(tuple, self.loop)))
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

    @cached_property
    def _cells(self) -> np.ndarray:
        """The states ``stem + loop`` as one read-only boolean array of
        shape (positions, atoms), built once and shared by both
        evaluation routes."""
        cells = np.array(self.stem + self.loop, dtype=bool).reshape(
            self.stem_len + self.loop_len, len(self.atoms))
        cells.flags.writeable = False
        return cells


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


def _eval_one_row(f: Formula, t: LassoTrace, p: int,
                  temporal: _Temporal) -> bool:
    try:
        program = compile_formula(f, tuple(t.atoms))
    except KeyError as exc:
        raise UnknownAtomError(
            f"formula atom {exc.args[0]!r} is not among the trace atoms "
            f"{list(t.atoms)}"
        ) from None
    q = normalize_position(t, p)
    rows = _root_rows(program, t._cells[None], t.stem_len, temporal)
    return bool(rows[-1, q, 0])


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


def _doc_cells(rows, label: str, width: int) -> np.ndarray:
    """The ``stem`` or ``loop`` field of a trace document as a boolean
    array of shape (states, width).

    Checked in bulk: one conversion to an array, whose dtype and values
    show whether every value is a boolean or 0/1.  Only a rejected field
    is scanned value by value, to name the first bad value.
    """
    if not isinstance(rows, list) or set(map(type, rows)) - {list}:
        raise ValueError(f"'{label}' must be a list of lists of booleans or 0/1")
    _check_states(label, rows, width)
    if not rows or not width:
        return np.zeros((len(rows), width), dtype=bool)
    try:
        values = np.array(rows)
    except ValueError:  # a value is a list of another length
        values = None
    if (values is not None and values.ndim == 2 and values.dtype.kind in "bi"
            and ((values == 0) | (values == 1)).all()):
        return values.astype(bool)
    bad = next(v for row in rows for v in row
               if not isinstance(v, (bool, int)) or v not in (0, 1))
    raise ValueError(f"'{label}' values must be booleans or 0/1, "
                     f"not {reprlib.repr(bad)}")


def trace_from_doc(doc: dict) -> LassoTrace:
    """Inverse of :func:`trace_to_doc`; each state value is a boolean or
    0/1, anything else is a ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object, not "
                         f"{type(doc).__name__}")
    try:
        atoms = doc["atoms"]
        stem = doc["stem"]
        loop = doc["loop"]
    except KeyError as exc:
        raise ValueError(f"trace document is missing field {exc}") from None
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("'atoms' must be a list of identifiers")
    cells = np.concatenate([_doc_cells(stem, "stem", len(atoms)),
                            _doc_cells(loop, "loop", len(atoms))])
    states = tuple(map(tuple, cells.tolist()))
    trace = LassoTrace(tuple(atoms), states[:len(stem)], states[len(stem):])
    cells.flags.writeable = False
    vars(trace)["_cells"] = cells  # the cached property, already built
    return trace


def load_trace(text: str) -> LassoTrace:
    """Parse a JSON trace document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace document is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("trace document is nested too deeply to read")
    return trace_from_doc(doc)


def dump_trace(t: LassoTrace) -> str:
    return json.dumps(trace_to_doc(t), indent=2)
