"""Property-pattern catalog: the existence pattern with edge variants.

Twenty templates: five scopes (global, before r, after q, between q and
r, after q until r) times four combinations of state-based versus
rising-edge-based conditions and scope bounds.  Combination 0 is fully
state-based; 1 keeps the condition state-based with edge bounds; 2 is
the reverse; 3 is fully edge-based.  Scopes are closed-left, open-right
intervals.  Falling-edge variants need no extra rows: binding a negated
atom turns a rising edge into the falling one.

Template bodies use lowercase stand-ins (``p``, ``q``, ``r``) for the
uppercase metavariables; ``instantiate`` substitutes real formulas for
them.  A template proved closed under stuttering stays closed for any
instantiation whose bound formulas are themselves closed, so
instantiation warns about bindings the analyzer cannot prove.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from functools import lru_cache

from .analyzer import Closed, Verdict, analyze
from .formula import (
    Atom,
    Formula,
    atoms_of,
    normalize_edge_negations,
    transform_bottom_up,
)
from .syntax import ParseError, parse, render

_SCOPE_NAMES = {
    "A": "A-Global",
    "B": "B-Before",
    "C": "C-After",
    "D": "D-Between",
    "E": "E-AfterUntil",
}

# scope letter, combination, metavariables, body, notes
_BUILTIN_ROWS = [
    ("A", 0, "P", "F p", ""),
    ("A", 1, "P", "F p",
     "globally has no bounds to lift, so this equals combination 0"),
    ("A", 2, "P", "F up p", ""),
    ("A", 3, "P", "F up p",
     "globally has no bounds to lift, so this equals combination 2"),
    ("B", 0, "P,R", "F r -> !(!p U r)", ""),
    ("B", 1, "P,R", "F up r -> (!up r U p)", ""),
    ("B", 2, "P,R", "F r -> !(!up p U r)", ""),
    ("B", 3, "P,R", "F up r -> !(!up p U up r)", ""),
    ("C", 0, "P,Q", "F q -> F(q & F p)", ""),
    ("C", 1, "P,Q", "F up q -> F(up q & X F p)", ""),
    ("C", 2, "P,Q", "F q -> F(q & F up p)", ""),
    ("C", 3, "P,Q", "F up q -> F(up q & F up p)", ""),
    ("D", 0, "P,Q,R", "G(q & F r -> !(!p U r) & !r)", ""),
    ("D", 1, "P,Q,R", "G(up q & F up r -> X(!up r U p) & !up r)", ""),
    ("D", 2, "P,Q,R", "G(q & F r -> !(!up p U r) & !r)", ""),
    ("D", 3, "P,Q,R", "G(up q & F up r -> !(!up p U up r) & !up r)", ""),
    ("E", 0, "P,Q,R",
     "G(q -> (F r & (!(!p U r) & !r)) | (!F r & F p))",
     "if-then-else spelled as (c & t) | (!c & e)"),
    ("E", 1, "P,Q,R", "G(up q -> X(!up r U p) & !up r)",
     "as published: no eventually-up-r guard, unlike the sibling rows"),
    ("E", 2, "P,Q,R",
     "G(q -> (F r & (!(!up p U r) & !r)) | (!F r & F up p))",
     "if-then-else spelled as (c & t) | (!c & e)"),
    ("E", 3, "P,Q,R",
     "G(up q -> (F up r & (!(!up p U up r) & !up r)) | (!F up r & F up p))",
     "if-then-else spelled as (c & t) | (!c & e)"),
]


@dataclass(frozen=True)
class PatternTemplate:
    ident: str
    pattern: str
    scope: str | None
    combination: int | None
    metavariables: tuple[str, ...]
    body: Formula
    notes: str = ""

    def __post_init__(self) -> None:
        for m in self.metavariables:
            if not (len(m) == 1 and m.isalpha() and m.isupper()):
                raise ValueError(
                    f"metavariable {reprlib.repr(m)} must be a single uppercase "
                    "letter"
                )
        allowed = {m.lower() for m in self.metavariables}
        stray = [a for a in atoms_of(self.body) if a not in allowed]
        if stray:
            raise ValueError(
                f"template {reprlib.repr(self.ident)}: body atoms "
                f"{reprlib.repr(stray)} are not metavariables"
            )


@dataclass(frozen=True)
class CatalogReport:
    entries: tuple[tuple[str, Verdict], ...]

    @property
    def all_closed(self) -> bool:
        return all(isinstance(v, Closed) for _, v in self.entries)


@lru_cache(maxsize=1)
def _builtin_templates() -> tuple[PatternTemplate, ...]:
    out = []
    for letter, combo, mvs, body, notes in _BUILTIN_ROWS:
        out.append(PatternTemplate(
            ident=f"existence/{letter}/{combo}",
            pattern="existence",
            scope=_SCOPE_NAMES[letter],
            combination=combo,
            metavariables=tuple(mvs.split(",")),
            body=parse(body),
            notes=notes,
        ))
    return tuple(out)


class Catalog:
    """Built-in templates plus any user-supplied ones."""

    def __init__(self) -> None:
        self._entries: dict[str, PatternTemplate] = {
            t.ident: t for t in _builtin_templates()
        }
        self._verdicts: dict[str, Verdict] = {}

    def ids(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def get(self, ident: str) -> PatternTemplate:
        try:
            return self._entries[ident]
        except KeyError:
            raise ValueError(f"unknown pattern id {ident!r}") from None

    def templates(self) -> tuple[PatternTemplate, ...]:
        return tuple(self._entries.values())

    def verdict_for(self, ident: str) -> Verdict:
        if ident not in self._verdicts:
            self._verdicts[ident] = analyze(self.get(ident).body)
        return self._verdicts[ident]

    def load_user(self, text: str) -> tuple[str, ...]:
        """Add templates from a JSON catalog document; returns their ids."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"catalog document is not valid JSON: {exc}")
        except RecursionError:
            raise ValueError("catalog document is nested too deeply to read")
        if not isinstance(doc, list):
            raise ValueError("catalog document must be a list of entries")
        added: dict[str, PatternTemplate] = {}
        for n, entry in enumerate(doc):
            if not isinstance(entry, dict):
                raise ValueError("catalog entries must be objects")
            try:
                raw_id = entry["id"]
                mvs = entry["metavariables"]
                body_text = entry["body"]
            except KeyError as exc:
                raise ValueError(f"catalog entry is missing field {exc}")
            notes = entry.get("notes", "")
            name = reprlib.repr(raw_id) if isinstance(raw_id, str) else f"#{n}"
            for field, ok, kind in (
                ("id", isinstance(raw_id, str), "a string"),
                ("metavariables", isinstance(mvs, list)
                 and all(isinstance(m, str) for m in mvs), "a list of strings"),
                ("body", isinstance(body_text, str), "a string"),
                ("notes", isinstance(notes, str), "a string"),
            ):
                if not ok:
                    raise ValueError(f"entry {name}: field {field!r} must be "
                                     f"{kind}")
            ident = raw_id if raw_id.startswith("user/") else f"user/{raw_id}"
            try:
                body = parse(body_text)
            except ParseError as exc:
                raise ValueError(f"entry {name}: {exc}") from None
            if ident in self._entries or ident in added:
                raise ValueError("duplicate pattern id "
                                 f"{reprlib.repr(ident)}")
            try:
                added[ident] = PatternTemplate(
                    ident=ident,
                    pattern="user",
                    scope=None,
                    combination=None,
                    metavariables=tuple(mvs),
                    body=body,
                    notes=notes,
                )
            except ValueError as exc:
                raise ValueError(f"entry {name}: {exc}") from None
        # Inserted only once every entry is checked: a rejected document
        # loads nothing.
        self._entries.update(added)
        return tuple(added)

    def instantiate(
        self, ident: str, binding: dict[str, Formula]
    ) -> tuple[Formula, tuple[str, ...]]:
        """Substitute bound formulas for the template's metavariables.

        Returns the instantiated formula and a warning per binding the
        analyzer cannot prove closed under stuttering (the template's
        guarantee is conditional on its components).
        """
        template = self.get(ident)
        want = set(template.metavariables)
        got = set(binding)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            parts = []
            if missing:
                parts.append(f"missing {', '.join(missing)}")
            if extra:
                parts.append(f"unexpected {', '.join(extra)}")
            raise ValueError(
                f"binding for {ident} must cover exactly "
                f"{', '.join(template.metavariables)}: {'; '.join(parts)}"
            )
        mapping = {m.lower(): g for m, g in binding.items()}

        def step(node: Formula) -> Formula:
            if isinstance(node, Atom) and node.name in mapping:
                return mapping[node.name]
            return node

        result = normalize_edge_negations(
            transform_bottom_up(template.body, step)
        )
        warnings = tuple(
            f"binding {m}={render(binding[m])} is not provably closed "
            f"under stuttering"
            for m in template.metavariables
            if not isinstance(analyze(binding[m]), Closed)
        )
        return result, warnings

    def check(self) -> CatalogReport:
        """Analyze every template body (metavariables read as atoms)."""
        return CatalogReport(
            tuple((ident, self.verdict_for(ident)) for ident in self.ids())
        )


class _SharedCatalog(Catalog):
    """The process-wide catalog; it holds the built-in templates only."""

    def load_user(self, text: str) -> tuple[str, ...]:
        raise ValueError(
            "the shared catalog holds the built-in templates only; "
            "load user templates into a fresh Catalog()"
        )


@lru_cache(maxsize=1)
def _default_catalog() -> Catalog:
    return _SharedCatalog()


def catalog() -> Catalog:
    """The catalog of built-in templates (shared instance, read-only)."""
    return _default_catalog()


def instantiate(
    ident: str, binding: dict[str, Formula]
) -> tuple[Formula, tuple[str, ...]]:
    return catalog().instantiate(ident, binding)


def check_catalog() -> CatalogReport:
    return catalog().check()


def template_to_doc(t: PatternTemplate) -> dict:
    return {
        "id": t.ident,
        "metavariables": list(t.metavariables),
        "body": render(t.body),
        "notes": t.notes,
    }
