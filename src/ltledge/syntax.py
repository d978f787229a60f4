"""Concrete syntax: parsing and rendering of formulas.

Two tables define the operators; the tokenizer, the parser and the
renderer all read them.  ``PREFIX`` maps each prefix keyword to its node
class; prefix operators bind tightest.  ``INFIX`` gives each infix symbol
its node class, binding level and associativity, loosest first: ``<->``
and ``->`` right, ``|`` and ``&`` left, ``U`` right.  An operand is
``true``, ``false``, an atom (a lowercase identifier that is not a
keyword) or a parenthesized formula.

``parse`` is one precedence-climbing loop over ``INFIX``; a run of prefix
operators is folded around its operand.  Each prefix operator,
parenthesis and right-associative operator whose operand is still being
read is one nesting level, and more than ``MAX_NESTING`` levels is a
:class:`ParseError`; ``&`` and ``|`` chains do not nest.  ``render``
emits the minimal parenthesization that reparses to the same tree, in
one loop over an explicit stack, so trees of any depth render.
"""

from __future__ import annotations

import re
import reprlib

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
)

PREFIX = {
    "!": Not, "X": Next, "G": Always, "F": Eventually,
    "up": RiseEdge, "down": FallEdge, "edge": AnyEdge,
}
INFIX = {  # symbol -> (node class, binding level, right associative)
    "<->": (Iff, 1, True),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "&": (And, 4, False),
    "U": (Until, 5, True),
}
MAX_NESTING = 100
_CONSTANTS = {"true": ConstTrue, "false": ConstFalse}

_SYMBOLS = [s for s in (*PREFIX, *INFIX, "(", ")") if not s.isalpha()]
# Per token: a word or symbol (group 1), a stray character (group 2), or
# the end of the text (neither).
_TOKEN_RE = re.compile(
    r"\s*(?:([a-z][a-z0-9_]*|[A-Z]|%s)|(.)|\Z)"
    % "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))),
    re.DOTALL,
)


class ParseError(ValueError):
    """Raised on malformed input; ``pos`` is a character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, position) pairs, ending with ``("", len(text))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word, stray = m.groups()
        if stray is not None:
            raise ParseError(f"unexpected character {stray!r}", m.start(2))
        if word is None:
            break
        if word.isupper() and word not in PREFIX and word not in INFIX:
            raise ParseError(f"unknown operator {word!r}", m.start(1))
        tokens.append((word, m.start(1)))
    tokens.append(("", len(text)))
    return tokens


def _nest(depth: int, pos: int) -> int:
    if depth >= MAX_NESTING:
        raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", pos)
    return depth + 1


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def formula(self, depth: int, min_level: int = 1) -> Formula:
        out = self.operand(depth)
        while True:
            symbol, pos = self.tokens[self.index]
            op = INFIX.get(symbol)
            if op is None or op[1] < min_level:
                return out
            kind, level, right_assoc = op
            self.index += 1
            if right_assoc:
                out = kind(out, self.formula(_nest(depth, pos), level))
            else:
                out = kind(out, self.formula(depth, level + 1))

    def operand(self, depth: int) -> Formula:
        wrappers = []
        text, pos = self.tokens[self.index]
        while text in PREFIX:
            depth = _nest(depth, pos)
            wrappers.append(PREFIX[text])
            keyword, keyword_pos = text, pos
            self.index += 1
            text, pos = self.tokens[self.index]
        self.index += 1
        if text == "(":
            out = self.formula(_nest(depth, pos))
            closing, pos = self.tokens[self.index]
            self.index += 1
            if closing != ")":
                raise ParseError("expected ')'", pos)
        elif text in _CONSTANTS:
            out = _CONSTANTS[text]()
        elif text[:1].islower():
            out = Atom(text)
        elif wrappers and keyword.islower():
            raise ParseError(
                f"reserved word {keyword!r} is an operator and needs an "
                "operand; it cannot be used as an atom",
                keyword_pos,
            )
        elif not text:
            raise ParseError("unexpected end of input: expected a formula", pos)
        else:
            raise ParseError(f"expected a formula, found {text!r}", pos)
        for kind in reversed(wrappers):
            out = kind(out)
        return out


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, raising :class:`ParseError` on failure."""
    parser = _Parser(text)
    out = parser.formula(0)
    tail, pos = parser.tokens[parser.index]
    if tail:
        raise ParseError(f"unexpected trailing input {reprlib.repr(tail)}", pos)
    return out


# The tables inverted for render: node class -> (keyword before "(",
# keyword before anything else), or -> (" symbol ", level, right assoc).
_PREFIX_OF = {
    kind: (word, word + " " if word.isalpha() else word)
    for word, kind in PREFIX.items()
}
_INFIX_OF = {kind: (f" {sym} ", *rest) for sym, (kind, *rest) in INFIX.items()}
_CONSTANT_OF = {kind: word for word, kind in _CONSTANTS.items()}
_PREFIX_LEVEL = 1 + max(level for _, level, _ in INFIX.values())


def render(f: Formula, shown: dict[Formula, str] | None = None) -> str:
    """Minimal-parenthesis concrete syntax; ``parse(render(f)) is f`` up to
    ``MAX_NESTING`` levels; a left-nested ``&``/``|`` chain renders flat.

    The stack holds text and (node, minimum binding level) pieces.  An
    infix node looser than its minimum is parenthesized; its operand on
    the associative side may bind at its own level.  A subformula in
    ``shown`` is not rendered again: its text there is spliced in.
    """
    out, todo = [], [(f, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, least = item
        kind = type(g)
        if shown and g in shown:
            loose = kind in _INFIX_OF and _INFIX_OF[kind][1] < least
            out.append(f"({shown[g]})" if loose else shown[g])
        elif kind in _INFIX_OF:
            symbol, level, right_assoc = _INFIX_OF[kind]
            if level < least:
                out.append("(")
                todo.append(")")
            todo += ((g.right, level + (not right_assoc)), symbol,
                     (g.left, level + right_assoc))
        elif kind in _PREFIX_OF:
            word, spaced = _PREFIX_OF[kind]
            out.append(word if type(g.child) in _INFIX_OF else spaced)
            todo.append((g.child, _PREFIX_LEVEL))
        elif kind is Atom:
            out.append(g.name)
        elif kind in _CONSTANT_OF:
            out.append(_CONSTANT_OF[kind])
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
