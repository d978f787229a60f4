"""Parser and renderer: grammar, round trip, golden corpus, nesting limit."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import formula_strategy
from ltledge.analyzer import Closed, analyze, check_proof
from ltledge.formula import (
    Always,
    And,
    AnyEdge,
    Atom,
    ConstFalse,
    ConstTrue,
    Eventually,
    FallEdge,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    RiseEdge,
    Until,
    children_of,
)
from ltledge.semantics import LassoTrace, eval_formula, eval_oracle
from ltledge.syntax import MAX_NESTING, ParseError, parse, render

GOLDEN = Path(__file__).with_name("parse_golden.json")


def test_parse_atoms_and_constants():
    assert parse("p") == Atom("p")
    assert parse("pos_above_tbl") == Atom("pos_above_tbl")
    assert parse("true") == ConstTrue()
    assert parse("false") == ConstFalse()


def test_parse_unary_operators():
    assert parse("!p") == Not(Atom("p"))
    assert parse("X p") == Next(Atom("p"))
    assert parse("G p") == Always(Atom("p"))
    assert parse("F p") == Eventually(Atom("p"))
    assert parse("up p") == RiseEdge(Atom("p"))
    assert parse("down p") == FallEdge(Atom("p"))
    assert parse("edge p") == AnyEdge(Atom("p"))


def test_parse_binary_operators_and_precedence():
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
    assert parse("p <-> q") == Iff(Atom("p"), Atom("q"))
    assert parse("p U q U r") == Until(Atom("p"), Until(Atom("q"), Atom("r")))
    assert parse("!p U q") == Until(Not(Atom("p")), Atom("q"))
    assert parse("p & q U r") == And(Atom("p"), Until(Atom("q"), Atom("r")))


def test_unary_operators_bind_tighter_than_until():
    assert parse("up p U q") == Until(RiseEdge(Atom("p")), Atom("q"))
    assert parse("X p U q") == Until(Next(Atom("p")), Atom("q"))
    assert parse("G p U q") == Until(Always(Atom("p")), Atom("q"))


def test_parse_nested_unary_chain():
    assert parse("!up !p") == Not(RiseEdge(Not(Atom("p"))))
    assert parse("X X p") == Next(Next(Atom("p")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("p &")
    with pytest.raises(ParseError):
        parse("(p")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p # q")
    err = None
    try:
        parse("p & & q")
    except ParseError as exc:
        err = exc
    assert err is not None and "position" in str(err)


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse("up")
    # identifiers merely starting with a keyword stay ordinary atoms
    assert parse("p & true_") == And(Atom("p"), Atom("true_"))
    assert parse("upward") == Atom("upward")


def test_render_uses_minimal_parentheses():
    assert render(parse("(p | q) & r")) == "(p | q) & r"
    assert render(parse("p | (q & r)")) == "p | q & r"
    assert render(parse("!(p U q)")) == "!(p U q)"
    assert render(parse("p -> (q -> r)")) == "p -> q -> r"
    assert render(parse("(p -> q) -> r")) == "(p -> q) -> r"
    assert render(parse("X(p & q)")) == "X(p & q)"
    assert render(parse("up (p)")) == "up p"


def test_render_golden_pattern_body():
    body = "G(up q & F up r -> X(!up r U p) & !up r)"
    assert render(parse(body)) == body


@settings(max_examples=500)
@given(formula_strategy(max_leaves=25))
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f


def _tree(f) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (ConstTrue, ConstFalse)):
        return render(f)
    inner = ",".join(_tree(c) for c in children_of(f))
    return f"{type(f).__name__}({inner})"


def test_parse_and_render_reproduce_the_golden_corpus():
    # Trees, renderings and errors recorded from the hand-written parser
    # that preceded the operator tables; see the description fields.
    doc = json.loads(GOLDEN.read_text())
    for text, tree, rendered in doc["cases_valid"]:
        f = parse(text)
        assert (_tree(f), render(f)) == (tree, rendered), text
    for text, message, pos in doc["cases_malformed"]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.pos) == (message, pos), text


NESTING_CHAINS = {
    "G": lambda n: "G " * n + "a",
    "F": lambda n: "F " * n + "a",
    "!": lambda n: "!" * n + "a",
    "X": lambda n: "X " * n + "a",
    "up": lambda n: "up " * n + "a",
    "()": lambda n: "(" * n + "a" + ")" * n,
    "->": lambda n: " -> ".join(["a"] * (n + 1)),
    "U": lambda n: " U ".join(["a"] * (n + 1)),
}


@pytest.mark.parametrize("make", NESTING_CHAINS.values(), ids=NESTING_CHAINS)
def test_nesting_limit(make):
    assert MAX_NESTING == 100
    f = parse(make(MAX_NESTING))
    assert parse(render(f)) == f
    verdict = analyze(f)
    if isinstance(verdict, Closed):
        assert check_proof(verdict.proof)
    trace = LassoTrace(("a",), ((True,),), ((False,), (True,)))
    assert eval_formula(f, trace) == eval_oracle(f, trace)
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse(make(MAX_NESTING + 1))


@pytest.mark.parametrize("symbol", ["&", "|"])
@pytest.mark.parametrize("operands", [1000, 5000])
def test_flat_chains_round_trip(symbol, operands):
    text = f" {symbol} ".join(f"a{i}" for i in range(operands))
    assert render(parse(text)) == text
    grouped = f"b {symbol} ({text}) {symbol} c"
    assert render(parse(grouped)) == grouped


def test_long_conjunctions_are_not_nesting():
    text = "G(" + " & ".join(f"a{i}" for i in range(300)) + ")"
    f = parse(text)
    assert render(f) == text
