"""Syntactic prover for closure under stuttering.

``analyze`` decides a sound (not complete) one-sided question: a
``Closed`` verdict means the formula's truth value is invariant under
duplicating any state of any trace, and comes with a checkable proof
tree; ``Unknown`` means no rule applied and carries the blocking
subformulas.  The rule set is: atoms and constants are closed; all
boolean and temporal connectives except ``Next`` preserve closure;
three schema rules discharge specific shapes in which edges neutralize
the ``Next`` operators (an eventually-rise, an always-rise-implies, and
an until form), and a fourth the raw ``F(!a & X a & X B)`` shape; plus
bookkeeping rules for edge dualities and the logical rewrites used to
reach those shapes.  ``analyze`` first puts the formula in the normal
form of ``normalize``: one bottom-up rewrite pass, which also folds
spelled-out edges into ``up``/``down`` and expands ``edge``.

One table, ``_RULES``, maps each derivation rule to its conclusion node
type, its candidate generator and its piece names (``"ABC"`` and so on;
empty for the compositional rules, whose one candidate is the node's
children).  A candidate is a canonical conclusion plus premise formulas.
The three edge schema rules share one anchor reader (``_anchors``, which
reads ``down a`` as ``up !a``) and one current/next splitter (``_split``).
The prover tries, per node type, the table's rules for that type in
order (``_ATTEMPTS``) and takes the first candidate whose pieces all
prove closed; the checker accepts a node iff some candidate of its rule
reproduces its conclusion and premises exactly.  Both read the same
generators, so they cannot disagree on what a rule accepts.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .formula import (
    Always,
    And,
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
    build_and,
    build_or,
    children_of,
    map_spine,
    normalize_edge_negations,
    postorder,
    rewrite_logic,
    spine,
)
from .syntax import parse, render


class Rule(str, Enum):
    VAR = "CUS-VAR"
    CONST = "CUS-CONST"
    NOT = "CUS-NOT"
    AND = "CUS-AND"
    BINOP = "CUS-BINOP"
    ALWAYS = "CUS-ALWAYS"
    EVENT = "CUS-EVENT"
    UNTIL = "CUS-UNTIL"
    THM_MAIN = "THM-MAIN"
    PROP_E = "PROP-E"
    PROP_A = "PROP-A"
    PROP_U = "PROP-U"
    EDGE_DUAL = "EDGE-DUAL"
    LOGIC_REWRITE = "LOGIC-REWRITE"


@dataclass(frozen=True)
class ProofTree:
    rule: Rule
    conclusion: Formula
    premises: tuple[ProofTree, ...] = ()
    note: str | None = None


@dataclass(frozen=True)
class Closed:
    proof: ProofTree


@dataclass(frozen=True)
class Unknown:
    blockers: tuple[Formula, ...]


Verdict = Closed | Unknown

_FALLBACK_TERM_CAP = 64
# Deepest proof render_proof writes as JSON: json nests through the
# interpreter's recursion (default limit 1000), two levels per proof level.
MAX_PROOF_DEPTH = 400


def normalize(f: Formula) -> Formula:
    """The normal form the prover works on: :func:`rewrite_logic`, one
    bottom-up pass that also resugars and expands edges."""
    return rewrite_logic(f)


def analyze(f: Formula) -> Verdict:
    """Prove ``f`` closed under stuttering, or report what blocked."""
    nf = normalize(f)
    verdict = _analyze(nf, {})
    if isinstance(verdict, Closed) and nf != f:
        proof = ProofTree(
            Rule.LOGIC_REWRITE,
            f,
            (verdict.proof,),
            note="normalized with the rewrite set",
        )
        return Closed(proof)
    return verdict


def _merge_blockers(*groups: tuple[Formula, ...]) -> tuple[Formula, ...]:
    return tuple(dict.fromkeys(g for group in groups for g in group))


def _analyze(f: Formula, memo: dict[Formula, Verdict]) -> Verdict:
    """Verdict of ``f``; the subformulas its rules look into (none under
    a bare next or edge) are proved first, in post-order, so only schema
    pieces recurse, as deep as ``G``/``F``/``U`` nest."""
    if f not in memo:
        for g in postorder(f, lambda g: g._kids if _ATTEMPTS.get(type(g))
                           else ()):
            if g not in memo:
                memo[g] = _dispatch(g, memo)
    return memo[f]


def _dispatch(f: Formula, memo: dict) -> Verdict:
    attempts = _ATTEMPTS.get(type(f))
    if attempts is None:
        raise TypeError(f"not a formula: {f!r}")
    if not attempts:
        return Unknown((f,))
    failed: list[tuple[Formula, ...]] = []
    for attempt in attempts:
        verdict = attempt(f, memo)
        if isinstance(verdict, Closed):
            return verdict
        failed.append(verdict.blockers)
    return Unknown(_merge_blockers(*failed))


def _try_schema(rule: Rule, f: Formula, memo: dict) -> Verdict:
    """First candidate of ``rule`` whose pieces all prove closed."""
    _, candidates, names = _RULES[rule]
    failed: list[tuple[Formula, ...]] = []
    for canonical, pieces in candidates(f):
        verdicts = [_analyze(g, memo) for g in pieces]
        blockers = [v.blockers for v in verdicts if isinstance(v, Unknown)]
        if blockers:
            failed.extend(blockers)
            continue
        note = "; ".join(f"{n}={render(g)}" for n, g in zip(names, pieces))
        proofs = tuple(v.proof for v in verdicts)
        node = ProofTree(rule, canonical, proofs, note or None)
        if canonical != f:
            node = ProofTree(
                Rule.EDGE_DUAL, f, (node,),
                note="fall edge read as rise of the negation",
            )
        return Closed(node)
    return Unknown(_merge_blockers(*failed))


def _negate(g: Formula) -> Formula:
    return g.child if isinstance(g, Not) else Not(g)


def _replace_nth(t: Formula, kind: type, n: int, rep: Formula) -> Formula:
    """Replace the n-th leaf of the ``kind`` chain at ``t``."""
    leaves = itertools.count()
    return map_spine(t, kind, lambda g: rep if next(leaves) == n else g)


# ---------------------------------------------------------------------------
# Candidate generators.  Each returns (canonical conclusion, premises)
# pairs in the order analysis tries them; the proof checker accepts a
# node iff some candidate reproduces its conclusion and premises exactly.

def _edge(g: Formula, negated: bool) -> Formula | None:
    """``g`` if it is an edge (if ``negated``, the edge ``g`` negates)."""
    if negated:
        g = g.child if isinstance(g, Not) else None
    return g if isinstance(g, (RiseEdge, FallEdge)) else None


def _anchors(chain: Formula, kind: type, negated: bool = False):
    """Each edge anchor of the ``kind`` chain at ``chain``, in leaf order.

    An anchor is an edge leaf, or a negated one if ``negated``.  Yields
    (canonical chain, A, the other leaves): A is ``a`` for ``up a`` and
    ``!a`` for ``down a``, and the canonical chain reads that fall edge as
    ``up !a`` (``down a = up !a``).
    """
    leaves = spine(chain, kind)
    for i, g in enumerate(leaves):
        edge = _edge(g, negated)
        if edge is None:
            continue
        a, canonical = edge.child, chain
        if isinstance(edge, FallEdge):
            a = Not(a)
            rise = Not(RiseEdge(a)) if negated else RiseEdge(a)
            canonical = _replace_nth(chain, kind, i, rise)
        yield canonical, a, leaves[:i] + leaves[i + 1 :]


def _split(items: list[Formula], conj: bool):
    """Next-state parts (B) and current-state parts (C) of the items.

    The items are conjuncts if ``conj``, else disjuncts.  ``X x`` goes to
    B as ``x`` and ``!X x`` as ``!x``.  An edge conjunct splits by its
    definition (``up z = !z & X z``, ``down z = z & X !z``), a
    negated-edge disjunct by De Morgan over it (``!up z = z | X !z``,
    ``!down z = !z | X z``); anything else goes to C whole.
    """
    b_parts: list[Formula] = []
    c_parts: list[Formula] = []
    for g in items:
        if isinstance(g, Next):
            b_parts.append(g.child)
        elif isinstance(g, Not) and isinstance(g.child, Next):
            b_parts.append(_negate(g.child.child))
        elif (edge := _edge(g, not conj)) is not None:
            z, not_z = edge.child, _negate(edge.child)
            rising = isinstance(edge, RiseEdge) == conj  # !z now, z next
            c_parts.append(not_z if rising else z)
            b_parts.append(z if rising else not_z)
        else:
            c_parts.append(g)
    return b_parts, c_parts


def _children(f: Formula):
    """The one candidate of a compositional rule: the node's children."""
    return [(f, children_of(f))]


def _event_candidates(f: Eventually):
    """``F(up A & X B & C)``: one candidate per edge conjunct."""
    return [
        (Eventually(body), (a, *map(build_and, _split(rest, True))))
        for body, a, rest in _anchors(f.child, And)
    ]


def _always_candidates(f: Always):
    """``G(up A -> X B | C)``: one candidate per edge antecedent conjunct.

    The other antecedent conjuncts move to the consequent negated:
    ``G(up a & y -> cons)`` is ``G(up a -> cons | !y)``.
    """
    if not isinstance(f.child, Implies):
        return []
    ante, cons = f.child.left, f.child.right
    disjs = spine(cons, Or)
    return [
        (Always(Implies(ante2, cons)),
         (a, *map(build_or, _split([*map(_negate, rest), *disjs], False))))
        for ante2, a, rest in _anchors(ante, And)
    ]


def _until_candidates(f: Until):
    """``(!up A | X B | C) U (up D & X E & F)``.

    The left side must contain a negated-edge disjunct (that disjunct is
    what tolerates duplicated states); the right side needs an edge
    conjunct only when it also has next-parts.  Absent pieces fill with
    the neutral constants.
    """
    lefts = [
        (left2, a, *map(build_or, _split(rest, False)))
        for left2, a, rest in _anchors(f.left, Or, negated=True)
    ]
    rights = [
        (right2, d, *map(build_and, _split(rest, True)))
        for right2, d, rest in _anchors(f.right, And)
    ]
    e, fp = _split(spine(f.right, And), True)
    if not e:  # a next-part on the right needs the edge anchor
        rights.append((f.right, ConstTrue(), ConstTrue(), build_and(fp)))
    return [
        (Until(left2, right2), (a, b, c, d, e, fp))
        for left2, a, b, c in lefts
        for right2, d, e, fp in rights
    ]


def _thm_main_candidates(f: Eventually):
    """Raw shape: a negated conjunct, its next, and other next conjuncts."""
    conjs = spine(f.child, And)
    out = []
    for i, c in enumerate(conjs):
        if not isinstance(c, Not) or Next(c.child) not in conjs:
            continue
        others = conjs[:i] + conjs[i + 1 :]
        others.remove(Next(c.child))
        if all(isinstance(o, Next) for o in others):
            out.append((f, (c.child, build_and([o.child for o in others]))))
    return out


# ---------------------------------------------------------------------------
# Last-resort rewrite: distribute an eventually (or the negated dual of an
# always) over a disjunctive normal form of its body, so the schema rules
# can see each product term on its own.

_DUAL = {And: Or, Or: And, ConstTrue: ConstFalse, ConstFalse: ConstTrue}


def _nnf(g: Formula) -> Formula:
    """Negation normal form through the boolean connectives and ``Next``:
    each subformula ``h``'s form and that of ``!h``, bottom-up."""
    pos: dict[Formula, Formula] = {}
    neg: dict[Formula, Formula] = {}
    through = (Not, And, Or, Implies, Iff, Next)
    for h in postorder(g, lambda h: h._kids if type(h) in through else ()):
        kind = type(h)
        if kind is Not:
            pos[h], neg[h] = neg[h.child], pos[h.child]
        elif kind is Next:
            pos[h], neg[h] = Next(pos[h.child]), Next(neg[h.child])
        elif kind in through:  # a binary connective
            l, nl, r, nr = pos[h.left], neg[h.left], pos[h.right], neg[h.right]
            if kind is Implies:
                pos[h], neg[h] = Or(nl, r), And(l, nr)
            elif kind is Iff:
                pos[h] = Or(And(l, r), And(nl, nr))
                neg[h] = Or(And(l, nr), And(nl, r))
            else:
                pos[h], neg[h] = kind(l, r), _DUAL[kind](nl, nr)
        else:
            pos[h] = h
            neg[h] = _DUAL[kind]() if kind in _DUAL else Not(h)
    return pos[g]


def _dnf_terms(g: Formula) -> list[list[Formula]] | None:
    """Product terms of ``g`` read as a DNF over its ``&``/``|`` nodes,
    or None once a subformula has more than the cap."""
    terms: dict[Formula, list[list[Formula]]] = {}
    for h in postorder(g, lambda h: h._kids if type(h) in (And, Or) else ()):
        if type(h) is Or:
            found = terms[h.left] + terms[h.right]
        elif type(h) is And:
            found = [a + b for a in terms[h.left] for b in terms[h.right]]
        else:
            found = [[h]]
        if len(found) > _FALLBACK_TERM_CAP:
            return None
        terms[h] = found
    return terms[g]


def _fallback_rewrite(f: Formula) -> Formula | None:
    """Equivalent form exposing one eventually per product term, or None."""
    if isinstance(f, Eventually):
        body, negated = f.child, False
    elif isinstance(f, Always):
        body, negated = Not(f.child), True
    else:
        return None
    terms = _dnf_terms(_nnf(body))
    if terms is None:
        return None
    parts = [normalize(build_and(term)) for term in terms]
    spread = build_or([Eventually(p) for p in parts])
    rewritten = Not(spread) if negated else spread
    if rewritten == f or (len(parts) == 1 and parts[0] == f.child):
        return None
    return rewritten


def _try_fallback(f: Formula, memo: dict) -> Verdict:
    rewritten = _fallback_rewrite(f)
    if rewritten is None:
        return Unknown(())
    inner = _analyze(rewritten, memo)
    if isinstance(inner, Closed):
        node = ProofTree(
            Rule.LOGIC_REWRITE, f, (inner.proof,),
            note="distributed over a disjunction of conjunctive terms",
        )
        return Closed(node)
    return inner


# The rule table, read by both the prover and the checker:
# rule -> (conclusion node types, candidate generator, piece names).
_RULES = {
    Rule.VAR: (Atom, _children, ""),
    Rule.CONST: ((ConstTrue, ConstFalse), _children, ""),
    Rule.NOT: (Not, _children, ""),
    Rule.AND: (And, _children, ""),
    Rule.BINOP: ((Or, Implies, Iff), _children, ""),
    Rule.ALWAYS: (Always, _children, ""),
    Rule.EVENT: (Eventually, _children, ""),
    Rule.UNTIL: (Until, _children, ""),
    Rule.PROP_E: (Eventually, _event_candidates, "ABC"),
    Rule.THM_MAIN: (Eventually, _thm_main_candidates, "AB"),
    Rule.PROP_A: (Always, _always_candidates, "ABC"),
    Rule.PROP_U: (Until, _until_candidates, "ABCDEF"),
}

# What the prover tries on each node type, in order: the table's rules
# for that type, then the fallback rewrite under G and F.  A bare next or
# edge has no rule and is its own blocker.
_ATTEMPTS = {
    kind: tuple(
        partial(_try_schema, r)
        for r, spec in _RULES.items() if issubclass(kind, spec[0])
    ) + ((_try_fallback,) if kind in (Always, Eventually) else ())
    for kind in Formula.__subclasses__()
}


# ---------------------------------------------------------------------------
# Proof rendering, parsing and checking.

def _proof_nodes(p: ProofTree) -> list[ProofTree]:
    """Every node occurrence of ``p``, each before its premises, which are
    taken right to left: reversed, the list is the post-order."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        out.append(q)
        todo += q.premises
    return out


def proof_to_doc(p: ProofTree) -> dict:
    done: list[dict] = []  # documents of finished nodes, premises last
    for q in reversed(_proof_nodes(p)):
        cut = len(done) - len(q.premises)
        doc = {
            "rule": q.rule.value,
            "conclusion": render(q.conclusion),
            "premises": done[cut:],
        }
        del done[cut:]
        if q.note is not None:
            doc["note"] = q.note
        done.append(doc)
    return done[0]


def proof_from_doc(doc: dict) -> ProofTree:
    try:
        # Read in pre-order, then build each node after its premises.
        order, todo = [], [doc]
        while todo:
            d = todo.pop()
            if not isinstance(d, dict):
                raise TypeError("proof node must be a JSON object, not "
                                f"{type(d).__name__}")
            try:
                rule = Rule(d["rule"])
            except ValueError:
                raise ValueError("rule is not a known rule: "
                                 f"{reprlib.repr(d['rule'])}") from None
            premises, note = d["premises"], d.get("note")
            if not isinstance(premises, list):
                raise TypeError("premises is not a list: "
                                f"{reprlib.repr(premises)}")
            if "note" in d and not isinstance(note, str):
                raise TypeError(f"note is not a string: {reprlib.repr(note)}")
            conclusion = d["conclusion"]
            if not isinstance(conclusion, str):
                raise TypeError("conclusion must be a string, not "
                                f"{reprlib.repr(conclusion)}")
            order.append((d, rule, parse(conclusion), premises, note))
            todo += reversed(premises)
        built = {}
        for d, rule, conclusion, premises, note in reversed(order):
            built[id(d)] = ProofTree(
                rule, conclusion, tuple(built[id(q)] for q in premises), note
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed proof document: {exc}") from None
    return built[id(doc)]


def _proof_depth(p: ProofTree) -> int:
    depth: dict[int, int] = {}
    for q in reversed(_proof_nodes(p)):
        depth[id(q)] = 1 + max((depth[id(r)] for r in q.premises), default=0)
    return depth[id(p)]


def render_proof(p: ProofTree, format: str = "text") -> str:
    """Readable derivation (premises first) or the structured document,
    which is a ValueError for a proof over ``MAX_PROOF_DEPTH`` levels."""
    if format == "structured":
        depth = _proof_depth(p)
        if depth > MAX_PROOF_DEPTH:
            raise ValueError(
                f"proof is {depth} levels deep, over the limit of "
                f"{MAX_PROOF_DEPTH} for the structured document"
            )
        return json.dumps(proof_to_doc(p), indent=2)
    if format != "text":
        raise ValueError(f"unknown proof format {format!r}")
    lines: list[str] = []
    shown: dict[Formula, str] = {}  # each conclusion is rendered once
    for node in reversed(_proof_nodes(p)):
        if node.conclusion not in shown:
            shown[node.conclusion] = render(node.conclusion)
        entry = f"[{node.rule.value}] {shown[node.conclusion]}"
        if node.premises:
            entry += "  <==  " + ", ".join(
                shown[q.conclusion] for q in node.premises
            )
        if node.note:
            entry += f"   ({node.note})"
        lines.append(entry)
    return "\n".join(lines)


def check_proof(p: ProofTree) -> bool:
    """Re-derive every node from its premises by its named rule."""
    return all(_check_node(q) for q in _proof_nodes(p))


def _check_node(p: ProofTree) -> bool:
    if not isinstance(p.rule, Rule):
        return False  # a plain string equal to a rule value is no label
    f = p.conclusion
    got = tuple(q.conclusion for q in p.premises)
    spec = _RULES.get(p.rule)
    if spec is not None:
        node, candidates, _ = spec
        return isinstance(f, node) and any(
            canonical == f and pieces == got
            for canonical, pieces in candidates(f)
        )
    if len(got) != 1:
        return False
    if p.rule is Rule.EDGE_DUAL:
        return normalize_edge_negations(f) == normalize_edge_negations(got[0])
    if p.rule is Rule.LOGIC_REWRITE:
        return got[0] == normalize(f) or got[0] == _fallback_rewrite(f)
    return False
