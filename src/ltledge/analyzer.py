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
The prover's one loop per node tries the candidates of its type's rules
in table order (``_RULES_OF``), then the fallback rewrite under ``G`` and
``F``; the checker accepts a node iff some candidate of its rule
reproduces its conclusion and premises exactly.  Both read the same
generators, so they cannot disagree on what a rule accepts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum

from .documents import read_fields
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


@dataclass(frozen=True, eq=False)
class ProofTree:
    rule: Rule
    conclusion: Formula
    premises: tuple[ProofTree, ...] = ()
    note: str | None = None

    # Compared and hashed without recursion, so proofs of any depth can be.
    def __eq__(self, other):
        if not isinstance(other, ProofTree):
            return NotImplemented
        mine, theirs = ([(q.rule, q.conclusion, q.note, len(q.premises))
                         for q in _proof_nodes(p)] for p in (self, other))
        return mine == theirs

    def __hash__(self):
        return hash((self.rule, self.conclusion, self.note))


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
    return _rewrite(f, normalize(f), {}, "normalized with the rewrite set")


def _rewrite(f: Formula, g: Formula, memo: dict, how: str) -> Verdict:
    """Verdict of ``f`` through its rewrite ``g``: a Closed one, if ``g``
    is not ``f``, under a LOGIC-REWRITE root noted ``how``."""
    verdict = _analyze(g, memo)
    if isinstance(verdict, Unknown) or g == f:
        return verdict
    return Closed(ProofTree(Rule.LOGIC_REWRITE, f, (verdict.proof,), how))


def _analyze(f: Formula, memo: dict[Formula, Verdict]) -> Verdict:
    """Verdict of ``f`` by :func:`_prove`; the subformulas its rules look
    into (none under a bare next or edge) are proved first, in post-order,
    so only schema pieces and fallback rewrites recurse, as deep as
    ``G``/``F``/``U`` nest."""
    if f not in memo:
        for g in postorder(f, lambda g: g._kids if _RULES_OF[type(g)]
                           else ()):
            if g not in memo:
                memo[g] = _prove(g, memo)
    return memo[f]


def _prove(f: Formula, memo: dict[Formula, Verdict]) -> Verdict:
    """One loop: the first candidate of ``f``'s rules in table order, then
    the fallback rewrite under ``G``/``F``, whose pieces all prove closed,
    or else every piece's blockers, first seen first.  A bare next or
    edge has no rule and is its own blocker."""
    blockers: dict[Formula, None] = {}
    for rule in _RULES_OF[type(f)]:
        _, candidates, names = _RULES[rule]
        for canonical, pieces in candidates(f):
            verdicts = [_analyze(g, memo) for g in pieces]
            if failed := [b for v in verdicts if isinstance(v, Unknown)
                          for b in v.blockers]:
                blockers.update(dict.fromkeys(failed))
                continue
            note = "; ".join(f"{n}={render(g)}" for n, g in zip(names, pieces))
            proofs = tuple(v.proof for v in verdicts)
            node = ProofTree(rule, canonical, proofs, note or None)
            if canonical != f:
                node = ProofTree(Rule.EDGE_DUAL, f, (node,),
                                 "fall edge read as rise of the negation")
            return Closed(node)
    rewritten = _fallback_rewrite(f)
    if rewritten is not None:
        verdict = _rewrite(
            f, rewritten, memo,
            "distributed over a disjunction of conjunctive terms")
        if isinstance(verdict, Closed):
            return verdict
        blockers.update(dict.fromkeys(verdict.blockers))
    return Unknown(tuple(blockers) or (f,))


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

# The rules the prover tries on each node type, in table order.
_RULES_OF = {
    kind: tuple(r for r, spec in _RULES.items() if issubclass(kind, spec[0]))
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


def _with_texts(p: ProofTree):
    """Post-order node occurrences of ``p``, with the conclusion texts so
    far: each is rendered once, splicing in those rendered before it."""
    shown: dict[Formula, str] = {}
    for q in reversed(_proof_nodes(p)):
        if q.conclusion not in shown:
            shown[q.conclusion] = render(q.conclusion, shown)
        yield q, shown


def proof_to_doc(p: ProofTree) -> dict:
    done: list[dict] = []  # documents of finished nodes, premises last
    for q, shown in _with_texts(p):
        cut = len(done) - len(q.premises)
        doc = {
            "rule": q.rule.value,
            "conclusion": shown[q.conclusion],
            "premises": done[cut:],
        }
        del done[cut:]
        if q.note is not None:
            doc["note"] = q.note
        done.append(doc)
    return done[0]


def proof_from_doc(doc: dict) -> ProofTree:
    fields = (
        ("rule", True, {r.value: r for r in Rule}.__getitem__, "a known rule"),
        ("conclusion", True, parse, "a formula text"),
        ("premises", True, list, "a list of proof nodes"),
        ("note", False, str, "a string"),
    )
    # Read in pre-order, then build each node after its premises.
    order, todo = [], [(doc, "proof document")]
    while todo:
        d, where = todo.pop()
        order.append((d, read_fields(d, where, fields)))
        premises = order[-1][1]["premises"]
        todo += ((premises[i], f"{where}: premises[{i}]")
                 for i in reversed(range(len(premises))))
    built = {}
    for d, node in reversed(order):
        node["premises"] = tuple(built[id(q)] for q in node["premises"])
        built[id(d)] = ProofTree(**node)
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
    for node, shown in _with_texts(p):
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
    """Re-derive each distinct node from its premises by its named rule."""
    seen, todo = set(), [p]
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            todo += q.premises
    return all(map(_check_node, seen))


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
