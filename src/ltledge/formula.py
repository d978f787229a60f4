"""Formula AST for linear temporal logic with edge operators.

Edge operators describe change between adjacent states: ``RiseEdge(a)``
holds where ``a`` is false now and true next, ``FallEdge(a)`` where it is
true now and false next, and ``AnyEdge(a)`` where either happens.  They
are definable from negation, conjunction and ``Next``; the helpers below
convert between the sugared and desugared forms.
"""

from __future__ import annotations

from dataclasses import dataclass


class Formula:
    """Base class for all formula nodes."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class ConstTrue(Formula):
    pass


@dataclass(frozen=True)
class ConstFalse(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class RiseEdge(Formula):
    child: Formula


@dataclass(frozen=True)
class FallEdge(Formula):
    child: Formula


@dataclass(frozen=True)
class AnyEdge(Formula):
    child: Formula


_BINARY = (And, Or, Implies, Iff, Until)
_UNARY = (Not, Next, Always, Eventually, RiseEdge, FallEdge, AnyEdge)


# Arity by exact node class: one dict lookup, where isinstance against both
# tuples costs a leaf twelve failed checks.
_ARITY = {kind: 2 for kind in _BINARY} | {kind: 1 for kind in _UNARY}


def children_of(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of ``f``, left to right."""
    arity = _ARITY.get(type(f))
    if arity == 2:
        return (f.left, f.right)
    if arity == 1:
        return (f.child,)
    return ()


def rebuild(f: Formula, children: tuple[Formula, ...]) -> Formula:
    """Copy of ``f`` with its immediate subformulas replaced."""
    if isinstance(f, _BINARY):
        return type(f)(children[0], children[1])
    if isinstance(f, _UNARY):
        return type(f)(children[0])
    return f


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas of ``f`` in postorder (children before parents)."""
    out: list[Formula] = []
    seen: set[Formula] = set()

    def walk(g: Formula) -> None:
        if g in seen:
            return
        for c in children_of(g):
            walk(c)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


def atoms_of(f: Formula) -> tuple[str, ...]:
    """Atom names used in ``f``, in order of first occurrence."""
    names: list[str] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            if g.name not in names:
                names.append(g.name)
            return
        for c in children_of(g):
            walk(c)

    walk(f)
    return tuple(names)


def transform_bottom_up(f: Formula, step) -> Formula:
    """Rewrite ``f`` bottom-up: children first, then ``step`` on the node."""
    kids = children_of(f)
    if kids:
        new_kids = tuple(transform_bottom_up(c, step) for c in kids)
        if new_kids != kids:
            f = rebuild(f, new_kids)
    return step(f)


def desugar_edges(f: Formula) -> Formula:
    """Replace every edge operator by its definition in terms of Next.

    ``RiseEdge(a)`` becomes ``!a & X a``, ``FallEdge(a)`` becomes
    ``a & X !a`` and ``AnyEdge(a)`` becomes the disjunction of the two.
    """

    def step(g: Formula) -> Formula:
        if isinstance(g, RiseEdge):
            return And(Not(g.child), Next(g.child))
        if isinstance(g, FallEdge):
            return And(g.child, Next(Not(g.child)))
        if isinstance(g, AnyEdge):
            a = g.child
            return Or(And(Not(a), Next(a)), And(a, Next(Not(a))))
        return g

    return transform_bottom_up(f, step)


def expand_any_edges(f: Formula) -> Formula:
    """Replace ``AnyEdge(a)`` by ``RiseEdge(a) | FallEdge(a)`` throughout."""

    def step(g: Formula) -> Formula:
        if isinstance(g, AnyEdge):
            return Or(RiseEdge(g.child), FallEdge(g.child))
        return g

    return transform_bottom_up(f, step)


def flatten_and(f: Formula) -> list[Formula]:
    """Conjuncts of a (possibly nested) conjunction, in occurrence order."""
    if isinstance(f, And):
        return flatten_and(f.left) + flatten_and(f.right)
    return [f]


def flatten_or(f: Formula) -> list[Formula]:
    """Disjuncts of a (possibly nested) disjunction, in occurrence order."""
    if isinstance(f, Or):
        return flatten_or(f.left) + flatten_or(f.right)
    return [f]


def build_and(items: list[Formula]) -> Formula:
    """Right-nested conjunction of ``items`` (empty list gives true)."""
    if not items:
        return ConstTrue()
    out = items[-1]
    for g in reversed(items[:-1]):
        out = And(g, out)
    return out


def build_or(items: list[Formula]) -> Formula:
    """Right-nested disjunction of ``items`` (empty list gives false)."""
    if not items:
        return ConstFalse()
    out = items[-1]
    for g in reversed(items[:-1]):
        out = Or(g, out)
    return out


def _find_edge_pair(items: list[Formula]):
    """First pair of conjuncts forming an edge, rises before falls.

    Returns ``(i, j, edge)`` where ``i < j`` index the two conjuncts and
    ``edge`` is the operator they encode, or ``None``.
    """
    n = len(items)
    for i in range(n):
        a = items[i]
        for j in range(i + 1, n):
            b = items[j]
            for x, y in ((a, b), (b, a)):
                if isinstance(x, Not) and isinstance(y, Next) and x.child == y.child:
                    return i, j, RiseEdge(x.child)
    for i in range(n):
        a = items[i]
        for j in range(i + 1, n):
            b = items[j]
            for x, y in ((a, b), (b, a)):
                if isinstance(y, Next) and isinstance(y.child, Not) and y.child.child == x:
                    return i, j, FallEdge(x)
    return None


def resugar_edges(f: Formula) -> Formula:
    """Recover edge operators from conjunctions that spell them out.

    Inside each conjunction, a pair of conjuncts ``!a`` and ``X a`` is
    folded into ``RiseEdge(a)`` and a pair ``a`` and ``X !a`` into
    ``FallEdge(a)``, repeatedly, scanning pairs left to right (rises
    first).  The fold replaces the earlier conjunct and drops the later
    one, so conjunct order is otherwise preserved.
    """
    if isinstance(f, And):
        items = [resugar_edges(g) for g in flatten_and(f)]
        while True:
            hit = _find_edge_pair(items)
            if hit is None:
                break
            i, j, edge = hit
            items[i] = edge
            del items[j]
        return build_and(items)
    kids = children_of(f)
    if not kids:
        return f
    return rebuild(f, tuple(resugar_edges(c) for c in kids))


def _drop_negation(g: Formula) -> Formula:
    """One negation-removing rewrite at the root of ``g``, or ``g`` itself.

    ``!!x`` is ``x``, and an edge of a negated formula is the opposite
    edge of the formula itself: ``up !x`` is ``down x``, ``down !x`` is
    ``up x``, and ``edge !x`` is ``edge x``.
    """
    if isinstance(g, Not) and isinstance(g.child, Not):
        return g.child.child
    if isinstance(g, RiseEdge) and isinstance(g.child, Not):
        return FallEdge(g.child.child)
    if isinstance(g, FallEdge) and isinstance(g.child, Not):
        return RiseEdge(g.child.child)
    if isinstance(g, AnyEdge) and isinstance(g.child, Not):
        return AnyEdge(g.child.child)
    return g


def normalize_edge_negations(f: Formula) -> Formula:
    """Push negation out of edge arguments and drop double negations.

    Applies the rewrites of :func:`_drop_negation` at every node until
    none applies.
    """

    def step(g: Formula) -> Formula:
        while (h := _drop_negation(g)) is not g:
            g = h
        return g

    return transform_bottom_up(f, step)


def _rewrite_step(g: Formula) -> Formula:
    """Normal form of ``g`` under the local simplifications.

    The children of ``g`` must already be normal; every node a rewrite
    builds is normalized here before it is returned, so one bottom-up
    pass reaches the fixpoint.
    """
    h = _drop_negation(g)
    if h is not g:
        return h
    step = _rewrite_step
    if isinstance(g, Always):
        body = g.child
        if isinstance(body, And):
            return And(step(Always(body.left)), step(Always(body.right)))
        if isinstance(body, Not) and isinstance(body.child, Or):
            d = body.child
            return And(
                step(Always(step(Not(d.left)))),
                step(Always(step(Not(d.right)))),
            )
        if isinstance(body, Implies):
            if isinstance(body.right, And):
                c = body.right
                return And(
                    step(Always(Implies(body.left, c.left))),
                    step(Always(Implies(body.left, c.right))),
                )
            if isinstance(body.right, Not):
                return Not(step(Eventually(And(body.left, body.right.child))))
    if isinstance(g, Eventually):
        body = g.child
        if isinstance(body, Or):
            return Or(
                step(Eventually(body.left)), step(Eventually(body.right))
            )
        if isinstance(body, Not) and isinstance(body.child, And):
            c = body.child
            return Or(
                step(Eventually(step(Not(c.left)))),
                step(Eventually(step(Not(c.right)))),
            )
    return g


def rewrite_logic(f: Formula) -> Formula:
    """Evaluation-preserving simplification used before closure analysis.

    Distributes ``Always`` over conjunction and ``Eventually`` over
    disjunction (also through a negated disjunction or conjunction),
    splits an implication with a conjunctive consequent, turns
    ``G(a -> !b)`` into ``!F(a & b)``, removes double negation and
    normalizes negated edge arguments.  The result is a fixpoint: no
    rewrite applies anywhere in it.
    """
    return transform_bottom_up(f, _rewrite_step)
