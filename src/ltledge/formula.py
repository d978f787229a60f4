"""Formula AST for linear temporal logic with edge operators.

Edge operators describe change between adjacent states: ``RiseEdge(a)``
holds where ``a`` is false now and true next, ``FallEdge(a)`` where it is
true now and false next, and ``AnyEdge(a)`` where either happens.  They
are definable from negation, conjunction and ``Next``; the helpers below
convert between the sugared and desugared forms.

Nodes are interned (hash-consed): constructing a node equal to a live
one returns that node, so ``==`` and ``hash`` are the identity's, O(1)
at any depth.  ``&``/``|`` chains are exempt from the parser's nesting
limit, so no walk recurses: :func:`postorder` visits the distinct nodes
on an explicit stack, children first, and :func:`spine` and
:func:`map_spine` walk one chain in a loop.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from operator import attrgetter

from _weakref import _remove_dead_weakref

_INTERN_LOCK = threading.Lock()


class _Entry(weakref.ref):  # a table's reference to a node, with its key
    __slots__ = ("key",)


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ("__weakref__", "_kids")  # _kids: see children_of

    def __init_subclass__(cls) -> None:
        # fields -> weak reference to the live node.  A WeakValueDictionary
        # builds its references in Python, which made parsing twice as slow;
        # this uses the same atomic removal: a dead node's entry goes
        # unless a new node has taken its key.
        table = cls._table = {}
        cls._forget = lambda entry: _remove_dead_weakref(table, entry.key)

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(n) for n in cls.__match_args__[len(args):]
                          if n in kwargs)
        entry = cls._table.get(args)
        node = entry() if entry is not None else None
        if node is None or kwargs:
            fields = cls.__match_args__
            if kwargs or len(args) != len(fields):
                raise TypeError(f"{cls.__name__} takes the fields {fields}")
            with _INTERN_LOCK:  # on a miss only: one node per key
                entry = cls._table.get(args)
                node = entry() if entry is not None else None
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(fields, args):
                        object.__setattr__(node, name, value)
                    object.__setattr__(node, "_kids",
                                       () if cls is Atom else args)
                    # Visible to lock-free hits once complete.
                    entry = cls._table[args] = _Entry(node, cls._forget)
                    entry.key = args
        return node

    def __reduce__(self):  # unpickled and copied nodes are interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


# Frozen and compared by identity; Formula.__new__ sets the fields.
_node = dataclass(frozen=True, eq=False, init=False, slots=True)


@_node
class Atom(Formula):
    name: str


@_node
class ConstTrue(Formula):
    pass


@_node
class ConstFalse(Formula):
    pass


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    child: Formula


@_node
class Always(Formula):
    child: Formula


@_node
class Eventually(Formula):
    child: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class RiseEdge(Formula):
    child: Formula


@_node
class FallEdge(Formula):
    child: Formula


@_node
class AnyEdge(Formula):
    child: Formula


def children_of(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of ``f``, left to right (kept as ``_kids``)."""
    return f._kids


def rebuild(f: Formula, children: tuple[Formula, ...]) -> Formula:
    """Copy of ``f`` with its immediate subformulas replaced."""
    return type(f)(*children) if f._kids else f


_EMIT = object()  # stack mark: the item below it has all its kids out


def postorder(root, kids=attrgetter("_kids")) -> list:
    """The distinct items reachable from ``root`` through ``kids``, each
    after its kids (left to right), ``root`` last; an explicit stack."""
    out: list = []
    seen: set = set()
    todo = [root]
    while todo:
        item = todo.pop()
        if item is _EMIT:
            item = todo.pop()
        elif item in seen:
            continue
        elif below := kids(item):
            todo += (item, _EMIT, *below[::-1])
            continue
        seen.add(item)
        out.append(item)
    return out


def subformulas(f: Formula) -> list[Formula]:
    """All subformulas of ``f`` in postorder (children before parents)."""
    return postorder(f)


def spine(f: Formula, kind: type) -> list[Formula]:
    """Leaves of the ``kind`` chain at ``f``, left to right: the maximal
    subformulas below ``kind`` nodes only (``[f]`` if ``f`` is none)."""
    leaves, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is kind:
            todo += (g.right, g.left)
        else:
            leaves.append(g)
    return leaves


def map_spine(f: Formula, kind: type, leaf, into: type | None = None):
    """The ``kind`` chain at ``f``, same shape, with each leaf ``g`` (see
    :func:`spine`) replaced by ``leaf(g)``, called left to right, and
    each ``kind`` node by an ``into`` node (by default ``kind``)."""
    done, todo = [], [f]
    while todo:
        g = todo.pop()
        if g is None:  # both operands of a chain node are done
            right = done.pop()
            done[-1] = (into or kind)(done[-1], right)
        elif type(g) is kind:
            todo += (None, g.right, g.left)
        else:
            done.append(leaf(g))
    return done[0]


def atoms_of(f: Formula) -> tuple[str, ...]:
    """Atom names used in ``f``, in order of first occurrence."""
    return tuple(g.name for g in subformulas(f) if type(g) is Atom)


def transform_bottom_up(f: Formula, step) -> Formula:
    """Rewrite ``f`` bottom-up: children first, then ``step`` on the node,
    once per distinct subformula (``step`` must be a pure function)."""
    done: dict[Formula, Formula] = {}
    get = done.__getitem__
    for g in subformulas(f):
        kids = tuple(map(get, g._kids))
        done[g] = step(g if kids == g._kids else type(g)(*kids))
    return done[f]


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


def build_and(items: list[Formula]) -> Formula:
    """Right-nested conjunction of ``items`` (empty list gives true)."""
    return _build(And, items) if items else ConstTrue()


def build_or(items: list[Formula]) -> Formula:
    """Right-nested disjunction of ``items`` (empty list gives false)."""
    return _build(Or, items) if items else ConstFalse()


def _build(kind: type, items: list[Formula]) -> Formula:
    out = items[-1]
    for g in reversed(items[:-1]):
        out = kind(g, out)
    return out


def _find_edge_pair(items: list[Formula]):
    """First pair of conjuncts forming an edge, rises before falls.

    Returns ``(i, j, edge)`` for the first such pair ``i < j`` in
    lexicographic order, or ``None``.  Each pair has an ``X`` conjunct
    (``X z`` and ``!z`` rise, ``X !a`` and ``a`` fall), and none of its
    pairs comes before the one with its partner's first occurrence.
    """
    first: dict[Formula, int] = {}
    for j, g in enumerate(items):
        first.setdefault(g, j)
    nexts = [(k, g.child) for k, g in enumerate(items) if isinstance(g, Next)]
    rises = [(k, Not(z), z) for k, z in nexts]
    falls = [(k, z.child, z.child) for k, z in nexts if isinstance(z, Not)]
    for edge, halves in ((RiseEdge, rises), (FallEdge, falls)):
        pairs = [(min(k, first[p]), max(k, first[p]), a)
                 for k, p, a in halves if p in first]
        if pairs:
            i, j, a = min(pairs, key=lambda pair: pair[:2])
            return i, j, edge(a)
    return None


def resugar_edges(f: Formula) -> Formula:
    """Recover edge operators from conjunctions that spell them out.

    Inside each conjunction, a pair of conjuncts ``!a`` and ``X a`` is
    folded into ``RiseEdge(a)`` and a pair ``a`` and ``X !a`` into
    ``FallEdge(a)``, repeatedly, scanning pairs left to right (rises
    first).  The fold replaces the earlier conjunct and drops the later
    one, so conjunct order is otherwise preserved.  A whole ``&`` chain
    is one conjunction, whose conjuncts are resugared first.
    """
    done: dict[Formula, Formula] = {}
    for g in postorder(f, lambda g: spine(g, And) if type(g) is And
                       else g._kids):
        if type(g) is not And:
            done[g] = rebuild(g, tuple(map(done.__getitem__, g._kids)))
            continue
        items = [done[c] for c in spine(g, And)]
        while (hit := _find_edge_pair(items)) is not None:
            i, j, edge = hit
            items[i] = edge
            del items[j]
        done[g] = build_and(items)
    return done[f]


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
    pass reaches the fixpoint.  A distribution maps the leaves of the
    whole ``&`` or ``|`` chain under the operator at once, so it does
    not recurse on the chain's length.
    """
    h = _drop_negation(g)
    if h is not g:
        return h
    step = _rewrite_step
    if isinstance(g, Always):
        body = g.child
        if isinstance(body, And):
            return map_spine(body, And, lambda x: step(Always(x)))
        if isinstance(body, Not) and isinstance(body.child, Or):
            return map_spine(body.child, Or,
                             lambda x: step(Always(step(Not(x)))), And)
        if isinstance(body, Implies):
            if isinstance(body.right, And):
                return map_spine(body.right, And,
                                 lambda x: step(Always(Implies(body.left, x))))
            if isinstance(body.right, Not):
                return Not(step(Eventually(And(body.left, body.right.child))))
    if isinstance(g, Eventually):
        body = g.child
        if isinstance(body, Or):
            return map_spine(body, Or, lambda x: step(Eventually(x)))
        if isinstance(body, Not) and isinstance(body.child, And):
            return map_spine(body.child, And,
                             lambda x: step(Eventually(step(Not(x)))), Or)
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
