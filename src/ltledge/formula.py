"""Formula AST for linear temporal logic with edge operators.

Edge operators describe change between adjacent states: ``RiseEdge(a)``
holds where ``a`` is false now and true next, ``FallEdge(a)`` where it is
true now and false next, and ``AnyEdge(a)`` where either happens.  They
are definable from negation, conjunction and ``Next``: :func:`desugar_edges`
spells them out, and :func:`rewrite_logic`, the normal form closure
analysis works on, folds spelled-out edges back in while it rewrites,
in one bottom-up walk.

Nodes are interned (hash-consed): constructing a node equal to a live
one returns that node, so ``==`` and ``hash`` are the identity's, O(1)
at any depth.  ``&``/``|`` chains are exempt from the parser's nesting
limit, so no walk recurses: :func:`postorder` visits the distinct nodes
on an explicit stack, children first, and :func:`spine` and
:func:`map_spine` walk one chain in a loop.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from dataclasses import dataclass
from functools import reduce
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


def transform_bottom_up(f: Formula, step,
                        nodes: list[Formula] | None = None) -> Formula:
    """Rewrite ``f`` bottom-up: children first, then ``step`` on the node,
    once per distinct subformula (``step`` must be a pure function).
    ``nodes`` is ``subformulas(f)``, if the caller has it already."""
    done: dict[Formula, Formula] = {}
    get = done.__getitem__
    for g in subformulas(f) if nodes is None else nodes:
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


def build_and(items: list[Formula]) -> Formula:
    """Left-nested conjunction of ``items``, as parsed (empty: true)."""
    return _build(And, items) if items else ConstTrue()


def build_or(items: list[Formula]) -> Formula:
    """Left-nested disjunction of ``items``, as parsed (empty: false)."""
    return _build(Or, items) if items else ConstFalse()


def _build(kind: type, items: list[Formula]) -> Formula:
    return reduce(kind, items)  # ((a & b) & c): the one chain shape


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


def _conj(items: list[Formula]) -> Formula:
    """Normal form of the conjunction of the normal ``items``.

    The conjuncts are the leaves of the items' ``&`` chains.  A pair of
    conjuncts ``!a`` and ``X a`` is folded into ``RiseEdge(a)`` and a
    pair ``a`` and ``X !a`` into ``FallEdge(a)``, repeatedly, the first
    pair of positions first (rises before falls).  The fold replaces the
    earlier conjunct and drops the later one, so conjunct order is
    otherwise preserved; the chain is rebuilt as ``parse`` builds it.

    A kind of pair is an ``X`` conjunct node with its partner node, and
    its next pair is their first occurrences, so the next fold is the
    least of those over all kinds.  A heap holds them, and each fold
    offers again the kinds that name a node it consumed or built: the
    time is n log n in the number of conjuncts.
    """
    items = [c for g in items for c in spine(g, And)]
    spots: dict[Formula, list[int]] = {}  # node -> heap of its positions
    for k, g in enumerate(items):
        spots.setdefault(g, []).append(k)
    kinds = [(0, x, Not(x.child), RiseEdge(x.child))
             for x in spots if type(x) is Next]
    kinds += [(1, x, x.child.child, FallEdge(x.child.child))
              for x in spots if type(x) is Next and type(x.child) is Not]
    naming: dict[Formula, list[int]] = {}  # node -> kinds naming it
    for n, (_, x, partner, _) in enumerate(kinds):
        naming.setdefault(x, []).append(n)
        naming.setdefault(partner, []).append(n)

    def first(g: Formula) -> int | None:
        heap = spots.get(g, [])
        while heap and items[heap[0]] is not g:
            heapq.heappop(heap)  # consumed or overwritten
        return heap[0] if heap else None

    def pair(n: int) -> tuple[int, int] | None:
        k, f = first(kinds[n][1]), first(kinds[n][2])
        return None if k is None or f is None else (min(k, f), max(k, f))

    todo: list[tuple[int, int, int, int]] = []

    def offer(n: int) -> None:
        if (ij := pair(n)) is not None:
            heapq.heappush(todo, (kinds[n][0], *ij, n))

    for n in range(len(kinds)):
        offer(n)
    while todo:
        _, i, j, n = heapq.heappop(todo)
        if pair(n) != (i, j):
            continue  # stale: its kind was offered again when it moved
        used = items[i], items[j]
        items[i], items[j] = _rewrite_step(kinds[n][3]), None
        heapq.heappush(spots.setdefault(items[i], []), i)
        for g in (*used, items[i]):
            for m in naming.get(g, ()):
                offer(m)
    return build_and([g for g in items if g is not None])


def _rewrite_step(g: Formula) -> Formula:
    """Normal form of ``g``, whose children are normal.

    Every node a rewrite builds is normalized here before it is returned,
    and every conjunction goes through :func:`_conj`, so one bottom-up
    pass reaches the fixpoint.  A distribution maps the leaves of the
    whole ``&`` or ``|`` chain under the operator at once, so it does
    not recurse on the chain's length.
    """
    h = _drop_negation(g)
    if h is not g:
        return _rewrite_step(h)  # ``edge !x`` is ``edge x``, expanded next
    step = _rewrite_step
    if isinstance(g, AnyEdge):
        return Or(RiseEdge(g.child), FallEdge(g.child))
    if isinstance(g, Always):
        body = g.child
        if isinstance(body, And):
            return _conj([step(Always(x)) for x in spine(body, And)])
        if isinstance(body, Not) and isinstance(body.child, Or):
            return _conj([step(Always(step(Not(x))))
                          for x in spine(body.child, Or)])
        if isinstance(body, Implies):
            if isinstance(body.right, And):
                return _conj([step(Always(Implies(body.left, x)))
                              for x in spine(body.right, And)])
            if isinstance(body.right, Not):
                both = _conj([body.left, body.right.child])
                return Not(step(Eventually(both)))
    if isinstance(g, Eventually):
        body = g.child
        if isinstance(body, Or):
            return map_spine(body, Or, lambda x: step(Eventually(x)))
        if isinstance(body, Not) and isinstance(body.child, And):
            return map_spine(body.child, And,
                             lambda x: step(Eventually(step(Not(x)))), Or)
    return g


def rewrite_logic(f: Formula) -> Formula:
    """Evaluation-preserving normal form used before closure analysis.

    Recovers edge operators from conjunctions that spell them out (see
    :func:`_conj`), expands ``AnyEdge(a)`` into ``RiseEdge(a) |
    FallEdge(a)``, distributes ``Always`` over conjunction and
    ``Eventually`` over disjunction (also through a negated disjunction
    or conjunction), splits an implication with a conjunctive consequent,
    turns ``G(a -> !b)`` into ``!F(a & b)``, removes double negation and
    normalizes negated edge arguments.  One bottom-up walk, which takes
    a whole ``&`` chain as one conjunction after its conjuncts; the
    result is a fixpoint: no rewrite applies anywhere in it.
    """
    done: dict[Formula, Formula] = {}
    get = done.__getitem__
    for g in postorder(f, lambda g: spine(g, And) if type(g) is And
                       else g._kids):
        if type(g) is And:
            done[g] = _conj(list(map(get, spine(g, And))))
        else:
            done[g] = _rewrite_step(rebuild(g, tuple(map(get, g._kids))))
    return done[f]
