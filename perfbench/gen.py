"""Seeded input streams for the benchmark workloads.

Every input is plain text (formula text, trace JSON, template ids and
binding text) made from ``random.Random`` seeded with the workload name
and ``--seed`` alone, so the same seed gives the same stream and nothing
in ``src/`` or ``tests/`` can shift it.  The program under test sees
only this text.

A stream is an endless generator, drawn one request at a time while the
benchmark's clock is stopped.  So no run can use it up and start over,
and the inputs take no memory beside the program's.  No request text
repeats within a stream, so a cache keyed on the input never hits.

The seed picks contents, not costs, as far as the generator can fix
them: formulas have an exact node count, and the frontend's wide
formulas, trace lengths, evaluation shapes and template ids follow a
fixed cycle over the stream.  So on frontend and search-3atom a run that
stops partway through the stream has done nearly the same work whatever
the seed.  On audit-2atom the share of Closed formulas, which cost a
full search, still varies with the seed (13 to 26 of the first 40 over
seeds 601-610), so part of that workload's spread is the generator's.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator

_BINARY = ("&", "|", "->", "<->", "U")
_CORE_UNARY = ("!", "G", "F")
_NEXT_UNARY = ("X", "up", "down", "edge")

# Catalog template ids (five scopes times four condition/bound
# combinations) and the metavariables of each scope.
_SCOPE_MVS = {"A": "P", "B": "PR", "C": "PQ", "D": "PQR", "E": "PQR"}
CATALOG_IDS = tuple(
    f"existence/{scope}/{combo}" for scope in "ABCDE" for combo in range(4)
)

# The criterion-8 robot instantiation and its expected rendering.
ROBOT_ID = "existence/D/1"
ROBOT_BINDING = {"P": "scl", "Q": "mgn", "R": "!mgn"}
ROBOT_TEXT = "G(up mgn & F down mgn -> X(!down mgn U scl) & !down mgn)"

# Inputs that reproduce known defects, run apart from the timed stream
# and reported on every frontend run until they pass.  Kept at full size
# on purpose: a 300-operand conjunction under G (expected Closed), a
# 2000-deep negation chain (expected a result or a ParseError), and an
# evaluation away from position 0 (expected: both routes agree).
PROBE_TRACE = json.dumps({
    "atoms": ["a", "b", "c"],
    "stem": [],
    "loop": [[0, 0, 0], [1, 0, 0]],
})
PROBES = (
    ("wide-300", "G(" + " & ".join(f"a{i}" for i in range(300)) + ")"),
    ("deep-2000", "!" * 2000 + "a"),
    ("eval-position", ("c U a", PROBE_TRACE, 1)),
)


def _wrap(text: str) -> str:
    return text if text.isidentifier() else f"({text})"


def _unary(op: str, child: str) -> str:
    if op == "!":
        return "!" + _wrap(child)
    if child.isidentifier():
        return f"{op} {child}"
    return f"{op}({child})"


def _capacity(depth: int) -> int:
    return (1 << (depth + 1)) - 1


def formula(rng: random.Random, nodes: int, depth: int,
            atoms: tuple[str, ...], next_weight: float = 0.0,
            const_frac: float = 0.0) -> str:
    """Random formula text with exactly ``nodes`` nodes, at most ``depth`` deep.

    Operators are drawn as in the acceptance-test generator: unary and
    binary nodes equally often, a unary node being ``X`` or an edge with
    probability ``next_weight``.  A leaf is a constant with probability
    ``const_frac``, else an atom.
    """
    if nodes == 1:
        if rng.random() < const_frac:
            return rng.choice(("true", "false"))
        return rng.choice(atoms)
    below = _capacity(depth - 1)
    lo, hi = max(1, nodes - 1 - below), min(nodes - 2, below)
    if nodes - 1 > below or (lo <= hi and rng.random() < 0.5):
        k = rng.randint(lo, hi)
        left = formula(rng, k, depth - 1, atoms, next_weight, const_frac)
        right = formula(rng, nodes - 1 - k, depth - 1, atoms, next_weight,
                        const_frac)
        return f"{_wrap(left)} {rng.choice(_BINARY)} {_wrap(right)}"
    pool = _NEXT_UNARY if rng.random() < next_weight else _CORE_UNARY
    child = formula(rng, nodes - 1, depth - 1, atoms, next_weight, const_frac)
    return _unary(rng.choice(pool), child)


def _atoms_in(text: str, atoms: tuple[str, ...]) -> set[str]:
    words = text.replace("(", " ").replace(")", " ").replace("!", " ")
    return set(words.split()) & set(atoms)


# ---------------------------------------------------------------------------
# audit-2atom: the audit a user runs over a spec set.  Distinct depth-4,
# 12-node formulas over p and q shaped like the criterion-6 fuzz, with X
# and edges weighted so about half come out Closed.  Closed ones cost a
# full bounded search, most Unknown ones stop early and then pay for
# minimize.  The time goes into the falsifier's ~100 small label_block
# calls per search, so per-call overhead dominates.

AUDIT_ATOMS = ("p", "q")


def audit_stream(seed: int) -> Iterator[str]:
    rng = random.Random(f"audit-2atom/{seed}")
    seen: set[str] = set()
    while True:
        text = formula(rng, 12, 4, AUDIT_ATOMS, next_weight=0.3,
                       const_frac=0.15)
        if text not in seen and _atoms_in(text, AUDIT_ATOMS) == {"p", "q"}:
            seen.add(text)
            yield text


# ---------------------------------------------------------------------------
# search-3atom: the same layers as audit-2atom with a large working set.
# Every instance is of a closure schema from criterion 5 or of the worked
# example G(up a -> X b | c), so it is Closed and its search runs the
# whole 3-atom bounded space (~1e5-row blocks): array arithmetic and
# copies dominate, not call overhead.  Schemas rotate in a fixed order
# and their pieces are literals (one pair where a schema has too few
# pieces to mention all three atoms), so each schema always costs the
# same.  Each schema has at least 48 distinct instances; the stream ends
# when 1000 draws in a row give none that is new, which a run reports as
# a failure rather than repeat one.

SEARCH_ATOMS = ("p", "q", "r")
_SEARCH_SCHEMAS = (
    "G(up {a} -> X {b} | {c})",
    "F(up {a} & X {b} & {c})",
    "F(!{a} & X {a} & X {b})",
    "(!up {a} | X {b} | {c}) U (up {d} & X {e} & {f})",
)


def _literal(rng: random.Random, atom: str) -> str:
    return ("!" if rng.random() < 0.3 else "") + atom


def _search_instance(rng: random.Random, index: int) -> str:
    schema = _SEARCH_SCHEMAS[index % len(_SEARCH_SCHEMAS)]
    atoms = rng.sample(SEARCH_ATOMS, 3) + rng.choices(SEARCH_ATOMS, k=3)
    pieces = {k: _wrap(_literal(rng, a)) for k, a in zip("abcdef", atoms)}
    if "{c}" not in schema:
        pieces["b"] = (f"({_literal(rng, atoms[1])} {rng.choice('&|')} "
                       f"{_literal(rng, atoms[2])})")
    return schema.format(**pieces)


def search_stream(seed: int) -> Iterator[str]:
    rng = random.Random(f"search-3atom/{seed}")
    seen: set[str] = set()
    index = misses = 0
    while misses < 1000:
        text = _search_instance(rng, index)
        if text in seen:
            misses += 1
            continue
        seen.add(text)
        index, misses = index + 1, 0
        yield text


# ---------------------------------------------------------------------------
# frontend: interactive requests with no search, so analyzer, formula,
# semantics, syntax and patterns do the work while falsifier and batch
# idle.  The control for search optimisations, and where folding the
# scalar evaluators into batch calls could slow evaluation down.  The
# atoms of request i are named a<i>, b<i>, c<i> (wide formulas use
# w<k>_<i>), so no two requests share a text.

_EVAL_SHAPES = (
    "G({a} -> F {b})",
    "G(up {a} -> X {b} | {c})",
    "({a} U {b}) | G F {c}",
    "F G({a} | down {b})",
    "G({a} -> ({b} U {c}))",
    "!({a} U X {b}) & F edge {c}",
)
_WIDE_WIDTHS = (150, 50, 200, 100, 175, 75, 125)
_STEMS = (1000, 3000, 2000, 1500, 2500)
_LOOPS = (100, 400, 250, 175, 325)

# Requests per round, by kind; the order within a round is shuffled.
# Each count is a target share of frontend time divided by the kind's
# mean cost, measured untraced with one client on a 2-core Xeon
# (Python 3.11, numpy 2.4).  That host's speed drifts by up to 1.7x
# within an hour, so costs measured later differ, but the shares hold
# within a point or two:
#   kind             share  cost    why this share
#   analyze-catalog   20%  1.43 ms  analyze + check_proof + render_proof
#                                   on catalog instantiations: the user's
#                                   main path, with patterns in front
#   analyze-random    20%  0.62 ms  the same path on random 3-atom
#                                   formulas, whose proofs are shallower
#   analyze-wide      20%  724 ms   normalize on 50-200-operand formulas
#                                   (mean over the width cycle), the only
#                                   input where normalize does real work;
#                                   superlinear in width, so one request
#                                   per round and no more
#   eval              25%  15.5 ms  both scalar evaluators on long
#                                   lassos: the layer that folding them
#                                   into batch calls could slow
#   instantiate        7%  0.36 ms  template substitution and render,
#                                   cheap, so a small share is enough
#   check              5%  6.4 ms   the whole 20-template catalog check,
#                                   a command run rarely
#   malformed          3%  0.08 ms  parse up to the ParseError, the
#                                   parser's error path
# Comparable counts per kind (say 6, 8, 1, 3, 6, 1, 5) give the wide
# formulas 91% of the time and eval 6%: a normalize benchmark.  With
# these counts a traced first round (seed 3) splits its time, as self
# time per layer, into formula 26%, analyzer 27%, syntax 23%, semantics
# 16% and patterns 3%; the other 6% is trace JSON loading, render_proof
# and request handling.
_ROUND = (
    ("analyze-catalog", 505),
    ("analyze-random", 1160),
    ("analyze-wide", 1),
    ("eval", 58),
    ("instantiate", 710),
    ("check", 28),
    ("malformed", 1410),
)
ROUND_SIZE = sum(n for _, n in _ROUND)


def _front_atoms(index: int) -> tuple[str, str, str]:
    return (f"a{index}", f"b{index}", f"c{index}")


def _catalog_request(rng: random.Random, slot: int,
                     atoms: tuple[str, ...]) -> dict:
    ident = CATALOG_IDS[slot % len(CATALOG_IDS)]
    scope = ident.split("/")[1]
    binding = {m: formula(rng, 3, 2, atoms) for m in _SCOPE_MVS[scope]}
    return {"id": ident, "binding": binding}


def _wide(rng: random.Random, width: int, conj: bool, index: int) -> str:
    names = [f"w{k}_{index}" for k in range(width)]
    rng.shuffle(names)
    lits = [("!" if rng.random() < 0.3 else "") + n for n in names]
    if conj:
        return "G(" + " & ".join(lits) + ")"
    return "F(" + " | ".join(lits) + ")"


def _trace_text(rng: random.Random, atoms: tuple[str, ...], stem: int,
                loop: int) -> str:
    density = [0.3 + 0.4 * rng.random() for _ in atoms]

    def state() -> list[int]:
        return [int(rng.random() < d) for d in density]

    return json.dumps({
        "atoms": list(atoms),
        "stem": [state() for _ in range(stem)],
        "loop": [state() for _ in range(loop)],
    })


def _malformed(rng: random.Random, atoms: tuple[str, ...]) -> str:
    base = formula(rng, 8, 4, atoms, next_weight=0.3)
    return rng.choice((
        "(" + base,
        base + " )",
        base + " &",
        base + " $ " + rng.choice(atoms),
        "-> " + base,
    ))


def _request(rng: random.Random, kind: str, slot: int, index: int) -> dict:
    """Request ``index`` of the stream, the ``slot``-th of its ``kind``."""
    atoms = _front_atoms(index)
    if kind == "analyze-catalog":
        return {"kind": kind, **_catalog_request(rng, slot, atoms)}
    if kind == "analyze-random":
        text = formula(rng, 16, 5, atoms, next_weight=0.3, const_frac=0.1)
        return {"kind": kind, "text": text}
    if kind == "analyze-wide":
        width = _WIDE_WIDTHS[slot % len(_WIDE_WIDTHS)]
        return {"kind": kind, "text": _wide(rng, width, slot % 2 == 0, index)}
    if kind == "eval":
        shape = _EVAL_SHAPES[slot % len(_EVAL_SHAPES)]
        holes = dict(zip("abc", (_literal(rng, a) for a in atoms)))
        stem, loop = _STEMS[slot % len(_STEMS)], _LOOPS[slot % len(_LOOPS)]
        return {"kind": kind, "text": shape.format(**holes),
                "trace": _trace_text(rng, atoms, stem, loop)}
    if kind == "instantiate":
        if slot == 0:
            return {"kind": kind, "id": ROBOT_ID,
                    "binding": dict(ROBOT_BINDING), "expect": ROBOT_TEXT}
        return {"kind": kind, **_catalog_request(rng, 7 * slot, atoms)}
    if kind == "check":
        return {"kind": kind}
    return {"kind": kind, "text": _malformed(rng, atoms)}


def frontend_stream(seed: int) -> Iterator[dict]:
    """Shuffled rounds of requests, :data:`_ROUND` of each kind per round."""
    rng = random.Random(f"frontend/{seed}")
    slots = dict.fromkeys((kind for kind, _ in _ROUND), 0)
    index = 0
    while True:
        kinds = [kind for kind, n in _ROUND for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            yield _request(rng, kind, slots[kind], index)
            slots[kind] += 1
            index += 1
