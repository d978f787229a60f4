"""Spans around the calls into each ltledge module, recorded from outside.

The tracer wraps public functions where the calling module imported
them (``ltledge.falsifier.label_block``, ``ltledge.analyzer.rewrite_logic``,
...): every module attribute bound to the original function is replaced
by a wrapper, and restored afterwards.  A wrapper records one span per
outermost call: id, parent id, name, start, end and a few counts taken
from the arguments or result after the clock stops.  A re-entrant call
of the same name (recursion, or a module function delegating to the
method of the same name) adds no span.  Spans stay in memory until the
run ends.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _cells(args, kwargs, result):
    stems = kwargs.get("stems", args[2] if len(args) > 2 else None)
    loops = kwargs.get("loops", args[3] if len(args) > 3 else None)
    return stems.shape[0] * (stems.shape[1] + loops.shape[1])


def _hit(args, kwargs, result):
    return int(result is not None)


def _closed(args, kwargs, result):
    return int(type(result).__name__ == "Closed")


def _proof_nodes(args, kwargs, result):
    stack, count = [args[0] if args else kwargs["p"]], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def _positions(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["t"]
    return trace.stem_len + trace.loop_len


# span name -> (defining module, attribute, count taken after the call)
TARGETS = {
    "syntax.parse": ("ltledge.syntax", "parse", None),
    "syntax.render": ("ltledge.syntax", "render", None),
    "formula.rewrite": ("ltledge.formula", "rewrite_logic", None),
    "analyzer.analyze": ("ltledge.analyzer", "analyze", _closed),
    "analyzer.normalize": ("ltledge.analyzer", "normalize", None),
    "analyzer.check_proof": ("ltledge.analyzer", "check_proof",
                             _proof_nodes),
    "semantics.eval_formula": ("ltledge.semantics", "eval_formula",
                               _positions),
    "semantics.eval_oracle": ("ltledge.semantics", "eval_oracle",
                              _positions),
    "batch.label_block": ("ltledge.batch", "label_block", _cells),
    "batch.window_block": ("ltledge.batch", "window_block", _cells),
    "falsifier.falsify": ("ltledge.falsifier", "falsify", _hit),
    "falsifier.minimize": ("ltledge.falsifier", "minimize", None),
    "patterns.instantiate": ("ltledge.patterns", "Catalog.instantiate",
                             None),
    "patterns.check": ("ltledge.patterns", "Catalog.check", None),
}


class Tracer:
    def __init__(self) -> None:
        # [id, parent id, name, start, end, count]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, orig, count):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name in active:
                return orig(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span[0])
            active.add(name)
            span[3] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
                active.discard(name)
            if count is not None:
                try:
                    span[5] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the signature changed; the count reads as 0
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ltledge" or n.startswith("ltledge.")]
        for name, (modname, attr, count) in TARGETS.items():
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, count)
            sites = [owner] if cls_name else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        self._undo.append((site, key, value))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, value in reversed(self._undo):
            setattr(site, key, value)
        self._undo.clear()

    # -- derived figures --------------------------------------------------

    def _by_name(self, name: str) -> list[list]:
        return [s for s in self.spans if s[2] == name]

    def calls(self, name: str) -> int:
        return len(self._by_name(name))

    def busy(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self._by_name(name))

    def total(self, name: str) -> float:
        return sum(s[5] or 0 for s in self._by_name(name))

    def self_time(self, name: str) -> float:
        """Span time of ``name`` not covered by its direct child spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[4] - s[3]
        return sum(s[4] - s[3] - child_time.get(s[0], 0.0)
                   for s in self._by_name(name))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with an ``ancestor`` span above them."""
        hits = 0
        for s in self._by_name(name):
            parent = s[1]
            while parent >= 0:
                if self.spans[parent][2] == ancestor:
                    hits += 1
                    break
                parent = self.spans[parent][1]
        return hits

    def to_doc(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start", "end", "count"],
            "spans": self.spans,
            "absent": self.absent,
        }
