"""One request of each workload, and the checks on its output.

Handlers call the program through module attributes looked up at call
time (``syntax.parse``, ``falsifier.falsify``, ...), so the tracer's
wrappers see the benchmark's own calls as well as the calls between
modules.  A handler returns an :class:`Outcome`; :func:`verify` checks it
while the benchmark's clock is stopped, so checking costs no timed work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from ltledge import analyzer, falsifier, patterns, semantics, syntax

import gen


@dataclass
class Outcome:
    kind: str
    verdict: str            # closed / refuted / undecided / value / ...
    canon: str              # canonical output, hashed into the digest
    problems: list[str] = field(default_factory=list)
    analyze_s: float | None = None
    falsify_s: float | None = None
    full_search: bool = False
    cexs: tuple = ()            # (found, minimized) counterexamples


def _closed(verdict) -> bool:
    return isinstance(verdict, analyzer.Closed)


def _cex_doc(cex) -> str:
    return json.dumps(falsifier.cex_to_doc(cex), sort_keys=True)


def search_item(text: str, kind: str) -> Outcome:
    """parse -> analyze -> check_proof if Closed -> falsify -> minimize."""
    f = syntax.parse(text)
    t0 = perf_counter()
    verdict = analyzer.analyze(f)
    t1 = perf_counter()
    closed = _closed(verdict)
    problems = []
    if closed and not analyzer.check_proof(verdict.proof):
        problems.append("proof rejected by check_proof")
    t2 = perf_counter()
    cex = falsifier.falsify(f)
    t3 = perf_counter()
    mini = falsifier.minimize(cex) if cex is not None else None
    if cex is None:
        outcome = "closed" if closed else "undecided"
        canon = f"{text}|{outcome}"
    else:
        outcome = "refuted"
        canon = f"{text}|refuted|{_cex_doc(mini)}"
        if closed:
            problems.append("Closed verdict refuted by falsify")
    if kind == "search-3atom" and cex is not None:
        problems.append("closure-schema instance refuted by falsify")
    if kind == "search-3atom" and not closed:
        problems.append("closure-schema instance not proved Closed")
    return Outcome(kind, outcome, canon, problems, analyze_s=t1 - t0,
                   falsify_s=t3 - t2, full_search=cex is None,
                   cexs=(cex, mini) if cex is not None else ())


def _binding(doc: dict) -> dict:
    return {m: syntax.parse(text) for m, text in doc.items()}


def frontend_item(req: dict) -> Outcome:
    kind = req["kind"]
    if kind.startswith("analyze"):
        if kind == "analyze-catalog":
            f, _ = patterns.instantiate(req["id"], _binding(req["binding"]))
        else:
            f = syntax.parse(req["text"])
        t0 = perf_counter()
        verdict = analyzer.analyze(f)
        t1 = perf_counter()
        problems = []
        if _closed(verdict):
            if not analyzer.check_proof(verdict.proof):
                problems.append("proof rejected by check_proof")
            size = len(analyzer.render_proof(verdict.proof).splitlines())
            outcome, detail = "closed", str(size)
        else:
            outcome = "undecided"
            detail = ";".join(syntax.render(b) for b in verdict.blockers)
        if kind == "analyze-wide" and outcome != "closed":
            problems.append("next-free formula not proved Closed")
        canon = f"{kind}|{syntax.render(f)}|{outcome}|{detail}"
        return Outcome(kind, outcome, canon, problems, analyze_s=t1 - t0)
    if kind == "eval":
        f = syntax.parse(req["text"])
        trace = semantics.load_trace(req["trace"])
        scan = semantics.eval_formula(f, trace)
        fixpoint = semantics.eval_oracle(f, trace)
        problems = [] if scan == fixpoint else [
            f"eval_formula={scan} but eval_oracle={fixpoint}"]
        value = "true" if scan else "false"
        return Outcome(kind, value, f"eval|{req['text']}|{value}", problems)
    if kind == "instantiate":
        f, warnings = patterns.instantiate(req["id"],
                                           _binding(req["binding"]))
        text = syntax.render(f)
        problems = []
        if "expect" in req and (text != req["expect"] or warnings):
            problems.append(f"{req['id']} gave {text!r} with {warnings}")
        if syntax.parse(text) != f:
            problems.append("instantiation does not round-trip")
        return Outcome(kind, "ok", f"inst|{text}|{len(warnings)}", problems)
    if kind == "check":
        report = patterns.Catalog().check()
        problems = []
        if len(report.entries) != 20 or not report.all_closed:
            problems.append("catalog is not 20 Closed entries")
        return Outcome(kind, "ok", f"check|{len(report.entries)}", problems)
    if kind == "malformed":
        try:
            syntax.parse(req["text"])
        except syntax.ParseError:
            return Outcome(kind, "rejected", f"bad|{req['text']}")
        return Outcome(kind, "accepted", f"bad|{req['text']}",
                       ["malformed text parsed without ParseError"])
    raise ValueError(f"unknown request kind {kind!r}")


def _recheck(cex) -> list[str]:
    """A counterexample re-checked by eval_oracle, which search never uses."""
    before = semantics.eval_oracle(cex.formula, cex.trace)
    stuttered = semantics.stutter_at(cex.trace, cex.stutter_index)
    after = semantics.eval_oracle(cex.formula, stuttered)
    if (before, after) != (cex.value_before, cex.value_after) \
            or before == after:
        return ["counterexample does not re-check with eval_oracle"]
    return []


def verify(out: Outcome) -> list[str]:
    problems = list(out.problems)
    for cex in out.cexs:
        problems.extend(_recheck(cex))
    if len(out.cexs) == 2:
        big, small = out.cexs
        key = lambda c: (c.trace.stem_len, c.trace.loop_len, c.stutter_index)
        if key(small) > key(big):
            problems.append("minimize returned a larger counterexample")
    return problems


def probe(name: str, payload) -> str:
    """Run one known-defect input; return '' if it behaves, else why not."""
    try:
        if name == "eval-position":
            formula, trace_text, position = payload
            f = syntax.parse(formula)
            trace = semantics.load_trace(trace_text)
            scan = semantics.eval_formula(f, trace, position)
            fixpoint = semantics.eval_oracle(f, trace, position)
            if scan != fixpoint:
                return f"eval_formula={scan} but eval_oracle={fixpoint}"
            return ""
        try:
            f = syntax.parse(payload)
        except syntax.ParseError:
            return "" if name == "deep-2000" else "ParseError"
        verdict = analyzer.analyze(f)
        syntax.render(f)
        if name == "wide-300" and not _closed(verdict):
            return "not proved Closed"
        return ""
    except Exception as exc:  # a defect shows as any uncaught exception
        return type(exc).__name__


def verdict_line(text: str) -> str:
    """First line ``ltledge analyze`` should print for ``text``."""
    return "Closed" if _closed(analyzer.analyze(syntax.parse(text))) \
        else "Unknown"


def warm_up() -> None:
    """Touch every layer once so lazy imports and caches are filled."""
    patterns.catalog()
    patterns.check_catalog()
    f = syntax.parse("G(up a -> X b | c)")
    verdict = analyzer.analyze(f)
    if _closed(verdict):  # if not, the workloads' checks report it
        analyzer.check_proof(verdict.proof)
        analyzer.render_proof(verdict.proof)
    cex = falsifier.falsify(syntax.parse("X p"))
    falsifier.minimize(cex)
    trace = semantics.load_trace(gen.PROBE_TRACE)
    semantics.eval_formula(f, trace)
    semantics.eval_oracle(f, trace)
    patterns.instantiate(gen.ROBOT_ID, _binding(gen.ROBOT_BINDING))
