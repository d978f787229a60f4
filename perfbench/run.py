"""Layered benchmark for ltledge.

    python3 perfbench/run.py --workload audit-2atom --seed 1 --seconds 20 --trace 0

Run it from anywhere; it imports ltledge from the ``src/`` directory next
to ``perfbench/`` and exits with code 2, printing no result, if that is
missing.  One client drives the program as a closed loop: a single
thread sends the next request only when the previous one has finished.
Inputs come from ``--seed`` alone (see ``gen.py``).  Each request is
drawn from its stream, and each output is checked, while the clock is
stopped: the timed figures count only the program's calls.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import ltledge, build ``catalog()`` and warm up),
requests per second of timed calls, and peak RSS.  The median and
90th-percentile latencies are printed but not reported as metrics: on a
shared 2-core host they swing between runs by more than any usable bound.

``--trace 1`` runs a fixed prefix of the stream untraced, traced with
spans around the calls into each module (``tracer.py``), and untraced
again, and reports per-layer counts and times; the traced pass's extra
time is ``trace.overhead_frac``.  Medians that tracing would distort (analyze
and eval times, lassos searched per second, the ``jobs=2`` speed-up on
search-3atom) come from an untraced pass, and ``cli.cold_ms_p50`` from
fresh ``python -m ltledge analyze`` processes run one at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the machine, the outcome counts and digest, known-defect probes
and each metric with its unit.  A copy, with the spans of a traced run,
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fresh processes per run for setup_s (half spawned before the timed loop
# and half after, so the median spans the run) and for cli.cold_ms_p50.
SPAWNS = 12

WORKLOADS = ("audit-2atom", "search-3atom", "frontend")


def _units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_program():
    """Import ltledge from the checkout's src/, or None if it is not there."""
    if not (SRC / "ltledge" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import ltledge
    if Path(ltledge.__file__).resolve().parent != SRC / "ltledge":
        return None
    return ltledge


def _machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argvs: list[list[str]]) -> list[tuple[float, object]]:
    """Wall time and result of fresh processes run one at a time."""
    out = []
    for argv in argvs:
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=_child_env(), cwd=HERE.parent, timeout=120)
        out.append((perf_counter() - t0, proc))
    return out


def _stream(workload: str, seed: int):
    """(request iterator, handler, prefix) of a workload.

    The prefix is the part of the stream that every run completes (its
    outcome counts and digest must repeat exactly for a seed) and that
    the traced run measures.  On frontend it is one round: every kind of
    request in its share.
    """
    import gen
    import items
    if workload == "audit-2atom":
        return gen.audit_stream(seed), \
            lambda text: items.search_item(text, workload), 40
    if workload == "search-3atom":
        return gen.search_stream(seed), \
            lambda text: items.search_item(text, workload), 2
    return gen.frontend_stream(seed), items.frontend_item, gen.ROUND_SIZE


def _settle() -> None:
    """Keep set-up garbage out of the collections inside the timed loop."""
    gc.collect()
    gc.freeze()


class Pass:
    """What one closed-loop pass over a stream did."""

    def __init__(self) -> None:
        self.count = 0
        self.busy = 0.0                 # seconds spent in the handler
        self.latencies: list[float] = []
        self.problems: list[tuple[str, str]] = []   # (request, why)
        self.outcomes: list = []        # kept only when asked for
        self.counts: dict[str, int] = {}
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


def _run(requests, handler, prefix: int, deadline: float | None = None,
         keep: bool = False, tag: str = "request") -> Pass:
    """Closed loop: each request starts when the last one has ended.

    Stops once ``prefix`` requests are done and the deadline (if any) has
    passed, or when the stream ends, which is a failure.  Only the
    handler's calls are timed; drawing a request and checking its output
    happen with the clock stopped.  Outcome counts and the digest cover
    the first ``prefix`` requests.
    """
    import items
    run = Pass()
    while run.count < prefix or (deadline is not None
                                 and perf_counter() < deadline):
        try:
            request = next(requests)
        except StopIteration:
            run.problems.append((f"{tag} {run.count}",
                                 "input stream used up"))
            break
        t0 = perf_counter()
        try:
            out = handler(request)
        except Exception as exc:  # counted as a failed request
            out, why = None, f"{type(exc).__name__}: {exc}"[:200]
        elapsed = perf_counter() - t0
        run.busy += elapsed
        run.latencies.append(elapsed)
        where = f"{tag} {run.count}"
        if out is None:
            run.problems.append((where, why))
        else:
            run.problems.extend((where, p) for p in items.verify(out))
        if run.count < prefix:
            verdict = "failed" if out is None else out.verdict
            run.counts[verdict] = run.counts.get(verdict, 0) + 1
            run._digest.update(("-" if out is None else out.canon).encode())
            run._digest.update(b"\n")
        if keep:
            run.outcomes.append(out)
        run.count += 1
    run.counts = dict(sorted(run.counts.items()))
    return run


def _ms_p(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        * 1e3


def _cli_runs(workload: str, requests) -> tuple[list, list[tuple[str, str]]]:
    """Cold ``python -m ltledge analyze`` runs, checked against analyze().

    The texts are the next ones in the stream (analyze-random requests on
    frontend), so none repeats a request the traced passes sent.
    """
    import items
    if workload == "frontend":
        requests = (r["text"] for r in requests
                    if r["kind"] == "analyze-random")
    texts = list(itertools.islice(requests, SPAWNS))
    runs = _spawn([[sys.executable, "-m", "ltledge", "analyze", t]
                   for t in texts])
    problems = []
    for index, (text, (_, proc)) in enumerate(zip(texts, runs)):
        want = items.verdict_line(text)
        got = proc.stdout.split("\n", 1)[0]
        if got != want:
            problems.append((f"cli {index}",
                             f"analyze {text!r}: {got!r}, expected {want}"))
    return runs, problems


def _timed(args, requests, handler, prefix: int) -> tuple[dict, dict]:
    import items
    setup = [[sys.executable, str(HERE / "setup_child.py")]] * SPAWNS
    setup_runs = _spawn(setup[:SPAWNS // 2])
    items.warm_up()
    _settle()

    start = perf_counter()
    run = _run(requests, handler, prefix, deadline=start + args.seconds)
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup_runs += _spawn(setup[SPAWNS // 2:])
    problems = run.problems
    for index, (_, proc) in enumerate(setup_runs):
        if proc.returncode != 0:
            problems.append((f"set-up {index}", proc.stderr[-300:]))

    metrics = {
        "setup_s": statistics.median(t for t, _ in setup_runs),
        "items_per_s": run.count / run.busy,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "attempted": run.count + len(setup_runs),
        "problems": problems,
        "counts": run.counts,
        "digest": run.digest,
        "info": {"latency_ms_p50": statistics.median(run.latencies) * 1e3,
                 "latency_ms_p90": _ms_p(run.latencies, 90),
                 "requests": run.count,
                 "timed_s": run.busy,
                 "wall_s": wall},
        "units": _units("end_to_end"),
    }
    return metrics, report


def _lassos(ltledge, atoms: int) -> int:
    """Lassos in the default bounded space over ``atoms`` atoms."""
    b = ltledge.SearchBounds()
    states = 1 << atoms
    return sum(states ** (stem + loop)
               for stem in range(b.max_stem + 1)
               for loop in range(1, b.max_loop + 1))


def _traced(args, ltledge, requests, handler,
            prefix: int) -> tuple[dict, dict]:
    import items
    import tracer
    sent = list(itertools.islice(requests, prefix))
    items.warm_up()
    _settle()
    # Untraced, traced, untraced again over the same requests: the
    # overhead is taken against the mean of the two untraced passes, so
    # warm-up and drift in machine speed cancel; the untraced medians come
    # from the second, warm pass.
    first = _run(iter(sent), handler, prefix, tag="first pass")
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = _run(iter(sent), handler, prefix, tag="traced pass")
    finally:
        trace.uninstall()
    plain = _run(iter(sent), handler, prefix, keep=True, tag="second pass")
    problems = first.problems + traced.problems + plain.problems
    if not (first.counts, first.digest) == (traced.counts, traced.digest) \
            == (plain.counts, plain.digest):
        problems.append(("digest", "passes over the same requests differ"))

    absent = list(trace.absent)
    t = trace
    searches = t.calls("falsifier.falsify")
    analyses = t.calls("analyzer.analyze")
    metrics = {
        "batch.label_block.calls": t.calls("batch.label_block"),
        "batch.label_block.busy_s": t.busy("batch.label_block"),
        "batch.label_block.cells": t.total("batch.label_block"),
        "batch.window_block.calls": t.calls("batch.window_block"),
        "falsifier.falsify.calls": searches,
        "falsifier.falsify.self_s": t.self_time("falsifier.falsify"),
        "falsifier.label_calls_per_search":
            t.calls_under("batch.label_block", "falsifier.falsify")
            / searches if searches else 0,
        "falsifier.hit_frac":
            t.total("falsifier.falsify") / searches if searches else 0,
        "falsifier.minimize.busy_s": t.busy("falsifier.minimize"),
        "analyzer.analyze.calls": analyses,
        "analyzer.analyze.self_s": t.self_time("analyzer.analyze"),
        "analyzer.normalize.busy_s": t.busy("analyzer.normalize"),
        "formula.rewrite.busy_s": t.busy("formula.rewrite"),
        "analyzer.check_proof.busy_s": t.busy("analyzer.check_proof"),
        "analyzer.proof_nodes": t.total("analyzer.check_proof"),
        "analyzer.closed_frac":
            t.total("analyzer.analyze") / analyses if analyses else 0,
        "semantics.eval_formula.busy_s": t.busy("semantics.eval_formula"),
        "semantics.eval_oracle.busy_s": t.busy("semantics.eval_oracle"),
        "semantics.positions": t.total("semantics.eval_formula")
            + t.total("semantics.eval_oracle"),
        "syntax.parse.calls": t.calls("syntax.parse"),
        "syntax.parse.busy_s": t.busy("syntax.parse"),
        "syntax.render.busy_s": t.busy("syntax.render"),
        "patterns.instantiate.busy_s": t.busy("patterns.instantiate"),
        "patterns.check.busy_s": t.busy("patterns.check"),
        "trace.overhead_frac": 2 * traced.busy / (first.busy + plain.busy) - 1,
    }

    # Measured on the untraced pass, so tracing does not slow them.
    outcomes = plain.outcomes
    full = [o for o in outcomes if o is not None and o.full_search]
    atoms = 3 if args.workload == "search-3atom" else 2
    metrics["falsifier.lassos_per_s"] = (
        len(full) * _lassos(ltledge, atoms) / sum(o.falsify_s for o in full)
        if full else 0)
    analyze_s = [o.analyze_s for o in outcomes
                 if o is not None and o.analyze_s is not None]
    metrics["analyzer.analyze_ms_p50"] = (
        statistics.median(analyze_s) * 1e3 if analyze_s else 0)
    evals = [s for o, s in zip(outcomes, plain.latencies)
             if o is not None and o.kind == "eval"]
    metrics["semantics.eval_ms_p50"] = (
        statistics.median(evals) * 1e3 if evals else 0)

    cli_runs, cli_problems = _cli_runs(args.workload, requests)
    problems += cli_problems
    metrics["cli.cold_ms_p50"] = \
        statistics.median(t for t, _ in cli_runs) * 1e3

    # Informational: does the process pool pay on a full 3-atom search?
    metrics["falsifier.jobs2_speedup"] = 0
    if args.workload == "search-3atom" and outcomes[0] is not None:
        f = ltledge.parse(sent[0])
        t0 = perf_counter()
        try:
            ltledge.falsify(f, jobs=2)
        except TypeError:
            absent.append("falsifier.jobs2_speedup")
        else:
            metrics["falsifier.jobs2_speedup"] = \
                outcomes[0].falsify_s / (perf_counter() - t0)

    report = {
        "attempted": first.count + traced.count + plain.count
        + len(cli_runs),
        "problems": problems,
        "counts": plain.counts,
        "digest": plain.digest,
        "absent": absent,
        "info": {"untraced_pass_s": plain.busy, "traced_pass_s": traced.busy},
        "units": _units("per_layer"),
        "spans": trace.to_doc(),
    }
    return metrics, report


def _probes() -> dict:
    import gen
    import items
    return {name: items.probe(name, text) for name, text in gen.PROBES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ltledge = _load_program()
    if ltledge is None:
        return _fail(f"no ltledge package under {SRC}")
    machine = _machine()
    requests, handler, prefix = _stream(args.workload, args.seed)

    if args.trace:
        metrics, report = _traced(args, ltledge, requests, handler, prefix)
    else:
        metrics, report = _timed(args, requests, handler, prefix)
    probes = _probes() if args.workload == "frontend" else {}
    if args.trace:
        metrics["probes.failed"] = sum(1 for why in probes.values() if why)
    units = report.pop("units")
    spans = report.pop("spans", None)
    problems = report["problems"]

    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": len({where for where, _ in problems}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"args": vars(args), "machine": machine, "probes": probes,
           **report, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if spans is not None:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt") as handle:
            json.dump(spans, handle)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"outcomes (first {prefix}) "
          + "  ".join(f"{k} {v}" for k, v in report["counts"].items())
          + f"  digest {report['digest']}")
    for name, why in probes.items():
        print(f"known-defect probe {name}: {why or 'passes'}")
    for name in report.get("absent", ()):
        print(f"absent: {name}")
    for where, why in problems[:20]:
        print(f"FAILED {where}: {why}")
    for name, value in report.get("info", {}).items():
        print(f"info (not gated): {name} {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
