"""Command-line front-end.

Exit codes are script-friendly: 0 for a positive result (closed, true,
no counterexample, all templates closed), 1 for a valid negative result
(unknown verdict, false, counterexample found, a template not proved),
2 for usage or input errors (including formulas or JSON documents nested
too deeply and search bounds over the size budget), 3 for an internal
error, reported as one line on stderr without a traceback.  Structured
output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys

from .analyzer import Closed, analyze, render_proof
from .falsifier import SearchBounds, cex_to_doc, falsify
from .patterns import Catalog, catalog
from .semantics import eval_formula, load_trace
from .syntax import parse, render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltledge",
        description=(
            "Linear temporal logic with edge operators: evaluate formulas "
            "on lasso traces, prove closure under stuttering, search for "
            "stuttering counterexamples, and instantiate property patterns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="prove a formula closed under stuttering"
    )
    p.add_argument("formula")
    p.add_argument(
        "--proof", choices=("text", "json"),
        help="print the derivation on a Closed verdict",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("eval", help="evaluate a formula on a lasso trace")
    p.add_argument("formula")
    p.add_argument("tracefile")
    p.add_argument("--position", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "falsify", help="search for a stuttering counterexample"
    )
    p.add_argument("formula")
    p.add_argument("--stem-max", type=int, default=SearchBounds.max_stem)
    p.add_argument("--loop-max", type=int, default=SearchBounds.max_loop)
    p.add_argument("--unroll-max", type=int, default=SearchBounds.max_unroll)
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("pattern", help="work with the pattern catalog")
    psub = p.add_subparsers(dest="subcommand", required=True)

    q = psub.add_parser("list", help="list template ids")
    _add_user_flag(q)
    q.set_defaults(func=_cmd_pattern_list)

    q = psub.add_parser("show", help="print a template body")
    q.add_argument("template", nargs="+", metavar="ID|PATTERN SCOPE COMBO")
    _add_user_flag(q)
    q.set_defaults(func=_cmd_pattern_show)

    q = psub.add_parser(
        "instantiate", help="substitute formulas for metavariables"
    )
    q.add_argument("template", nargs="+", metavar="ID|PATTERN SCOPE COMBO")
    q.add_argument(
        "-b", "--bind", action="append", default=[], metavar="M=FORMULA"
    )
    _add_user_flag(q)
    q.set_defaults(func=_cmd_pattern_instantiate)

    q = psub.add_parser(
        "check", help="analyze every template for closure under stuttering"
    )
    _add_user_flag(q)
    q.set_defaults(func=_cmd_pattern_check)

    return parser


def _add_user_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--user", metavar="FILE",
        help="also load templates from a JSON catalog document",
    )


def _cmd_analyze(args) -> int:
    verdict = analyze(parse(args.formula))
    if isinstance(verdict, Closed):
        # Rendered first, so a proof too deep for JSON prints nothing.
        proof = args.proof and render_proof(
            verdict.proof, "structured" if args.proof == "json" else "text")
        print("Closed" + (f"\n{proof}" if proof else ""))
        return 0
    print("Unknown")
    for blocker in verdict.blockers:
        print(f"  blocked by: {render(blocker)}")
    return 1


def _cmd_eval(args) -> int:
    formula = parse(args.formula)
    with open(args.tracefile) as handle:
        trace = load_trace(handle.read())
    value = eval_formula(formula, trace, args.position)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_falsify(args) -> int:
    bounds = SearchBounds(
        max_stem=args.stem_max,
        max_loop=args.loop_max,
        max_unroll=args.unroll_max,
    )
    cex = falsify(parse(args.formula), bounds)
    if cex is None:
        print("no counterexample within bounds")
        return 0
    print(json.dumps(cex_to_doc(cex), indent=2))
    return 1


def _catalog_for(args) -> Catalog:
    if not args.user:
        return catalog()
    cat = Catalog()
    with open(args.user) as handle:
        cat.load_user(handle.read())
    return cat


def _resolve_ident(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 3:
        pattern, scope, combo = parts
        return f"{pattern}/{scope.split('-')[0]}/{combo}"
    raise ValueError(
        "give a template as one id (existence/D/1) or as "
        "PATTERN SCOPE COMBO (existence D 1)"
    )


def _cmd_pattern_list(args) -> int:
    for ident in _catalog_for(args).ids():
        print(ident)
    return 0


def _cmd_pattern_show(args) -> int:
    template = _catalog_for(args).get(_resolve_ident(args.template))
    print(render(template.body))
    return 0


def _parse_bindings(pairs: list[str]) -> dict:
    binding = {}
    for item in pairs:
        name, sep, text = item.partition("=")
        if not sep:
            raise ValueError(f"binding {reprlib.repr(item)} is not of the form "
                             "M=FORMULA")
        name = name.strip()
        if not name:
            raise ValueError(f"binding {reprlib.repr(item)} names no "
                             "metavariable")
        if name in binding:
            raise ValueError(f"metavariable {reprlib.repr(name)} bound twice")
        try:
            binding[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"binding {reprlib.repr(item)}: {exc}") from None
    return binding


def _cmd_pattern_instantiate(args) -> int:
    cat = _catalog_for(args)
    ident = _resolve_ident(args.template)
    result, warnings = cat.instantiate(ident, _parse_bindings(args.bind))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(render(result))
    return 0


def _cmd_pattern_check(args) -> int:
    report = _catalog_for(args).check()
    for ident, verdict in report.entries:
        kind = "Closed" if isinstance(verdict, Closed) else "Unknown"
        print(f"{ident}: {kind}")
    return 0 if report.all_closed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect; never mistaken for a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
