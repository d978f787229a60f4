"""Command line surface: outputs and exit codes for every subcommand."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ltledge
from ltledge.analyzer import MAX_PROOF_DEPTH
from ltledge.cli import main
from ltledge.syntax import parse


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(
        {"atoms": ["a"], "stem": [[True]], "loop": [[False]]}
    ))
    return str(path)


def test_analyze_closed(run):
    code, out, err = run("analyze", "G(down hold -> pos_above_tbl)")
    assert (code, out, err) == (0, "Closed\n", "")


def test_analyze_unknown_lists_blockers(run):
    code, out, err = run("analyze", "X a")
    assert code == 1
    assert out == "Unknown\n  blocked by: X a\n"


def test_analyze_next_free_body(run):
    code, out, _ = run("analyze", "G((q & F r) -> (!p U (s | r)))")
    assert (code, out) == (0, "Closed\n")


def test_analyze_with_text_proof(run):
    code, out, _ = run("analyze", "F(up a & X b)", "--proof", "text")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "Closed"
    assert lines[-1].startswith("[PROP-E] F(up a & X b)")


def test_analyze_with_json_proof(run):
    code, out, _ = run("analyze", "F(up a & X b)", "--proof", "json")
    assert code == 0
    body = out.split("\n", 1)[1]
    assert json.loads(body)["rule"] == "PROP-E"


def test_eval_prints_value_and_signals_false(run, trace_file):
    code, out, _ = run("eval", "X a", trace_file)
    assert (code, out) == (1, "false\n")
    code, out, _ = run("eval", "a", trace_file)
    assert (code, out) == (0, "true\n")


def test_eval_at_position(run, trace_file):
    code, out, _ = run("eval", "a", trace_file, "--position", "1")
    assert (code, out) == (1, "false\n")


def test_falsify_reports_a_counterexample_document(run):
    code, out, _ = run("falsify", "X a")
    assert code == 1
    doc = json.loads(out)
    assert doc == {
        "formula": "X a",
        "trace": {"atoms": ["a"], "stem": [[True]], "loop": [[False]]},
        "stutter_index": 0,
        "value_before": False,
        "value_after": True,
    }


def test_falsify_respects_bound_flags(run):
    code, out, _ = run("falsify", "up a", "--stem-max", "1")
    assert code == 1
    assert json.loads(out)["trace"]["stem"] == [[False]]


def test_falsify_reports_exhaustion(run):
    code, out, _ = run("falsify", "G a")
    assert (code, out) == (0, "no counterexample within bounds\n")


def test_falsify_over_the_atom_cap_is_a_usage_error(run):
    code, out, err = run("falsify", "G(a & b & c -> X d)")
    assert (code, out) == (2, "")
    assert "over the search cap of 3" in err
    assert "SearchBounds(atom_cap=...)" in err
    assert "Traceback" not in err


def test_pattern_list(run):
    code, out, _ = run("pattern", "list")
    ids = out.splitlines()
    assert code == 0
    assert len(ids) == 20
    assert ids[0] == "existence/A/0" and ids[-1] == "existence/E/3"


def test_pattern_show_accepts_both_identifier_forms(run):
    want = "G(up q & F up r -> X(!up r U p) & !up r)\n"
    for argv in (
        ("pattern", "show", "existence", "D", "1"),
        ("pattern", "show", "existence", "D-Between", "1"),
        ("pattern", "show", "existence/D/1"),
    ):
        code, out, _ = run(*argv)
        assert (code, out) == (0, want), argv


def test_pattern_show_output_parses_to_the_template_body(run):
    # renders may differ in parenthesization; the tree is the contract
    _, out, _ = run("pattern", "show", "existence/D/1")
    assert parse(out) == parse(
        "G((up q & F up r) -> (X(!(up r) U p) & !(up r)))"
    )


def test_pattern_instantiate_golden(run):
    code, out, _ = run(
        "pattern", "instantiate", "existence", "D", "1",
        "-b", "P=scl", "-b", "Q=mgn", "-b", "R=!mgn",
    )
    assert code == 0
    assert out == "G(up mgn & F down mgn -> X(!down mgn U scl) & !down mgn)\n"


def test_pattern_instantiate_warns_but_still_prints(run):
    code, out, err = run(
        "pattern", "instantiate", "existence/A/0", "-b", "P=X b",
    )
    assert code == 0
    assert out == "F X b\n"
    assert "not provably closed" in err


def test_pattern_check_reports_every_template(run):
    code, out, _ = run("pattern", "check")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 20
    assert all(line.endswith(": Closed") for line in lines)


def test_user_catalog_flag(run, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([
        {"id": "resp", "metavariables": ["P", "Q"], "body": "G(up p -> F q)"},
    ]))
    code, out, _ = run("pattern", "list", "--user", str(path))
    assert code == 0 and "user/resp" in out.splitlines()
    code, out, _ = run(
        "pattern", "instantiate", "user/resp",
        "-b", "P=a", "-b", "Q=b", "--user", str(path),
    )
    assert (code, out) == (0, "G(up a -> F b)\n")
    code, out, _ = run("pattern", "check", "--user", str(path))
    assert code == 0 and len(out.splitlines()) == 21


@pytest.mark.parametrize("entry", [
    {"id": "t", "metavariables": 5, "body": "F p"},
    {"id": "t", "metavariables": "PQ", "body": "F p"},
    {"id": "t", "metavariables": ["P"], "body": 5},
    {"id": 5, "metavariables": ["P"], "body": "F p"},
    {"id": "t", "metavariables": ["P"], "body": "F p", "notes": 5},
], ids=["metavariables-number", "metavariables-string", "body-number",
        "id-number", "notes-number"])
def test_malformed_user_catalog_fields_are_usage_errors(run, tmp_path,
                                                       entry):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run("pattern", "list", "--user", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: entry ") and err.count("\n") == 1


def test_user_catalog_template_errors_name_the_entry(run, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(
        [{"id": "t", "metavariables": ["p"], "body": "F p"}]))
    assert run("pattern", "list", "--user", str(path)) == (
        2, "", "error: entry 't': metavariable 'p' must be a single "
        "uppercase letter\n")


def test_errors_exit_with_two(run, tmp_path):
    for argv in (
        ("analyze", "p &"),
        ("pattern", "show", "existence/Z/9"),
        ("eval", "a", str(tmp_path / "missing.json")),
    ):
        code, _, err = run(*argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("value,shown", [
    ("2", "2"), ("-1", "-1"), ("1.0", "1.0"), ('"1"', "'1'"), ("null", "None"),
])
def test_trace_values_other_than_booleans_or_0_1_are_usage_errors(
        run, tmp_path, value, shown):
    path = tmp_path / "trace.json"
    path.write_text(f'{{"atoms": ["a"], "stem": [[{value}]], "loop": [[0]]}}')
    code, out, err = run("eval", "a", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: 'stem' values must be booleans or 0/1, not {shown}\n"


def test_too_deep_nesting_is_a_usage_error(run):
    code, out, err = run("analyze", "!" * 2000 + "a")
    assert (code, out) == (2, "")
    assert "nested deeper than 100 levels" in err


@pytest.mark.parametrize("argv,document,text", [
    (("eval", "a"), "trace", '{"atoms": ["a"], "stem": '
     + "[" * 50_000 + "]" * 50_000 + ', "loop": [[1]]}'),
    (("pattern", "list", "--user"), "catalog", "[" * 100_000 + "]" * 100_000),
], ids=["trace", "catalog"])
def test_json_nested_too_deeply_is_a_usage_error(run, tmp_path, argv,
                                                 document, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(*argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {document} document is nested too deeply to read\n"


def test_search_over_the_size_budget_is_a_usage_error(run):
    code, out, err = run("falsify", "a & b & c", "--stem-max", "12")
    assert (code, out) == (2, "")
    assert "SearchBounds(max_stem=12)" in err and "budget" in err
    assert "Traceback" not in err


def test_unbounded_unroll_depth_is_refused_at_once(run):
    start = time.perf_counter()
    code, out, err = run("falsify", "G(up a -> X b | c)",
                         "--unroll-max", "100000")
    assert (code, out) == (2, "")
    assert "SearchBounds(max_unroll=100000)" in err and "budget" in err
    assert time.perf_counter() - start < 5


def test_unbounded_unroll_depth_without_stems_is_refused_at_once(run):
    start = time.perf_counter()
    code, out, err = run("falsify", "G(up a -> X b | c)", "--stem-max", "0",
                         "--unroll-max", "100000")
    assert (code, out) == (2, "")
    assert "SearchBounds(max_unroll=100000)" in err and "budget" in err
    assert time.perf_counter() - start < 5


def test_internal_errors_exit_with_three(run, monkeypatch):
    def broken(f):
        raise RuntimeError("analyzer fault")

    monkeypatch.setattr("ltledge.cli.analyze", broken)
    code, out, err = run("analyze", "a")
    assert (code, out, err) == (
        3, "", "internal error: RuntimeError: analyzer fault\n"
    )


@pytest.mark.parametrize("text", [
    "G(" + " & ".join(f"a{i}" for i in range(300)) + ")",
    " | ".join(["a"] * 300),
], ids=["always-and-300", "or-300"])
def test_wide_formulas_are_analyzed(run, text):
    # & and | chains are not nesting, so their length is not limited
    assert run("analyze", text) == (0, "Closed\n", "")


def test_falsify_of_a_long_chain_is_over_the_budget(run):
    text = " & ".join("abc"[i % 3] for i in range(5100))
    code, out, err = run("falsify", text)
    assert (code, out) == (2, "")
    assert "SearchBounds(max_stem=4)" in err and "budget" in err


def test_json_proofs_are_limited_in_depth(run):
    # an n-operand | chain is proved by an n-level proof
    deepest = " | ".join(["a"] * MAX_PROOF_DEPTH)
    code, out, err = run("analyze", deepest, "--proof", "json")
    assert (code, err) == (0, "")
    assert json.loads(out.removeprefix("Closed\n"))["rule"] == "CUS-BINOP"
    code, out, err = run("analyze", deepest + " | a", "--proof", "json")
    assert (code, out) == (2, "")
    assert err == (f"error: proof is {MAX_PROOF_DEPTH + 1} levels deep, over "
                   f"the limit of {MAX_PROOF_DEPTH} for the structured "
                   "document\n")


def test_usage_errors_follow_argparse_convention(run, capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "zz", "--position", "0"])
    assert info.value.code == 2
    capsys.readouterr()


def test_falsify_has_no_jobs_option(run, capsys):
    with pytest.raises(SystemExit) as info:
        main(["falsify", "X a", "--jobs", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_unknown_trace_atom_is_a_clean_error(run, trace_file):
    code, _, err = run("eval", "zz", trace_file)
    assert code == 2
    assert "zz" in err


def test_console_script_entry_point():
    # the child imports ltledge from where this process found it, so the
    # test also runs from a checkout where the package is not installed
    src = str(Path(ltledge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ltledge", "analyze", "F(up a)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "Closed\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines() -> list[str]:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ltledge ")]


@pytest.mark.parametrize("line", _readme_command_lines(),
                         ids=lambda line: line.split("#")[0].strip())
def test_readme_command_lines_run(run, tmp_path, monkeypatch, line):
    # The lines read trace.json, the example trace the README gives.
    trace = re.search(r"Trace files are JSON:\s*`([^`]+)`", README.read_text())
    (tmp_path / "trace.json").write_text(trace.group(1))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(*shlex.split(line, comments=True)[1:])
    annotated = re.search(r"#.*\bexit (\d)", line)
    if annotated:
        assert code == int(annotated.group(1)), err
    else:
        assert code in (0, 1), err
