"""Command line surface: outputs and exit codes for every subcommand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltledge
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


def test_errors_exit_with_two(run, tmp_path):
    for argv in (
        ("analyze", "p &"),
        ("pattern", "show", "existence/Z/9"),
        ("eval", "a", str(tmp_path / "missing.json")),
    ):
        code, _, err = run(*argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_too_deep_nesting_is_a_usage_error(run):
    code, out, err = run("analyze", "!" * 2000 + "a")
    assert (code, out) == (2, "")
    assert "nested deeper than 100 levels" in err


def test_search_over_the_size_budget_is_a_usage_error(run):
    code, out, err = run("falsify", "a & b & c", "--stem-max", "12")
    assert (code, out) == (2, "")
    assert "SearchBounds(max_stem=12)" in err and "budget" in err
    assert "Traceback" not in err


def test_internal_errors_exit_with_three(run, monkeypatch):
    def broken(f):
        raise RuntimeError("analyzer fault")

    monkeypatch.setattr("ltledge.cli.analyze", broken)
    code, out, err = run("analyze", "a")
    assert (code, out, err) == (
        3, "", "internal error: RuntimeError: analyzer fault\n"
    )


def test_internal_error_on_a_wide_formula_exits_with_three(run):
    # 300 conjuncts under G still exhaust the analyzer's recursion; the
    # fault must not read as the exit code 1 of an Unknown verdict.
    code, out, err = run(
        "analyze", "G(" + " & ".join(f"a{i}" for i in range(300)) + ")"
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_usage_errors_follow_argparse_convention(run, capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "zz", "--position", "0"])
    assert info.value.code == 2
    capsys.readouterr()


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
