"""CLI and report tests.

Runs the CLI in process through main(argv) and checks exit codes, the
JSON written to stdout, and the stderr traffic. Report construction is
tested directly where the CLI path would be slow.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qilc import cli, emit, frontend, report
from qilc.record import MAX_DEPTH
from qilc.relation import dump_bindings
from qilc.synth import Failure, Options, SynthStats

from conftest import load_benchmark  # noqa: F401  (ensures package import path)
from conftest import BENCHMARK_NAMES, benchmarks_dir


# --- helpers ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qil_path(name):
    return str(benchmarks_dir() / f"{name}.qil")


def deeply_nested_program(depth):
    """sum.qil with its accumulated field wrapped in depth parentheses."""
    src = (benchmarks_dir() / "sum.qil").read_text(encoding="utf-8")
    return src.replace("R[i].a", "(" * depth + "R[i].a" + ")" * depth)


R_BINDINGS = {
    "R": {
        "schema": [["a", "int"], ["b", "text"]],
        "rows": [[3, "x"], [1, "y"], [4, "z"]],
    }
}


@pytest.fixture
def bindings_file(tmp_path):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(R_BINDINGS), encoding="utf-8")
    return str(path)


def test_importing_the_cli_loads_no_dataclasses():
    """qilc builds its record types itself (qilc.record): importing
    dataclasses would load inspect and ast with it, on every run."""
    probe = "import sys, qilc.cli; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_importing_the_cli_loads_no_printer_or_reference_evaluator():
    """The pipeline never prints a program and never walks a tor tree with
    the reference evaluator (qilc.axioms), so compiling either would only
    add to every run's set-up."""
    probe = "import sys, qilc.cli; print(sorted({'qilc.pretty', 'qilc.axioms'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# --- domain flag parsing ----------------------------------------------------


def test_parse_domain_range_and_list():
    assert cli._parse_domain("0..2") == (0, 1, 2)
    assert cli._parse_domain("1,3,5") == (1, 3, 5)
    assert cli._parse_domain(" 0..0 ") == (0,)
    assert cli._parse_domain("-1..1") == (-1, 0, 1)


def test_parse_domain_rejects_empty():
    with pytest.raises(argparse.ArgumentTypeError, match="empty domain"):
        cli._parse_domain("")


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--jobs", "x", "invalid"),
        ("--jobs", "0", "must be at least 1"),
        ("--int-domain", "3..1", "empty domain"),
        ("--int-domain", "", "empty domain"),
        ("--int-domain", "1,1,2", "repeated value in domain"),
        ("--int-domain", "1,x", "not an int: 'x'"),
        ("--int-domain", "0..b", "not an int: 'b'"),
        ("--cases", "-1", "must be at least 0"),
        ("--cost-bound", "-1", "must be at least 0"),
        ("--rel-bound", "-1", "must be at least 0"),
        ("--timeout", "-1", "must be finite and at least 0"),
        ("--timeout", "nan", "must be finite and at least 0"),
        ("--timeout", "inf", "must be finite and at least 0"),
        ("--timeout", "x", "not a number: 'x'"),
    ],
)
def test_bad_flag_value_is_a_usage_error(capsys, flag, value, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", qil_path("identity"), flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert f"argument {flag}: {reason}" in captured.err


# --- synth ------------------------------------------------------------------


def test_synth_success(capsys):
    code, out, err = run_cli(
        capsys, "synth", qil_path("identity"), "--cases", "50"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["programName"] == "identity"
    assert rep["status"] == "synthesized"
    assert rep["reason"] is None
    assert rep["solution"]["sql"] == "SELECT R.* FROM R ORDER BY R.rid"
    assert rep["difftest"] == {
        "seed": cli.DEFAULT_SEED,
        "cases": 50,
        "failures": 0,
        "firstFailure": None,
    }
    # stdout carries only the JSON document; progress goes to stderr
    assert out.rstrip().startswith("{") and out.rstrip().endswith("}")
    assert "identity: synthesized" in err
    assert "elapsed:" in err


def test_synth_flags_echoed_in_config(capsys):
    code, out, _ = run_cli(
        capsys,
        "synth",
        qil_path("identity"),
        "--cost-bound", "9",
        "--rel-bound", "2",
        "--int-domain", "0..1",
        "--cases", "10",
        "--seed", "7",
        "--jobs", "2",
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {
        "costBound": 9,
        "relBound": 2,
        "intDomain": [0, 1],
        "textDomain": ["a", "b"],
        "cases": 10,
        "seed": 7,
        "timeoutSeconds": 0.0,
    }


def test_synth_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "synth", qil_path("selection"), "--cost-bound", "2"
    )
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "failed"
    assert rep["reason"] == "exhausted"
    assert rep["solution"] is None
    assert rep["difftest"] is None


def test_synth_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.qil"
    bad.write_text("fn broken(", encoding="utf-8")
    code, out, _ = run_cli(capsys, "synth", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["reason"].startswith("parse error:")
    assert rep["programName"] == "bad"

    # nesting deeper than the parser's stack is a parse error too
    deep = tmp_path / "deep.qil"
    deep.write_text(deeply_nested_program(500), encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", str(deep))
    assert code == 1
    assert "Traceback" not in err
    assert json.loads(out)["reason"].startswith("parse error:")


def test_synth_rejects_a_non_ascii_digit(capsys, tmp_path):
    """An int literal is a run of ASCII digits: selection.qil with its 2
    written as an Arabic-Indic two is a parse error, not a guard > 2."""
    src = (benchmarks_dir() / "selection.qil").read_text(encoding="utf-8")
    path = tmp_path / "selection.qil"
    path.write_text(src.replace("R[i].a > 2", "R[i].a > \u0662"), encoding="utf-8")
    with pytest.raises(frontend.ParseError):
        frontend.parse(path.read_text(encoding="utf-8"))
    code, out, err = run_cli(capsys, "synth", str(path))
    assert code == 1
    assert "Traceback" not in err
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["reason"].startswith("parse error:")


def nested_guard_program(shape, depth):
    """selection.qil with its guard grown until the syntax tree is depth
    levels deep. fn, for and if sit above the guard. A left-nested chain
    of + or && adds one level per operator above the leaf under its first
    comparison. A run of ! adds one per !; the run is kept even, so the
    guard keeps its meaning, over an && of two comparisons when depth
    needs the extra level."""
    if shape == "!":
        nots = depth - 5
        atom = "(R[i].a > 2)" if nots % 2 == 0 else "(R[i].a > 2 && R[i].a > 2)"
        guard = "!" * (nots - nots % 2) + atom
    elif shape == "+":
        guard = "R[i].a" + " + 0" * (depth - 5) + " > 2"
    else:
        guard = f" {shape} ".join(["R[i].a > 2"] * (depth - 4))
    src = (benchmarks_dir() / "selection.qil").read_text(encoding="utf-8")
    return src.replace("R[i].a > 2", guard)


@pytest.mark.parametrize("shape", ["+", "&&", "||", "!"])
def test_synth_runs_at_the_depth_bound_and_rejects_one_level_past(
    capsys, tmp_path, shape
):
    path = tmp_path / "deep.qil"
    path.write_text(nested_guard_program(shape, MAX_DEPTH), encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", str(path), "--cases", "50")
    assert (code, json.loads(out)["status"]) == (0, "synthesized")
    path.write_text(nested_guard_program(shape, MAX_DEPTH + 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", str(path), "--cases", "50")
    rep = json.loads(out)
    assert (code, rep["status"]) == (1, "error")
    assert rep["reason"].startswith("parse error: ")
    assert rep["reason"].endswith(": nested too deeply")


def test_synth_type_error(capsys, tmp_path):
    bad = tmp_path / "undeclared.qil"
    bad.write_text(
        "fn f(R: rel(a: int)) {\n"
        "  var out: list(a: int);\n"
        "  for i in 0 .. size(R) {\n"
        "    out.append(Q[i]);\n"
        "  }\n"
        "  return out;\n"
        "}\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "synth", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["reason"].startswith("type error:")


# a scalar initialized with the other type: the parent accepted both, synth
# then searched to exhaustion, and replay raised a TypeError at c = c + 1 or
# returned the int 5 for a text result
BAD_INITIALIZERS = {
    "c": ('int = "x"', "c = c + 1;", "cannot initialize 'c' (int) with text"),
    "t": ("text = 5", "out.append(R[i]);", "cannot initialize 't' (text) with int"),
}


@pytest.mark.parametrize("name", sorted(BAD_INITIALIZERS))
def test_an_initializer_of_the_other_type_is_a_type_error(capsys, tmp_path, bindings_file, name):
    decl, stmt, message = BAD_INITIALIZERS[name]
    path = tmp_path / "init.qil"
    path.write_text(
        "fn f(R: rel(a: int, b: text)) {\n"
        f"    var {name}: {decl};\n"
        "    var out: list(a: int, b: text);\n"
        "    for i in 0 .. size(R) {\n"
        f"        {stmt}\n"
        "    }\n"
        f"    return {name};\n"
        "}\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "synth", str(path), "--cases", "10")
    rep = json.loads(out)
    assert (code, rep["status"]) == (1, "error")
    assert rep["reason"] == f"type error: 2:5: {message}"
    code, out, err = run_cli(capsys, "replay", str(path), "--input", bindings_file)
    assert (code, out) == (1, "")
    assert err == f"qilc: 2:5: {message}\n"


def test_synth_missing_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "synth", str(tmp_path / "nope.qil"))
    assert code == 1
    assert json.loads(out)["status"] == "error"


def test_synth_undecodable_file(capsys, tmp_path):
    bad = tmp_path / "latin1.qil"
    bad.write_bytes("fn caf\u00e9(".encode("latin-1"))
    code, out, err = run_cli(capsys, "synth", str(bad))
    assert code == 1
    assert "Traceback" not in err
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["reason"].startswith("not UTF-8 text:")


def test_synth_stdout_deterministic(capsys):
    _, first, _ = run_cli(capsys, "synth", qil_path("sum"), "--cases", "25")
    _, second, _ = run_cli(capsys, "synth", qil_path("sum"), "--cases", "25")
    assert first == second


# --- bench ------------------------------------------------------------------


def test_bench_directory(capsys, tmp_path):
    for name in ("identity", "sum"):
        src = (benchmarks_dir() / f"{name}.qil").read_text(encoding="utf-8")
        (tmp_path / f"{name}.qil").write_text(src, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", str(tmp_path), "--cases", "25")
    assert code == 0
    rep = json.loads(out)
    assert [r["programName"] for r in rep["benchmarks"]] == ["identity", "sum"]
    assert rep["summary"] == {
        "total": 2,
        "synthesized": 2,
        "failed": 0,
        "error": 0,
    }
    assert "program" in err and "identity" in err  # stderr table


def test_bench_mixed_exit_code(capsys, tmp_path):
    src = (benchmarks_dir() / "identity.qil").read_text(encoding="utf-8")
    (tmp_path / "identity.qil").write_text(src, encoding="utf-8")
    (tmp_path / "broken.qil").write_text("fn broken(", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bench", str(tmp_path), "--cases", "10")
    assert code == 1
    assert json.loads(out)["summary"] == {
        "total": 2,
        "synthesized": 1,
        "failed": 0,
        "error": 1,
    }


def test_bench_reports_past_an_undecodable_file(capsys, tmp_path):
    src = (benchmarks_dir() / "identity.qil").read_text(encoding="utf-8")
    (tmp_path / "identity.qil").write_text(src, encoding="utf-8")
    (tmp_path / "a_latin1.qil").write_bytes(b"fn caf\xe9(")
    # nested past the parser's stack
    (tmp_path / "b_deep.qil").write_text(deeply_nested_program(500), encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", str(tmp_path), "--cases", "10")
    assert code == 1
    assert "Traceback" not in err
    rep = json.loads(out)
    assert [(r["programName"], r["status"]) for r in rep["benchmarks"]] == [
        ("a_latin1", "error"),
        ("b_deep", "error"),
        ("identity", "synthesized"),
    ]


def test_bench_jobs_does_not_change_output(capsys, tmp_path):
    for name in ("identity", "count", "selection"):
        src = (benchmarks_dir() / f"{name}.qil").read_text(encoding="utf-8")
        (tmp_path / f"{name}.qil").write_text(src, encoding="utf-8")
    runs = [
        run_cli(capsys, "bench", str(tmp_path), "--cases", "50", "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    (code1, out1, err1), (code2, out2, err2) = runs
    assert (code1, out1) == (code2, out2)
    assert code1 == 0
    # progress lines come in file order either way
    assert err1.splitlines()[:3] == err2.splitlines()[:3] == [
        "count: synthesized",
        "identity: synthesized",
        "selection: synthesized",
    ]


def test_corpus_bench_report_matches_golden(capsys):
    """The default-flag report for the bundled corpus, byte for byte. An
    intended report change updates tests/data/corpus_bench.json."""
    code, out, _ = run_cli(capsys, "bench", str(benchmarks_dir()))
    golden = Path(__file__).parent / "data" / "corpus_bench.json"
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_wide_bounds_bench_report_matches_golden(capsys, tmp_path, benchmarks):
    """The report for the nine single-loop programs at a relation bound of
    5, byte for byte: the compiled sweeps run up to 487,090 instances per
    program here. An intended report change updates
    tests/data/wide_bounds_bench.json."""
    for name, tp in benchmarks.items():
        if len(tp.loops) == 1:
            src = (benchmarks_dir() / f"{name}.qil").read_text(encoding="utf-8")
            (tmp_path / f"{name}.qil").write_text(src, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "bench", str(tmp_path), "--rel-bound", "5", "--cases", "100"
    )
    golden = Path(__file__).parent / "data" / "wide_bounds_bench.json"
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


SYNTH_10000_DIGESTS = {
    "count": "b80efb0de8c47e4cabb864d1856796c64c75f5e232a9f584e4a22612226f329f",
    "cross_join": "ab71f89d92ef8fccfc9aced195da0e4b3673ff444d8515037720fd635718b932",
    "equi_join": "778aafbcf1734cfa55b6f16bae09f192d270dc4eec28a46326bced9e0bacd468",
    "identity": "b12b9726b11cb9a967fb1b2d385055644ccb2d38fe9472ee11a4e6ebdbd865f8",
    "join_select_project": "44986e5e010a34ad54e926c7608f36580dbe45869cfe06a941927b5c57ec5d81",
    "max_value": "6dccaf801d5518d7775a9b8082da7c00aada0c4ea61624cfc1b33312f80a0b16",
    "min_value": "f790739c71faf1fddd74d7c995b3b904bfd8cd6ae602e2f07a0d0ce8e1f2d7dc",
    "projection": "615b839fe23d426d233917c6045794537e35350b988317bde2ef0fb17bf83dc8",
    "select_project": "78435b4f344f25485e73af3f7b913cc19c0e3917899eb265980899f07a3612f7",
    "selection": "1063efa297d2fe45fc0115eee6b6358c2b731b9e9ee672e4273fb030b32a5336",
    "sum": "9e5dc6e645638309e45b9856c9c06d4fb0d55bfffd0ee072c61f57f520b62373",
    "top_k": "3590a7b7af498c4f492a75f37336354be3b3ec58afb76785bf6ab67d6b96ba5d",
}


def test_synth_reports_at_10000_cases_hash_to_their_pinned_digest(capsys):
    """`qilc synth --cases 10000` stdout of each corpus program at the
    default seed hashes to the digest it had when pinned: a difftest change
    that moves any case's draw, check or report fails here, and names the
    programs it moved."""
    digests = {}
    for name in sorted(BENCHMARK_NAMES):
        code, stdout, _ = run_cli(capsys, "synth", qil_path(name), "--cases", "10000")
        assert code == 0, name
        digests[name] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == SYNTH_10000_DIGESTS


def test_bench_empty_directory(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", str(tmp_path))
    assert code == 0
    assert json.loads(out) == {
        "benchmarks": [],
        "summary": {"total": 0, "synthesized": 0, "failed": 0, "error": 0},
    }


def test_bench_not_a_directory(capsys, tmp_path):
    target = tmp_path / "file.qil"
    target.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", str(target))
    assert code == 1
    assert out == ""
    assert "not a directory" in err


# --- replay -----------------------------------------------------------------


def test_replay_without_sql(capsys, bindings_file):
    code, out, _ = run_cli(
        capsys, "replay", qil_path("selection"), "--input", bindings_file
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["programName"] == "selection"
    assert rep["program"]["rows"] == [[3, "x"], [4, "z"]]
    assert rep["sql"] is None
    assert rep["agree"] is None


def test_replay_with_matching_sql(capsys, bindings_file):
    code, out, _ = run_cli(
        capsys,
        "replay",
        qil_path("selection"),
        "--input", bindings_file,
        "--sql", "SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["agree"] is True
    assert rep["sql"]["rows"] == [[3, "x"], [4, "z"]]


def test_replay_with_mismatching_sql(capsys, bindings_file):
    code, out, _ = run_cli(
        capsys,
        "replay",
        qil_path("selection"),
        "--input", bindings_file,
        "--sql", "SELECT R.* FROM R WHERE R.a > 3 ORDER BY R.rid",
    )
    assert code == 2
    assert json.loads(out)["agree"] is False


def test_replay_rejects_bad_bindings(capsys, tmp_path):
    path = tmp_path / "inputs.json"
    for bindings, message in (
        ('{"R": {"schema": [["a", "int"]], "rows": [["x"]]}}', "qilc:"),
        ("{}", "qilc: bindings do not match parameters: missing ['R']"),
        ('{"R": {"schema": [["z", "int"]], "rows": []}}', "expects schema"),
    ):
        path.write_text(bindings)
        code, out, err = run_cli(
            capsys, "replay", qil_path("identity"), "--input", str(path)
        )
        assert code == 1, bindings
        assert out == ""
        assert message in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "bindings",
    [
        "[]",
        "null",
        '{"R": {"schema": [["a", "int"], ["b", "text"]], "rows": [1]}}',
        '{"R": {"schema": [["a", "int"], ["b", "text"]], "rows": 1}}',
        '{"R": {"schema": 1, "rows": []}}',
        pytest.param('{"R": ' + "[" * 1200 + "]" * 1200 + "}", id="nested-1200-deep"),
    ],
)
def test_replay_rejects_malformed_bindings(capsys, tmp_path, bindings):
    path = tmp_path / "inputs.json"
    path.write_text(bindings, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "replay", qil_path("identity"), "--input", str(path)
    )
    assert code == 1
    assert out == ""
    assert "qilc:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "bindings, message",
    [
        ('{"R": {"schema": [[["x"], "int"]], "rows": []}}', "field name ['x'] is not a string"),
        ('{"R": {"schema": [[{"x": 1}, "int"]], "rows": []}}', "field name {'x': 1} is not a string"),
        ('{"R": {"schema": [[5, "int"]], "rows": []}}', "field name 5 is not a string"),
        ('{"R": {"schema": [["a", "int"]]}}', "relation binding has no 'rows' key"),
        ('{"R": {"rows": []}}', "relation binding has no 'schema' key"),
    ],
    ids=["list-name", "object-name", "int-name", "no-rows", "no-schema"],
)
def test_replay_names_a_malformed_schema_or_relation(capsys, tmp_path, bindings, message):
    path = tmp_path / "inputs.json"
    path.write_text(bindings, encoding="utf-8")
    code, out, err = run_cli(capsys, "replay", qil_path("selection"), "--input", str(path))
    assert (code, out, err) == (1, "", f"qilc: {message}\n")


def test_replay_equality_against_text_compares_only_equality(capsys, bindings_file):
    # only `=` is asked for, so an int column against a text is just unequal
    code, out, err = run_cli(
        capsys,
        "replay",
        qil_path("selection"),
        "--input", bindings_file,
        "--sql", "SELECT R.* FROM R WHERE R.a = 'x' ORDER BY R.rid",
    )
    assert code == 2
    assert json.loads(out)["sql"]["rows"] == []


def test_replay_rejects_int_ordered_against_text(capsys, bindings_file):
    code, out, err = run_cli(
        capsys,
        "replay",
        qil_path("selection"),
        "--input", bindings_file,
        "--sql", "SELECT R.* FROM R WHERE R.a < 'x' ORDER BY R.rid",
    )
    assert code == 1
    assert out == ""
    assert "qilc:" in err and "Traceback" not in err


def test_replay_rejects_bad_sql(capsys, bindings_file):
    nested = "SELECT R.* FROM R WHERE " + "(" * 400 + "R.a > 2" + ")" * 400
    for sql in (
        "DELETE FROM R",
        nested + " ORDER BY R.rid",
        "SELECT R.a, R.a FROM R ORDER BY R.rid",  # repeated output names
    ):
        code, out, err = run_cli(
            capsys,
            "replay",
            qil_path("selection"),
            "--input", bindings_file,
            "--sql", sql,
        )
        assert code == 1, sql
        assert out == ""
        assert "qilc:" in err and "Traceback" not in err


@pytest.mark.parametrize("where", [
    " AND ".join(["R.a > 2"] * 3000),  # past the depth bound, built by a loop
    "R.a = \u00b2",  # a digit to str.isdigit, not to int()
], ids=["3000-term-and", "superscript-two"])
def test_replay_sql_syntax_errors_exit_1_with_one_line(capsys, bindings_file, where):
    sql = f"SELECT R.* FROM R WHERE {where} ORDER BY R.rid"
    with pytest.raises(emit.SqlSyntaxError):
        emit.parse_sql(sql)
    code, out, err = run_cli(
        capsys,
        "replay",
        qil_path("selection"),
        "--input", bindings_file,
        "--sql", sql,
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("qilc: ")


# --- report construction ----------------------------------------------------


def test_run_report_failure_shape():
    config = report.config_echo(Options(), 1000, cli.DEFAULT_SEED)
    rep = report.run_report(
        "demo", config, Failure("timeout", SynthStats(5, 4, 3, 1, 9, 100))
    )
    assert rep["status"] == "failed"
    assert rep["reason"] == "timeout"
    assert rep["solution"] is None
    assert rep["stats"] == {
        "candidatesEnumerated": 5,
        "candidatesTried": 4,
        "candidatesRejected": 3,
        "candidatesNonCheckable": 1,
        "vcsChecked": 9,
        "instancesEnumerated": 100,
        "wallSeconds": 0.0,
    }


def test_run_report_error_shape():
    config = report.config_echo(Options(), 1000, cli.DEFAULT_SEED)
    rep = report.run_report("demo", config, None, error="parse error: boom")
    assert rep["status"] == "error"
    assert rep["reason"] == "parse error: boom"
    assert rep["stats"]["candidatesTried"] == 0


def test_report_key_order_is_fixed():
    config = report.config_echo(Options(), 1000, cli.DEFAULT_SEED)
    rep = report.run_report("demo", config, None, error="x")
    assert list(rep) == [
        "programName",
        "status",
        "reason",
        "config",
        "solution",
        "stats",
        "difftest",
    ]
    assert report.to_json(rep).endswith("\n")


def test_table_lists_every_report():
    config = report.config_echo(Options(), 1000, cli.DEFAULT_SEED)
    reports = [
        report.run_report("one", config, None, error="x"),
        report.run_report("two", config, Failure("exhausted", SynthStats(1, 1, 1, 0, 2, 3))),
    ]
    text = report.table(reports)
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[2].startswith("one") and "error" in lines[2]
    assert lines[3].startswith("two") and "exhausted" not in lines[3]


def test_dump_bindings_round_trip_through_cli_input(tmp_path, capsys):
    # dump_bindings output is directly consumable by replay --input
    from qilc.relation import INT, TEXT, OrderedRelation, Schema

    rel = OrderedRelation(
        Schema((("a", INT), ("b", TEXT))), ((2, "q"), (5, "r"))
    )
    path = tmp_path / "dumped.json"
    path.write_text(dump_bindings({"R": rel}), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "replay", qil_path("identity"), "--input", str(path)
    )
    assert code == 0
    assert json.loads(out)["program"]["rows"] == [[2, "q"], [5, "r"]]


# --- schema validation --------------------------------------------------------


def _schema():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    return json.loads((root / "docs" / "report.schema.json").read_text())


def test_reports_validate_against_schema(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()

    _, out, _ = run_cli(capsys, "synth", qil_path("identity"), "--cases", "20")
    jsonschema.validate(json.loads(out), schema)

    _, out, _ = run_cli(
        capsys, "synth", qil_path("selection"), "--cost-bound", "2"
    )
    jsonschema.validate(json.loads(out), schema)

    bad = tmp_path / "bad.qil"
    bad.write_text("fn broken(", encoding="utf-8")
    _, out, _ = run_cli(capsys, "synth", str(bad))
    jsonschema.validate(json.loads(out), schema)


def test_difftest_failure_report_validates(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from qilc import difftest, emit, synth

    tp = load_benchmark("selection")
    outcome = synth.synthesize(tp, Options())
    wrong = emit.parse_sql("SELECT R.* FROM R WHERE R.a > 1 ORDER BY R.rid")
    diff = difftest.run_cases(tp, wrong, seed=cli.DEFAULT_SEED, cases=50)
    assert not diff.ok
    config = report.config_echo(Options(), 50, cli.DEFAULT_SEED)
    rep = report.run_report(tp.name, config, outcome, diff)
    assert rep["status"] == "failed"
    assert rep["reason"] == "difftest"
    jsonschema.validate(rep, _schema())
