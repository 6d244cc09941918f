"""Tests of the benchmark itself: the SQLite output check, the determinism
check, and that a run prints every metric with its unit.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import sqlcheck  # noqa: E402
from qilc import frontend  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "slowest_program_s": "s",
    "median_program_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.typecheck_s": "s",
    "synth.synthesize_s": "s",
    "synth.self_s": "s",
    "synth.template_s": "s",
    "synth.enumerate_s": "s",
    "synth.invariants_s": "s",
    "synth.candidates_enumerated": "count",
    "synth.candidates_tried": "count",
    "synth.candidates_per_s": "1/s",
    "synth.tried_ratio": "ratio",
    "verify.validate_s": "s",
    "verify.calls": "count",
    "verify.accept_s": "s",
    "verify.reject_s": "s",
    "verify.rejected": "count",
    "verify.non_checkable": "count",
    "verify.vcs_checked": "count",
    "verify.instances": "count",
    "verify.instances_per_s": "1/s",
    "interp.run_s": "s",
    "interp.run_calls": "count",
    "emit.to_sql_s": "s",
    "emit.render_s": "s",
    "emit.load_s": "s",
    "emit.eval_sql_s": "s",
    "emit.eval_sql_calls": "count",
    "difftest.run_cases_s": "s",
    "difftest.self_s": "s",
    "difftest.draw_s": "s",
    "difftest.cases": "count",
    "difftest.cases_per_s": "1/s",
    "difftest.mismatches": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def typed(name: str):
    return frontend.typecheck(frontend.parse(run.program_path(name).read_text(encoding="utf-8")))


def test_sqlite_check_catches_negative_limit():
    bad = sqlcheck.check_program(typed("top_k"), "SELECT R.* FROM R ORDER BY R.rid LIMIT :k", seed=1)
    assert bad is not None
    assert bad["inputs"]["k"] < 0 and bad["inputs"]["R"]
    assert bad["program"] == () and bad["sqlite"] == tuple(bad["inputs"]["R"])


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid DESC",
        "SELECT R.* FROM R WHERE R.a >= 2 ORDER BY R.rid",
        "SELECT R.a FROM R WHERE R.a > 2 ORDER BY R.rid",
    ],
)
def test_sqlite_check_catches_wrong_query(sql):
    assert sqlcheck.check_program(typed("selection"), sql, seed=1) is not None


def test_sqlite_check_catches_record_query_for_scalar_program():
    assert sqlcheck.check_program(typed("sum"), "SELECT R.a FROM R ORDER BY R.rid", seed=1) is not None


def test_sqlite_check_accepts_right_queries():
    assert sqlcheck.check_program(typed("selection"), "SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid", 1) is None
    assert sqlcheck.check_program(typed("sum"), "SELECT COALESCE(SUM(R.a), 0) FROM R", 1) is None
    assert sqlcheck.check_program(typed("max_value"), "SELECT MAX(R.a) FROM R", 1) is None


def test_draws_reach_boundary_values():
    params = typed("top_k").ast.params
    rng = random.Random(0)
    draws = [sqlcheck.draw_inputs(rng, params) for _ in range(sqlcheck.DRAWS)]
    assert any(d["R"].size == 0 for d in draws)
    assert any(row[0] < 0 for d in draws for row in d["R"].rows)
    assert any(d["k"] < 0 < d["R"].size for d in draws)
    assert any(d["k"] > d["R"].size for d in draws)


def test_report_that_differs_between_passes_fails():
    workload = run.Workload("w", ("count",), ())
    report = {"status": "failed", "reason": "exhausted"}
    passes = [
        {"programs": [{"report": json.dumps(report)}]},
        {"programs": [{"report": json.dumps(report, indent=1)}]},
    ]
    verdicts = run.check_outputs(workload, 1, passes)
    assert verdicts["causes"]["count"][0] == "report differs between passes"
    assert verdicts["problems"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace, monkeypatch, capsys):
    tiny = run.Workload("tiny", ("count", "selection"), ("--cases", "20"))
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    args = ["--workload", "tiny", "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 2 * run.MIN_PASSES
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["verify.calls"] == values["synth.candidates_tried"] > 0
        assert values["interp.run_calls"] == values["emit.eval_sql_calls"] == values["difftest.cases"] == 40
        assert values["synth.synthesize_s"] > values["synth.enumerate_s"] > 0
    else:
        assert values["pass_ratio"] == 1.0
        assert values["wall_s"] > values["setup_s"] > 0
