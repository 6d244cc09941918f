"""Run reports.

Reports are plain dicts with a fixed key order, serialized with a fixed
layout, so identical runs produce byte-identical JSON. Wall-clock time is
deliberately not part of the report (stats.wallSeconds is pinned to 0.0);
the CLI prints the measured time to stderr instead, keeping stdout
deterministic across reruns and across --jobs settings.
"""

from __future__ import annotations

import json

from .synth import Failure, Options, Solution, SynthStats
from .tor import to_sexpr


def config_echo(options: Options, cases: int, seed: int) -> dict:
    # jobs is deliberately absent: reports must be independent of the
    # degree of parallelism, so only result-affecting settings are echoed
    return {
        "costBound": options.cost_bound,
        "relBound": options.bounds.rel_size,
        "intDomain": list(options.bounds.int_domain),
        "textDomain": list(options.bounds.text_domain),
        "cases": cases,
        "seed": seed,
        "timeoutSeconds": options.timeout,
    }


def _stats_json(stats: SynthStats) -> dict:
    return {
        "candidatesEnumerated": stats.enumerated,
        "candidatesTried": stats.tried,
        "candidatesRejected": stats.rejected,
        "candidatesNonCheckable": stats.non_checkable,
        "vcsChecked": stats.vcs_checked,
        "instancesEnumerated": stats.vc_instances,
        "wallSeconds": 0.0,
    }


_ZERO_STATS = SynthStats(0, 0, 0, 0, 0, 0)


def _solution_json(solution: Solution) -> dict:
    return {
        "rank": solution.rank,
        "cost": solution.candidate.cost,
        "postconditions": {v: to_sexpr(e) for v, e in solution.candidate.posts},
        "invariants": {
            loop: {v: to_sexpr(e) for v, e in eqs}
            for loop, eqs in solution.invariants.items()
        },
        "sql": solution.sql_text,
    }


def _difftest_json(diff) -> dict:
    first = diff.mismatches[0].to_json() if diff.mismatches else None
    return {
        "seed": diff.seed,
        "cases": diff.cases,
        "failures": len(diff.mismatches),
        "firstFailure": first,
    }


def run_report(name: str, config: dict, outcome, diff=None, error: str = "") -> dict:
    """RunReport for one program.

    outcome is a Solution, a Failure, or None (status=error, with `error`
    holding the message). diff is the DiffResult when synthesis succeeded.
    """
    report = {
        "programName": name,
        "status": "error",
        "reason": error or None,
        "config": config,
        "solution": None,
        "stats": _stats_json(_ZERO_STATS),
        "difftest": None,
    }
    if isinstance(outcome, Solution):
        failures = len(diff.mismatches) if diff is not None else 0
        report["status"] = "synthesized" if failures == 0 else "failed"
        report["reason"] = None if failures == 0 else "difftest"
        report["solution"] = _solution_json(outcome)
        report["stats"] = _stats_json(outcome.stats)
        if diff is not None:
            report["difftest"] = _difftest_json(diff)
    elif isinstance(outcome, Failure):
        report["status"] = "failed"
        report["reason"] = outcome.reason
        report["stats"] = _stats_json(outcome.stats)
    return report


def benchmark_summary(reports: list) -> dict:
    counts = {"synthesized": 0, "failed": 0, "error": 0}
    for r in reports:
        counts[r["status"]] += 1
    return {
        "benchmarks": reports,
        "summary": {
            "total": len(reports),
            "synthesized": counts["synthesized"],
            "failed": counts["failed"],
            "error": counts["error"],
        },
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def table(reports: list) -> str:
    """Human-readable benchmark table (stderr companion to the JSON)."""
    header = f"{'program':<22} {'status':<12} {'cost':>4} {'rank':>4} {'tried':>5} {'instances':>10} {'difftest':>9}"
    lines = [header, "-" * len(header)]
    for r in reports:
        sol = r["solution"]
        cost = str(sol["cost"]) if sol else "-"
        rank = str(sol["rank"]) if sol else "-"
        tried = str(r["stats"]["candidatesTried"])
        inst = str(r["stats"]["instancesEnumerated"])
        if r["difftest"] is not None:
            diff = f"{r['difftest']['cases']}/{r['difftest']['failures']}"
        else:
            diff = "-"
        lines.append(
            f"{r['programName']:<22} {r['status']:<12} {cost:>4} {rank:>4} {tried:>5} {inst:>10} {diff:>9}"
        )
    return "\n".join(lines) + "\n"
