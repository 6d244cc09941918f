"""qilc benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a qilc checkout; qilc is imported from its src/
directory. Metric names, units and bounds are read from BENCHMARK.json.

A run is a sequence of passes. Each pass is a fresh process (child.py)
that imports qilc, parses and typechecks the workload's programs, and
calls `qilc.cli.main(["synth", <file>, *flags, "--seed", <seed>,
"--jobs", "1"])` for each program, exactly what `qilc synth` does. Passes
repeat until the next one would end after --seconds, with at least two.
An untraced run (--trace 0) first spawns SETUP_PROBES set-up-only
processes, then reports the end-to-end metrics as medians over passes:

    wall_s             setup_s plus every program's `synth` call
    setup_s            process spawn to the end of parse and typecheck of
                       every program (over probes and passes)
    slowest_program_s  the slowest program's median `synth` call
    median_program_s   the median over programs of their median `synth` call
    peak_rss_mb        the pass process's own ru_maxrss
    pass_ratio         programs passing every check / programs attempted

Times are normalized to a reference speed of the machine (see
normalized() and child.SpeedSampler); the measured pass times are printed
to stderr.

A traced run (--trace 1) alternates untraced and traced passes and
reports the per-layer metrics of the traced passes (medians; span times
scaled like their pass's wall_s), the counts summed from the reports'
`stats` and `difftest` blocks, and the tracing overhead: median traced
wall_s minus median untraced wall_s. Spans are
written to .perfbench-out/ in the checkout.

After timing, every program is checked. It fails when its report's status
is not `synthesized`, when its difftest reports mismatches, when its SQL
run on SQLite disagrees with `interp.run` (sqlcheck.py), or when its
report text differs between passes. `failed` counts failing programs over
all passes and `attempted` counts programs over all passes. `correct` is
false when the measured passes are not one reproducible computation: a
report differs between passes, or a report contradicts itself
(`synthesized` without SQL or with difftest failures). The last stdout
line is the JSON result; progress and failure causes go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 7
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
# The reference work's time (child.py) on a quiet machine of the kind the
# baselines were recorded on; normalized times are seconds at that speed.
REF_NOMINAL_S = 0.0001
# Speed samples this close to an interval count for it.
SPEED_WINDOW_S = 0.025


ALL_PROGRAMS = (
    "count", "cross_join", "equi_join", "identity", "join_select_project", "max_value",
    "min_value", "projection", "select_project", "selection", "sum", "top_k",
)
SINGLE_LOOP = (
    "count", "identity", "max_value", "min_value", "projection", "select_project",
    "selection", "sum", "top_k",
)


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple  # bundled program names, run in this order
    flags: tuple  # `qilc synth` flags before --seed and --jobs


WORKLOADS = {
    w.name: w
    for w in (
        # The north-star `qilc bench` corpus. join_select_project's candidate
        # enumeration and verify's reject path dominate.
        Workload("corpus-default", ALL_PROGRAMS, ()),
        # At most 33 candidates per program, so enumeration is nearly free;
        # verify's accept path sweeps 63-487k instances per program.
        Workload("wide-bounds", SINGLE_LOOP, ("--rel-bound", "5", "--cases", "100")),
        # join_select_project is left out so its search does not hide the
        # difftest work: case generation, interp.run and MiniDb evaluation.
        Workload(
            "many-cases",
            tuple(p for p in ALL_PROGRAMS if p != "join_select_project"),
            ("--cases", "10000"),
        ),
    )
}


class BenchError(RuntimeError):
    pass


def program_path(name: str) -> Path:
    return SRC / "qilc" / "benchmarks" / f"{name}.qil"


def normalized(samples: list, a: float, b: float) -> float:
    """The interval [a, b] in seconds at the reference speed.

    Scales b - a by REF_NOMINAL_S times the mean reference speed (1 / time
    of the reference work) sampled within SPEED_WINDOW_S of the interval.
    """
    speeds = [1 / r for t, r in samples if a - SPEED_WINDOW_S <= t <= b + SPEED_WINDOW_S]
    if not speeds:
        raise BenchError(f"no speed sample near [{a}, {b}]")
    return (b - a) * REF_NOMINAL_S * fmean(speeds)


def spawn(spec: dict) -> dict:
    """Run one child process; return its result with normalized times added:
    setup_s from the spawn to the end of set-up, program_s for each program,
    wall_s, their sum, and scale, wall_s over the same intervals' raw time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout)
    samples = res["samples"]
    res["elapsed_s"] = time.monotonic() - started
    res["setup_s"] = normalized(samples, started, res["setup_done"])
    if not spec["setup_only"]:
        res["program_s"] = [normalized(samples, p["start"], p["end"]) for p in res["programs"]]
        res["wall_s"] = res["setup_s"] + sum(res["program_s"])
        raw = res["setup_done"] - started + sum(p["end"] - p["start"] for p in res["programs"])
        res["scale"] = res["wall_s"] / raw
    return res


def run_passes(workload, seed: int, seconds: float, trace: bool) -> dict:
    programs = [str(program_path(p)) for p in workload.programs]
    flags = [*workload.flags, "--seed", str(seed), "--jobs", "1"]
    spec = {"src": str(SRC), "programs": programs, "flags": flags,
            "setup_only": False, "trace": False, "spans_out": None}
    begun = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn({**spec, "setup_only": True})["setup_s"])
    passes = []
    while len(passes) < MIN_PASSES or (
        time.monotonic() - begun + max(p["elapsed_s"] for p in passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        pass_spec = dict(spec, trace=traced)
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            pass_spec["spans_out"] = str(
                OUT_DIR / f"spans-{workload.name}-seed{seed}-pass{len(passes)}.json"
            )
        res = spawn(pass_spec)
        res["traced"] = traced
        setups.append(res["setup_s"])
        passes.append(res)
        print(f"pass {len(passes)}{' (traced)' if traced else ''}: {res['elapsed_s']:.3f}s, "
              f"normalized wall {res['wall_s']:.3f}s, reference median "
              f"{median(r for _, r in res['samples']) * 1000:.3f}ms", file=sys.stderr)
    return {"setups": setups, "passes": passes}


def check_outputs(workload, seed: int, passes: list) -> dict:
    """Per-program verdicts: {name: [failure causes]}, plus harness problems."""
    import sqlcheck
    from qilc import frontend

    causes = {name: [] for name in workload.programs}
    problems = []
    for i, name in enumerate(workload.programs):
        texts = [p["programs"][i]["report"] for p in passes]
        if len({hashlib.sha256(t.encode()).hexdigest() for t in texts}) != 1:
            causes[name].append("report differs between passes")
            problems.append(f"{name}: nondeterministic report")
        report = json.loads(texts[0])
        if report["status"] != "synthesized":
            causes[name].append(f"status {report['status']} ({report['reason']})")
            continue
        solution, diff = report["solution"], report["difftest"]
        if solution is None or diff is None or diff["failures"]:
            causes[name].append("difftest mismatches")
            problems.append(f"{name}: synthesized report without SQL or with difftest failures")
            continue
        tp = frontend.typecheck(frontend.parse(program_path(name).read_text(encoding="utf-8")))
        bad = sqlcheck.check_program(tp, solution["sql"], seed)
        if bad is not None:
            causes[name].append(f"SQLite disagrees: {solution['sql']!r} on {bad}")
    return {"causes": causes, "problems": problems}


def _with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def end_to_end(runs: dict, n_failed: int, n_programs: int) -> dict:
    passes = runs["passes"]
    per_program = [median(times) for times in zip(*(p["program_s"] for p in passes))]
    values = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median(runs["setups"]),
        "slowest_program_s": max(per_program),
        "median_program_s": median(per_program),
        "peak_rss_mb": median([p["maxrss_kb"] / 1024 for p in passes]),
        "pass_ratio": 1 - n_failed / n_programs,
    }
    return _with_units(values, "end_to_end")


def _layer_values(layers: dict, reports: list, scale: float) -> dict:
    def seconds(name, key="seconds"):
        return layers.get(name, {}).get(key, 0.0) * scale

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def stat(key):
        return sum(r["stats"][key] for r in reports)

    def rate(n, s):
        return n / s if s > 0 else 0.0

    enumerated = stat("candidatesEnumerated")
    tried = stat("candidatesTried")
    instances = stat("instancesEnumerated")
    cases = sum(r["difftest"]["cases"] for r in reports if r["difftest"])
    return {
        "frontend.parse_s": seconds("frontend.parse"),
        "frontend.typecheck_s": seconds("frontend.typecheck"),
        "synth.synthesize_s": seconds("cli.synthesize"),
        "synth.self_s": seconds("cli.synthesize", "self_s"),
        "synth.template_s": seconds("synth.extract_template"),
        "synth.enumerate_s": seconds("synth.enumerate_candidates"),
        "synth.invariants_s": seconds("synth.derive_invariants"),
        "synth.candidates_enumerated": enumerated,
        "synth.candidates_tried": tried,
        "synth.candidates_per_s": rate(enumerated, seconds("synth.enumerate_candidates")),
        "synth.tried_ratio": rate(tried, enumerated),
        "verify.validate_s": seconds("verify.validate"),
        "verify.calls": calls("verify.validate"),
        "verify.accept_s": seconds("verify.validate[valid]"),
        "verify.reject_s": seconds("verify.validate") - seconds("verify.validate[valid]"),
        "verify.rejected": stat("candidatesRejected"),
        "verify.non_checkable": stat("candidatesNonCheckable"),
        "verify.vcs_checked": stat("vcsChecked"),
        "verify.instances": instances,
        "verify.instances_per_s": rate(instances, seconds("verify.validate")),
        "interp.run_s": seconds("interp.run"),
        "interp.run_calls": calls("interp.run"),
        "emit.to_sql_s": seconds("emit.to_sql"),
        "emit.render_s": seconds("emit.render"),
        "emit.load_s": seconds("emit.MiniDb.from_values"),
        "emit.eval_sql_s": seconds("emit.eval_sql"),
        "emit.eval_sql_calls": calls("emit.eval_sql"),
        "difftest.run_cases_s": seconds("difftest.run_cases"),
        "difftest.self_s": seconds("difftest.run_cases", "self_s"),
        "difftest.draw_s": seconds("difftest.draw_case"),
        "difftest.cases": cases,
        "difftest.cases_per_s": rate(cases, seconds("difftest.run_cases")),
        "difftest.mismatches": sum(r["difftest"]["failures"] for r in reports if r["difftest"]),
        "cli.self_s": seconds("cli.main", "self_s"),
    }


def per_layer(runs: dict) -> dict:
    traced = [p for p in runs["passes"] if p["traced"]]
    untraced = [p for p in runs["passes"] if not p["traced"]]
    samples = [
        _layer_values(p["layers"], [json.loads(r["report"]) for r in p["programs"]], p["scale"])
        for p in traced
    ]
    values = {k: median([s[k] for s in samples]) for k in samples[0]}
    values["trace.overhead_s"] = (
        median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in untraced])
    )
    return _with_units(values, "per_layer")


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    runs = run_passes(workload, seed, seconds, trace)
    started = time.monotonic()
    verdicts = check_outputs(workload, seed, runs["passes"])
    failing = [name for name, why in verdicts["causes"].items() if why]
    for name in failing:
        print(f"FAILED {name}: {'; '.join(verdicts['causes'][name])}", file=sys.stderr)
    for problem in verdicts["problems"]:
        print(f"INCORRECT {problem}", file=sys.stderr)
    print(f"output checks: {time.monotonic() - started:.2f}s", file=sys.stderr)
    n_passes = len(runs["passes"])
    n_programs = len(workload.programs)
    return {
        "correct": not verdicts["problems"],
        "attempted": n_programs * n_passes,
        "failed": len(failing) * n_passes,
        "metrics": per_layer(runs) if trace else end_to_end(runs, len(failing), n_programs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qilc" / "__init__.py").is_file():
        print(f"perfbench: no qilc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
