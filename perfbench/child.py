"""One measured pass: a fresh process that runs a workload's programs.

Invoked by run.py as `python3 child.py <json spec>`. The spec holds the
source directory, the program files, the `qilc synth` flags, whether to
stop after set-up, whether to trace, and where to write the spans. The
process imports qilc, parses and typechecks every program (set-up), then
calls `qilc.cli.main(["synth", <file>, *flags])` for each program with
stdout and stderr captured, after a gc.collect() so that every program
starts from the same collector state. It prints one JSON object on stdout: the
time.monotonic() stamp after set-up, each program's report text, exit
code and start and end stamps, ru_maxrss, the speed samples and, when
traced, the span summary. time.monotonic() is CLOCK_MONOTONIC on Linux,
so the parent can compare these stamps with its own.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SAMPLE_PERIOD_S = 0.005
REF_ITERATIONS = 100


@dataclass(frozen=True)
class _Node:
    kind: str
    left: object
    right: int


def _reference_work() -> int:
    """About 0.1 ms of object creation, hashing and dispatch, the
    kind of work qilc does, and independent of qilc's code."""
    seen: dict = {}
    picked = []
    node = None
    for i in range(REF_ITERATIONS):
        node = _Node("add" if i & 1 else "mul", node if i % 7 else None, i & 15)
        key = (node.kind, node.right)
        seen[key] = seen.get(key, 0) + 1
        if isinstance(node.left, _Node):
            picked.append(node.right)
    picked.sort()
    return len(seen) + len(picked)


class SpeedSampler:
    """Times the reference work every SAMPLE_PERIOD_S of wall time.

    The shared machine's speed drifts by up to 2x within minutes, so
    run.py scales every measured interval by the reference speed sampled
    during it. The samples run from a SIGALRM handler in the main thread,
    between bytecodes of whatever qilc is doing, so no thread is added.
    """

    def __init__(self):
        self.samples: list = []  # (monotonic stamp, seconds of reference work)

    def sample(self, *_signal_args) -> None:
        started = time.monotonic()
        _reference_work()
        self.samples.append((started, time.monotonic() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    sampler = SpeedSampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from qilc import cli, frontend

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for path in spec["programs"]:
        if tracer:
            tracer.program = Path(path).stem
            span = tracer.open("setup")
        frontend.typecheck(frontend.parse(Path(path).read_text(encoding="utf-8")))
        if tracer:
            tracer.close(span)
    out = {"setup_done": time.monotonic()}
    if spec["setup_only"]:
        sampler.stop()
        for _ in range(5):  # set-up is short; sample the speed right after it
            sampler.sample()
        out["samples"] = sampler.samples
        print(json.dumps(out))
        return 0

    programs = []
    for path in spec["programs"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        if tracer:
            tracer.program = Path(path).stem
            span = tracer.open("cli.main")
        start = time.monotonic()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["synth", path, *spec["flags"]])
        end = time.monotonic()
        if tracer:
            tracer.close(span)
        programs.append({"path": path, "start": start, "end": end, "code": code,
                         "report": stdout.getvalue()})
    sampler.stop()
    out["programs"] = programs
    out["samples"] = sampler.samples
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        out["layers"] = tracer.summary()
        tracer.write(spec["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
