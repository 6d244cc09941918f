"""In-memory spans around qilc's layer boundaries.

`Tracer.install()` replaces module attributes of qilc with timing wrappers,
so the pipeline's own calls go through them. Functions called once per
program or per candidate get one span each (name, start, end, parent,
program). Functions called once per difftest case are aggregated into
their caller's span as (seconds, calls), because a span per call would cost
more than the call. Self time is a span's duration minus the time of the
spans and aggregated calls directly under it; the pipeline is single
threaded, so children never overlap.
"""

from __future__ import annotations

import json
from time import perf_counter

from qilc import cli, difftest, emit, frontend, interp, synth, verify

# (module or class, attribute, span name)
SPANNED = (
    (frontend, "parse", "frontend.parse"),
    (frontend, "typecheck", "frontend.typecheck"),
    (cli, "synthesize", "cli.synthesize"),
    (synth, "extract_template", "synth.extract_template"),
    (synth, "enumerate_candidates", "synth.enumerate_candidates"),
    (synth, "derive_invariants", "synth.derive_invariants"),
    (verify, "validate", "verify.validate"),
    (emit, "to_sql", "emit.to_sql"),
    (emit, "render", "emit.render"),
    (difftest, "run_cases", "difftest.run_cases"),
)
PER_CASE = (
    (difftest, "draw_case", "difftest.draw_case"),
    (interp, "run", "interp.run"),
    (emit.MiniDb, "from_values", "emit.MiniDb.from_values"),
    (emit, "eval_sql", "emit.eval_sql"),
)


class Span:
    __slots__ = ("id", "name", "program", "parent", "start", "end", "child_s", "counted", "verdict")

    def __init__(self, id_, name, program, parent):
        self.id = id_
        self.name = name
        self.program = program
        self.parent = parent
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0
        self.counted = {}  # per-case function -> [seconds, calls]
        self.verdict = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "program": self.program,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.seconds - self.child_s,
        }
        if self.counted:
            out["counted"] = {k: {"seconds": s, "calls": n} for k, (s, n) in self.counted.items()}
        if self.verdict is not None:
            out["verdict"] = self.verdict
        return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.program = None
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.program, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1].name == name:
                return fn(*args, **kwargs)  # recursion stays inside one span
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "verify.validate":
                    span.verdict = result.status
                return result
            finally:
                self.close(span)

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                parent = self._stack[-1]
                parent.child_s += elapsed
                totals = parent.counted.setdefault(name, [0.0, 0])
                totals[0] += elapsed
                totals[1] += 1

        return wrapper

    def install(self) -> None:
        for table, wrap in ((SPANNED, self._spanned), (PER_CASE, self._counted)):
            for owner, attr, name in table:
                wrapped = wrap(name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)

    def summary(self) -> dict:
        """name -> {seconds, self_s, calls}, over every span and per-case call.

        verify.validate is also split into verify.validate[<verdict>].
        """
        out: dict = {}

        def add(name, seconds, self_s, calls):
            entry = out.setdefault(name, {"seconds": 0.0, "self_s": 0.0, "calls": 0})
            entry["seconds"] += seconds
            entry["self_s"] += self_s
            entry["calls"] += calls

        for span in self.spans:
            add(span.name, span.seconds, span.seconds - span.child_s, 1)
            if span.verdict is not None:
                add(f"{span.name}[{span.verdict}]", span.seconds, span.seconds - span.child_s, 1)
            for name, (seconds, calls) in span.counted.items():
                add(name, seconds, seconds, calls)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in self.spans], fh)
