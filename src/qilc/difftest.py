"""Differential testing of synthesized SQL against the interpreter.

Inputs are drawn from a splitmix64 stream so any case can be regenerated
from (seed, case index) alone. One stream serves the whole run; case n
consumes the draws immediately after case n-1. Draw order within a case is
the parameter list in declaration order:

    relation parameter   size = next() % 6, then rows in order, each row's
                         fields in schema order: int fields next() % 5,
                         text fields ALPHABET[next() % 3]
    int parameter        next() % 5
    text parameter       ALPHABET[next() % 3]

The program result and the query result are compared positionally; record
order matters, field names do not, and an absent min/max result agrees
with SQL NULL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import emit, interp
from .frontend import TypedProgram
from .relation import (
    INT,
    OrderedRelation,
    Schema,
    bindings_to_json,
    value_to_json,
    values_agree,
)

ALPHABET = ("a", "b", "c")

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state advances by 0x9E3779B97F4A7C15; output mixes with
    the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB multipliers."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


def _draw_plan(tp: TypedProgram) -> tuple:
    """(name, schema, int_fields) per relation parameter, (name, None, is_int)
    per scalar one, in declaration order; int_fields holds one bool per
    field."""
    plan = []
    for p in tp.ast.params:
        if isinstance(p.ty, Schema):
            plan.append((p.name, p.ty, tuple(t == INT for t in p.ty.types)))
        else:
            plan.append((p.name, None, p.ty == INT))
    return tuple(plan)


def draw_case(gen: SplitMix64, tp: TypedProgram) -> dict:
    """Consume one case's draws and return parameter bindings."""
    draw = gen.next
    inputs = {}
    for name, schema, ints in tp.derived(_draw_plan):
        if schema is None:
            inputs[name] = draw() % 5 if ints else ALPHABET[draw() % 3]
            continue
        rows = []
        for _ in range(draw() % 6):
            rows.append(
                tuple([draw() % 5 if is_int else ALPHABET[draw() % 3] for is_int in ints])
            )
        inputs[name] = OrderedRelation(schema, tuple(rows))
    return inputs


@dataclass(frozen=True)
class Mismatch:
    case: int
    inputs: dict
    program: object
    query: object

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "inputs": bindings_to_json(self.inputs),
            "program": value_to_json(self.program),
            "query": value_to_json(self.query),
        }


@dataclass(frozen=True)
class DiffResult:
    seed: int
    cases: int
    mismatches: tuple  # Mismatch, ascending case index

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def first_mismatch(self) -> Optional[int]:
        return self.mismatches[0].case if self.mismatches else None


def _run_one(tp: TypedProgram, sql, inputs: dict, case: int) -> Optional[Mismatch]:
    got_prog = interp.run(tp, inputs)
    got_sql = emit.eval_sql(sql, emit.MiniDb.from_values(inputs))
    if values_agree(got_prog, got_sql):
        return None
    return Mismatch(case, inputs, got_prog, got_sql)


def run_cases(tp: TypedProgram, sql, seed: int, cases: int) -> DiffResult:
    """Run cases 0..cases-1 sequentially; collect every mismatch."""
    gen = SplitMix64(seed)
    mismatches = []
    for case in range(cases):
        inputs = draw_case(gen, tp)
        m = _run_one(tp, sql, inputs, case)
        if m is not None:
            mismatches.append(m)
    return DiffResult(seed, cases, tuple(mismatches))


def replay_case(tp: TypedProgram, sql, seed: int, case: int) -> Optional[Mismatch]:
    """Regenerate exactly case `case` of the seeded stream and compare."""
    gen = SplitMix64(seed)
    for _ in range(case):
        draw_case(gen, tp)
    inputs = draw_case(gen, tp)
    return _run_one(tp, sql, inputs, case)
