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

SplitMix64 computes the stream BLOCK outputs at a time, in the lanes of
one Python int, and hands them out in order: next() returns one output,
take(n) the next n. A relation draws its size with next() and all its
cells with one take, and builds its columns with C-level maps. The
stream and the draw order are those above, whatever the block size.

The program result and the query result are compared positionally; record
order matters, field names do not, and an absent min/max result agrees
with SQL NULL.

A case takes one of two paths. The reference path (_run_one, which
replay_case also takes) runs interp.run, which checks the inputs, and
eval_sql over a MiniDb, and compares the two result values. A run of more
than REFERENCE_MAX_CASES cases is planned once instead (_planned): each
case runs the compiled program and the query's plan on the inputs it drew
and compares raw rows or scalars, and a case that disagrees is run again
on the reference path, which builds its Mismatch. A planned run keeps
the inputs of at most SMALL_ROWS rows, over all relations, that agreed,
and does not check them again; these are the inputs that repeat. An input
that disagrees is never kept, so each case that draws it is reported.
Either way a run reports the same bytes.
"""

from __future__ import annotations

import functools
import sys
from typing import Optional

from . import emit, interp
from .frontend import TypedProgram
from .record import record
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
_GAMMA = 0x9E3779B97F4A7C15

#: Runs this short take the reference path for every case. perfbench's
#: trace wraps interp.run and eval_sql to count them per case, and its test
#: of those counts runs 20 cases; the planned path calls neither. Drop this
#: once perfbench traces the planned path.
REFERENCE_MAX_CASES = 20

#: A planned run checks an input of at most this many rows, over all its
#: relations, once: such inputs repeat, larger ones rarely do.
SMALL_ROWS = 2

#: SplitMix64 computes this many outputs at once.
BLOCK = 512


@functools.cache
def _lanes() -> tuple:
    """(ones, low, steps): ints of BLOCK 128-bit lanes, built on first use.
    Lane k of ones is 1, of low 2^64 - 1, and of steps (k + 1) * gamma mod
    2^64, output k's state minus the state before the block. A lane's high
    64 bits take the carry of the add, the product of each multiply and the
    bits a right shift brings in from the lane above; masking with low
    clears them."""
    ones = int.from_bytes((b"\1" + bytes(15)) * BLOCK, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * BLOCK, "little")
    steps = int.from_bytes(
        b"".join(((k * _GAMMA) & _MASK).to_bytes(16, "little") for k in range(1, BLOCK + 1)),
        "little",
    )
    return ones, low, steps


# Native 64-bit words of the block's bytes in sys.byteorder: every other
# word from the first (little-endian) or from the last (big-endian) is
# lane 0's output, lane 1's, ...
_LANE_STEP = 2 if sys.byteorder == "little" else -2


class SplitMix64:
    """splitmix64: state advances by 0x9E3779B97F4A7C15; output mixes with
    the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB multipliers.

    Output k after state s depends only on s + k * gamma, so BLOCK outputs
    are computed at once, one per lane (see _lanes), and handed out in
    order. state is the state after the last output consumed."""

    def __init__(self, seed: int):
        self._end = seed & _MASK  # the state after the last buffered output
        self._buf: list = []
        self._pos = BLOCK  # outputs of _buf consumed

    @property
    def state(self) -> int:
        return (self._end - (BLOCK - self._pos) * _GAMMA) & _MASK

    def _refill(self) -> None:
        ones, low, steps = _lanes()
        z = (self._end * ones + steps) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31  # a lane's low 64 bits are the output
        words = memoryview(z.to_bytes(16 * BLOCK, sys.byteorder)).cast("Q")
        self._buf = words[::_LANE_STEP].tolist()
        self._end = (self._end + BLOCK * _GAMMA) & _MASK
        self._pos = 0

    def next(self) -> int:
        pos = self._pos
        if pos == BLOCK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def take(self, n: int) -> list:
        """The next n outputs, in order."""
        pos = self._pos
        if pos + n <= BLOCK:
            self._pos = pos + n
            return self._buf[pos:pos + n]
        out = self._buf[pos:]
        while True:
            self._refill()
            need = n - len(out)
            if need <= BLOCK:
                self._pos = need
                return out + self._buf[:need]
            out += self._buf


def _int_cell(gen: SplitMix64) -> int:
    return gen.next() % 5


def _text_cell(gen: SplitMix64) -> str:
    return ALPHABET[gen.next() % 3]


def _int_column(draws: list):
    return map((5).__rmod__, draws)


def _text_column(draws: list):
    return map(ALPHABET.__getitem__, map((3).__rmod__, draws))


def _relation_drawer(schema: Schema):
    """gen -> one relation of the schema: its size, then its rows' cells in
    row-major order. Each row has the schema's arity by construction, so the
    relation is built trusted."""
    arity = len(schema.types)
    columns = tuple(
        (j, _int_column if t == INT else _text_column) for j, t in enumerate(schema.types)
    )
    trusted = OrderedRelation.trusted

    def draw_relation(gen: SplitMix64) -> OrderedRelation:
        draws = gen.take(gen.next() % 6 * arity)
        return trusted(schema, tuple(zip(*[
            column(draws[j::arity]) for j, column in columns
        ])))

    return draw_relation


def _drawers(tp: TypedProgram) -> tuple:
    """(name, drawer) per parameter in declaration order; drawer(gen)
    consumes the parameter's draws and returns its value."""
    return tuple(
        (p.name, _relation_drawer(p.ty) if isinstance(p.ty, Schema)
         else _int_cell if p.ty == INT else _text_cell)
        for p in tp.ast.params
    )


def draw_case(gen: SplitMix64, tp: TypedProgram) -> dict:
    """Consume one case's draws and return parameter bindings."""
    return {name: drawer(gen) for name, drawer in tp.derived(_drawers)}


@record
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


@record
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
    module docstring for the two paths and the memo of small inputs)."""
    gen = SplitMix64(seed)
    agree = _planned(tp, sql) if cases > REFERENCE_MAX_CASES else None
    rel_at = tuple(i for i, p in enumerate(tp.ast.params) if isinstance(p.ty, Schema))
    agreed = set()  # keys of the small inputs that agreed
    mismatches = []
    for case in range(cases):
        inputs = draw_case(gen, tp)
        if agree is not None:
            # the key: each parameter's rows or scalar, in declaration order
            values = [*inputs.values()]
            size = 0
            for i in rel_at:
                values[i] = rows = values[i].rows
                size += len(rows)
            key = tuple(values) if size <= SMALL_ROWS else None
            if key in agreed:
                continue
            if agree(inputs):
                if key is not None:
                    agreed.add(key)
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
