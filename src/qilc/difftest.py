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
take(n) the next n. draw_case, the reference for the draw, takes a
relation's size with next() and all its cells with one take. Every run
and every replay reads its cases from whole blocks instead (_case_values),
through one reader: a window holds the unread tail of the last block
plus the next BLOCK outputs, every output of it is mapped once to an int
cell and, when the program has text, to a text cell, and each relation
shape's rows are built at every offset with one zip. A case then reads a
relation's size from one output and slices its rows out of those. The
window is refilled when fewer outputs remain than one case can use. The
stream and the draw order are those above, whatever the block size.

The program result and the query result are compared positionally; record
order matters, field names do not, and an absent min/max result agrees
with SQL NULL.

A case takes one of two paths. The reference path (_run_one, which
replay_case also takes) binds the case's values as draw_case gives them
(_inputs), runs interp.run, which checks the inputs, and eval_sql over a
MiniDb, and compares the two result values. A run of at most
REFERENCE_MAX_CASES cases, or one that cannot be planned, takes it for
every case. A longer run is planned once instead (_planned): each
case's values, a relation as its rows tuple, go straight into the
compiled program's store and the query plan's sources, and the raw rows
or scalars are compared; no binding dict or OrderedRelation is built. A
case that disagrees is run again on the reference path, which builds its
Mismatch. A planned run keeps the values of the inputs of at most
SMALL_ROWS rows, over all relations, that agreed, and does not check them
again; these are the inputs that repeat. An input that disagrees is never
kept, so each case that draws it is reported. Either way a run reports the
same bytes.
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import Optional

from . import emit, interp
from .frontend import TypedProgram
from .record import record
from .relation import (
    INT,
    TEXT,
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


# The draw: one stream output x gives a relation's size, an int cell or a
# text cell. draw_case and the block reader (_case_values) both map
# through these.

#: A drawn relation has 0.._MAX_ROWS rows.
_MAX_ROWS = 5


def _size(x: int) -> int:
    return x % (_MAX_ROWS + 1)


def _int_cells(draws) -> list:
    return [x % 5 for x in draws]


def _text_cells(draws) -> list:
    alphabet = ALPHABET
    return [alphabet[x % 3] for x in draws]


#: A field or scalar type -> its cells' mapping.
_CELLS = {INT: _int_cells, TEXT: _text_cells}


def draw_case(gen: SplitMix64, tp: TypedProgram) -> dict:
    """Consume one case's draws and return parameter bindings: the
    reference the block reader (_case_values) follows, one output at a time
    for a scalar and one take for a relation's cells."""
    case = {}
    for p in tp.ast.params:
        if isinstance(p.ty, Schema):
            arity = len(p.ty.types)
            draws = gen.take(_size(gen.next()) * arity)
            columns = [_CELLS[t](draws[j::arity]) for j, t in enumerate(p.ty.types)]
            case[p.name] = OrderedRelation.trusted(p.ty, tuple(zip(*columns)))
        else:
            case[p.name] = _CELLS[p.ty]((gen.next(),))[0]
    return case


def _case_values(gen: SplitMix64, tp: TypedProgram):
    """Yield each case's values, draw_case's in declaration order with a
    relation as its rows tuple, from a window of the stream: the unread
    tail plus the next BLOCK outputs. Each window maps its outputs to
    cells once and builds the rows at every offset for each relation
    shape; a case then slices a relation's rows out of those."""
    types = [p.ty for p in tp.ast.params]
    shapes = {ty.types for ty in types if isinstance(ty, Schema)}
    kinds = {t for ty in types for t in (ty.types if isinstance(ty, Schema) else (ty,))}
    # the most outputs one case can use: a relation's size and its rows
    need = sum(1 + _MAX_ROWS * len(ty.types) if isinstance(ty, Schema) else 1 for ty in types)
    window, p = [], 0
    while True:
        window = window[p:] + gen.take(BLOCK)
        cells = {t: _CELLS[t](window) for t in kinds}
        rows = {
            shape: tuple(zip(*[cells[t][j:] for j, t in enumerate(shape)])) for shape in shapes
        }
        reads = [
            (rows[ty.types], len(ty.types)) if isinstance(ty, Schema) else (cells[ty], 0)
            for ty in types
        ]
        last, p = len(window) - need, 0
        while p <= last:
            values = []
            for column, arity in reads:
                if arity:
                    end = p + 1 + _size(window[p]) * arity
                    values.append(column[p + 1 : end : arity])
                    p = end
                else:
                    values.append(column[p])
                    p += 1
            yield tuple(values)


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
    """The run's per-case check, agree(values) -> bool, built once; None
    when a FROM table is not a relation parameter, one result is a scalar
    and the other records, or the result column types differ.

    values are a case's as _case_values yields them. agree decides what
    values_agree decides, from the raw values, after the column types were
    compared here. Drawn values are of their parameter's type, so
    check_inputs is not run. The closures are the reference path's, so
    agree raises what it raises, on the same case."""
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
    entry_store, body, result, raw = ex.entry_store, ex.body, ex.result_name, plan.raw
    names = tuple(p.name for p in tp.ast.params)
    table_at = tuple(names.index(t) for t in tables)
    scalar_at = tuple((name, i) for i, name in enumerate(names) if name not in relations)

    def agree(values: tuple) -> bool:
        store = entry_store(zip(names, values))
        body(store)
        params = {name: values[i] for name, i in scalar_at}
        return store[result] == raw([values[i] for i in table_at], params)

    return agree


def _inputs(tp: TypedProgram, values: tuple) -> dict:
    """The bindings draw_case gives for a case's values."""
    trusted = OrderedRelation.trusted
    return {
        p.name: trusted(p.ty, v) if isinstance(p.ty, Schema) else v
        for p, v in zip(tp.ast.params, values)
    }


def run_cases(tp: TypedProgram, sql, seed: int, cases: int) -> DiffResult:
    """Run cases 0..cases-1 sequentially; collect every mismatch (see the
    module docstring for the two paths and the memo of small inputs)."""
    agree = _planned(tp, sql) if cases > REFERENCE_MAX_CASES else None
    rel_at = tuple(i for i, p in enumerate(tp.ast.params) if isinstance(p.ty, Schema))
    agreed = set()  # the values of the small inputs that agreed
    mismatches = []
    for case, values in zip(range(cases), _case_values(SplitMix64(seed), tp)):
        if agree is not None:
            size = 0
            for i in rel_at:
                size += len(values[i])
            small = size <= SMALL_ROWS
            if small and values in agreed:
                continue
            if agree(values):
                if small:
                    agreed.add(values)
                continue
        m = _run_one(tp, sql, _inputs(tp, values), case)
        if m is not None:
            mismatches.append(m)
    return DiffResult(seed, cases, tuple(mismatches))


def replay_case(tp: TypedProgram, sql, seed: int, case: int) -> Optional[Mismatch]:
    """Regenerate exactly case `case` of the seeded stream and compare."""
    if case < 0:
        raise ValueError(f"case must be at least 0, got {case}")
    values = next(itertools.islice(_case_values(SplitMix64(seed), tp), case, None))
    return _run_one(tp, sql, _inputs(tp, values), case)
