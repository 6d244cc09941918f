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

draw_case, the reference for the draw, reads the stream one output at a
time with SplitMix64.next and take, the plain recurrence. Every run and
every replay reads its cases through generated code instead: the draw
reads an output x only as x mod _MOD (30), which SplitMix64.keys gives as
one byte per output for BLOCK outputs at once, mixed in one packed int
(_mix). keys serves a block from a memo of the KEY_BLOCKS blocks last read,
keyed by the block's start state (_block_keys), so the runs of one seed in
a process, such as the programs of one `qilc bench`, compute each block
once. The read lines, written once per parameter types (_stream_loop), map
those bytes through bytes.translate tables and slice each case's values
out; _case_values yields them as draw_case gives them, and reads and drops
the cases before a replayed one.

The program result and the query result are compared positionally; record
order matters, field names do not, and an absent min/max result agrees
with SQL NULL.

A case takes one of two paths. The reference path (_run_one, which
replay_case also takes) binds the case's values as draw_case gives them
(_inputs), runs interp.run, which checks the inputs, and eval_sql over a
MiniDb, and compares the two result values. A run of at most
REFERENCE_MAX_CASES cases, or one that cannot be planned, takes it for
every case. A longer run is planned once instead (_planned): one loop,
compiled once per case shape and process (_case_loop), reads each case with
the same read lines and passes its values, a relation as its rows tuple,
straight to the compiled program's run as its arguments and to the query
plan's raw as its sources, and compares the raw rows or scalars; no binding
dict or OrderedRelation is built. A case that disagrees is run again on the
reference path, which builds its Mismatch. A planned run keeps the values
of the inputs of at most SMALL_ROWS rows, over all relations, that agreed,
and does not check them again; these are the inputs that repeat. An input
that disagrees is never kept, so each case that draws it is reported.
Either way a run reports the same bytes.
"""

from __future__ import annotations

import functools
import struct
from typing import Optional

from . import emit, interp
from .codegen import Source
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

#: SplitMix64.keys reads this many outputs at once, each as one key byte,
#: its residue mod _MOD: all the draw reads of it. A draw that reads more
#: needs a wider _MOD (at most 256) and nothing else.
BLOCK = 512
_MOD = 30


def _lane(word: int) -> int:
    """An int of BLOCK 128-bit lanes, each holding word."""
    return int.from_bytes(word.to_bytes(16, "little") * BLOCK, "little")


# A lane's high 64 bits take the carry of an add, the product of a multiply
# and the bits a right shift brings in from the lane above; masking with
# _LOW clears them.
_ONES, _LOW = _lane(1), _lane(_MASK)
_WORDS = struct.Struct("<" + "Q8x" * BLOCK)  # each lane's low word


@functools.cache
def _steps() -> int:
    """The lanes (k + 1) * gamma mod 2^64, output k's state minus the state
    before the block; built on first use."""
    steps = (((k * _GAMMA) & _MASK).to_bytes(16, "little") for k in range(1, BLOCK + 1))
    return int.from_bytes(b"".join(steps), "little")


def _mix(start: int) -> int:
    """The BLOCK outputs after state start, one per lane, high 64 bits
    clear."""
    z = (start * _ONES + _steps()) & _LOW
    z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
    z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
    return (z ^ (z >> 31)) & _LOW


def _residues(lanes: int) -> bytes:
    """Each lane's 64-bit word mod _MOD, one byte per lane."""
    return bytes([x % _MOD for x in _WORDS.unpack(lanes.to_bytes(16 * BLOCK, "little"))])


#: keys() keeps the key bytes of this many blocks (512 KiB), by start state.
KEY_BLOCKS = 1024


@functools.lru_cache(maxsize=KEY_BLOCKS)
def _block_keys(start: int) -> bytes:
    """The BLOCK outputs after state start, each as its residue mod _MOD,
    computed once per process while they stay among the KEY_BLOCKS most
    recently read: every run of one seed reads the same blocks."""
    return _residues(_mix(start))


class SplitMix64:
    """splitmix64: state advances by 0x9E3779B97F4A7C15; output mixes with
    the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB multipliers. next() is the
    recurrence as docs/formats.md writes it; keys() reads BLOCK outputs at
    once (_mix). state is the state after the last output consumed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def keys(self) -> bytes:
        """The next BLOCK outputs as key bytes, each output mod _MOD."""
        start = self.state
        self.state = (start + BLOCK * _GAMMA) & _MASK
        return _block_keys(start)

    def next(self) -> int:
        z = self.state = (self.state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def take(self, n: int) -> list:
        """The next n outputs, in order."""
        return [self.next() for _ in range(n)]


#: A drawn relation has 0.._MAX_ROWS rows.
_MAX_ROWS = 5

#: The draw of one output x: a relation's size, or a cell of a field or
#: scalar type. draw_case maps outputs through these, the block reader
#: (_case_values) through their tables.
_SIZE = "size"
_DRAW = {
    _SIZE: lambda x: x % (_MAX_ROWS + 1),
    INT: lambda x: x % 5,
    TEXT: lambda x: ALPHABET[x % 3],
}


def _table(draw) -> bytes:
    """The bytes.translate table from a key byte, an output's residue
    r < _MOD, to draw's value at r. A key gives only x mod _MOD: a draw that
    reads more of x, as a modulus that does not divide _MOD would, fails
    here, at import, rather than draw wrong cells."""
    cells = [draw(r) for r in range(_MOD)]
    if cells != [draw(r + _MOD) for r in range(_MOD)]:
        raise ValueError(f"a draw reads more of an output than x mod {_MOD}")
    return bytes(c if isinstance(c, int) else ord(c) for c in cells).ljust(256, b"\0")


_TABLES = {kind: _table(draw) for kind, draw in _DRAW.items()}


def draw_case(gen: SplitMix64, tp: TypedProgram) -> dict:
    """Consume one case's draws and return parameter bindings: the
    reference the block reader (_case_values) follows, one output at a time
    for a scalar and one take for a relation's cells."""
    case = {}
    for p in tp.ast.params:
        if isinstance(p.ty, Schema):
            arity = len(p.ty.types)
            draws = gen.take(_DRAW[_SIZE](gen.next()) * arity)
            columns = [map(_DRAW[t], draws[j::arity]) for j, t in enumerate(p.ty.types)]
            case[p.name] = OrderedRelation.trusted(p.ty, tuple(zip(*columns)))
        else:
            case[p.name] = _DRAW[p.ty](gen.next())
    return case


def _param_types(tp: TypedProgram) -> tuple:
    """Each parameter's type in declaration order, a relation's as its
    field types tuple: all the block reader's code depends on."""
    return tuple(p.ty.types if isinstance(p.ty, Schema) else p.ty for p in tp.ast.params)


def _tuple(items: list) -> str:
    """The code of a tuple of these items."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _values(types: tuple) -> list:
    """The names _stream_loop's read lines give a case's values."""
    return [f"a{i}" for i in range(len(types))]


def _stream_loop(src: Source, types: tuple, loop: str) -> str:
    """Write the stream reading of a generated function over gen for
    parameters of these types: the loop line `loop` at depth 1 and in it,
    at depth 2, the lines that read one case into a0, a1, ... (_values).
    Return the code of the case's row count over all relations.

    The function keeps a window of unread key bytes and p, the offset of
    the next case in it. When a case might not fit before the window's
    end, the next block's keys are appended, and the window is mapped to
    cells once (sizes, then kN per cell type) and to the rows at every
    offset (wN per relation shape). A case then reads a relation's size
    into nI and its rows as one slice of wN, and a scalar as one cell."""
    const, line, names = src.const, src.line, _values(types)
    kinds = dict.fromkeys(t for ty in types for t in (ty if isinstance(ty, tuple) else (ty,)))
    cells = {t: f"k{n}" for n, t in enumerate(kinds)}
    shapes = dict.fromkeys(ty for ty in types if isinstance(ty, tuple))
    shapes = {shape: f"w{n}" for n, shape in enumerate(shapes)}
    # the most outputs one case can use: a relation's size and its rows
    need = sum(1 + _MAX_ROWS * len(ty) if isinstance(ty, tuple) else 1 for ty in types)
    line(1, "keys = gen.keys")
    line(1, f"window, p, last = {const(b'')}, 0, -1")
    line(1, loop)
    line(2, "while p > last:")
    line(3, "window = window[p:] + keys()")
    line(3, f"sizes = window.translate({const(_TABLES[_SIZE])})")
    for t, k in cells.items():
        text = f".decode({const('ascii')})" if t == TEXT else ""
        line(3, f"{k} = window.translate({const(_TABLES[t])}){text}")
    for shape, w in shapes.items():
        columns = [cells[t] + (f"[{j}:]" if j else "") for j, t in enumerate(shape)]
        line(3, f"{w} = tuple(zip({', '.join(columns)}))")
    line(3, f"last, p = len(window) - {need}, 0")
    at, skip = "p", 0  # the case's next output is at + skip

    def pos(extra: int = 0) -> str:
        return at if skip + extra == 0 else f"{at} + {skip + extra}"

    for i, ty in enumerate(types):
        if isinstance(ty, tuple):
            arity = len(ty)
            span, step = (f"n{i} * {arity}", f":{arity}") if arity > 1 else (f"n{i}", "")
            line(2, f"n{i} = sizes[{pos()}]")
            line(2, f"e{i} = {pos(1)} + {span}")
            line(2, f"{names[i]} = {shapes[ty]}[{pos(1)}:e{i}{step}]")
            at, skip = f"e{i}", 0
        else:
            line(2, f"{names[i]} = {cells[ty]}[{pos()}]")
            skip += 1
    if pos() != "p":
        line(2, f"p = {pos()}")
    return " + ".join(f"n{i}" for i, ty in enumerate(types) if isinstance(ty, tuple)) or "0"


@functools.lru_cache(maxsize=64)
def _reader(types: tuple):
    """read(gen, start), generated for parameters of these types: yield
    cases start, start + 1, ... of the stream from gen's state, each as
    draw_case's values in declaration order with a relation as its rows
    tuple; the cases before start are read and dropped."""
    src = Source()
    src.line(0, "def read(gen, start):")
    _stream_loop(src, types, "while True:")
    src.line(2, "if start:")
    src.line(3, "start -= 1")
    src.line(2, "else:")
    src.line(3, f"yield {_tuple(_values(types))}")
    return src.compile("<qilc cases>")["read"]


def _case_values(gen: SplitMix64, tp: TypedProgram, start: int = 0):
    """Yield cases start, start + 1, ... of the stream from gen's state, as
    draw_case's values in declaration order, a relation as its rows tuple
    (_reader)."""
    return _reader(_param_types(tp))(gen, start)


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


@functools.lru_cache(maxsize=64)
def _case_loop(types: tuple, table_at: tuple, scalars: tuple):
    """check(run, raw, gen, cases, reference), generated for one case
    shape: the parameter types, the parameter position of each FROM table
    and the scalar parameters' names, in declaration order.

    check reads cases 0..cases-1 from gen as _reader does and checks each
    with run(<values>) == raw(<the FROM tables' rows>, <scalar params>); it
    calls reference(case, values) for a case that disagrees. It keeps the
    values of the small inputs that agreed and does not check them again."""
    src = Source()
    line, names = src.line, _values(types)
    values = _tuple(names)
    scalar_at = [i for i, ty in enumerate(types) if not isinstance(ty, tuple)]
    params = ", ".join(f"{src.const(n, 'v')}: {names[i]}" for i, n in zip(scalar_at, scalars))
    tables = _tuple([names[i] for i in table_at])
    agree = f"run({', '.join(names)}) == raw({tables}, {{{params}}})"
    key = names[0] if len(names) == 1 else values
    line(0, "def check(run, raw, gen, cases, reference):")
    line(1, "agreed = set()")
    rows = _stream_loop(src, types, "for case in range(cases):")
    line(2, f"if {rows} <= {SMALL_ROWS}:")
    line(3, f"if {key} in agreed:")
    line(4, "continue")
    line(3, f"if {agree}:")
    line(4, f"agreed.add({key})")
    line(4, "continue")
    line(2, f"elif {agree}:")
    line(3, "continue")
    line(2, f"reference(case, {values})")
    return src.compile("<qilc cases>")["check"]


def _planned(tp: TypedProgram, sql):
    """The run's planned check, check(gen, cases, reference) (_case_loop
    over the compiled program's run and the query plan's raw), built once;
    None when a FROM table is not a relation parameter, the query names a
    parameter the program does not have, one result is a scalar and the
    other records, or the result column types differ.

    The check decides what values_agree decides, from the raw values,
    after the column types were compared here. Drawn values are of their
    parameter's type, so check_inputs is not run. The compiled program and
    query plan are the reference path's, so the check raises what it
    raises, on the same case."""
    relations = tp.relations
    tables = tuple(s.table for s in sql.sources)
    if not all(t in relations for t in tables):
        return None
    plan = emit.query_plan(sql, tuple(relations[t] for t in tables))
    names = tuple(p.name for p in tp.ast.params)
    scalars = tuple(name for name in names if name not in relations)
    if not plan.params.keys() <= set(scalars):
        return None
    ex = interp.executor(tp)
    if isinstance(sql, emit.SqlScalar):
        if ex.result_schema is not None:
            return None
    elif ex.result_schema is None or plan.schema.types != ex.result_schema.types:
        return None
    table_at = tuple(names.index(t) for t in tables)
    check = _case_loop(_param_types(tp), table_at, scalars)
    return functools.partial(check, ex.run, plan.raw)


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
    mismatches = []

    def reference(case: int, values: tuple) -> None:
        m = _run_one(tp, sql, _inputs(tp, values), case)
        if m is not None:
            mismatches.append(m)

    check = _planned(tp, sql) if cases > REFERENCE_MAX_CASES else None
    if check is not None:
        check(SplitMix64(seed), cases, reference)
    else:
        for case, values in zip(range(cases), _case_values(SplitMix64(seed), tp)):
            reference(case, values)
    return DiffResult(seed, cases, tuple(mismatches))


def replay_case(tp: TypedProgram, sql, seed: int, case: int) -> Optional[Mismatch]:
    """Regenerate exactly case `case` of the seeded stream and compare."""
    if case < 0:
        raise ValueError(f"case must be at least 0, got {case}")
    values = next(_case_values(SplitMix64(seed), tp, case))
    return _run_one(tp, sql, _inputs(tp, values), case)
