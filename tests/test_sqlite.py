"""The corpus's emitted SQL on stdlib sqlite3 agrees with the interpreter.

MiniDb is qilc's own reading of the dialect; this checks the text against a
real engine. Each relation becomes a table with a leading rid column
holding the row position, which the emitted ORDER BY names and which
`alias.*` selects too, so rid columns are dropped from the result. Scalar
parameters are bound by name. Inputs are drawn here, seeded by the program
name, wider than difftest's draw: negative ints, empty relations and
prefix bounds past the relation size are all common.
"""

import json
import random
import sqlite3
from pathlib import Path

import pytest

from qilc import interp
from qilc.relation import INT, OrderedRelation, Schema
from tests.conftest import BENCHMARK_NAMES, load_benchmark

GOLDEN = Path(__file__).parent / "data" / "corpus_bench.json"
DRAWS = 300
TEXTS = ("a", "b", "c")


def _corpus_sql() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {b["programName"]: b["solution"]["sql"] for b in data["benchmarks"]}


def _draw(rng: random.Random, params) -> dict:
    inputs = {}
    for p in params:
        if isinstance(p.ty, Schema):
            rows = tuple(
                tuple(rng.randint(-3, 5) if t == INT else rng.choice(TEXTS) for t in p.ty.types)
                for _ in range(rng.randint(0, 5))
            )
            inputs[p.name] = OrderedRelation(p.ty, rows)
        elif p.ty == INT:
            inputs[p.name] = rng.randint(-2, 7)
        else:
            inputs[p.name] = rng.choice(TEXTS)
    return inputs


def _sqlite_value(conn: sqlite3.Connection, sql: str, inputs: dict, relation: bool):
    scalars = {}
    for name, value in inputs.items():
        if not isinstance(value, OrderedRelation):
            scalars[name] = value
            continue
        conn.execute(f'DELETE FROM "{name}"')
        marks = ", ".join("?" * (len(value.schema.fields) + 1))
        conn.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})',
            [(rid, *row) for rid, row in enumerate(value.rows)],
        )
    cur = conn.execute(sql, scalars)
    rows = cur.fetchall()
    if not relation:
        return rows[0][0]
    keep = [i for i, d in enumerate(cur.description) if d[0] != "rid"]
    return tuple(tuple(row[i] for i in keep) for row in rows)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_corpus_sql_agrees_with_the_program_on_sqlite(name):
    tp = load_benchmark(name)
    sql = _corpus_sql()[name]
    conn = sqlite3.connect(":memory:")
    try:
        for p in tp.ast.params:
            if isinstance(p.ty, Schema):
                cols = ", ".join(
                    f'"{n}" {"INTEGER" if t == INT else "TEXT"}' for n, t in p.ty.fields
                )
                conn.execute(f'CREATE TABLE "{p.name}" (rid INTEGER, {cols})')
        rng = random.Random(f"sqlite:{name}")
        for case in range(DRAWS):
            inputs = _draw(rng, tp.ast.params)
            want = interp.run(tp, inputs)
            relation = isinstance(want, OrderedRelation)
            got = _sqlite_value(conn, sql, inputs, relation)
            assert got == (want.rows if relation else want), (case, inputs)
    finally:
        conn.close()
