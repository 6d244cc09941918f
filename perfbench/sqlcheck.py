"""Independent output check: emitted SQL on SQLite against `interp.run`.

Inputs come from this module's own generator, seeded by the benchmark
seed and the program name, not from qilc's difftest stream. Cells are
drawn so that empty relations, negative ints and scalar ints outside
0..size(R) (for example `k` in `LIMIT :k`) are all common.

Each relation parameter becomes a table with a leading `rid INTEGER`
column holding the row position, which the emitted `ORDER BY <alias>.rid`
refers to; `rid` columns are dropped from the result, since `<alias>.*`
selects them too. Scalar parameters are bound as named parameters.
"""

from __future__ import annotations

import random
import sqlite3

from qilc import interp
from qilc.relation import INT, OrderedRelation, Schema

DRAWS = 300
TEXTS = ("a", "b", "c")


def draw_inputs(rng: random.Random, params) -> dict:
    """One set of bindings for the parameters, in declaration order."""
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


def _create_tables(conn: sqlite3.Connection, params) -> None:
    for p in params:
        if isinstance(p.ty, Schema):
            cols = ", ".join(
                f'"{n}" {"INTEGER" if t == INT else "TEXT"}' for n, t in p.ty.fields
            )
            conn.execute(f'CREATE TABLE "{p.name}" (rid INTEGER, {cols})')


def _load(conn: sqlite3.Connection, inputs: dict) -> dict:
    """Replace every table's rows; return the scalar parameter bindings."""
    scalars = {}
    for name, value in inputs.items():
        if isinstance(value, OrderedRelation):
            conn.execute(f'DELETE FROM "{name}"')
            marks = ", ".join("?" * (len(value.schema.fields) + 1))
            conn.executemany(
                f'INSERT INTO "{name}" VALUES ({marks})',
                [(rid, *row) for rid, row in enumerate(value.rows)],
            )
        else:
            scalars[name] = value
    return scalars


def _sqlite_value(conn: sqlite3.Connection, sql: str, scalars: dict, relation: bool):
    cur = conn.execute(sql, scalars)
    rows = cur.fetchall()
    if not relation:  # one row with one value, or the rows as they are
        return rows[0][0] if len(rows) == 1 and len(rows[0]) == 1 else rows
    keep = [i for i, d in enumerate(cur.description) if d[0] != "rid"]
    return tuple(tuple(row[i] for i in keep) for row in rows)


def check_program(tp, sql: str, seed: int, draws: int = DRAWS):
    """Run `draws` seeded inputs; return None, or the first disagreement as
    a dict with the inputs, the program's value and SQLite's value."""
    params = tp.ast.params
    rng = random.Random(f"perfbench:{seed}:{tp.name}")
    conn = sqlite3.connect(":memory:")
    try:
        _create_tables(conn, params)
        for case in range(draws):
            inputs = draw_inputs(rng, params)
            want = interp.run(tp, inputs)
            relation = isinstance(want, OrderedRelation)
            scalars = _load(conn, inputs)
            try:
                got = _sqlite_value(conn, sql, scalars, relation)
            except sqlite3.Error as exc:
                got = f"sqlite error: {exc}"
            if relation:
                want = want.rows
            if got != want:
                return {
                    "case": case,
                    "inputs": {
                        k: list(v.rows) if isinstance(v, OrderedRelation) else v
                        for k, v in inputs.items()
                    },
                    "program": want,
                    "sqlite": got,
                }
    finally:
        conn.close()
    return None
