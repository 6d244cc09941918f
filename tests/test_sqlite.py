"""The corpus's emitted SQL on stdlib sqlite3 agrees with the interpreter.

MiniDb is qilc's own reading of the dialect; this checks the text against a
real engine. Each relation becomes a table with a leading rid column
holding the row position, which the emitted ORDER BY names and which
`alias.*` selects too, so rid columns are dropped from the result. Scalar
parameters are bound by name. Inputs are drawn here, seeded by the program
name, wider than difftest's draw: negative ints, empty relations and
prefix bounds past the relation size are all common.

The same check runs on a program named with Python keywords and builtins,
and on programs that rename output fields, whose result columns SQLite must
name as the program does.
MiniDb is checked against SQLite on both LIMIT forms and on which queries
it refuses, and the SQLite keywords the type checker refuses as names
against SQLite itself.
"""

import json
import random
import sqlite3
from pathlib import Path

import pytest

from qilc import interp
from qilc.difftest import run_cases
from qilc.emit import SQLITE_RESERVED, MiniDb, eval_sql, parse_sql, render
from qilc.frontend import TypeCheckError, parse, typecheck
from qilc.relation import INT, OrderedRelation, Schema
from qilc.synth import Options, Solution, synthesize
from qilc.verify import Bounds
from tests.conftest import BENCHMARK_NAMES, PYTHON_WORDS, PYTHON_WORDS_TEXT, load_benchmark

GOLDEN = Path(__file__).parent / "data" / "corpus_bench.json"
DRAWS = 300
TEXTS = ("a", "b", "c")


def _corpus_sql() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {b["programName"]: b["solution"]["sql"] for b in data["benchmarks"]}


def _draw(rng: random.Random, params, texts=TEXTS) -> dict:
    inputs = {}
    for p in params:
        if isinstance(p.ty, Schema):
            rows = tuple(
                tuple(rng.randint(-3, 5) if t == INT else rng.choice(texts) for t in p.ty.types)
                for _ in range(rng.randint(0, 5))
            )
            inputs[p.name] = OrderedRelation(p.ty, rows)
        elif p.ty == INT:
            inputs[p.name] = rng.randint(-2, 7)
        else:
            inputs[p.name] = rng.choice(texts)
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
    names = tuple(cur.description[i][0] for i in keep)
    return names, tuple(tuple(row[i] for i in keep) for row in rows)


def _assert_agrees_on_sqlite(tp, sql: str, seed: str, texts=TEXTS) -> None:
    """sql on SQLite gives what the program gives, on DRAWS drawn inputs,
    and a record result's columns carry the program's field names."""
    conn = sqlite3.connect(":memory:")
    try:
        for p in tp.ast.params:
            if isinstance(p.ty, Schema):
                cols = ", ".join(
                    f'"{n}" {"INTEGER" if t == INT else "TEXT"}' for n, t in p.ty.fields
                )
                conn.execute(f'CREATE TABLE "{p.name}" (rid INTEGER, {cols})')
        rng = random.Random(seed)
        for case in range(DRAWS):
            inputs = _draw(rng, tp.ast.params, texts)
            want = interp.run(tp, inputs)
            relation = isinstance(want, OrderedRelation)
            got = _sqlite_value(conn, sql, inputs, relation)
            if relation:
                names, got = got
                assert names == want.schema.names, sql
            assert got == (want.rows if relation else want), (case, inputs)
    finally:
        conn.close()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_corpus_sql_agrees_with_the_program_on_sqlite(name):
    _assert_agrees_on_sqlite(load_benchmark(name), _corpus_sql()[name], f"sqlite:{name}")


def test_python_words_as_names_synthesize_and_agree_with_sqlite():
    tp = typecheck(parse(PYTHON_WORDS))
    # the text constant must be in the checked domain for its guard to be tried
    options = Options(bounds=Bounds(text_domain=("a", PYTHON_WORDS_TEXT)))
    sol = synthesize(tp, options)
    assert isinstance(sol, Solution), sol
    assert sol.sql_text == (
        "SELECT COALESCE(SUM(class.lambda), 0) FROM class "
        "WHERE class.None = 'it''s) #' AND class.lambda > :str"
    )
    assert run_cases(tp, parse_sql(sol.sql_text), seed=5, cases=2000).ok
    _assert_agrees_on_sqlite(tp, sol.sql_text, "sqlite:words", TEXTS + (PYTHON_WORDS_TEXT,))


# --- a renamed output field is selected AS the program's name --------------

RENAMED = {
    "column": (
        "fn f(R: rel(a: int, b: text)) { var out: list(x: int); "
        "for i in 0 .. size(R) { if R[i].a > 1 { out.append({x: R[i].a}); } } return out; }",
        "SELECT R.a AS x FROM R WHERE R.a > 1 ORDER BY R.rid",
    ),
    "star": (
        "fn f(R: rel(a: int), S: rel(a: int)) { var out: list(a: int, c: int); "
        "for i in 0 .. size(R) { for j in 0 .. size(S) { out.append({a: R[i].a, c: S[j].a}); } } "
        "return out; }",
        "SELECT R.a, S.a AS c FROM R, S ORDER BY R.rid, S.rid",
    ),
    "self-join": (
        "fn f(R: rel(a: int)) { var out: list(a: int, c: int); "
        "for i in 0 .. size(R) { for j in 0 .. size(R) { out.append({a: R[i].a, c: R[j].a}); } } "
        "return out; }",
        "SELECT R.a, R2.a AS c FROM R, R R2 ORDER BY R.rid, R2.rid",
    ),
}


@pytest.mark.parametrize("case", sorted(RENAMED))
def test_renamed_fields_carry_as_and_sqlite_names_them(case):
    source, want = RENAMED[case]
    tp = typecheck(parse(source))
    sol = synthesize(tp)
    assert isinstance(sol, Solution), sol
    assert sol.sql_text == want
    query = parse_sql(sol.sql_text)
    assert render(query) == sol.sql_text
    assert run_cases(tp, query, seed=5, cases=200).ok
    _assert_agrees_on_sqlite(tp, sol.sql_text, f"sqlite:renamed:{case}")


def test_the_plan_names_the_output_by_as():
    r = OrderedRelation(Schema((("a", INT),)), ((1,), (2,)))
    db = MiniDb.from_values({"R": r})
    got = eval_sql(parse_sql("SELECT R.a AS x, R.a FROM R ORDER BY R.rid"), db)
    assert got.schema.names == ("x", "a")
    got = eval_sql(parse_sql("SELECT R.a, R2.a, R.a AS c FROM R, R R2 ORDER BY R.rid, R2.rid"), db)
    assert got.schema.names == ("R.a", "R2.a", "c")


# --- LIMIT: MiniDb reads both forms as SQLite does --------------------------


@pytest.mark.parametrize("clamped", [False, True], ids=["bare", "clamped"])
def test_limit_forms_agree_with_sqlite_and_round_trip(clamped):
    rows = ((1, "x"), (3, "y"), (2, "z"))
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE R (rid INTEGER, a INTEGER, b TEXT)")
    conn.executemany("INSERT INTO R VALUES (?, ?, ?)", [(n, *r) for n, r in enumerate(rows)])
    db = MiniDb.from_values({"R": OrderedRelation(Schema((("a", INT), ("b", "text"))), rows)})
    try:
        for k in range(-2, 5):
            for bound, params in ((":k", {"k": k}), (str(k), {})):
                text = "SELECT R.* FROM R ORDER BY R.rid LIMIT " + (
                    f"MAX({bound}, 0)" if clamped else bound
                )
                query = parse_sql(text)
                assert render(query) == text
                want = tuple(r[1:] for r in conn.execute(text, params).fetchall())
                db.params = params
                assert eval_sql(query, db).rows == want, text
    finally:
        conn.close()


# --- MiniDb refuses a query exactly when SQLite does -------------------------

REFUSAL_PROBES = (
    "SELECT R.* FROM R WHERE R.c > 1 ORDER BY R.rid",
    "SELECT MIN(R.c) FROM R",
    "SELECT R.* FROM R WHERE R.a > 9 AND R.c > 1 ORDER BY R.rid",
    "SELECT R.* FROM R WHERE R.a < 9 OR R.c > 1 ORDER BY R.rid",
    "SELECT R.* FROM R WHERE R.a = :k ORDER BY R.rid",
    "SELECT R.c FROM R WHERE R.a > 9 ORDER BY R.rid",
    "SELECT R.b AS x FROM R WHERE R.a > 9 ORDER BY R.rid",
    "SELECT R.* FROM R WHERE R.a > 9 ORDER BY R.rid",
    "SELECT MIN(R.a) FROM R",
    "SELECT R.* FROM R WHERE R.a = :j ORDER BY R.rid",
)


@pytest.mark.parametrize("rows", [(), ((1, "x"), (3, "y"))], ids=["empty", "rows"])
def test_minidb_refuses_a_query_exactly_when_sqlite_does(rows):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE R (rid INTEGER, a INTEGER, b TEXT)")
    conn.executemany("INSERT INTO R VALUES (?, ?, ?)", [(n, *r) for n, r in enumerate(rows)])
    relation = OrderedRelation(Schema((("a", INT), ("b", "text"))), rows)
    db = MiniDb.from_values({"R": relation, "j": 1})
    try:
        for text in REFUSAL_PROBES:
            try:
                conn.execute(text, {"j": 1}).fetchall()
                sqlite_refuses = False
            except sqlite3.Error:
                sqlite_refuses = True
            try:
                eval_sql(parse_sql(text), db)
                minidb_refuses = False
            except KeyError:  # UnknownTable, UnknownColumn, UnknownParam
                minidb_refuses = True
            assert minidb_refuses == sqlite_refuses, text
    finally:
        conn.close()


# --- SQLite keywords as names -----------------------------------------------


def _sqlite_refuses(word: str) -> bool:
    """word as a relation or as a field name makes SQLite refuse the
    emitted query shape (the table itself is made with the name quoted)."""
    probes = (
        (f'CREATE TABLE "{word}" (rid INTEGER, a INTEGER)',
         f"SELECT {word}.* FROM {word} WHERE {word}.a > 1 ORDER BY {word}.rid"),
        (f'CREATE TABLE R (rid INTEGER, "{word}" INTEGER)',
         f"SELECT R.{word} FROM R WHERE R.{word} > 1 ORDER BY R.rid"),
    )
    for create, query in probes:
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(create)
            conn.execute(query)
        except sqlite3.Error:
            return True
        finally:
            conn.close()
    return False


def test_every_listed_sqlite_keyword_fails_the_emitted_shape():
    assert len(SQLITE_RESERVED) == 63
    assert [w for w in sorted(SQLITE_RESERVED) if not _sqlite_refuses(w)] == []
    assert not _sqlite_refuses("R") and not _sqlite_refuses("class")


@pytest.mark.parametrize("where", ["relation", "field"])
def test_a_sqlite_keyword_name_is_a_type_error(where):
    rel, field = ("group", "a") if where == "relation" else ("R", "group")
    src = f"""
fn f({rel}: rel({field}: int)) {{
    var out: list({field}: int);
    for i in 0 .. size({rel}) {{
        if {rel}[i].{field} > 1 {{
            out.append({rel}[i]);
        }}
    }}
    return out;
}}
"""
    with pytest.raises(TypeCheckError, match="reserved in the emitted SQL"):
        typecheck(parse(src))


@pytest.mark.parametrize("field", ["group", "AS", "rid"])
def test_a_reserved_result_field_name_is_a_type_error(field):
    """A result field that renames a column is written AS its name."""
    src = (
        f"fn f(R: rel(a: int)) {{ var out: list({field}: int); for i in 0 .. size(R) "
        f"{{ out.append({{{field}: R[i].a}}); }} return out; }}"
    )
    with pytest.raises(TypeCheckError, match=f"field name '{field}' of 'out' is reserved"):
        typecheck(parse(src))
