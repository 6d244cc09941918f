"""Seeded case generation and interpreter-vs-SQL comparison."""

import json
from pathlib import Path

import pytest

from qilc import difftest, emit, frontend, interp
from qilc.difftest import DiffResult, SplitMix64, draw_case, replay_case, run_cases
from qilc.relation import INT, OrderedRelation, Schema
from tests.conftest import BENCHMARK_NAMES, load_benchmark

GOLDEN = Path(__file__).parent / "data" / "corpus_bench.json"

# A program beside the corpus: a 3-field relation and a text parameter.
TAGGED = """
fn tagged(R: rel(a: int, b: text, c: int), t: text) {
    var out: list(a: int, b: text, c: int);
    for i in 0 .. size(R) {
        if R[i].b == t {
            out.append(R[i]);
        }
    }
    return out;
}
"""
TAGGED_SQL = "SELECT R.* FROM R WHERE R.b = :t ORDER BY R.rid"

# Wrong queries, each planned: the planned path flags the cases that
# disagree, and the reference path builds their mismatches.
SEEDED_WRONG = (
    ("selection", "SELECT R.* FROM R WHERE R.a > 1 ORDER BY R.rid"),
    ("equi_join", "SELECT R.v, S.w FROM S, R WHERE R.k = S.k ORDER BY S.rid, R.rid"),
    ("top_k", "SELECT R.* FROM R ORDER BY R.rid LIMIT 2"),
    ("tagged", "SELECT R.* FROM R WHERE R.b <> :t ORDER BY R.rid"),
)
# Wrong queries that cannot be planned: a scalar against records, records
# against a scalar, and result column types that differ.
UNPLANNED_WRONG = (
    ("identity", "SELECT COUNT(*) FROM R"),
    ("sum", "SELECT R.a FROM R ORDER BY R.rid"),
    ("projection", "SELECT R.a FROM R ORDER BY R.rid"),
)


def _program(name: str):
    if name == "tagged":
        return frontend.typecheck(frontend.parse(TAGGED))
    return load_benchmark(name)


def _corpus_sql() -> dict:
    """Each corpus program's synthesized SQL, as the golden report pins it."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {b["programName"]: b["solution"]["sql"] for b in data["benchmarks"]}


def _reference_run(tp, sql, seed: int, cases: int) -> DiffResult:
    """run_cases as a loop of reference cases."""
    gen = SplitMix64(seed)
    mismatches = []
    for case in range(cases):
        m = difftest._run_one(tp, sql, draw_case(gen, tp), case)
        if m is not None:
            mismatches.append(m)
    return DiffResult(seed, cases, tuple(mismatches))


def _transcribed_case(gen: SplitMix64, tp) -> dict:
    """One case, drawn as the Random stream section of docs/formats.md
    lists the draws."""
    alphabet = ("a", "b", "c")
    inputs = {}
    for p in tp.ast.params:
        if isinstance(p.ty, Schema):
            rows = []
            for _ in range(gen.next() % 6):
                row = []
                for ty in p.ty.types:
                    if ty == INT:
                        row.append(gen.next() % 5)
                    else:
                        row.append(alphabet[gen.next() % 3])
                rows.append(tuple(row))
            inputs[p.name] = OrderedRelation(p.ty, tuple(rows))
        elif p.ty == INT:
            inputs[p.name] = gen.next() % 5
        else:
            inputs[p.name] = alphabet[gen.next() % 3]
    return inputs

# Reference outputs of the splitmix64 algorithm for seed 0, frozen from the
# published constants before this implementation produced them.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_splitmix64_reference_stream():
    gen = SplitMix64(0)
    assert tuple(gen.next() for _ in range(5)) == SPLITMIX64_SEED0


def test_splitmix64_seed_masking():
    # seeds are taken mod 2^64, so an overflowing seed aliases
    assert SplitMix64(1 << 64).next() == SplitMix64(0).next()


def test_draw_case_bounds_and_determinism():
    tp = load_benchmark("top_k")
    a = draw_case(SplitMix64(42), tp)
    b = draw_case(SplitMix64(42), tp)
    assert a == b
    for _ in range(200):
        gen = SplitMix64(_)
        case = draw_case(gen, tp)
        r = case["R"]
        assert 0 <= r.size <= 5
        for row in r.rows:
            assert 0 <= row[0] <= 4
            assert row[1] in difftest.ALPHABET
        assert 0 <= case["k"] <= 4


def test_draw_order_follows_declaration_order():
    # drawing R consumes (1 + per-row) draws, then k is drawn; replaying
    # the stream by hand must reproduce the bindings
    tp = load_benchmark("top_k")
    gen = SplitMix64(7)
    case = draw_case(gen, tp)
    replayed = SplitMix64(7)
    size = replayed.next() % 6
    rows = []
    for _ in range(size):
        a = replayed.next() % 5
        b = difftest.ALPHABET[replayed.next() % 3]
        rows.append((a, b))
    k = replayed.next() % 5
    assert case["R"].rows == tuple(rows)
    assert case["k"] == k


def test_run_cases_all_pass_on_correct_sql():
    tp = load_benchmark("selection")
    sql = emit.parse_sql("SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid")
    res = run_cases(tp, sql, seed=20260816, cases=300)
    assert isinstance(res, DiffResult)
    assert res.ok and res.cases == 300 and res.mismatches == ()
    assert res.first_mismatch is None


def test_run_cases_catches_boundary_mutation():
    tp = load_benchmark("selection")
    mutated = emit.parse_sql("SELECT R.* FROM R WHERE R.a > 1 ORDER BY R.rid")
    res = run_cases(tp, mutated, seed=20260816, cases=300)
    assert not res.ok
    first = res.mismatches[0]
    # any case whose input holds a row with a = 2 separates the two queries
    assert any(row[0] == 2 for row in first.inputs["R"].rows)
    assert first.program.rows != first.query.rows


def test_run_cases_catches_order_mutation():
    # swapping the join sides preserves the multiset of rows but not the
    # order; the comparison is positional so it must flag this
    tp = load_benchmark("equi_join")
    swapped = emit.parse_sql(
        "SELECT R.v, S.w FROM S, R WHERE R.k = S.k ORDER BY S.rid, R.rid"
    )
    res = run_cases(tp, swapped, seed=20260816, cases=300)
    assert not res.ok
    first = res.mismatches[0]
    assert sorted(first.program.rows) == sorted(first.query.rows)
    assert first.program.rows != first.query.rows


def test_replay_reproduces_run_mismatch():
    tp = load_benchmark("selection")
    mutated = emit.parse_sql("SELECT R.* FROM R WHERE R.a > 1 ORDER BY R.rid")
    res = run_cases(tp, mutated, seed=20260816, cases=300)
    first = res.mismatches[0]
    again = replay_case(tp, mutated, seed=20260816, case=first.case)
    assert again == first
    # cases before the first mismatch replay clean
    if first.case > 0:
        assert replay_case(tp, mutated, seed=20260816, case=0) is None


def test_same_seed_same_result_different_seed_different_cases():
    tp = load_benchmark("sum")
    sql = emit.parse_sql("SELECT COALESCE(SUM(R.a), 0) FROM R")
    a = run_cases(tp, sql, seed=1, cases=50)
    b = run_cases(tp, sql, seed=1, cases=50)
    assert a == b
    x = draw_case(SplitMix64(1), tp)
    y = draw_case(SplitMix64(2), tp)
    assert x != y


def test_mismatch_json_shape():
    tp = load_benchmark("sum")
    wrong = emit.parse_sql("SELECT COUNT(*) FROM R")
    res = run_cases(tp, wrong, seed=3, cases=50)
    assert not res.ok
    data = res.mismatches[0].to_json()
    assert set(data) == {"case", "inputs", "program", "query"}
    assert isinstance(data["case"], int)
    assert "R" in data["inputs"]


def test_program_and_query_compiled_once_per_run(monkeypatch):
    tp = load_benchmark("select_project")
    sql = emit.parse_sql("SELECT R.b FROM R WHERE R.a > 1 ORDER BY R.rid")
    built = {"executor": 0, "plan": 0}

    class CountedExecutor(interp.Executor):
        def __init__(self, prog):
            built["executor"] += 1
            super().__init__(prog)

    class CountedPlan(emit._Plan):
        def __init__(self, q, schemas):
            built["plan"] += 1
            super().__init__(q, schemas)

    monkeypatch.setattr(interp, "Executor", CountedExecutor)
    monkeypatch.setattr(emit, "_Plan", CountedPlan)
    result = run_cases(tp, sql, seed=7, cases=200)
    assert result.cases == 200 and result.ok
    assert built == {"executor": 1, "plan": 1}


@pytest.mark.parametrize("name", BENCHMARK_NAMES + ["tagged"])
def test_draw_case_follows_the_documented_stream(name):
    tp = _program(name)
    gen, written = SplitMix64(99), SplitMix64(99)
    for _ in range(2000):
        assert draw_case(gen, tp) == _transcribed_case(written, tp)
        assert gen.state == written.state


def _counting_reference_cases(monkeypatch) -> list:
    calls = []
    run_one = difftest._run_one

    def counted(tp, sql, inputs, case):
        calls.append(case)
        return run_one(tp, sql, inputs, case)

    monkeypatch.setattr(difftest, "_run_one", counted)
    return calls


def test_planned_run_matches_reference_on_corpus_solutions(monkeypatch):
    corpus = _corpus_sql()
    runs = [(name, corpus[name]) for name in BENCHMARK_NAMES] + [("tagged", TAGGED_SQL)]
    calls = _counting_reference_cases(monkeypatch)
    for name, text in runs:
        tp, sql = _program(name), emit.parse_sql(text)
        assert difftest._planned(tp, sql) is not None, name
        planned = run_cases(tp, sql, seed=11, cases=300)
        assert calls == [], name  # every case agreed on the planned path
        assert planned == _reference_run(tp, sql, seed=11, cases=300) and planned.ok
        calls.clear()


@pytest.mark.parametrize("name,text", SEEDED_WRONG + UNPLANNED_WRONG)
def test_planned_run_matches_reference_on_wrong_queries(name, text, monkeypatch):
    tp, sql = _program(name), emit.parse_sql(text)
    reference = _reference_run(tp, sql, seed=11, cases=300)
    calls = _counting_reference_cases(monkeypatch)
    result = run_cases(tp, sql, seed=11, cases=300)
    assert result == reference and not result.ok
    assert [m.to_json() for m in result.mismatches] == [
        m.to_json() for m in reference.mismatches
    ]
    if (name, text) in SEEDED_WRONG:
        # only the cases that disagree take the reference path
        assert calls == [m.case for m in result.mismatches] and len(calls) < 300
    else:
        assert difftest._planned(tp, sql) is None and len(calls) == 300


@pytest.mark.parametrize(
    "name,text,error",
    [
        ("selection", "SELECT T.* FROM T ORDER BY T.rid", emit.UnknownTable),
        ("top_k", "SELECT R.* FROM R ORDER BY R.rid LIMIT :n", emit.UnknownParam),
        ("selection", "SELECT R.* FROM R WHERE R.z = 1 ORDER BY R.rid", emit.UnknownColumn),
        ("selection", "SELECT R.z FROM R ORDER BY R.rid", emit.UnknownColumn),
    ],
)
def test_planned_run_raises_what_the_reference_raises(name, text, error):
    tp, sql = _program(name), emit.parse_sql(text)
    with pytest.raises(error) as reference:
        _reference_run(tp, sql, seed=11, cases=300)
    with pytest.raises(error) as planned:
        run_cases(tp, sql, seed=11, cases=300)
    assert planned.value.args == reference.value.args


@pytest.mark.parametrize("name,text", SEEDED_WRONG + UNPLANNED_WRONG)
def test_replay_agrees_with_run_cases_on_every_mismatch(name, text):
    tp, sql = _program(name), emit.parse_sql(text)
    result = run_cases(tp, sql, seed=5, cases=150)
    assert result.mismatches
    for m in result.mismatches:
        again = replay_case(tp, sql, seed=5, case=m.case)
        assert again == m and again.to_json() == m.to_json()
