"""Seeded case generation and interpreter-vs-SQL comparison."""

from qilc import difftest, emit, interp
from qilc.difftest import DiffResult, SplitMix64, draw_case, replay_case, run_cases
from tests.conftest import load_benchmark

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
