"""Seeded case generation and interpreter-vs-SQL comparison."""

import itertools
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from qilc import benchmarks_dir, difftest, emit, frontend, interp
from qilc.difftest import DiffResult, SplitMix64, draw_case, replay_case, run_cases
from qilc.relation import INT, TEXT, OrderedRelation, Schema
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
    # disagrees on the one-row inputs with a = 2, which repeat
    ("selection", "SELECT R.* FROM R WHERE R.a >= 2 ORDER BY R.rid"),
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


class _ScalarSplitMix64:
    """The recurrence as docs/formats.md writes it, one output at a time."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 1 << 64])
def test_block_stream_follows_the_scalar_recurrence(seed):
    gen, scalar = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert gen.state == scalar.state
    total = 3 * difftest.BLOCK + 7
    steps = itertools.cycle((None, 0, 1, 5, None, 511, 600, None, 1))  # None: next()
    drawn = 0
    while drawn < total:
        n = next(steps)
        if n is None:
            assert gen.next() == scalar.next()
            drawn += 1
        else:
            n = min(n, total - drawn)
            assert gen.take(n) == [scalar.next() for _ in range(n)]
            drawn += n
        assert gen.state == scalar.state


# --- the packed residues the block reader maps to cells ---------------------


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345])
def test_key_tables_give_the_documented_draw_of_every_output(seed):
    keyed, taken = SplitMix64(seed), SplitMix64(seed)
    taken.next()
    keyed.next()  # keys continues from a partly read block
    for _ in range(4):
        keys, xs = keyed.keys(), taken.take(difftest.BLOCK)
        assert keyed.state == taken.state
        assert list(keys.translate(difftest._TABLES[difftest._SIZE])) == [x % 6 for x in xs]
        assert list(keys.translate(difftest._TABLES[INT])) == [x % 5 for x in xs]
        text = keys.translate(difftest._TABLES[TEXT]).decode("ascii")
        assert text == "".join("abc"[x % 3] for x in xs)
    assert keyed.next() == taken.next()


def _uncached_keys(gen: SplitMix64) -> tuple:
    """keys() without the block memo: the key bytes and the state after."""
    start = gen.state
    after = (start + difftest.BLOCK * 0x9E3779B97F4A7C15) % 2**64
    return difftest._residues(difftest._mix(start)), after


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_memoized_keys_equal_the_uncached_block_at_any_state(seed):
    for cold in (True, False):
        if cold:
            difftest._block_keys.cache_clear()
        gen = SplitMix64(seed)
        # aligned (the seed, then a block on), then unaligned after next()
        # and after take(n)
        for step in (None, None, gen.next, lambda: gen.take(700), lambda: gen.take(3)):
            if step is not None:
                step()
            keys, after = _uncached_keys(gen)
            assert gen.keys() == keys
            assert gen.state == after
        assert gen.next() == SplitMix64(after).next()


def test_block_memo_holds_at_most_its_bound():
    difftest._block_keys.cache_clear()
    gen = SplitMix64(5)
    for _ in range(difftest.KEY_BLOCKS + 3):
        gen.keys()
    info = difftest._block_keys.cache_info()
    assert info.misses == difftest.KEY_BLOCKS + 3
    assert info.currsize == difftest.KEY_BLOCKS
    difftest._block_keys.cache_clear()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345])
def test_keys_are_each_output_mod_30_at_aligned_and_unaligned_states(seed):
    keyed, taken = SplitMix64(seed), SplitMix64(seed)
    for step in (0, 0, 1, 700, 3):  # outputs read by next() before keys()
        for gen in (keyed, taken):
            gen.take(step)
        assert keyed.keys() == bytes(x % 30 for x in taken.take(difftest.BLOCK))
        assert keyed.state == taken.state


def test_residues_give_each_lane_mod_30_at_the_extremes():
    edges = (0, 2**64 - 1, 0xF0F0F0F0F0F0F0F0, 0x0F0F0F0F0F0F0F0F, 1, 15, 2**64 - 16)
    words = [edges[k % len(edges)] for k in range(difftest.BLOCK)]
    lanes = int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")
    assert list(difftest._residues(lanes)) == [w % 30 for w in words]


def test_a_mapping_that_reads_more_than_x_mod_30_is_refused():
    for draw in difftest._DRAW.values():  # their tables were built at import
        assert all(draw(x) == draw(x % 30) for x in (2**64 - 1, 12345, 0xF0F0F0F0F0F0F0F0))
    table = difftest._table(lambda x: x % 10)
    assert [table[x % 30] for x in range(60)] == [x % 10 for x in range(60)]
    with pytest.raises(ValueError):
        difftest._table(lambda x: x % 7)  # 7 does not divide 30
    with pytest.raises(ValueError):
        difftest._table(lambda x: "abcd"[x % 4])


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
    with pytest.raises(ValueError, match="at least 0"):
        replay_case(tp, mutated, seed=20260816, case=-1)


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


def _input_key(inputs: dict) -> tuple:
    return tuple(v.rows if isinstance(v, OrderedRelation) else v for v in inputs.values())


@pytest.mark.parametrize("name,text", SEEDED_WRONG + UNPLANNED_WRONG)
def test_planned_run_matches_reference_on_wrong_queries(name, text, monkeypatch):
    tp, sql = _program(name), emit.parse_sql(text)
    for cases in (300, 2000):
        reference = _reference_run(tp, sql, seed=11, cases=cases)
        calls = _counting_reference_cases(monkeypatch)
        result = run_cases(tp, sql, seed=11, cases=cases)
        assert result == reference and not result.ok
        assert [m.to_json() for m in result.mismatches] == [
            m.to_json() for m in reference.mismatches
        ]
        if (name, text) in SEEDED_WRONG:
            # only the cases that disagree take the reference path
            assert calls == [m.case for m in result.mismatches] and len(calls) < cases
        else:
            assert difftest._planned(tp, sql) is None and len(calls) == cases
        monkeypatch.undo()


def _assert_run_is_reference(tp, sql) -> None:
    result = run_cases(tp, sql, seed=11, cases=2000)
    reference = _reference_run(tp, sql, seed=11, cases=2000)
    assert result == reference
    assert [m.to_json() for m in result.mismatches] == [
        m.to_json() for m in reference.mismatches
    ]


def test_a_case_loop_is_not_reused_for_another_from_order_or_scalar_name():
    """The case loop is compiled once per case shape: the parameter types,
    the FROM tables' parameter positions and the scalar parameters' names.
    Runs back to back that differ only in FROM order, or only in a scalar's
    name, each get their own loop."""
    equi_join = load_benchmark("equi_join")
    _assert_run_is_reference(equi_join, emit.parse_sql(_corpus_sql()["equi_join"]))
    _assert_run_is_reference(equi_join, emit.parse_sql(dict(SEEDED_WRONG)["equi_join"]))
    top_k = _corpus_sql()["top_k"]
    _assert_run_is_reference(load_benchmark("top_k"), emit.parse_sql(top_k))
    source = (benchmarks_dir() / "top_k.qil").read_text(encoding="utf-8")
    renamed = frontend.typecheck(frontend.parse(re.sub(r"\bk\b", "n", source)))
    assert [p.name for p in renamed.ast.params] == ["R", "n"]
    _assert_run_is_reference(renamed, emit.parse_sql(top_k.replace(":k", ":n")))


def test_a_repeated_disagreeing_input_is_reported_at_each_index():
    tp = load_benchmark("selection")
    sql = emit.parse_sql("SELECT R.* FROM R WHERE R.a >= 2 ORDER BY R.rid")
    result = run_cases(tp, sql, seed=11, cases=2000)
    cases = {}
    for m in result.mismatches:
        if m.inputs["R"].size <= difftest.SMALL_ROWS:
            cases.setdefault(_input_key(m.inputs), []).append(m.case)
    repeated = [c for c in cases.values() if len(c) > 1]
    assert repeated and all(len(set(c)) == len(c) for c in repeated)


def test_planned_check_runs_once_per_small_input(monkeypatch):
    tp = load_benchmark("selection")
    sql = emit.parse_sql(_corpus_sql()["selection"])
    calls = []
    ex = interp.executor(tp)
    run = ex.run

    def counted(*values):
        calls.append(values)
        return run(*values)

    # the planned check calls the compiled program once per case it checks
    monkeypatch.setattr(ex, "run", counted)
    assert run_cases(tp, sql, seed=11, cases=10_000).ok
    gen = SplitMix64(11)
    small, large = set(), 0
    for _ in range(10_000):
        inputs = draw_case(gen, tp)
        if inputs["R"].size <= difftest.SMALL_ROWS:
            small.add(_input_key(inputs))
        else:
            large += 1
    assert len(calls) == len(small) + large < 10_000


@pytest.mark.parametrize("name", ["equi_join", "top_k"])
def test_small_input_memo_stays_small(name):
    tp = load_benchmark(name)
    sql = emit.parse_sql(_corpus_sql()[name])
    tracemalloc.start()
    try:
        assert run_cases(tp, sql, seed=11, cases=10_000).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# Programs beside the corpus for the block reader: an all-text relation, an
# int scalar between two relations, an arity-5 relation and a text scalar;
# a text scalar ahead of an arity-5 int relation; and a relation so wide
# that one case can use more outputs than one stream block holds.
MIXED = """
fn mixed(R: rel(a: text, b: text), k: int,
         S: rel(a: int, b: text, c: int, d: int, e: text), t: text) {
    var out: list(a: text, b: text);
    for i in 0 .. size(R) {
        if R[i].a == t {
            out.append(R[i]);
        }
    }
    return out;
}
"""
WIDE5 = """
fn wide5(t: text, W: rel(a: int, b: int, c: int, d: int, e: int)) {
    var n: int = 0;
    for i in 0 .. size(W) {
        n = n + W[i].e;
    }
    return n;
}
"""
VERY_WIDE_FIELDS = difftest.BLOCK // 5 + 1
VERY_WIDE = (
    "fn very_wide(k: int, V: rel("
    + ", ".join(f"f{j}: {'text' if j % 7 == 3 else 'int'}" for j in range(VERY_WIDE_FIELDS))
    + """)) {
    var n: int = 0;
    for i in 0 .. size(V) {
        n = n + V[i].f0;
    }
    return n;
}
"""
)
STREAM_SEEDS = [0, 1, 2**64 - 1, 1 << 64]


def _drawn_values(gen: SplitMix64, tp) -> tuple:
    """draw_case's values in declaration order, a relation as its rows."""
    return tuple(
        v.rows if isinstance(v, OrderedRelation) else v for v in draw_case(gen, tp).values()
    )


def _assert_reader_follows_draw_case(tp, seed: int, cases: int) -> None:
    gen, drawn = SplitMix64(seed), SplitMix64(seed)
    read = difftest._case_values(gen, tp)
    for case in range(cases):
        assert next(read) == _drawn_values(drawn, tp), case


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_block_reader_yields_draw_case_values_on_the_corpus(name, seed):
    _assert_reader_follows_draw_case(load_benchmark(name), seed, 3000)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("text,cases", [(MIXED, 3000), (WIDE5, 3000), (VERY_WIDE, 60)],
                         ids=["mixed", "wide5", "very-wide"])
def test_block_reader_yields_draw_case_values_on_every_parameter_kind(text, cases, seed):
    tp = frontend.typecheck(frontend.parse(text))
    _assert_reader_follows_draw_case(tp, seed, cases)


def _outputs(tp, values: tuple) -> int:
    """How many stream outputs a case's values took."""
    return sum(
        1 + len(v) * len(p.ty.types) if isinstance(p.ty, Schema) else 1
        for p, v in zip(tp.ast.params, values)
    )


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("text,cases", [(None, 400), (MIXED, 120), (VERY_WIDE, 40)],
                         ids=["sum", "mixed", "very-wide"])
def test_replay_start_yields_the_readers_nth_case(text, cases, seed):
    tp = load_benchmark("sum") if text is None else frontend.typecheck(frontend.parse(text))
    read = list(itertools.islice(difftest._case_values(SplitMix64(seed), tp), cases))
    ends = list(itertools.accumulate(_outputs(tp, v) for v in read))
    # some case spans a block edge, and so do the cases read after a window
    assert any(end % difftest.BLOCK < _outputs(tp, v) for end, v in zip(ends, read))
    for n in range(cases):
        assert next(difftest._case_values(SplitMix64(seed), tp, n)) == read[n], n


@pytest.mark.parametrize("name", ["selection", "equi_join"])
def test_planned_run_builds_no_relation_objects(name, monkeypatch):
    """A clean planned run draws and checks every case as raw values: it
    neither builds an OrderedRelation nor calls draw_case. A short run and
    a replay read their cases through the same block reader, so they do not
    call draw_case either."""
    tp = load_benchmark(name)
    sql = emit.parse_sql(_corpus_sql()[name])
    built = {"init": 0, "trusted": 0, "draw_case": 0}
    init, trusted, draw = OrderedRelation.__init__, OrderedRelation.trusted.__func__, draw_case

    def counted_init(self, schema, rows):
        built["init"] += 1
        init(self, schema, rows)

    def counted_trusted(cls, schema, rows):
        built["trusted"] += 1
        return trusted(cls, schema, rows)

    def counted_draw(gen, tp):
        built["draw_case"] += 1
        return draw(gen, tp)

    monkeypatch.setattr(OrderedRelation, "__init__", counted_init)
    monkeypatch.setattr(OrderedRelation, "trusted", classmethod(counted_trusted))
    monkeypatch.setattr(difftest, "draw_case", counted_draw)
    assert run_cases(tp, sql, seed=11, cases=10_000).ok
    assert built == {"init": 0, "trusted": 0, "draw_case": 0}
    assert run_cases(tp, sql, seed=11, cases=difftest.REFERENCE_MAX_CASES).ok
    assert replay_case(tp, sql, seed=11, case=2999) is None
    assert built["trusted"] > 0 and built["draw_case"] == 0
