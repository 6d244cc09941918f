"""Acceptance suite.

One test per criterion, so `pytest -v` prints one pass/fail line each:

  1  every bundled benchmark synthesizes under the default configuration
  2  1000-case differential test per benchmark, zero mismatches
  3  ordered-relation axioms A1-A7, exhaustive at the stated bounds
  4  emission oracle: eval_sql(to_sql(e)) = eval_rel(e) for every
     translatable expression to depth 4 over a two-table vocabulary,
     on every database with tables of size <= 3 over domain 0..2
  5  twenty hand-mutated candidates, each rejected with a replayable
     counterexample
  6  byte-identical reports across reruns and across --jobs 1 vs 8
  7  empty-input boundary for the aggregate benchmarks

Synthesis results are shared through a module-scoped fixture so the
corpus is synthesized once and reused by criteria 1, 2, and 7.
"""

import itertools
import json
import time

import pytest

from qilc import axioms, cli, difftest, emit, interp, synth, tor, verify
from qilc.relation import INT, OrderedRelation, Schema, values_agree

from conftest import BENCHMARK_NAMES, load_benchmark

TIME_BUDGET = 120.0  # seconds per benchmark
AGG_BENCHMARKS = ("sum", "count", "max_value", "min_value")


@pytest.fixture(scope="module")
def corpus():
    """name -> (typed program, synthesis outcome, wall seconds)."""
    results = {}
    for name in BENCHMARK_NAMES:
        tp = load_benchmark(name)
        started = time.monotonic()
        outcome = synth.synthesize(tp, synth.Options())
        results[name] = (tp, outcome, time.monotonic() - started)
    return results


def test_criterion_1_corpus_synthesis(corpus):
    """All 12 benchmarks synthesize under the default configuration,
    each within the time budget."""
    assert len(corpus) == 12
    for name, (tp, outcome, elapsed) in corpus.items():
        assert isinstance(outcome, synth.Solution), f"{name}: {outcome}"
        assert outcome.sql_text, name
        assert elapsed < TIME_BUDGET, f"{name} took {elapsed:.1f}s"


def test_criterion_2_differential_equivalence(corpus):
    """1000 seeded cases per synthesized benchmark (relation sizes <= 5,
    int domain 0..4), zero order-sensitive mismatches."""
    for name, (tp, outcome, _) in corpus.items():
        res = difftest.run_cases(
            tp, emit.parse_sql(outcome.sql_text), seed=cli.DEFAULT_SEED, cases=1000
        )
        assert res.cases == 1000
        assert res.ok, f"{name}: case {res.first_mismatch} mismatched"


def test_criterion_3_axiom_suite():
    """A1-A7 hold exhaustively: relations to size 3, ints {0,1,2}, text
    {a,b}; the left-major law A7 additionally at size 4. The checked
    counts are pinned so the sweep cannot silently shrink."""
    results = axioms.check_all(verify.Bounds())
    checked = {name: n for name, (n, _) in results.items()}
    assert checked == {
        "A1": 138,
        "A2": 1600,
        "A3": 6400,
        "A4": 25900,
        "A5": 5180,
        "A6": 120,
        "A7": 14641,
    }
    for name, (_, violations) in results.items():
        assert violations == [], f"{name}: {violations[:2]}"


# --- criterion 4: emission oracle -----------------------------------------
#
# Vocabulary: tables R(a: int) and S(b: int). Wrappers on single-table
# expressions use one selection atom per comparison operator (constants
# cycled through the domain); join-rooted wrappers use a lean atom set,
# since those expressions quantify over all 1600 database pairs. Joins
# take bare tables (self-joins included) with predicates {true, =, <} on
# the side fields. Aggregates close the space over every body to depth 3.

C4_VOCAB = {"R": Schema((("a", INT),)), "S": Schema((("b", INT),))}
C4_BOUNDS = verify.Bounds(rel_size=3, int_domain=(0, 1, 2))
C4_TABLES = ("R", "S")
C4_SINGLE_ATOMS = (("=", 0), ("!=", 1), ("<", 2), ("<=", 0), (">", 1), (">=", 2))
C4_JOINED_ATOMS = ((">", 1),)
C4_JOIN_PRED_OPS = ("=", "<")
C4_TOPS = (0, 2)

# frozen space: enumerated expressions, translatable ones, rejected
# compositions, and expression-database pairs checked
C4_EXPRS = 3832
C4_TRANSLATABLE = 2864
C4_REJECTED = 968
C4_PAIRS = 1088000


def _c4_wraps(e, rich):
    sch = tor.schema_of(e, C4_VOCAB)
    atoms = C4_SINGLE_ATOMS if rich else C4_JOINED_ATOMS
    for f in sch.names:
        for op, c in atoms:
            yield tor.Sel(tor.CmpAtom(op, tor.FieldRef(f), tor.IntConst(c)), e)
    for r in range(1, len(sch.names) + 1):
        for fs in itertools.permutations(sch.names, r):
            yield tor.Proj(fs, e)
    for k in C4_TOPS:
        yield tor.Top(e, tor.IntConst(k))


def _c4_closure(seed, depths):
    exprs = list(seed)
    frontier = list(seed)
    for depth in depths:
        nxt = [
            (w, tabs, depth, rich)
            for e, tabs, d, rich in frontier
            if d == depth - 1
            for w in _c4_wraps(e, rich)
        ]
        exprs.extend(nxt)
        frontier.extend(nxt)
    return exprs


def _c4_exprs():
    """Every vocabulary expression of depth <= 4, as (expr, tables)."""
    singles = _c4_closure(
        [(tor.Query(t), (t,), 1, True) for t in C4_TABLES], (2, 3, 4)
    )
    joins = []
    for lt, rt in itertools.product(C4_TABLES, C4_TABLES):
        lf = tor.FieldRef(f"l.{C4_VOCAB[lt].names[0]}")
        rf = tor.FieldRef(f"r.{C4_VOCAB[rt].names[0]}")
        preds = [tor.TruePred()]
        preds += [tor.CmpAtom(op, lf, rf) for op in C4_JOIN_PRED_OPS]
        tabs = (lt,) if lt == rt else (lt, rt)
        for p in preds:
            joins.append((tor.Join(tor.Query(lt), tor.Query(rt), p), tabs, 2, False))
    exprs = singles + _c4_closure(joins, (3, 4))
    aggs = []
    for e, tabs, d, rich in exprs:
        if d > 3:
            continue
        sch = tor.schema_of(e, C4_VOCAB)
        for f in sch.names:
            for kind in ("sum", "min", "max"):
                aggs.append((tor.AggOf(kind, f, e), tabs, d + 1, rich))
        aggs.append((tor.AggOf("count", None, e), tabs, d + 1, rich))
    return [(e, tabs) for e, tabs, _, _ in exprs + aggs]


def test_criterion_4_emission_oracle():
    """Order-sensitive agreement of the mini engine with the algebra over
    the whole translatable depth-4 space; rendered text re-parses to the
    same query along the way."""
    exprs = _c4_exprs()
    assert len(exprs) == C4_EXPRS
    rels = {t: verify.relation_values(C4_VOCAB[t], C4_BOUNDS) for t in C4_TABLES}
    assert all(len(v) == 40 for v in rels.values())

    env_cache = {}

    def envs_for(tabs):
        if tabs not in env_cache:
            env_cache[tabs] = [
                (env, emit.MiniDb.from_values(env))
                for combo in itertools.product(*(rels[t] for t in tabs))
                for env in (dict(zip(tabs, combo)),)
            ]
        return env_cache[tabs]

    translatable = rejected = pairs = 0
    violations = []
    for e, tabs in exprs:
        try:
            q = emit.to_sql(e, C4_VOCAB)
        except emit.NotTranslatable:
            rejected += 1
            continue
        translatable += 1
        assert emit.parse_sql(emit.render(q)) == q
        ev = axioms.eval_scalar if isinstance(e, tor.AggOf) else axioms.eval_rel
        for env, db in envs_for(tabs):
            pairs += 1
            if not values_agree(ev(e, env), emit.eval_sql(q, db)):
                violations.append((tor.to_sexpr(e), env))
    assert translatable == C4_TRANSLATABLE
    assert rejected == C4_REJECTED
    assert pairs == C4_PAIRS
    assert violations == []


# --- criterion 5: verifier mutation kill -----------------------------------
#
# Twenty wrong candidates, each a small mutation of a correct solution:
# comparison direction, boundary constant, dropped conjunct, wrong
# projected field or order, wrong aggregate kind, swapped join order,
# constant prefix bound, and two invariant-level mutations (off-by-one
# prefix index; swapped concatenation order). Most take the invariants
# derive_invariants produces; the swapped-join and invariant-level
# mutants spell theirs out by hand, since the derived shape assumes the
# loop structure the mutation breaks.


def _q(rel):
    return tor.Query(rel)


def _cmp(op, field, value):
    rhs = tor.IntConst(value) if isinstance(value, int) else tor.FieldRef(value)
    return tor.CmpAtom(op, tor.FieldRef(field), rhs)


_EQ_JOIN = tor.Join(_q("R"), _q("S"), _cmp("=", "l.k", "r.k"))

# (benchmark, output variable, mutated postcondition)
C5_POST_MUTANTS = [
    ("selection", "out", tor.Sel(_cmp("<", "a", 2), _q("R"))),
    ("selection", "out", tor.Sel(_cmp(">", "a", 1), _q("R"))),
    ("selection", "out", _q("R")),
    ("projection", "out", tor.Proj(("a",), _q("R"))),
    ("sum", "s", tor.AggOf("count", None, _q("R"))),
    ("sum", "s", tor.AggOf("max", "a", _q("R"))),
    ("count", "c", tor.AggOf("sum", "a", _q("R"))),
    ("max_value", "m", tor.AggOf("min", "a", _q("R"))),
    ("min_value", "m", tor.AggOf("max", "a", _q("R"))),
    ("equi_join", "out", tor.Proj(("l.v", "r.w"), tor.Join(_q("R"), _q("S"), _cmp("=", "l.k", "r.w")))),
    ("equi_join", "out", tor.Proj(("l.v", "r.w"), tor.Join(_q("R"), _q("S"), tor.TruePred()))),
    ("equi_join", "out", tor.Proj(("r.w", "l.v"), _EQ_JOIN)),
    ("equi_join", "out", tor.Proj(("l.k", "r.w"), _EQ_JOIN)),
    ("join_select_project", "out", tor.Proj(("r.w",), _EQ_JOIN)),
    ("join_select_project", "out", tor.Proj(("r.w",), tor.Sel(_cmp(">", "l.v", 1), _EQ_JOIN))),
    ("join_select_project", "out", tor.Proj(("r.w",), tor.Sel(_cmp("<", "r.w", 1), _EQ_JOIN))),
    ("top_k", "out", tor.Top(_q("R"), tor.IntConst(2))),
]


def _killed(tp, cand, inv):
    """validate rejects, and the counterexample replays after a JSON
    round trip."""
    res = verify.validate(tp, cand, inv)
    if res.status != verify.VIOLATED:
        return False
    cex = verify.counterexample_from_json(
        json.loads(json.dumps(res.counterexample.to_json()))
    )
    return verify.recheck(tp, cand, inv, cex)


def test_criterion_5_mutation_kill():
    escapes = []
    for i, (name, var, post) in enumerate(C5_POST_MUTANTS):
        tp = load_benchmark(name)
        cand = synth.Candidate(((var, post),), tor.cost(post))
        inv = synth.derive_invariants(tp, cand)
        if not _killed(tp, cand, inv):
            escapes.append((i, name, tor.to_sexpr(post)))

    # swapped join order: S-major where the program builds R-major. The
    # rows agree as a multiset, so only order sensitivity kills it. The
    # invariants mirror the derived shape with the operand roles
    # reversed, because here the outer loop traverses the right operand.
    tp = load_benchmark("equi_join")
    pred = _cmp("=", "l.k", "r.k")
    fields = ("r.v", "l.w")
    post = tor.Proj(fields, tor.Join(_q("S"), _q("R"), pred))
    cand = synth.Candidate((("out", post),), tor.cost(post))
    part1 = tor.Proj(
        fields, tor.Join(_q("S"), tor.Top(_q("R"), tor.IndexRef("i")), pred)
    )
    row_i = tor.AppendRow(
        tor.EmptyRel(tp.relations["R"]), tor.GetRow(_q("R"), tor.IndexRef("i"))
    )
    part2 = tor.Proj(
        fields, tor.Join(tor.Top(_q("S"), tor.IndexRef("j")), row_i, pred)
    )
    inv = {"i": (("out", part1),), "j": (("out", tor.Concat(part1, part2)),)}
    if not _killed(tp, cand, inv):
        escapes.append((17, "equi_join", "swapped join order"))

    # off-by-one prefix index in the top_k invariant, correct post
    tp = load_benchmark("top_k")
    post = tor.Top(_q("R"), tor.ParamRef("k"))
    cand = synth.Candidate((("out", post),), tor.cost(post))
    inv = {
        "i": (
            (
                "out",
                tor.Top(
                    tor.Top(_q("R"), tor.IndexRef("i", +1)), tor.ParamRef("k")
                ),
            ),
        )
    }
    if not _killed(tp, cand, inv):
        escapes.append((18, "top_k", "invariant off-by-one"))

    # swapped concatenation order in the cross_join inner invariant
    tp = load_benchmark("cross_join")
    post = tor.Proj(("l.a", "r.b"), tor.Join(_q("R"), _q("S"), tor.TruePred()))
    cand = synth.Candidate((("out", post),), tor.cost(post))
    inv = dict(synth.derive_invariants(tp, cand))
    ((var, expr),) = inv["j"]
    assert isinstance(expr, tor.Concat)
    inv["j"] = ((var, tor.Concat(expr.right, expr.left)),)
    if not _killed(tp, cand, inv):
        escapes.append((19, "cross_join", "swapped concat"))

    assert len(C5_POST_MUTANTS) + 3 == 20
    assert escapes == []


def test_criterion_6_determinism(capsys):
    """Two identical runs agree byte for byte on stdout, and so do
    --jobs 1 vs --jobs 8."""
    from qilc import benchmarks_dir

    for name in BENCHMARK_NAMES:
        path = str(benchmarks_dir() / f"{name}.qil")
        outs = []
        for jobs in ("1", "1", "8"):
            code = cli.main(
                ["synth", path, "--cases", "100", "--jobs", jobs]
            )
            assert code == 0, name
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], f"{name}: rerun differed"
        assert outs[0] == outs[2], f"{name}: --jobs 8 differed"
        assert json.loads(outs[0])["status"] == "synthesized"


def test_criterion_7_empty_input_boundary(corpus):
    """sum -> 0, count -> 0, min/max -> absent, and the emitted SQL
    agrees on the empty relation (COALESCE'd SUM, COUNT, NULL)."""
    expected = {"sum": 0, "count": 0, "max_value": None, "min_value": None}
    for name in AGG_BENCHMARKS:
        tp, outcome, _ = corpus[name]
        empty = {"R": OrderedRelation(tp.relations["R"], ())}
        got_prog = interp.run(tp, empty)
        query = emit.parse_sql(outcome.sql_text)
        got_sql = emit.eval_sql(query, emit.MiniDb.from_values(empty))
        assert got_prog == expected[name], name
        assert got_sql == expected[name], name
        assert values_agree(got_prog, got_sql)
