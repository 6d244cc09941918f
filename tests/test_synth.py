"""Template mining, candidate enumeration order, invariant derivation,
and the search loop."""

import gc
import itertools
import time
import weakref

import pytest

from qilc import interp, synth, tor, verify
from qilc.frontend import parse, typecheck
from qilc.synth import (
    Candidate,
    Failure,
    Options,
    Solution,
    derive_invariants,
    enumerate_candidates,
    extract_template,
    live_vars,
    synthesize,
)
from tests.conftest import load_benchmark


def test_template_selection():
    t = extract_template(load_benchmark("selection"))
    assert t.constants == (2,)
    assert t.cmps == (">",)
    assert not t.has_break
    assert t.loop_relations == ("R",)


def test_template_sum():
    t = extract_template(load_benchmark("sum"))
    # the initializer is not mined; only literals in the loop body count
    assert t.constants == ()


def test_template_top_k():
    t = extract_template(load_benchmark("top_k"))
    assert t.has_break
    assert t.scalar_params == (("k", "int"),)
    assert 1 in t.constants  # from the i + 1 guard


def test_template_equi_join():
    t = extract_template(load_benchmark("equi_join"))
    assert t.loop_relations == ("R", "S")
    assert t.cmps == ("=",)
    assert t.constants == ()


def test_live_vars_only_loop_assigned():
    src = """
fn f(R: rel(a: int), base: int) {
    var s: int = 0;
    var unused: int = 9;
    s = base;
    for i in 0 .. size(R) {
        s = s + R[i].a;
    }
    return s;
}
"""
    tp = typecheck(parse(src))
    lvs = live_vars(tp)
    assert [v.name for v in lvs] == ["s"]
    assert lvs[0].agg_kind == "sum"


def test_candidates_sorted_by_cost_then_serialization():
    tp = load_benchmark("equi_join")
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    keys = [(c.cost, c.serialization()) for c in cands]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))  # no duplicates


def test_selection_candidate_space():
    tp = load_benchmark("selection")
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    exprs = [dict(c.posts)["out"] for c in cands]
    sexprs = [tor.to_sexpr(e) for e in exprs]
    assert "(query R)" in sexprs
    assert "(sel (> (field a) 2) (query R))" in sexprs
    # mined template has one constant and one operator: exactly these two
    assert len(sexprs) == 2


def test_no_agg_candidates_without_accumulators():
    tp = load_benchmark("selection")
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    assert all(
        not isinstance(dict(c.posts)["out"], tor.AggOf) for c in cands
    )


def test_agg_candidates_fix_the_kind():
    tp = load_benchmark("sum")
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    for c in cands:
        e = dict(c.posts)["s"]
        assert isinstance(e, tor.AggOf) and e.kind == "sum"


def test_top_only_for_break_programs():
    for name in ("selection", "equi_join"):
        tp = load_benchmark(name)
        cands = enumerate_candidates(tp, extract_template(tp), 24)
        out = [dict(c.posts)[tp.ast.result] for c in cands]
        assert not any(isinstance(e, tor.Top) for e in out), name
    tp = load_benchmark("top_k")
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    out = [dict(c.posts)["out"] for c in cands]
    assert any(isinstance(e, tor.Top) for e in out)


def test_cost_bound_prunes():
    tp = load_benchmark("selection")
    template = extract_template(tp)
    assert list(enumerate_candidates(tp, template, 1)) == []
    only_cheap = enumerate_candidates(tp, template, 2)
    assert [tor.to_sexpr(dict(c.posts)["out"]) for c in only_cheap] == ["(query R)"]


def test_derive_invariants_single_loop():
    tp = load_benchmark("selection")
    post = tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(2)), tor.Query("R"))
    cand = Candidate(posts=(("out", post),), cost=tor.cost(post))
    inv = derive_invariants(tp, cand)
    assert set(inv) == {"i"}
    (var, expr), = inv["i"]
    assert var == "out"
    assert tor.to_sexpr(expr) == "(sel (> (field a) 2) (top (query R) (idx i)))"


def test_derive_invariants_nested():
    tp = load_benchmark("equi_join")
    join = tor.Join(
        tor.Query("R"),
        tor.Query("S"),
        tor.CmpAtom("=", tor.FieldRef("l.k"), tor.FieldRef("r.k")),
    )
    post = tor.Proj(("l.v", "r.w"), join)
    cand = Candidate(posts=(("out", post),), cost=tor.cost(post))
    inv = derive_invariants(tp, cand)
    assert set(inv) == {"i", "j"}
    (_, outer), = inv["i"]
    # outer rows restricted to the first i
    assert tor.to_sexpr(outer) == (
        "(proj (l.v r.w) (join (top (query R) (idx i)) (query S)"
        " (= (field l.k) (field r.k))))"
    )
    (_, inner), = inv["j"]
    assert isinstance(inner, tor.Concat)
    # finished part: the outer invariant itself
    assert inner.left == outer
    # running part: outer row i alone joined with the first j inner rows
    assert "(top (query S) (idx j))" in tor.to_sexpr(inner.right)
    assert "(get (query R) (idx i))" in tor.to_sexpr(inner.right)


def test_derive_invariants_nested_agg_wraps_concat():
    src = """
fn f(R: rel(a: int), S: rel(b: int)) {
    var c: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            c = c + 1;
        }
    }
    return c;
}
"""
    tp = typecheck(parse(src))
    post = tor.AggOf("count", None, tor.Join(tor.Query("R"), tor.Query("S"), tor.TruePred()))
    cand = Candidate(posts=(("c", post),), cost=tor.cost(post))
    inv = derive_invariants(tp, cand)
    (_, inner), = inv["j"]
    assert isinstance(inner, tor.AggOf) and inner.kind == "count"
    assert isinstance(inner.of, tor.Concat)


def test_derive_invariants_prefixes_under_top_and_rejects_other_shapes():
    tp = load_benchmark("top_k")
    sel = tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(2)), tor.Query("R"))
    post = tor.Top(sel, tor.ParamRef("k"))
    (_, inv), = derive_invariants(tp, Candidate(posts=(("out", post),), cost=tor.cost(post)))["i"]
    assert tor.to_sexpr(inv) == "(top (sel (> (field a) 2) (top (query R) (idx i))) (param k))"
    concat = tor.Concat(tor.Query("R"), tor.Query("R"))
    with pytest.raises(ValueError, match="not a candidate postcondition"):
        derive_invariants(tp, Candidate(posts=(("out", concat),), cost=tor.cost(concat)))


def test_bounds_and_options_compare_hash_and_print_as_records():
    """Both are memo keys: equal values must hash alike, and neither may
    equal a bare tuple of its fields."""
    a, b = Options(), Options(24, verify.Bounds(3, (0, 1, 2), ("a", "b")), 0.0)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != Options(cost_bound=2) and a.bounds != verify.Bounds(rel_size=2)
    assert a != (24, verify.Bounds(), 0.0) and verify.Bounds() != (3, (0, 1, 2), ("a", "b"))
    assert repr(a) == (
        "Options(cost_bound=24, bounds=Bounds(rel_size=3, int_domain=(0, 1, 2), "
        "text_domain=('a', 'b')), timeout=0.0)"
    )


def test_synthesize_selection_minimal():
    out = synthesize(load_benchmark("selection"))
    assert isinstance(out, Solution)
    assert tor.to_sexpr(dict(out.candidate.posts)["out"]) == "(sel (> (field a) 2) (query R))"
    assert out.rank == 1
    assert out.stats.tried == 2
    assert out.stats.rejected == 1
    assert out.sql_text == "SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid"


def test_synthesize_rejects_cheaper_wrong_candidate_first():
    # Query(R) costs less than the selection, so it is tried and rejected;
    # minimality of the accepted candidate follows from enumeration order
    out = synthesize(load_benchmark("selection"))
    cands = enumerate_candidates(
        load_benchmark("selection"), extract_template(load_benchmark("selection")), 24
    )
    assert tor.to_sexpr(dict(next(iter(cands)).posts)["out"]) == "(query R)"
    assert out.rank == 1


def test_synthesize_exhausted_on_tight_bound():
    out = synthesize(load_benchmark("selection"), Options(cost_bound=2))
    assert isinstance(out, Failure)
    assert out.reason == "exhausted"
    assert out.stats.enumerated == 1
    assert out.stats.tried == 1


def test_synthesize_timeout():
    # enumeration is lazy, so the budget cuts the search short of the
    # accepted rank (1660) while the count still covers the whole space
    out = synthesize(load_benchmark("join_select_project"), Options(timeout=0.05))
    assert isinstance(out, Failure)
    assert out.reason == "timeout"
    assert out.stats.enumerated == 111232
    assert out.stats.tried < 1661


def test_synthesize_timeout_covers_enumeration(monkeypatch):
    real = synth.enumerate_candidates

    def slow_enumeration(*args):
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(synth, "enumerate_candidates", slow_enumeration)
    out = synthesize(load_benchmark("selection"), Options(timeout=0.05))
    assert isinstance(out, Failure)
    assert out.reason == "timeout"
    assert out.stats.tried == 0
    assert out.stats.enumerated > 0


def test_finished_program_is_not_kept_by_synth():
    """Once the caller drops a program and its solution, nothing of them
    (the program, its memos on tp.derived, the candidates and their nodes)
    stays reachable from synth's module state."""

    def nodes():
        return sum(isinstance(o, tor.Node) for o in gc.get_objects())

    gc.collect()
    before = nodes()
    tp = load_benchmark("equi_join")
    sol = synthesize(tp)
    assert isinstance(sol, Solution)
    refs = [weakref.ref(x) for x in (tp, sol, sol.candidate)]
    del tp, sol
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert nodes() == before


def test_the_search_keeps_no_earlier_verdicts(monkeypatch):
    """The search tallies each verdict and drops it: when the verifier is
    called, at most the previous candidate's result is still alive."""
    real, seen, alive = verify.validate, [], []

    def validate(*args):
        alive.append(sum(ref() is not None for ref in seen))
        result = real(*args)
        seen.append(weakref.ref(result))
        return result

    monkeypatch.setattr(verify, "validate", validate)
    sol = synthesize(load_benchmark("join_select_project"))
    assert isinstance(sol, Solution) and sol.stats.tried == len(alive) == 1661
    assert max(alive) <= 1


@pytest.mark.parametrize("name,options", [
    ("equi_join", Options()),
    ("selection", Options(cost_bound=2)),
    ("equi_join", Options(bounds=verify.Bounds(rel_size=2, int_domain=(0, 1)))),
    ("top_k", Options(bounds=verify.Bounds(rel_size=4))),
])
def test_synthesize_drops_the_search_memos(name, options):
    """The prefixed bases and the verifier's plan for the search's bounds
    go with the search; interp's executor stays for difftest, and a second
    search on the same program finds the same outcome."""
    plan = (verify._Plan, options.bounds)
    tp = load_benchmark(name)
    first = synthesize(tp, options)
    assert synth._Derivation not in tp.memo and plan not in tp.memo
    assert interp.Executor in tp.memo
    again = synthesize(tp, options)
    assert again == first
    assert synth._Derivation not in tp.memo and plan not in tp.memo


def test_solution_verifies_end_to_end():
    tp = load_benchmark("top_k")
    out = synthesize(tp)
    assert isinstance(out, Solution)
    res = verify.validate(tp, out.candidate, out.invariants)
    assert res.status == verify.VALID


def test_posts_are_translatable_by_construction():
    from qilc import emit

    for name in ("selection", "equi_join", "top_k", "sum"):
        tp = load_benchmark(name)
        template = extract_template(tp)
        for cand in itertools.islice(enumerate_candidates(tp, template, 24), 50):
            for _, e in cand.posts:
                emit.to_sql(e, tp.relations)  # must not raise


# --- the lazy enumeration against the eager one it replaces ----------------


def eager_posts(var, template, bound, schemas):
    """Every post of one variable, built, filtered by the cost bound and
    sorted by (cost, serialization)."""
    out = []
    nested = len(template.loop_relations) == 2
    for base in synth._bases(template):
        base_schema = tor.schema_of(base, schemas)
        if var.agg_kind:
            fields = [None] if var.agg_kind == "count" else [
                n for n in base_schema.names if base_schema.type_of(n) == "int"
            ]
            for pred in synth._preds_for(base_schema, template):
                body = base if isinstance(pred, tor.TruePred) else tor.Sel(pred, base)
                for f in fields:
                    e = tor.AggOf(var.agg_kind, f, body)
                    if tor.cost(e) <= bound:
                        out.append(e)
            continue
        projs = [None, *synth._projections(base_schema)]
        for pred in synth._preds_for(base_schema, template):
            selected = base if isinstance(pred, tor.TruePred) else tor.Sel(pred, base)
            for proj in projs:
                shaped = selected if proj is None else tor.Proj(proj, selected)
                sch = base_schema if proj is None else base_schema.restrict(proj)
                if sch.types != var.schema.types:
                    continue
                if tor.cost(shaped) <= bound:
                    out.append(shaped)
                if template.has_break and not nested:
                    for k in synth._top_bounds(template):
                        topped = tor.Top(shaped, k)
                        if tor.cost(topped) <= bound:
                            out.append(topped)
    return sorted(out, key=lambda e: (tor.cost(e), tor.to_sexpr(e)))


def eager_candidates(tp, template, bound):
    """The product of the variables' posts, filtered by total cost and
    sorted by (cost, serialization)."""
    lvs = live_vars(tp)
    if not lvs:
        return []
    per_var = [eager_posts(v, template, bound, tp.relations) for v in lvs]
    cands = []
    for combo in itertools.product(*per_var):
        total = sum(tor.cost(e) for e in combo)
        if total <= bound:
            cands.append(Candidate(tuple(zip((v.name for v in lvs), combo)), total))
    cands.sort(key=lambda c: (c.cost, c.serialization()))
    return cands


TWO_ACCUMULATORS = """
fn two_totals(R: rel(a: int, b: int), t: int) {
    var s: int = 0;
    var c: int = 0;
    for i in 0 .. size(R) {
        if R[i].a > t && R[i].b != 2 {
            s = s + R[i].b;
            c = c + 1;
        }
    }
    return s;
}
"""

PAREN_TEXTS = """
fn labelled(R: rel(name: text, n: int)) {
    var out: list(name: text, n: int);
    for i in 0 .. size(R) {
        if R[i].name == "a (b)" || R[i].name == "a" || R[i].name != ") (" {
            out.append(R[i]);
        }
    }
    return out;
}
"""

BUNDLED = [
    "count", "cross_join", "equi_join", "identity", "join_select_project",
    "max_value", "min_value", "projection", "select_project", "selection",
    "sum", "top_k",
]


@pytest.mark.parametrize("bound", [1, 2, 10, 24])
@pytest.mark.parametrize("name", BUNDLED + ["two_accumulators", "paren_texts"])
def test_lazy_enumeration_matches_eager(name, bound):
    if name == "two_accumulators":
        tp = typecheck(parse(TWO_ACCUMULATORS))
        assert len(live_vars(tp)) == 2
    elif name == "paren_texts":
        tp = typecheck(parse(PAREN_TEXTS))
    else:
        tp = load_benchmark(name)
    template = extract_template(tp)
    expected = eager_candidates(tp, template, bound)
    space = enumerate_candidates(tp, template, bound)
    assert len(space) == len(expected)
    assert list(space) == expected
