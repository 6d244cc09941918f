"""Bounded verification: condition generation, instance accounting,
violation behavior, and the fast-path/sweep agreement property."""

import copy
import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from qilc import axioms, synth, tor, verify
from qilc.frontend import parse, typecheck
from qilc.relation import INT, Schema, SchemaError
from qilc.synth import Candidate, derive_invariants, enumerate_candidates, extract_template
from qilc.verify import (
    BREAK_EXIT,
    EXIT,
    INITIATION,
    NON_CHECKABLE,
    PRESERVATION,
    VALID,
    VIOLATED,
    Bounds,
    VC,
    counterexample_from_json,
    gen_vcs,
    instance_count,
    recheck,
    relation_values,
    validate,
)
from tests.conftest import load_benchmark

SMALL = Bounds(rel_size=2, int_domain=(0, 1), text_domain=("a",))
# wide enough for the selection benchmark's mined constant 2
SMALL3 = Bounds(rel_size=2, int_domain=(0, 1, 2), text_domain=("a",))
# the row-local scan checks one-row relations; the sweep checks up to four rows
WIDE4 = Bounds(rel_size=4, int_domain=(0, 1, 2), text_domain=("a",))


def candidate_for(tp, post_by_var):
    posts = tuple(post_by_var.items())
    total = sum(tor.cost(e) for _, e in posts)
    return Candidate(posts=posts, cost=total)


def first_valid(tp):
    out = synth.synthesize(tp)
    assert isinstance(out, synth.Solution)
    return out


# --- VC generation ------------------------------------------------------------


def test_vc_counts():
    assert len(gen_vcs(load_benchmark("selection"))) == 3
    assert len(gen_vcs(load_benchmark("top_k"))) == 4
    assert len(gen_vcs(load_benchmark("equi_join"))) == 6


def test_vc_order_nested():
    vcs = gen_vcs(load_benchmark("equi_join"))
    assert [(v.kind, v.loop) for v in vcs] == [
        (INITIATION, "i"),
        (INITIATION, "j"),
        (PRESERVATION, "j"),
        (EXIT, "j"),
        (PRESERVATION, "i"),
        (EXIT, "i"),
    ]


def test_break_exit_only_with_break():
    kinds = [v.kind for v in gen_vcs(load_benchmark("top_k"))]
    assert kinds == [INITIATION, PRESERVATION, BREAK_EXIT, EXIT]
    assert BREAK_EXIT not in [v.kind for v in gen_vcs(load_benchmark("selection"))]


# --- domain enumeration ---------------------------------------------------------


def test_relation_values_count_and_order():
    vals = relation_values(Schema((("a", "int"),)), SMALL)
    # 2-value domain, sizes 0..2: 1 + 2 + 4 = 7, sizes ascending
    assert len(vals) == 7
    assert [v.size for v in vals] == [0, 1, 1, 2, 2, 2, 2]
    assert vals[1].rows == ((0,),)
    assert vals[2].rows == ((1,),)
    assert vals[3].rows == ((0,), (0,))


@pytest.mark.parametrize("bounds", [SMALL, Bounds(rel_size=1, int_domain=(3, -1))])
def test_plan_first_is_the_sweeps_first_input(bounds):
    """first builds the sweep's first input without enumerating relations;
    it must be what sweep_inputs yields first."""
    for name in ("top_k", "join_select_project", "sum"):
        plan = verify._Plan(load_benchmark(name), bounds)
        assert plan.first == next(plan.sweep_inputs()), name


def test_instance_count_matches_sweep():
    # the analytic counter must agree with brute enumeration; the checker
    # relies on it both for stats and for the fast-path bulk totals
    tp = load_benchmark("selection")
    sol = first_valid(tp)
    res = validate(tp, sol.candidate, sol.invariants, SMALL3, fast=False)
    assert res.status == VALID
    total = sum(instance_count(vc, tp, SMALL3) for vc in gen_vcs(tp))
    assert res.instances == total


def test_instance_count_nested_self_join():
    src = """
fn f(R: rel(a: int)) {
    var c: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(R) {
            c = c + 1;
        }
    }
    return c;
}
"""
    tp = typecheck(parse(src))
    post = tor.AggOf("count", None, tor.Join(tor.Query("R"), tor.Query("R"), tor.TruePred()))
    cand = candidate_for(tp, {"c": post})
    inv = derive_invariants(tp, cand)
    res = validate(tp, cand, inv, SMALL, fast=False)
    assert res.status == VALID
    assert res.instances == sum(instance_count(vc, tp, SMALL) for vc in gen_vcs(tp))


# --- verdicts -------------------------------------------------------------------


SINGLE_LOOPS = (
    "count identity max_value min_value projection select_project selection sum top_k"
).split()


@pytest.mark.parametrize("names, bounds, fasts, digest", [
    (SINGLE_LOOPS, Bounds(), (True, False),
     "6161a9754a41de4cddc63a4764481a3d48ec8da5343027688ba6e8c10ceddc7f"),
    (["cross_join", "equi_join", "join_select_project"], Bounds(), (True,),
     "7123a880f85ef5176adf3f49c47b944873259953dfbf8a29fa2d1ce7e1857353"),
    (SINGLE_LOOPS, Bounds(rel_size=5), (True, False),
     "469c38f3d2f836e88ca62902b9444cecd7b8e2d229e6b8580bdfc4b8ff4f6e0a"),
], ids=["single-loops", "nested-fast-only", "single-loops-rel-bound-5"])
def test_verdict_lines_hash_to_their_pinned_digest(names, bounds, fasts, digest):
    """scripts/verdicts.py's lines (status, instance and VC counts and the
    counterexample of the first 60 candidates) for these programs hash to
    the digest they had when pinned: a verifier change that moves any
    verdict, count or counterexample fails here."""
    path = Path(__file__).parent.parent / "scripts" / "verdicts.py"
    spec = importlib.util.spec_from_file_location("verdicts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    text = "".join(f"{line}\n" for line in script.verdict_lines(names, 60, bounds, fasts))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_valid_solution_passes_at_default_bounds():
    tp = load_benchmark("selection")
    sol = first_valid(tp)
    res = validate(tp, sol.candidate, sol.invariants)
    assert res.status == VALID
    assert res.vcs == 3
    assert res.counterexample is None


def test_wrong_candidate_violated_with_replayable_counterexample():
    tp = load_benchmark("selection")
    post = tor.Query("R")  # claims no filtering happens
    cand = candidate_for(tp, {"out": post})
    inv = derive_invariants(tp, cand)
    res = validate(tp, cand, inv)
    assert res.status == VIOLATED
    cex = res.counterexample
    assert cex is not None
    assert recheck(tp, cand, inv, cex)
    # the JSON form reconstructs to an equally violating instance
    round_tripped = counterexample_from_json(json.loads(json.dumps(cex.to_json())))
    assert recheck(tp, cand, inv, round_tripped)


def test_violation_instances_reflect_work_done():
    tp = load_benchmark("selection")
    cand = candidate_for(tp, {"out": tor.Query("R")})
    inv = derive_invariants(tp, cand)
    res = validate(tp, cand, inv)
    assert res.status == VIOLATED
    assert 0 < res.instances
    assert res.vcs >= 1


def test_non_checkable_constant_outside_domain():
    tp = load_benchmark("selection")
    post = tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(9)), tor.Query("R"))
    cand = candidate_for(tp, {"out": post})
    inv = derive_invariants(tp, cand)
    res = validate(tp, cand, inv)
    assert res.status == NON_CHECKABLE
    assert "domain" in res.reason


def test_non_checkable_nested_break():
    src = """
fn f(R: rel(a: int), S: rel(b: int)) {
    var c: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            c = c + 1;
            if S[j].b > 0 {
                break;
            }
        }
    }
    return c;
}
"""
    tp = typecheck(parse(src))
    post = tor.AggOf("count", None, tor.Join(tor.Query("R"), tor.Query("S"), tor.TruePred()))
    cand = candidate_for(tp, {"c": post})
    inv = derive_invariants(tp, cand)
    res = validate(tp, cand, inv)
    assert res.status == NON_CHECKABLE
    assert "break" in res.reason


def test_an_ill_formed_inner_invariant_raises_as_an_ill_formed_post_does():
    """The inner loop's Concat invariant is evaluated by its tor closure,
    like every other invariant and post, so validate raises tor's
    SchemaError for one whose operands' column types disagree, or that
    aggregates a text field."""
    tp = load_benchmark("cross_join")
    join = tor.Join(tor.Query("R"), tor.Query("S"), tor.TruePred())
    cand = candidate_for(tp, {"out": join})
    inv = derive_invariants(tp, cand)
    with pytest.raises(SchemaError, match="no field 'z'"):
        validate(tp, candidate_for(tp, {"out": tor.Proj(("z",), join)}), inv)
    (_, concat), = inv["j"]
    narrow = tor.Concat(concat.left, tor.Proj(("l.a",), concat.right))
    with pytest.raises(SchemaError, match="concat operands disagree"):
        validate(tp, cand, {"i": inv["i"], "j": (("out", narrow),)})

    tp = typecheck(parse("""
fn pairs(R: rel(a: int, t: text), S: rel(b: int)) {
    var n: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            n = n + 1;
        }
    }
    return n;
}
"""))
    cand = candidate_for(tp, {"n": tor.AggOf("count", None, join)})
    inv = derive_invariants(tp, cand)
    assert validate(tp, cand, inv).status == VALID
    (_, count), = inv["j"]
    assert isinstance(count.of, tor.Concat)
    text_max = tor.AggOf("max", "l.t", count.of)
    with pytest.raises(SchemaError, match="cannot aggregate over text field"):
        validate(tp, cand, {"i": inv["i"], "j": (("n", text_max),)})


# --- fast path vs definitional sweep ---------------------------------------------


# single-loop sweeps stay cheap with three int values (selection's mined
# constant 2 must be in domain to be checkable); nested sweeps only fit the
# two-value domain
FAST_SLOW_BENCHMARKS = [
    ("identity", SMALL3),
    ("selection", SMALL3),
    ("projection", SMALL3),
    ("select_project", SMALL3),
    ("sum", SMALL3),
    ("count", SMALL3),
    ("max_value", SMALL3),
    ("min_value", SMALL3),
    ("top_k", SMALL3),
    ("cross_join", SMALL),
    ("equi_join", SMALL),
    ("join_select_project", SMALL),
    ("identity", WIDE4),
    ("selection", WIDE4),
    ("projection", WIDE4),
    ("select_project", WIDE4),
    ("sum", WIDE4),
    ("count", WIDE4),
    ("max_value", WIDE4),
    ("min_value", WIDE4),
    ("top_k", WIDE4),
]


@pytest.mark.parametrize("name, bounds", FAST_SLOW_BENCHMARKS)
def test_fast_agrees_with_sweep(name, bounds):
    """Every candidate in the enumeration gets the same verdict from the
    shortcut checker and the instance-by-instance sweep, and a passing
    verdict reports the same (full analytic) instance total."""
    tp = load_benchmark(name)
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    for cand in itertools.islice(cands, 60):
        inv = derive_invariants(tp, cand)
        fast = validate(tp, cand, inv, bounds, fast=True)
        slow = validate(tp, cand, inv, bounds, fast=False)
        assert fast.status == slow.status, cand.serialization()
        if fast.status == VALID:
            assert fast.instances == slow.instances, cand.serialization()
        if fast.status == VIOLATED:
            checker = verify._Checker(tp, cand, inv, bounds)
            for cex in (fast.counterexample, slow.counterexample):
                assert recheck(tp, cand, inv, cex)
                assert checker.instance(cex.vc, cex.inputs, cex.indices) == cex


def test_fast_agrees_on_mutated_invariants():
    # invariant-level mutations break the derived shape, so the checker
    # must fall back to the sweep and still agree
    tp = load_benchmark("top_k")
    sol = first_valid(tp)
    (var, expr), = sol.invariants["i"]
    bumped = {"i": ((var, tor.Top(expr.of, tor.IndexRef("i", +1))),)}
    fast = validate(tp, sol.candidate, bumped, SMALL, fast=True)
    slow = validate(tp, sol.candidate, bumped, SMALL, fast=False)
    assert fast.status == slow.status == VIOLATED
    assert fast.instances == slow.instances
    assert fast.counterexample == slow.counterexample


def test_fast_valid_verdicts_match_default_bounds():
    for name in ("identity", "sum", "cross_join", "equi_join"):
        tp = load_benchmark(name)
        sol = first_valid(tp)
        res = validate(tp, sol.candidate, sol.invariants)  # fast by default
        assert res.status == VALID
        assert res.instances == sum(
            instance_count(vc, tp, Bounds()) for vc in gen_vcs(tp)
        )


def test_deciders_settle_every_vc_of_the_corpus_solutions(benchmarks, monkeypatch):
    """At default bounds no sweep runs for the 46 VCs of the 12 accepted
    solutions: each decider reports Valid with the full instance count. Nor
    does one run for any of the 5,064 VCs of the candidates that synthesize
    tries on the three nested programs: a named decider settles each."""
    tried = {}
    run_vc = verify._Checker.run_vc

    def counted(self, vc):
        out = run_vc(self, vc)
        if self.inner is not None:
            tried[out[0]] = tried.get(out[0], 0) + 1
        return out

    monkeypatch.setattr(verify._Checker, "run_vc", counted)
    solutions = [(tp, first_valid(tp)) for tp in benchmarks.values()]
    monkeypatch.undo()
    assert tried == {
        "init-const": 1685,
        "inner-init-identity": 1685,
        "row-scan": 1688,
        "inner-exit-identity": 3,
        "exit-identity": 3,
    }
    settled = {}
    for tp, sol in solutions:
        checker = verify._Checker(tp, sol.candidate, sol.invariants, Bounds())
        for vc in gen_vcs(tp):
            name, n, cex = checker.run_vc(vc)
            assert (n, cex) == (instance_count(vc, tp, Bounds()), None), (tp.name, vc)
            settled[name] = settled.get(name, 0) + 1
    assert settled == {
        "init-const": 12,
        "exit-identity": 12,
        "inner-init-identity": 3,
        "inner-exit-identity": 3,
        "prover": 3,
        "row-scan": 13,
    }


def _agree(tp, cand, inv, bounds):
    """fast and sweep give the same verdict, count and counterexample."""
    fast = validate(tp, cand, inv, bounds, fast=True)
    slow = validate(tp, cand, inv, bounds, fast=False)
    assert (fast.status, fast.instances, fast.vcs) == (
        slow.status,
        slow.instances,
        slow.vcs,
    )
    assert fast.counterexample == slow.counterexample
    return fast


def _single_loop(body, params="R: rel(a: int)", decl="m: int = 0"):
    """A one-loop program over R that declares decl and returns it."""
    return typecheck(parse(f"""
fn f({params}) {{
    var {decl};
    for i in 0 .. size(R) {{
        {body}
    }}
    return {decl.split(":")[0]};
}}
"""))


R_A = tor.Query("R")
MAX_INTO_SUM_NESTED = """
fn f(R: rel(a: int), S: rel(w: int)) {
    var m: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            m = max(m, S[j].w);
        }
    }
    return m;
}
"""


def test_nested_scan_refuses_an_update_that_is_not_the_posts_aggregate():
    # max(m, w) from m = 0 agrees with the running sum on one row, so a
    # scan from the empty prefix alone passes; from m = 1 it does not
    tp = typecheck(parse(MAX_INTO_SUM_NESTED))
    post = tor.AggOf(
        "sum", "r.w", tor.Join(tor.Query("R"), tor.Query("S"), tor.TruePred())
    )
    cand = candidate_for(tp, {"m": post})
    inv = derive_invariants(tp, cand)
    res = _agree(tp, cand, inv, Bounds())
    assert res.status == VIOLATED
    assert res.instances == 5693
    cex = res.counterexample
    assert (cex.vc, cex.indices) == (VC(PRESERVATION, "j"), {"i": 0, "j": 1})
    assert cex.inputs["S"].rows == ((1,), (1,))
    assert (cex.expected, cex.actual) == (2, 1)


def test_nested_post_over_one_relation_gets_no_derived_invariant():
    # a two-loop post must read both relations; a single-relation base is
    # refused with ValueError, so validate skips the shortcuts and sweeps
    tp = load_benchmark("cross_join")
    cand = candidate_for(tp, {"out": tor.Proj(("a",), tor.Query("R"))})
    with pytest.raises(ValueError, match="two-loop"):
        derive_invariants(tp, cand)
    sol = first_valid(tp)
    assert not verify._Checker(tp, cand, sol.invariants, SMALL)._derived
    res = _agree(tp, cand, sol.invariants, SMALL)
    assert (res.status, res.counterexample.vc) == (VIOLATED, VC(EXIT, "i"))


# (program, posts, bounds, whether the row-local scan's premise holds). The
# scan decides single-loop preservation only when it holds, and only as
# Valid; every row must agree with the sweep either way.
ROW_SCAN_CASES = {
    "post over a join": (
        _single_loop("m = m + 0;", "R: rel(a: int), S: rel(b: int)"),
        {"m": tor.AggOf("count", None, tor.Join(R_A, tor.Query("S"), tor.TruePred()))},
        SMALL3,
        False,
    ),
    "unused second relation": (
        _single_loop("m = m + R[i].a;", "R: rel(a: int), S: rel(b: int)"),
        {"m": tor.AggOf("sum", "a", R_A)},
        SMALL3,
        True,
    ),
    "scalar parameter in the guard": (
        _single_loop(
            "if R[i].a > k { out.append(R[i]); }",
            "R: rel(a: int), k: int",
            "out: list(a: int)",
        ),
        {"out": tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.ParamRef("k")), R_A)},
        SMALL3,
        True,
    ),
    "guard and post disagree past the first k": (
        _single_loop(
            "if R[i].a > k { out.append(R[i]); }",
            "k: int, R: rel(a: int)",  # k varies slowest in the sweep
            "out: list(a: int)",
        ),
        {"out": tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(0)), R_A)},
        SMALL3,
        True,
    ),
    "max update for a sum post": (
        _single_loop("m = max(m, R[i].a);"),
        {"m": tor.AggOf("sum", "a", R_A)},
        SMALL3,
        False,
    ),
    "min update for a max post": (
        _single_loop("m = min(m, R[i].a);", decl="m: int = none"),
        {"m": tor.AggOf("max", "a", R_A)},
        SMALL3,
        False,
    ),
    "break": ("top_k", None, SMALL3, False),
    "no rows to scan": ("sum", None, Bounds(rel_size=0), False),
}


@pytest.mark.parametrize("case", ROW_SCAN_CASES)
def test_row_scan_premise_cases_agree_with_sweep(case):
    tp, posts, bounds, row_local = ROW_SCAN_CASES[case]
    if isinstance(tp, str):
        tp = load_benchmark(tp)
        sol = first_valid(tp)
        cand, inv = sol.candidate, sol.invariants
    else:
        cand = candidate_for(tp, posts)
        inv = derive_invariants(tp, cand)
    assert verify._Checker(tp, cand, inv, bounds)._row_local == row_local
    _agree(tp, cand, inv, bounds)


def test_single_loop_scan_decides_preservation_from_one_row():
    tp = load_benchmark("sum")
    sol = first_valid(tp)
    bounds = Bounds(rel_size=5)
    checker = verify._Checker(tp, sol.candidate, sol.invariants, bounds)
    calls = []
    check = checker.check
    checker.check = lambda *args, **kw: calls.append(args) or check(*args, **kw)
    vc = VC(PRESERVATION, "i")
    assert checker.run_vc(vc) == ("row-scan", 44790, None)
    assert instance_count(vc, tp, bounds) == 44790
    assert len(calls) <= 6  # one per row of R(a: int, b: text)
    assert all(len(inputs["R"].rows) == 1 for _, inputs, _, _ in calls)


def test_prover_decides_top_k_without_checking_an_instance():
    tp = load_benchmark("top_k")
    sol = first_valid(tp)
    bounds = Bounds(rel_size=5)
    checker = verify._Checker(tp, sol.candidate, sol.invariants, bounds)
    calls = []
    check = checker.check
    checker.check = lambda *args, **kw: calls.append(args) or check(*args, **kw)
    for kind in (PRESERVATION, BREAK_EXIT):
        vc = VC(kind, "i")
        assert checker.run_vc(vc) == ("prover", instance_count(vc, tp, bounds), None)
    assert instance_count(VC(PRESERVATION, "i"), tp, bounds) == 134370
    assert calls == []


def _top_k_guarded(guard):
    """top_k with its append guarded by guard instead of i < k."""
    return _single_loop(
        f"if {guard} {{ out.append(R[i]); }} if i + 1 >= k {{ break; }}",
        "R: rel(a: int), k: int",
        "out: list(a: int)",
    )


TOP_K = tor.Top(R_A, tor.ParamRef("k"))
# (program, post, invariant or None for the derived one, the VCs the prover
# proves). Each candidate is wrong, and the prover must refuse the VC the
# sweep finds violated; the one it proves hold for every int.
PROVER_MUTANTS = {
    "invariant one row ahead": (
        "top_k",
        TOP_K,
        tor.Top(tor.Top(R_A, tor.IndexRef("i", 1)), tor.ParamRef("k")),
        set(),
    ),
    "Top(R, i) under a Top(R, k) post": (
        "top_k",
        TOP_K,
        tor.Top(R_A, tor.IndexRef("i")),
        {PRESERVATION},
    ),
    "append while i <= k": (_top_k_guarded("i <= k"), TOP_K, None, {PRESERVATION}),
    "append while i >= k": (_top_k_guarded("i >= k"), TOP_K, None, set()),
    "append while i + 1 > k": (_top_k_guarded("i + 1 > k"), TOP_K, None, set()),
    # wrong only at i = 1, on the false branch of i < 1
    "append while i < 1 under a Top(R, 2) post": (
        _single_loop("if i < 1 { out.append(R[i]); }", decl="out: list(a: int)"),
        tor.Top(R_A, tor.IntConst(2)),
        None,
        set(),
    ),
}


@pytest.mark.parametrize("case", PROVER_MUTANTS)
def test_prover_refuses_what_does_not_hold(case):
    tp, post, inv, proved = PROVER_MUTANTS[case]
    if isinstance(tp, str):
        tp = load_benchmark(tp)
    cand = candidate_for(tp, {"out": post})
    inv = derive_invariants(tp, cand) if inv is None else {"i": (("out", inv),)}
    checker = verify._Checker(tp, cand, inv, SMALL3)
    vcs = [vc for vc in gen_vcs(tp) if vc.kind in (PRESERVATION, BREAK_EXIT)]
    assert {vc.kind for vc in vcs if checker._proves(vc)} == proved
    res = _agree(tp, cand, inv, SMALL3)
    assert res.status == VIOLATED
    assert res.counterexample.vc.kind not in proved


def test_prover_appends_a_row_only_where_the_prefix_ends():
    """L1 rewrites Append(Top(R, M), Get(R, t)) to Top(R, t + 1) only when
    min M = t and 0 <= t < |R| are proved."""
    tp = load_benchmark("top_k")
    sol = first_valid(tp)
    checker = verify._Checker(tp, sol.candidate, sol.invariants, SMALL3)
    zero, size = verify._ZERO, verify._SIZE
    in_range = ((zero, "i", 0), ("i", size, -1), (zero, size, 0))

    def rewrite(e, *facts):  # each fact (x, y, c) is x - y <= c
        dbm = verify._Dbm((zero, "i", size, "k"), in_range + facts)
        try:
            return checker._prefix(e, 0, dbm)
        except verify._Refuse:
            return None

    R = tor.Query("R")
    i = tor.IndexRef("i")
    at_k = tor.AppendRow(tor.Top(R, tor.ParamRef("k")), tor.GetRow(R, i))
    assert rewrite(at_k, ("k", "i", 0), ("i", "k", 0)) == (("i", 1),)
    assert rewrite(at_k, ("k", "i", 0)) is None  # the prefix may end before i
    assert rewrite(at_k, ("i", "k", 0)) is None  # or after it
    for t in (tor.IndexRef("i", -1), tor.IndexRef("i", 1)):  # may be -1 or |R|
        assert rewrite(tor.AppendRow(tor.Top(R, t), tor.GetRow(R, t))) is None


@pytest.mark.parametrize(
    "body",
    [
        "if i != k { out.append(R[i]); }",
        "if i == k { out.append(R[i]); }",
        "if i < k && i < 2 { out.append(R[i]); }",
        "if !(i >= k) { out.append(R[i]); }",
        "if i < n { out.append(R[i]); }",
        "if i < k { out.append(R[i]); } n = n + 1;",
        "if i + k < 2 { out.append(R[i]); }",
        "if R[i].a < k { out.append(R[i]); }",
        " ".join(["if i < k { out.append(R[i]); }"] * 7),  # 128 paths
    ],
)
def test_prover_refuses_a_body_outside_its_fragment(body):
    tp = _single_loop(
        body, "R: rel(a: int), k: int", "out: list(a: int); var n: int = 0"
    )
    cand = candidate_for(tp, {"out": tor.Top(R_A, tor.ParamRef("k"))})
    inv = derive_invariants(tp, cand)
    assert not verify._Checker(tp, cand, inv, SMALL3)._proves(VC(PRESERVATION, "i"))
    _agree(tp, cand, inv, SMALL3)


INPUT_ONLY_PROBE = """
fn probe(R: rel(a: int), S: rel(b: int), k: int) {
    var out: list(a: int);
    var n: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            if !(R[i].a > k) && S[j].b == 1 {
                out.append(R[i]);
            }
            if !(R[i].a > n) {
                out.append({a: S[j].b + k});
            }
            n = n + R[i].a;
        }
    }
    return out;
}
"""


def test_input_only_reads_parameters_and_loop_rows():
    tp = typecheck(parse(INPUT_ONLY_PROBE))
    cand = next(iter(enumerate_candidates(tp, extract_template(tp), 24)))
    program = verify._Checker(tp, cand, derive_invariants(tp, cand), SMALL).plan
    by_param, by_local, update = tp.loops[1].node.body
    assert program.input_only(by_param.cond)
    assert not program.input_only(by_local.cond)  # n is a local, under a NotOp
    assert program.input_only(by_param.body[0].record)
    assert program.input_only(by_local.body[0].record)
    assert program.accumulator_updates((by_param, update)) == ("n",)
    assert program.accumulator_updates((by_param, by_local, update)) is None


# --- replay of every VC branch -------------------------------------------------


def _below(index, bound, rel):
    """rel while the loop index is below bound, empty from there on."""
    return tor.Sel(tor.CmpAtom("<", tor.IndexRef(index), bound), rel)


def _top_k_mutant(kind):
    """(posts, invariants) of top_k whose first violated VC has this kind."""
    R, k = tor.Query("R"), tor.ParamRef("k")
    post = tor.Top(R, k)
    inv = tor.Top(tor.Top(R, tor.IndexRef("i")), k)
    if kind == INITIATION:  # one row ahead of the scan
        inv = tor.Top(tor.Top(R, tor.IndexRef("i", +1)), k)
    elif kind == PRESERVATION:  # right only at i = 0
        inv = _below("i", tor.IntConst(1), inv)
    elif kind == BREAK_EXIT:  # claims the scan never stops early
        post = R
    else:  # empty once i passes k, which only the exit at i = |R| > k sees
        inv = tor.Sel(tor.CmpAtom("<=", tor.IndexRef("i"), k), inv)
    return {"out": post}, {"i": (("out", inv),)}


def _equi_join_mutant(tp, kind, loop):
    R, S = tor.Query("R"), tor.Query("S")
    eq = tor.CmpAtom("=", tor.FieldRef("l.k"), tor.FieldRef("r.k"))

    def joined(left, right, pred=eq):
        return tor.Proj(("l.v", "r.w"), tor.Join(left, right, pred))

    post = joined(R, S)
    done = joined(tor.Top(R, tor.IndexRef("i")), S)
    row_i = tor.AppendRow(
        tor.EmptyRel(tp.relations["R"]),
        tor.GetRow(R, tor.IndexRef("i")),
    )
    running = joined(row_i, tor.Top(S, tor.IndexRef("j")))
    inv_i = done
    if (kind, loop) == (INITIATION, "i"):  # one row ahead of the scan
        inv_i = joined(tor.Top(R, tor.IndexRef("i", +1)), S)
    elif (kind, loop) == (INITIATION, "j"):  # one row ahead of the scan
        running = joined(row_i, tor.Top(S, tor.IndexRef("j", +1)))
    elif (kind, loop) == (PRESERVATION, "j"):  # right only at j = 0
        running = _below("j", tor.IntConst(1), running)
    elif (kind, loop) == (EXIT, "j"):  # wrong only once two rows of R are done
        inv_i = _below("i", tor.IntConst(2), done)
    elif (kind, loop) == (EXIT, "i"):  # a cross join for the result
        post = joined(R, S, tor.TruePred())
    invariants = {"i": (("out", inv_i),), "j": (("out", tor.Concat(done, running)),)}
    return {"out": post}, invariants


# Preservation(i) of equi_join has no mutant: the outer body is the inner
# loop alone, so Initiation(j), Preservation(j) and Exit(j) passing on
# every instance imply it (the invariants constrain every local).
VC_BRANCHES = [
    ("top_k", INITIATION, "i"),
    ("top_k", PRESERVATION, "i"),
    ("top_k", BREAK_EXIT, "i"),
    ("top_k", EXIT, "i"),
    ("equi_join", INITIATION, "i"),
    ("equi_join", INITIATION, "j"),
    ("equi_join", PRESERVATION, "j"),
    ("equi_join", EXIT, "j"),
    ("equi_join", EXIT, "i"),
]


@pytest.mark.parametrize("name, kind, loop", VC_BRANCHES)
def test_replay_matches_sweep_on_every_vc_branch(name, kind, loop):
    """A hand mutant whose first violated VC is (kind, loop): replaying the
    sweep's counterexample through the per-instance check gives it back,
    also after a JSON round trip."""
    tp = load_benchmark(name)
    if name == "top_k":
        posts, inv = _top_k_mutant(kind)
        bounds = SMALL3
    else:
        posts, inv = _equi_join_mutant(tp, kind, loop)
        bounds = SMALL
    cand = candidate_for(tp, posts)
    res = validate(tp, cand, inv, bounds, fast=False)
    assert res.status == VIOLATED
    cex = res.counterexample
    assert (cex.vc.kind, cex.vc.loop) == (kind, loop)
    checker = verify._Checker(tp, cand, inv, bounds)
    assert checker.instance(cex.vc, cex.inputs, cex.indices) == cex
    back = counterexample_from_json(json.loads(json.dumps(cex.to_json())))
    assert back == cex
    assert checker.instance(back.vc, back.inputs, back.indices) == cex


# --- per-program state, per-candidate state, per-VC compilation ---------------


def test_program_state_is_built_once_and_a_rejection_compiles_what_it_reads(
    monkeypatch,
):
    """One synthesis builds the plan once and drops it on return; a
    candidate rejected at Preservation(j) by the row-local scan compiles
    only the inner invariant, not its post or the outer invariant."""
    tp = load_benchmark("join_select_project")
    built, compiled = [], []
    init, compile_recon = verify._Plan.__init__, verify._VarRecon.compile
    monkeypatch.setattr(
        verify._Plan,
        "__init__",
        lambda self, tp, bounds: built.append((tp, bounds)) or init(self, tp, bounds),
    )
    monkeypatch.setattr(
        verify._VarRecon,
        "compile",
        lambda self, schemas: compiled.append(self.expr) or compile_recon(self, schemas),
    )
    sol = first_valid(tp)
    assert (sol.rank, sol.stats.tried, sol.stats.rejected) == (1660, 1661, 1660)
    assert built == [(tp, Bounds())] and (verify._Plan, Bounds()) not in tp.memo
    cand = next(iter(enumerate_candidates(tp, extract_template(tp), 24)))
    inv = derive_invariants(tp, cand)
    compiled.clear()
    res = validate(tp, cand, inv)
    assert (res.status, res.counterexample.vc) == (VIOLATED, VC(PRESERVATION, "j"))
    assert compiled == [e for _, e in inv["j"]]
    validate(tp, cand, inv)
    assert built == [(tp, Bounds())] * 2  # once more after synthesis, then kept


def test_candidates_of_one_program_do_not_share_the_row_local_verdict():
    # the body's shape is the program's, the match of its update against
    # the post is the candidate's: s = s + R[i].a fits a sum post only
    tp = load_benchmark("sum")
    programs = []
    for kind, row_local in (("sum", True), ("max", False)):
        cand = candidate_for(tp, {"s": tor.AggOf(kind, "a", R_A)})
        inv = derive_invariants(tp, cand)
        checker = verify._Checker(tp, cand, inv, SMALL3)
        assert checker._row_local == row_local, kind
        programs.append(checker.plan)
        _agree(tp, cand, inv, SMALL3)
    assert programs[0] is programs[1]


# equi_join with a second list the inner body appends to on every step
EQUI_JOIN_JUNK = """
fn equi_join(R: rel(k: int, v: int), S: rel(k: int, w: int)) {
    var out: list(v: int, w: int);
    var junk: list(k: int);
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            junk.append({k: R[i].k});
            if R[i].k == S[j].k {
                out.append({v: R[i].v, w: S[j].w});
            }
        }
    }
    return out;
}
"""


def _verdict(res):
    return res.status, res.instances, res.counterexample


def test_row_scan_shares_inputs_but_not_stores_across_candidates():
    """The row scan's inputs are built once per (program, Bounds) and every
    candidate reads them; each instance still gets its own loop-head store,
    which run_inner appends to. So the verdicts with the inputs shared over
    60 candidates equal those of a fresh program per candidate, and the
    status equals the sweep's."""
    tp = typecheck(parse(EQUI_JOIN_JUNK))
    cands = list(itertools.islice(enumerate_candidates(tp, extract_template(tp), 24), 60))
    for cand in cands:
        res = validate(tp, cand, derive_invariants(tp, cand), SMALL)
        alone = typecheck(parse(EQUI_JOIN_JUNK))
        assert _verdict(res) == _verdict(
            validate(alone, cand, derive_invariants(alone, cand), SMALL)
        ), cand.serialization()
        slow = validate(tp, cand, derive_invariants(tp, cand), SMALL, fast=False)
        assert res.status == slow.status, cand.serialization()
        if res.status == VALID:
            assert res.instances == slow.instances
    plans = [key for key in tp.memo if isinstance(key, tuple)]
    assert plans == [(verify._Plan, SMALL)] and "scan" in vars(tp.memo[plans[0]])


def test_memoized_facts_equal_those_of_a_fresh_copy(benchmarks):
    """What each node keeps (to_sexpr, cost, facts, hash) after the search
    used it equals what a freshly built copy computes, for every post and
    invariant of the first 200 candidates of every program."""
    for tp in benchmarks.values():
        cands = enumerate_candidates(tp, extract_template(tp), 24)
        for cand in itertools.islice(cands, 200):
            inv = derive_invariants(tp, cand)
            validate(tp, cand, inv)
            exprs = [e for _, e in cand.posts]
            exprs += [e for eqs in inv.values() for _, e in eqs]
            for e in exprs:
                fresh = copy.deepcopy(e)
                assert fresh._sexpr is None and fresh is not e
                assert tor.to_sexpr(e) == tor.to_sexpr(fresh)
                assert tor.cost(e) == tor.cost(fresh)
                assert tor.facts(e) == tor.facts(fresh)
                assert hash(e) == hash(fresh) and e == fresh


def _empty_by_eval(e, tp, name, bounds=SMALL):
    """e has no rows with its index name at 0, over every bounded input of
    tp and every value of the other loop's index; a GetRow out of range
    counts as rows, since the expression is then not the empty relation."""
    params = [
        relation_values(p.ty, bounds)
        if isinstance(p.ty, Schema)
        else bounds.int_domain if p.ty == INT else bounds.text_domain
        for p in tp.ast.params
    ]
    names = [p.name for p in tp.ast.params]
    others = [l.index for l in tp.loops if l.index != name]
    for combo in itertools.product(*params):
        for at in itertools.product(range(bounds.rel_size + 1), repeat=len(others)):
            env = {**dict(zip(names, combo)), **dict(zip(others, at)), name: 0}
            try:
                if axioms.eval_rel(e, env).rows:
                    return False
            except IndexError:
                return False
    return True


def test_empty_at_zero_is_sound_on_the_corpus(benchmarks):
    """Wherever the walk reads an invariant's relation as empty at index 0,
    evaluating it there gives no rows; and it reads every outer invariant
    so, which is the premise init-const needs on Initiation(i)."""
    seen, checked = set(), 0
    for tp in benchmarks.values():
        outer = tp.loops[0].index
        cands = enumerate_candidates(tp, extract_template(tp), 24)
        for cand in itertools.islice(cands, 40):
            for loop, eqs in derive_invariants(tp, cand).items():
                for _, e in eqs:
                    if isinstance(e, (tor.AggOf, tor.SizeOf)):
                        e = e.of
                    if loop == outer:
                        assert verify._empty_at_zero(e, outer), tor.to_sexpr(e)
                    for index in (l.index for l in tp.loops):
                        if (tp.name, e, index) in seen:
                            continue
                        seen.add((tp.name, e, index))
                        if verify._empty_at_zero(e, index):
                            assert _empty_by_eval(e, tp, index), tor.to_sexpr(e)
                            checked += 1
    assert checked > 100


S_B = tor.Query("S")
R_I = tor.Top(R_A, tor.IndexRef("i"))  # empty at i = 0


@pytest.mark.parametrize(
    "e, empty",
    [
        (tor.Top(R_A, tor.IndexRef("i", -1)), True),
        (tor.Top(R_A, tor.IndexRef("i", +1)), False),
        (tor.Top(R_A, tor.IndexRef("j")), False),  # another loop's index
        (tor.Top(tor.Top(R_A, tor.IndexRef("i", +1)), tor.IntConst(0)), True),
        (tor.Concat(R_I, R_A), False),
        (tor.Concat(R_I, tor.Top(S_B, tor.IndexRef("i"))), True),
        (tor.Join(R_A, tor.Top(S_B, tor.IndexRef("i")), tor.TruePred()), True),
        (tor.Join(R_A, S_B, tor.TruePred()), False),
        (tor.Proj(("a",), tor.Sel(tor.TruePred(), R_I)), True),
        (tor.AppendRow(R_I, tor.GetRow(R_A, tor.IndexRef("i"))), False),
    ],
)
def test_empty_at_zero_on_hand_built_invariants(benchmarks, e, empty):
    assert verify._empty_at_zero(e, "i") == empty
    # over cross_join's R(a: int) and S(b: int), with j its inner index
    assert _empty_by_eval(e, benchmarks["cross_join"], "i") == empty
