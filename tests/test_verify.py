"""Bounded verification: condition generation, instance accounting,
violation behavior, and the fast-path/sweep agreement property."""

import json

import pytest

from qilc import synth, tor, verify
from qilc.frontend import parse, typecheck
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
    from qilc.relation import Schema

    vals = relation_values(Schema((("a", "int"),)), SMALL)
    # 2-value domain, sizes 0..2: 1 + 2 + 4 = 7, sizes ascending
    assert len(vals) == 7
    assert [v.size for v in vals] == [0, 1, 1, 2, 2, 2, 2]
    assert vals[1].rows == ((0,),)
    assert vals[2].rows == ((1,),)
    assert vals[3].rows == ((0,), (0,))


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
]


@pytest.mark.parametrize("name, bounds", FAST_SLOW_BENCHMARKS)
def test_fast_agrees_with_sweep(name, bounds):
    """Every candidate in the enumeration gets the same verdict from the
    shortcut checker and the instance-by-instance sweep, and a passing
    verdict reports the same (full analytic) instance total."""
    tp = load_benchmark(name)
    cands = enumerate_candidates(tp, extract_template(tp), 24)
    for cand in cands[:60]:
        inv = derive_invariants(tp, cand)
        fast = validate(tp, cand, inv, bounds, fast=True)
        slow = validate(tp, cand, inv, bounds, fast=False)
        assert fast.status == slow.status, cand.serialization()
        if fast.status == VALID:
            assert fast.instances == slow.instances, cand.serialization()
        if fast.status == VIOLATED:
            assert recheck(tp, cand, inv, fast.counterexample)
            assert recheck(tp, cand, inv, slow.counterexample)


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
