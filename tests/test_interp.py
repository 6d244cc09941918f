"""Interpreter semantics, pinned by hand-computed results.

The expected values below were worked out on paper from the imperative
semantics (visit rows in order, append in visit order, min/max start
absent) and frozen before the interpreter ran them.
"""

import pytest

from qilc import interp
from qilc.frontend import parse, typecheck
from qilc.relation import OrderedRelation, Schema
from tests.conftest import load_benchmark

AB = Schema((("a", "int"), ("b", "text")))
KV = Schema((("k", "int"), ("v", "int")))
KW = Schema((("k", "int"), ("w", "int")))


def rel(schema, *rows):
    return OrderedRelation(schema, tuple(tuple(r) for r in rows))


def test_selection_keeps_order():
    tp = load_benchmark("selection")
    r = rel(AB, (1, "x"), (3, "y"), (2, "z"), (5, "w"))
    out = interp.run(tp, {"R": r})
    assert out.rows == ((3, "y"), (5, "w"))


def test_projection_preserves_duplicates():
    tp = load_benchmark("projection")
    r = rel(AB, (1, "x"), (2, "x"), (1, "y"))
    out = interp.run(tp, {"R": r})
    assert out.rows == (("x",), ("x",), ("y",))


def test_equi_join_is_left_major():
    tp = load_benchmark("equi_join")
    r = rel(KV, (1, 10), (2, 20), (1, 11))
    s = rel(KW, (1, 7), (1, 8), (2, 9))
    out = interp.run(tp, {"R": r, "S": s})
    # outer row order first, then inner row order within each outer row
    assert out.rows == ((10, 7), (10, 8), (20, 9), (11, 7), (11, 8))


def test_cross_join_positions():
    tp = load_benchmark("cross_join")
    r = rel(Schema((("a", "int"),)), (1,), (2,))
    s = rel(Schema((("b", "int"),)), (5,), (6,), (7,))
    out = interp.run(tp, {"R": r, "S": s})
    assert len(out.rows) == 6
    for i in range(2):
        for j in range(3):
            assert out.rows[i * 3 + j] == (r.rows[i][0], s.rows[j][0])


def test_aggregates():
    r = rel(AB, (4, "x"), (1, "y"), (2, "z"))
    assert interp.run(load_benchmark("sum"), {"R": r}) == 7
    assert interp.run(load_benchmark("count"), {"R": r}) == 3
    assert interp.run(load_benchmark("max_value"), {"R": r}) == 4
    assert interp.run(load_benchmark("min_value"), {"R": r}) == 1


def test_aggregates_on_empty_input():
    empty = rel(AB)
    assert interp.run(load_benchmark("sum"), {"R": empty}) == 0
    assert interp.run(load_benchmark("count"), {"R": empty}) == 0
    assert interp.run(load_benchmark("max_value"), {"R": empty}) is None
    assert interp.run(load_benchmark("min_value"), {"R": empty}) is None


@pytest.mark.parametrize(
    "k, expected",
    [
        (0, ()),
        (1, ((1, "x"),)),
        (2, ((1, "x"), (3, "y"))),
        (3, ((1, "x"), (3, "y"), (2, "z"))),
        (5, ((1, "x"), (3, "y"), (2, "z"))),
        (-1, ()),
    ],
)
def test_top_k_break(k, expected):
    tp = load_benchmark("top_k")
    r = rel(AB, (1, "x"), (3, "y"), (2, "z"))
    assert interp.run(tp, {"R": r, "k": k}).rows == expected


def test_break_in_inner_loop_stops_only_the_inner_loop():
    src = """
fn f(R: rel(a: int), S: rel(b: int)) {
    var out: list(a: int, b: int);
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            out.append({a: R[i].a, b: S[j].b});
            if S[j].b >= R[i].a {
                break;
            }
        }
    }
    return out;
}
"""
    tp = typecheck(parse(src))
    r = rel(Schema((("a", "int"),)), (2,), (0,), (5,))
    s = rel(Schema((("b", "int"),)), (1,), (3,), (2,))
    out = interp.run(tp, {"R": r, "S": s})
    # a = 2 stops after b = 3, a = 0 after b = 1, a = 5 never stops
    assert out.rows == ((2, 1), (2, 3), (0, 1), (5, 1), (5, 3), (5, 2))


def test_loops_over_an_empty_relation_run_no_iteration():
    tp = load_benchmark("cross_join")
    one = Schema((("a", "int"),))
    other = Schema((("b", "int"),))
    assert interp.run(tp, {"R": rel(one, (1,), (2,)), "S": rel(other)}).rows == ()
    assert interp.run(tp, {"R": rel(one), "S": rel(other, (5,))}).rows == ()
    top_k = load_benchmark("top_k")
    assert interp.run(top_k, {"R": rel(AB), "k": 2}).rows == ()


def test_check_inputs_rejects_mismatches():
    tp = load_benchmark("selection")
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {})
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {"R": rel(AB), "extra": 1})
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {"R": rel(KV, (1, 2))})
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {"R": 3})
    interp.check_inputs(tp, {"R": rel(AB, (1, "x"))})


def test_check_inputs_scalar_types():
    tp = load_benchmark("top_k")
    r = rel(AB)
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {"R": r, "k": "two"})
    with pytest.raises(interp.InputError):
        interp.check_inputs(tp, {"R": r, "k": True})
    interp.check_inputs(tp, {"R": r, "k": 2})


def test_pre_loop_assignment_runs_once():
    src = """
fn f(R: rel(a: int), base: int) {
    var s: int = 0;
    s = base;
    for i in 0 .. size(R) {
        s = s + R[i].a;
    }
    return s;
}
"""
    tp = typecheck(parse(src))
    r = rel(Schema((("a", "int"),)), (1,), (2,))
    assert interp.run(tp, {"R": r, "base": 10}) == 13


# --- the compiled blocks, run from a store as the verifier runs them ---------


def test_a_loop_index_is_gone_from_the_store_afterwards():
    tp = load_benchmark("equi_join")
    ex = interp.executor(tp)
    r, s = rel(KV, (1, 10)), rel(KW, (1, 7), (2, 8))
    store = ex.init_store({"R": r, "S": s})
    store["i"], store["j"] = 0, 5
    ex.block(tp.loops[0].node.body)(store)  # the outer body runs the inner loop
    assert store["i"] == 0 and "j" not in store
    assert store["out"] == [(10, 7)]
    ex.body(store)
    assert "i" not in store and "j" not in store


def test_a_row_past_the_relation_raises_index_error_where_it_is_read():
    tp = load_benchmark("top_k")
    ex = interp.executor(tp)
    body = ex.block(tp.loops[0].node.body)  # if i < k {append R[i]} if i + 1 >= k {break}
    store = ex.init_store({"R": rel(AB, (1, "x")), "k": 9})
    store["i"] = 3
    with pytest.raises(IndexError):
        body(store)
    store["k"] = 0  # i < k fails, so R[3] is never read
    assert body(store) is True and store["out"] == []


def test_and_or_and_nested_ifs_short_circuit():
    src = """
fn f(R: rel(a: int), k: int) {
    var out: list(a: int);
    var n: int = 0;
    for i in 0 .. size(R) {
        if i < k && R[i].a > 0 { n = n + 2; }
        if i >= k || R[i].a > 0 { n = n + 20; }
        if i < k { if R[i].a > 0 { out.append(R[i]); } }
    }
    return out;
}
"""
    tp = typecheck(parse(src))
    ex = interp.executor(tp)
    body = ex.block(tp.loops[0].node.body)
    store = ex.init_store({"R": rel(Schema((("a", "int"),)), (1,)), "k": 0})
    store["i"] = 4  # out of range: only a guard that is reached would raise
    assert body(store) is False
    assert store["n"] == 20 and store["out"] == []
    store["k"] = 9
    with pytest.raises(IndexError):
        body(store)


def test_min_max_accumulators_start_absent():
    tp = load_benchmark("min_value")
    ex = interp.executor(tp)
    store = ex.init_store({"R": rel(AB, (4, "x"), (2, "y"))})
    assert store["m"] is None
    store["i"] = 0
    ex.block(tp.loops[0].node.body)(store)
    assert store["m"] == 4
    store["i"] = 1
    ex.block(tp.loops[0].node.body)(store)
    assert store["m"] == 2


def test_ifs_nested_to_the_depth_bound_run():
    depth = 196  # under fn, for and the statement: the grammar's bound
    guards = "".join(f"if R[i].a > {n % 3} {{ " for n in range(depth))
    src = f"""
fn f(R: rel(a: int)) {{
    var out: list(a: int);
    for i in 0 .. size(R) {{
        {guards}out.append(R[i]);{" }" * depth}
    }}
    return out;
}}
"""
    tp = typecheck(parse(src))
    r = rel(Schema((("a", "int"),)), (3,), (1,), (2,), (5,))
    assert interp.run(tp, {"R": r}).rows == ((3,), (5,))
