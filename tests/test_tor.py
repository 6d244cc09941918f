"""Algebra semantics, simplifier soundness, serialization, and cost."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qilc
from qilc import axioms, tor, verify
from qilc.relation import OrderedRelation, Schema, SchemaError
from qilc.verify import Bounds, relation_values

AB = Schema((("a", "int"), ("b", "text")))
A = Schema((("a", "int"),))
C = Schema((("c", "int"),))

R = OrderedRelation(AB, ((1, "x"), (3, "y"), (2, "z"), (3, "w")))
ENV = {"R": R}
SCHEMAS = {"R": AB}
WIDE_SCHEMAS = {"R": AB, "S": C}


def q(name="R"):
    return tor.Query(name)


def test_eval_sel_keeps_order_and_duplicates():
    e = tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(1)), q())
    assert axioms.eval_rel(e, ENV).rows == ((3, "y"), (2, "z"), (3, "w"))


def test_eval_proj_reorders_fields():
    e = tor.Proj(("b", "a"), q())
    out = axioms.eval_rel(e, ENV)
    assert out.schema.names == ("b", "a")
    assert out.rows[0] == ("x", 1)


@pytest.mark.parametrize(
    "k, expected_len",
    [(-1, 0), (0, 0), (2, 2), (4, 4), (9, 4)],
)
def test_eval_top_clamps(k, expected_len):
    e = tor.Top(q(), tor.IntConst(k))
    assert axioms.eval_rel(e, ENV).size == expected_len


def test_eval_join_left_major():
    env = {
        "L": OrderedRelation(A, ((1,), (2,))),
        "S": OrderedRelation(C, ((5,), (6,), (7,))),
    }
    e = tor.Join(tor.Query("L"), tor.Query("S"), tor.TruePred())
    out = axioms.eval_rel(e, env)
    assert out.schema.names == ("l.a", "r.c")
    for i, j in itertools.product(range(2), range(3)):
        assert out.rows[i * 3 + j] == (env["L"].rows[i][0], env["S"].rows[j][0])


def test_eval_append_concat_get():
    e = tor.AppendRow(tor.EmptyRel(A), tor.RecordConst((7,)))
    one = axioms.eval_rel(e, {})
    assert one.rows == ((7,),)
    both = tor.Concat(e, e)
    assert axioms.eval_rel(both, {}).rows == ((7,), (7,))
    got = axioms.eval_record(tor.GetRow(q(), tor.IntConst(2)), ENV)
    assert got == (2, "z")


def test_eval_scalar_aggregates():
    assert axioms.eval_scalar(tor.SizeOf(q()), ENV) == 4
    assert axioms.eval_scalar(tor.AggOf("sum", "a", q()), ENV) == 9
    assert axioms.eval_scalar(tor.AggOf("count", None, q()), ENV) == 4
    assert axioms.eval_scalar(tor.AggOf("min", "a", q()), ENV) == 1
    assert axioms.eval_scalar(tor.AggOf("max", "a", q()), ENV) == 3


def test_eval_aggregates_on_empty():
    empty = {"R": OrderedRelation(AB, ())}
    assert axioms.eval_scalar(tor.AggOf("sum", "a", q()), empty) == 0
    assert axioms.eval_scalar(tor.AggOf("count", None, q()), empty) == 0
    assert axioms.eval_scalar(tor.AggOf("min", "a", q()), empty) is None
    assert axioms.eval_scalar(tor.AggOf("max", "a", q()), empty) is None


def test_eval_index_refs_with_offset():
    env = {"R": R, "i": 1}
    e = tor.Top(q(), tor.IndexRef("i", +1))
    assert axioms.eval_rel(e, env).rows == R.rows[:2]


def test_unbound_names_raise():
    with pytest.raises(tor.UnboundName):
        axioms.eval_rel(q("missing"), {})
    with pytest.raises(tor.UnboundName):
        axioms.eval_scalar(tor.ParamRef("k"), {})


def test_tor_keeps_one_evaluator_the_compiled_closures():
    """The tree-walking reference lives with the axiom suite, off the
    pipeline's import path."""
    assert [n for n in dir(tor) if n.startswith("eval_")] == []
    assert "OrderedRelation" not in vars(tor)


def test_schema_of_tracks_operators():
    join = tor.Join(q(), tor.Query("S"), tor.TruePred())
    schemas = {"R": AB, "S": C}
    assert tor.schema_of(join, schemas).names == ("l.a", "l.b", "r.c")
    proj = tor.Proj(("r.c",), join)
    assert tor.schema_of(proj, schemas).names == ("r.c",)


def test_compile_pred_rejects_type_confusion():
    with pytest.raises(SchemaError, match="comparison mixes"):
        tor.compile_pred(
            tor.CmpAtom("<", tor.FieldRef("b"), tor.IntConst(1)), AB
        )
    # text comparisons are equality only
    with pytest.raises(SchemaError, match="text supports only"):
        tor.compile_pred(
            tor.CmpAtom("<", tor.FieldRef("b"), tor.TextConst("a")), AB
        )


def _sel(pred):
    return tor.Sel(pred, q())


# Malformed expressions over R (schema AB) and S (schema C), each with the
# exception class schema_of and compile_rel raise. schema_of is the schema
# half of compile_rel, so it also compiles a Top bound: the malformed bound
# below made compile_rel raise before, while schema_of ignored the bound and
# returned R's schema. An appended record must have as many values as the
# relation has fields, as eval_rel requires; compile_rel used to accept one
# of any width.
MALFORMED = {
    "unknown relation": (q("missing"), tor.UnboundName),
    "proj of a missing field": (tor.Proj(("z",), q()), SchemaError),
    "proj repeating a field": (tor.Proj(("a", "a"), q()), SchemaError),
    "concat of different schemas": (tor.Concat(q(), q("S")), SchemaError),
    "int against text": (
        _sel(tor.CmpAtom("=", tor.FieldRef("a"), tor.TextConst("x"))),
        SchemaError,
    ),
    "text ordered": (
        _sel(tor.CmpAtom("<", tor.FieldRef("b"), tor.TextConst("x"))),
        SchemaError,
    ),
    "non-predicate under sel": (_sel(tor.IntConst(1)), SchemaError),
    "scalar for a relation": (tor.Sel(tor.TruePred(), tor.SizeOf(q())), SchemaError),
    "malformed top bound": (tor.Top(q(), tor.FieldRef("a")), SchemaError),
    "record wider than the relation": (
        tor.AppendRow(tor.EmptyRel(A), tor.RecordConst((1, "x"))),
        SchemaError,
    ),
    "row of another width": (
        tor.AppendRow(q("S"), tor.GetRow(q(), tor.IntConst(0))),
        SchemaError,
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_schema_of_and_compile_rel_raise_the_same_errors(case):
    e, error = MALFORMED[case]
    for check in (tor.schema_of, tor.compile_rel):
        with pytest.raises(error) as raised:
            check(e, WIDE_SCHEMAS)
        assert type(raised.value) is error, check.__name__


# --- simplifier ------------------------------------------------------------


def test_simplify_rule_pins():
    sel = tor.Sel(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(0)), q())
    stacked = tor.Sel(tor.CmpAtom("<", tor.FieldRef("a"), tor.IntConst(3)), sel)
    merged = tor.simplify(stacked)
    assert isinstance(merged, tor.Sel) and isinstance(merged.pred, tor.AndP)

    assert tor.simplify(tor.Sel(tor.TruePred(), q())) == q()
    assert tor.simplify(tor.Top(q(), tor.SizeOf(q()))) == q()
    assert tor.simplify(tor.Concat(tor.EmptyRel(AB), q())) == q()
    assert tor.simplify(tor.Concat(q(), tor.EmptyRel(AB))) == q()

    two = tor.Top(tor.Top(q(), tor.IntConst(3)), tor.IntConst(2))
    assert tor.simplify(two) == tor.Top(q(), tor.IntConst(2))

    grow = tor.Concat(q(), tor.AppendRow(tor.EmptyRel(AB), tor.RecordConst((1, "x"))))
    assert tor.simplify(grow) == tor.AppendRow(q(), tor.RecordConst((1, "x")))


def _random_expr(rng, depth):
    """Random closed relation expression over R with schema AB."""
    if depth == 0 or rng.random() < 0.25:
        return q() if rng.random() < 0.8 else tor.EmptyRel(AB)
    pick = rng.choice(["sel", "top", "concat", "append", "selb"])
    if pick == "sel":
        atom = tor.CmpAtom(
            rng.choice(("<", "<=", ">", ">=", "=", "!=")),
            tor.FieldRef("a"),
            tor.IntConst(rng.randint(0, 3)),
        )
        return tor.Sel(atom, _random_expr(rng, depth - 1))
    if pick == "selb":
        atom = tor.CmpAtom(
            rng.choice(("=", "!=")), tor.FieldRef("b"), tor.TextConst(rng.choice("xyzw"))
        )
        return tor.Sel(atom, _random_expr(rng, depth - 1))
    if pick == "top":
        return tor.Top(_random_expr(rng, depth - 1), tor.IntConst(rng.randint(0, 5)))
    if pick == "concat":
        return tor.Concat(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return tor.AppendRow(
        _random_expr(rng, depth - 1),
        tor.RecordConst((rng.randint(0, 3), rng.choice("xyzw"))),
    )


def test_simplify_preserves_meaning_on_random_exprs():
    rng = random.Random(7)
    relations = [
        OrderedRelation(AB, ()),
        OrderedRelation(AB, ((1, "x"),)),
        R,
    ]
    for _ in range(300):
        e = _random_expr(rng, 4)
        s = tor.simplify(e)
        for r in relations:
            env = {"R": r}
            assert axioms.eval_rel(s, env) == axioms.eval_rel(e, env), tor.to_sexpr(e)


def test_simplify_never_grows_cost():
    rng = random.Random(11)
    for _ in range(300):
        e = _random_expr(rng, 4)
        assert tor.cost(tor.simplify(e)) <= tor.cost(e)


def _wide_pred(rng, sch):
    """Random well-typed predicate over sch, from every predicate kind."""
    roll = rng.random()
    if roll < 0.1:
        return tor.TruePred()
    if roll < 0.2:
        return tor.NotP(_wide_pred(rng, sch))
    if roll < 0.3:
        return rng.choice((tor.AndP, tor.OrP))(_wide_pred(rng, sch), _wide_pred(rng, sch))
    name, ty = rng.choice(sch.fields)
    if ty == "text":
        rhs = tor.TextConst(rng.choice("xy"))
        return tor.CmpAtom(rng.choice(("=", "!=")), tor.FieldRef(name), rhs)
    rhs = rng.choice((
        tor.IntConst(rng.randint(0, 2)),
        tor.ParamRef("k"),
        tor.IndexRef("i", rng.choice((-1, 0, 1))),
        tor.FieldRef(rng.choice([n for n, t in sch.fields if t == "int"])),
    ))
    return tor.CmpAtom(rng.choice(tuple(tor.CMP_OPS)), tor.FieldRef(name), rhs)


def _wide_index(rng, depth):
    """Random int scalar that is never absent: a Top bound or a Get index."""
    roll = rng.randrange(5)
    if roll == 0:
        return tor.IntConst(rng.randint(-1, 3))
    if roll == 1:
        return tor.ParamRef("k")
    if roll == 2:
        return tor.IndexRef("i", rng.choice((-1, 0, 1)))
    e, _ = _wide_rel(rng, depth)
    return tor.SizeOf(e) if roll == 3 else tor.AggOf("count", None, e)


def _wide_rel(rng, depth):
    """Random relation expression over R and S from every relation kind,
    with its schema."""
    if depth == 0 or rng.random() < 0.2:
        name = rng.choice("RS")
        sch = WIDE_SCHEMAS[name]
        return (tor.EmptyRel(sch) if rng.random() < 0.2 else q(name)), sch
    e, sch = _wide_rel(rng, depth - 1)
    pick = rng.choice(("sel", "proj", "join", "top", "append", "concat"))
    if pick == "sel":
        return tor.Sel(_wide_pred(rng, sch), e), sch
    if pick == "proj":
        names = tuple(rng.sample(sch.names, rng.randint(1, len(sch.names))))
        return tor.Proj(names, e), sch.restrict(names)
    if pick == "join":
        right, rsch = _wide_rel(rng, depth - 1)
        sch = sch.joined_with(rsch)
        return tor.Join(e, right, _wide_pred(rng, sch)), sch
    if pick == "top":
        return tor.Top(e, _wide_index(rng, depth - 1)), sch
    if pick == "append":
        if rng.random() < 0.5:
            rec = tor.RecordConst(tuple(1 if t == "int" else "x" for t in sch.types))
        else:
            rec = tor.GetRow(e, _wide_index(rng, depth - 1))
        return tor.AppendRow(e, rec), sch
    return tor.Concat(e, tor.Sel(_wide_pred(rng, sch), e)), sch


def _wide_expr(rng):
    """A relation expression, or a size or aggregate of one."""
    e, sch = _wide_rel(rng, 3)
    ints = [n for n, t in sch.fields if t == "int"]
    roll = rng.randrange(3)
    if roll == 0:
        return e
    if roll == 1 or not ints:
        return tor.SizeOf(e)
    kind = rng.choice(tor.AGG_KINDS)
    return tor.AggOf(kind, None if kind == "count" else rng.choice(ints), e)


def _outcome(run):
    try:
        return run()
    except IndexError:  # a Get past the end, in both evaluators
        return IndexError


def test_compiled_matches_interpreted():
    rng = random.Random(13)
    bounds = Bounds(rel_size=2, int_domain=(0, 1), text_domain=("x",))
    envs = [
        {"R": r, "S": s, "k": k, "i": i}
        for r in relation_values(AB, bounds)
        for s in relation_values(C, bounds)
        for k in (-1, 1)
        for i in (0, 1)
    ]
    drawn = [_wide_expr(rng) for _ in range(150)] + [EVERY_KIND]
    kinds = {type(n) for e in drawn for n in _subtrees(e)}
    assert kinds == set(CHILD_FIELDS)
    assert {n.kind for e in drawn for n in _subtrees(e) if isinstance(n, tor.AggOf)} == set(
        tor.AGG_KINDS
    )
    values = 0
    for e in drawn:
        if isinstance(e, tor.REL_NODES):
            _, fn = tor.compile_rel(e, WIDE_SCHEMAS)
            reference = lambda env: axioms.eval_rel(e, env).rows  # noqa: E731
        else:
            fn = tor.compile_scalar(e, WIDE_SCHEMAS)
            reference = lambda env: axioms.eval_scalar(e, env)  # noqa: E731
        for env in envs:
            got = _outcome(lambda: fn(env))
            assert got == _outcome(lambda: reference(env)), tor.to_sexpr(e)
            values += got is not IndexError
    assert values > len(drawn) * len(envs) // 2


# --- serialization and cost --------------------------------------------------


def test_sexpr_golden():
    e = tor.Sel(
        tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(2)),
        tor.Top(q(), tor.IndexRef("i")),
    )
    assert tor.to_sexpr(e) == "(sel (> (field a) 2) (top (query R) (idx i)))"
    assert tor.to_sexpr(tor.IndexRef("i", +1)) == "(idx i +1)"
    assert tor.to_sexpr(tor.AggOf("count", None, q())) == "(agg count * (query R))"
    assert (
        tor.to_sexpr(tor.Proj(("b", "a"), q()))
        == "(proj (b a) (query R))"
    )


def test_sexpr_distinguishes_distinct_exprs():
    rng = random.Random(17)
    seen = {}
    for _ in range(500):
        e = _random_expr(rng, 3)
        s = tor.to_sexpr(e)
        if s in seen:
            assert seen[s] == e
        seen[s] = e


def test_cost_pins():
    assert tor.cost(q()) == 2
    assert tor.cost(tor.Sel(tor.TruePred(), q())) == 4
    assert tor.cost(tor.Proj(("a", "b"), q())) == 5
    assert tor.cost(tor.Top(q(), tor.ParamRef("k"))) == 4
    join = tor.Join(q(), tor.Query("S"), tor.TruePred())
    assert tor.cost(join) == 6
    assert tor.cost(tor.AggOf("sum", "a", q())) == 4
    assert tor.cost(tor.AggOf("count", None, q())) == 3
    for leaf in (
        tor.IntConst(3),
        tor.TextConst("x"),
        tor.ParamRef("k"),
        tor.IndexRef("i", 1),
        tor.FieldRef("a"),
        tor.TruePred(),
    ):
        assert tor.cost(leaf) == 1
    atom = tor.CmpAtom("<", tor.FieldRef("a"), tor.ParamRef("k"))
    assert tor.cost(atom) == 3
    assert tor.cost(tor.AndP(atom, tor.TruePred())) == 5
    assert tor.cost(tor.OrP(atom, tor.TruePred())) == 5
    assert tor.cost(tor.NotP(atom)) == 4
    assert tor.cost(tor.EmptyRel(AB)) == 3
    assert tor.cost(tor.RecordConst((1, "x"))) == 3
    assert tor.cost(tor.AppendRow(tor.EmptyRel(A), tor.RecordConst((1,)))) == 5
    assert tor.cost(tor.Concat(q(), q("S"))) == 5
    assert tor.cost(tor.GetRow(q(), tor.IndexRef("i"))) == 4
    assert tor.cost(tor.SizeOf(q())) == 3
    assert tor.cost(EVERY_KIND) == 40  # the tree holding every node kind, below


# --- generic traversal -------------------------------------------------------

# the fields of each node kind that hold sub-expressions, in field order
CHILD_FIELDS = {
    tor.IntConst: (),
    tor.TextConst: (),
    tor.ParamRef: (),
    tor.IndexRef: (),
    tor.FieldRef: (),
    tor.TruePred: (),
    tor.CmpAtom: ("lhs", "rhs"),
    tor.AndP: ("left", "right"),
    tor.OrP: ("left", "right"),
    tor.NotP: ("operand",),
    tor.Query: (),
    tor.EmptyRel: (),
    tor.Sel: ("pred", "of"),
    tor.Proj: ("of",),
    tor.Join: ("left", "right", "pred"),
    tor.Top: ("of", "k"),
    tor.AppendRow: ("of", "rec"),
    tor.Concat: ("left", "right"),
    tor.GetRow: ("of", "idx"),
    tor.RecordConst: (),
    tor.SizeOf: ("of",),
    tor.AggOf: ("of",),
}

EVERY_KIND = tor.AggOf(
    "sum",
    "a",
    tor.Concat(
        tor.Top(
            tor.Proj(
                ("a",),
                tor.Sel(
                    tor.OrP(
                        tor.NotP(tor.CmpAtom("=", tor.FieldRef("b"), tor.TextConst("x"))),
                        tor.AndP(
                            tor.TruePred(),
                            tor.CmpAtom("<", tor.FieldRef("a"), tor.ParamRef("k")),
                        ),
                    ),
                    q(),
                ),
            ),
            tor.SizeOf(q()),
        ),
        tor.AppendRow(
            tor.AppendRow(tor.EmptyRel(A), tor.RecordConst((1,))),
            tor.GetRow(
                tor.Proj(
                    ("l.a",),
                    tor.Join(
                        q(),
                        q("S"),
                        tor.CmpAtom(">", tor.FieldRef("l.a"), tor.IntConst(0)),
                    ),
                ),
                tor.IndexRef("i", 1),
            ),
        ),
    ),
)


def _subtrees(e):
    yield e
    for c in tor.children(e):
        yield from _subtrees(c)


def test_children_are_exactly_the_node_valued_fields():
    assert set(CHILD_FIELDS) == set(tor.Node.__subclasses__())
    nodes = list(_subtrees(EVERY_KIND))
    assert {type(n) for n in nodes} == set(CHILD_FIELDS)
    for n in nodes:
        assert tor.children(n) == [getattr(n, f) for f in CHILD_FIELDS[type(n)]]


def test_map_children_rebuilds_only_children():
    for n in _subtrees(EVERY_KIND):
        assert tor.map_children(n, lambda c: c) == n
    s = q("S")
    assert tor.map_children(tor.Proj(("a",), q()), lambda c: s) == tor.Proj(("a",), s)
    assert tor.map_children(tor.AggOf("max", "a", q()), lambda c: s) == tor.AggOf("max", "a", s)
    assert tor.map_children(tor.EmptyRel(A), lambda c: s) == tor.EmptyRel(A)


def test_subst_index_in_nested_predicate():
    shifted = tor.CmpAtom("<", tor.FieldRef("a"), tor.IndexRef("i", +1))
    e = tor.Sel(tor.AndP(tor.TruePred(), tor.NotP(shifted)), q())
    assert verify._subst_index(e, "i", tor.SizeOf(q())) is None
    assert verify._subst_index(e, "i", tor.IntConst(2)) == tor.Sel(
        tor.AndP(
            tor.TruePred(),
            tor.NotP(tor.CmpAtom("<", tor.FieldRef("a"), tor.IntConst(3))),
        ),
        q(),
    )
    assert verify._subst_index(e, "j", tor.SizeOf(q())) == e


# --- the node class and what each node memoizes -----------------------------

BA = Schema((("b", "text"), ("a", "int")))


def _sel_a1():
    return tor.Sel(tor.CmpAtom("=", tor.FieldRef("a"), tor.IntConst(1)), q())


def test_equal_nodes_built_apart_are_interchangeable():
    a, b = _sel_a1(), _sel_a1()
    assert a is not b and a == b and hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert len(table) == 1 and table[_sel_a1()] == "second"
    assert tor.AndP(q(), q("S")) != tor.OrP(q(), q("S"))
    assert tor.IndexRef("i") == tor.IndexRef("i", 0) != tor.IndexRef("i", 1)


def test_nodes_are_immutable():
    e = _sel_a1()
    for name in ("of", "pred", "_sexpr", "_compiled", "unknown"):
        with pytest.raises(AttributeError):
            setattr(e, name, q("S"))
    with pytest.raises(AttributeError):
        del e.of
    assert e.of == q()


def test_repr_is_the_dataclass_text():
    assert repr(tor.Sel(tor.TruePred(), q())) == "Sel(pred=TruePred(), of=Query(rel='R'))"
    assert repr(tor.IndexRef("i")) == "IndexRef(name='i', offset=0)"
    assert repr(tor.AggOf("count", None, tor.EmptyRel(A))) == (
        "AggOf(kind='count', field=None, "
        "of=EmptyRel(schema=Schema(fields=(('a', 'int'),))))"
    )


def test_pickle_and_copy_drop_the_memo():
    e = _sel_a1()
    _, fn = tor.compile_rel(e, SCHEMAS)
    tor.to_sexpr(e), tor.cost(e), tor.facts(e), hash(e)
    for clone in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert all(getattr(clone, slot) is None for slot in tor.Node.__slots__)
        assert clone == e and clone is not e
        assert tor.compile_rel(clone, SCHEMAS)[1](ENV) == fn(ENV) == ((1, "x"),)


def test_compile_memo_is_kept_per_schemas():
    e = _sel_a1()
    env_ab = {"R": OrderedRelation(AB, ((1, "x"), (2, "y")))}
    env_ba = {"R": OrderedRelation(BA, (("x", 1), ("y", 2)))}
    sch_ab, f_ab = tor.compile_rel(e, {"R": AB})
    sch_ba, f_ba = tor.compile_rel(e, {"R": BA})
    assert (sch_ab, sch_ba) == (AB, BA) and f_ab is not f_ba
    assert f_ab(env_ab) == ((1, "x"),) and f_ba(env_ba) == (("x", 1),)
    assert tor.compile_rel(e, {"R": AB})[1](env_ab) == ((1, "x"),)
    p = e.pred
    assert tor.compile_pred(p, AB)((1, "x"), {}) and not tor.compile_pred(p, AB)(("x", 1), {})
    assert tor.compile_pred(p, BA)(("x", 1), {}) and not tor.compile_pred(p, BA)((1, "x"), {})


def test_failed_compile_is_never_memoized():
    bad = tor.Sel(tor.CmpAtom("<", tor.FieldRef("b"), tor.TextConst("x")), q())
    unbound = _sel_a1()
    for _ in range(2):
        with pytest.raises(SchemaError):
            tor.compile_rel(bad, SCHEMAS)
        with pytest.raises(tor.UnboundName):
            tor.compile_rel(unbound, {"S": AB})
    assert bad._compiled is None and bad.pred._compiled is None
    assert unbound._compiled is None
    assert tor.compile_rel(unbound, SCHEMAS)[1](ENV) == ((1, "x"),)


def test_facts_fold():
    e = tor.AggOf(
        "sum",
        "a",
        tor.Top(
            tor.AppendRow(
                tor.Sel(tor.CmpAtom("<", tor.FieldRef("a"), tor.IndexRef("i", 1)), q()),
                tor.RecordConst((4, "w")),
            ),
            tor.IntConst(2),
        ),
    )
    f = tor.facts(e)
    assert (f.ints, f.texts, f.indices, f.fields, f.has_top) == ({2, 4}, {"w"}, {"i"}, {"a"}, True)
    f = tor.facts(tor.Sel(tor.CmpAtom("=", tor.FieldRef("b"), tor.TextConst("x")), q()))
    assert (f.ints, f.texts, f.indices, f.fields, f.has_top) == (set(), {"x"}, set(), {"b"}, False)


# --- axiom suite (small bounds here; full bounds in the acceptance tests) ----


def test_axioms_hold_at_small_bounds():
    res = axioms.check_all(Bounds(rel_size=2, int_domain=(0, 1), text_domain=("a",)))
    for name, (checked, violations) in res.items():
        assert checked > 0, name
        assert violations == [], name


def test_package_loads_the_axiom_suite_only_when_asked():
    # the pipeline never runs the suite, so `import qilc` leaves it out;
    # qilc.check_all and a star import still reach it
    code = (
        "import sys, qilc; assert 'qilc.axioms' not in sys.modules; "
        "from qilc import *; assert check_all is sys.modules['qilc.axioms'].check_all"
    )
    src = str(Path(qilc.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=60,
    )
    assert qilc.check_all is axioms.check_all
    one_row = Bounds(rel_size=1, int_domain=(0,), text_domain=("a",))
    assert all(v == [] for _, v in qilc.check_all(one_row).values())


def test_row_scan_lemmas_hold_with_pinned_counts():
    """L1-L5, which the verifier's row-local scan and prover need besides
    A1-A7, hold for every relation of up to 3 rows over ints {0,1,2} and
    text {a,b}, cut at every position (L4 and L5 with bounds -1 .. 4 and
    -1 .. 0); the counts are pinned so the check cannot shrink."""
    res = axioms.check_lemmas(Bounds())
    assert {name: n for name, (n, _) in res.items()} == {
        "L1": 726,
        "L2": 9850,
        "L3": 2955,
        "L4": 9324,
        "L5": 518,
    }
    for name, (_, violations) in res.items():
        assert violations == [], f"{name}: {violations[:2]}"


def test_distribution_check_catches_a_law_that_fails():
    # Top(1, Concat(l, r)) is not Concat(Top(1, l), Top(1, r)) once both
    # parts have a row, so the shared checker must report it
    def top(k, e):
        return tor.Top(e, tor.IntConst(k))

    checked, violations = axioms._distributes("Top", top, (1,), Bounds())
    assert checked == 985
    assert violations and violations[0]["lemma"] == "Top"
