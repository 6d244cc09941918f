"""Translation to SQL, canonical rendering, parsing, and the mini engine."""

import itertools

import pytest

from qilc import emit, tor, verify
from qilc.emit import MiniDb, NotTranslatable, eval_sql, parse_sql, render, to_sql
from qilc.relation import OrderedRelation, Schema, SchemaError

AB = Schema((("a", "int"), ("b", "text")))
KV = Schema((("k", "int"), ("v", "int")))
KW = Schema((("k", "int"), ("w", "int")))

SCHEMAS = {"R": AB}
JOIN_SCHEMAS = {"R": KV, "S": KW}


def q(name="R"):
    return tor.Query(name)


def gt(field, c):
    return tor.CmpAtom(">", tor.FieldRef(field), tor.IntConst(c))


# --- golden renderings -------------------------------------------------------


@pytest.mark.parametrize(
    "expr, schemas, expected",
    [
        (q(), SCHEMAS, "SELECT R.* FROM R ORDER BY R.rid"),
        (
            tor.Sel(gt("a", 2), q()),
            SCHEMAS,
            "SELECT R.* FROM R WHERE R.a > 2 ORDER BY R.rid",
        ),
        (
            tor.Proj(("b",), q()),
            SCHEMAS,
            "SELECT R.b FROM R ORDER BY R.rid",
        ),
        (
            tor.Proj(("b",), tor.Sel(gt("a", 1), q())),
            SCHEMAS,
            "SELECT R.b FROM R WHERE R.a > 1 ORDER BY R.rid",
        ),
        (
            tor.Top(q(), tor.ParamRef("k")),
            SCHEMAS,
            "SELECT R.* FROM R ORDER BY R.rid LIMIT MAX(:k, 0)",
        ),
        (
            tor.Top(q(), tor.IntConst(2)),
            SCHEMAS,
            "SELECT R.* FROM R ORDER BY R.rid LIMIT 2",
        ),
        (
            tor.AggOf("sum", "a", q()),
            SCHEMAS,
            "SELECT COALESCE(SUM(R.a), 0) FROM R",
        ),
        (
            tor.AggOf("count", None, q()),
            SCHEMAS,
            "SELECT COUNT(*) FROM R",
        ),
        (
            tor.AggOf("max", "a", tor.Sel(gt("a", 0), q())),
            SCHEMAS,
            "SELECT MAX(R.a) FROM R WHERE R.a > 0",
        ),
        (
            tor.Join(q(), tor.Query("S"), tor.TruePred()),
            JOIN_SCHEMAS,
            "SELECT R.*, S.* FROM R, S ORDER BY R.rid, S.rid",
        ),
        (
            tor.Proj(
                ("l.v", "r.w"),
                tor.Join(
                    q(),
                    tor.Query("S"),
                    tor.CmpAtom("=", tor.FieldRef("l.k"), tor.FieldRef("r.k")),
                ),
            ),
            JOIN_SCHEMAS,
            "SELECT R.v, S.w FROM R, S WHERE R.k = S.k ORDER BY R.rid, S.rid",
        ),
        (
            tor.Sel(
                tor.CmpAtom("!=", tor.FieldRef("b"), tor.TextConst("x")), q()
            ),
            SCHEMAS,
            "SELECT R.* FROM R WHERE R.b <> 'x' ORDER BY R.rid",
        ),
        (
            tor.Top(q(), tor.IntConst(-2)),
            SCHEMAS,
            "SELECT R.* FROM R ORDER BY R.rid LIMIT MAX(-2, 0)",
        ),
    ],
)
def test_golden_sql(expr, schemas, expected):
    assert render(to_sql(expr, schemas)) == expected


def test_normalization_reaches_canonical_shape():
    # Sel over Proj commutes when the predicate mentions projected fields
    left = tor.Sel(gt("a", 1), tor.Proj(("a",), q()))
    right = tor.Proj(("a",), tor.Sel(gt("a", 1), q()))
    assert render(to_sql(left, SCHEMAS)) == render(to_sql(right, SCHEMAS))

    # selections inside a join float up into WHERE
    inside = tor.Join(tor.Sel(gt("v", 0), q()), tor.Query("S"), tor.TruePred())
    sql = render(to_sql(inside, JOIN_SCHEMAS))
    assert sql == "SELECT R.*, S.* FROM R, S WHERE R.v > 0 ORDER BY R.rid, S.rid"

    # stacked prefixes merge to the smaller constant
    stacked = tor.Top(tor.Top(q(), tor.IntConst(3)), tor.IntConst(1))
    assert render(to_sql(stacked, SCHEMAS)).endswith("LIMIT 1")


@pytest.mark.parametrize(
    "expr",
    [
        tor.Concat(q(), q()),
        tor.AppendRow(q(), tor.RecordConst((1, "x"))),
        tor.EmptyRel(AB),
        tor.GetRow(q(), tor.IntConst(0)),
        tor.Sel(gt("a", 0), tor.Top(q(), tor.IntConst(2))),
        tor.Top(q(), tor.SizeOf(tor.Query("S"))),
        tor.Sel(tor.CmpAtom("<", tor.FieldRef("a"), tor.IndexRef("i")), q()),
        # true under OR or NOT has no SQL form
        tor.Sel(tor.OrP(tor.TruePred(), gt("a", 1)), q()),
        tor.Sel(tor.NotP(tor.TruePred()), q()),
    ],
)
def test_not_translatable(expr):
    schemas = {"R": AB, "S": AB}
    with pytest.raises(NotTranslatable):
        to_sql(expr, schemas)


def test_ill_typed_aggregates_are_refused_before_translation():
    # the record path validates through tor.schema_of; aggregates must too,
    # or SUM over a text column and an int-text comparison reach the SQL
    int_vs_text = tor.CmpAtom("<", tor.FieldRef("b"), tor.IntConst(1))
    for e in [
        tor.AggOf("sum", "b", q()),
        tor.AggOf("count", None, tor.Sel(int_vs_text, q())),
        tor.AggOf("max", "c", q()),
        tor.AggOf("sum", "a", tor.Proj(("b",), q())),
    ]:
        with pytest.raises(SchemaError):
            to_sql(e, SCHEMAS)


def test_sel_after_top_param_not_translatable():
    # filtering a prefix is not the same as a prefix of a filter, so there
    # is no WHERE/LIMIT form; the translator must refuse rather than emit
    e = tor.Sel(gt("a", 0), tor.Top(q(), tor.ParamRef("k")))
    with pytest.raises(NotTranslatable):
        to_sql(e, SCHEMAS)


# predicates neither the enumerator nor criterion 4's int-only vocabulary
# builds: OR, NOT, a conjunction with true, and text inequality
WIDER_PREDS = [
    tor.OrP(gt("a", 1), tor.CmpAtom("=", tor.FieldRef("b"), tor.TextConst("x"))),
    tor.NotP(gt("a", 0)),
    tor.AndP(tor.TruePred(), gt("a", 1)),
    tor.CmpAtom("!=", tor.FieldRef("b"), tor.TextConst("x")),
]


@pytest.mark.parametrize("pred", WIDER_PREDS)
def test_wider_predicates_round_trip_and_agree_with_algebra(pred):
    e = tor.Sel(pred, q())
    sql = to_sql(e, SCHEMAS)
    assert parse_sql(render(sql)) == sql
    bounds = verify.Bounds(rel_size=3, int_domain=(0, 1, 2), text_domain=("x", "y"))
    rels = verify.relation_values(AB, bounds)
    assert len(rels) == 1 + 6 + 36 + 216
    for r in rels:
        want = tor.eval_rel(e, {"R": r})
        got = eval_sql(sql, db(R=r))
        assert (got.schema, got.rows) == (want.schema, want.rows), r.rows


# --- parse/render inversion ---------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "SELECT R.* FROM R ORDER BY R.rid",
        "SELECT R.b FROM R WHERE R.a > 1 ORDER BY R.rid",
        "SELECT R.* FROM R WHERE R.a > 2 AND R.b = 'x' ORDER BY R.rid LIMIT 2",
        "SELECT R.* FROM R ORDER BY R.rid LIMIT MAX(:k, 0)",
        "SELECT R.* FROM R WHERE R.b = 'it''s' ORDER BY R.rid",
        "SELECT R.v, S.w FROM R, S WHERE R.k = S.k ORDER BY R.rid, S.rid",
        "SELECT COALESCE(SUM(R.a), 0) FROM R",
        "SELECT COUNT(*) FROM R WHERE R.a <> 0",
        "SELECT MIN(R.a) FROM R",
        "SELECT R.* FROM R WHERE NOT (R.a = 1 OR R.a = 2) ORDER BY R.rid",
    ],
)
def test_parse_render_identity(text):
    assert render(parse_sql(text)) == text


def test_text_literal_with_a_quote_round_trips_and_evaluates():
    e = tor.Sel(tor.CmpAtom("=", tor.FieldRef("b"), tor.TextConst("it's")), q())
    sql = to_sql(e, SCHEMAS)
    assert parse_sql(render(sql)) == sql
    r = OrderedRelation(AB, ((1, "it's"), (2, "it"), (3, "s")))
    assert eval_sql(parse_sql(render(sql)), db(R=r)).rows == ((1, "it's"),)


def test_the_clamped_and_the_bare_limit_parse_apart():
    base = "SELECT R.* FROM R ORDER BY R.rid LIMIT "
    for k in (":k", "-2", "3"):
        clamped, bare = parse_sql(base + f"MAX({k}, 0)"), parse_sql(base + k)
        assert clamped.limit == emit.Clamped(bare.limit)
        assert render(clamped) == base + f"MAX({k}, 0)" and render(bare) == base + k
    for bad in ("MAX(:k, 1)", "MAX(R.a, 0)", "MAX(:k)"):
        with pytest.raises(emit.SqlSyntaxError):
            parse_sql(base + bad)


def test_parse_errors():
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT FROM R")
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT R.* FROM R ORDER BY R.rid LIMIT")
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("DELETE FROM R")
    # on an empty table SQL gives NULL and 5 here, where MiniDb would give 0
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT SUM(R.a) FROM R")
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT COALESCE(SUM(R.a), 5) FROM R")


def test_parse_rejects_noncanonical_order():
    # the engine realizes exactly one order (each source's rid, FROM
    # order), so any other ORDER BY would be silently misread
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT R.v, S.w FROM R, S ORDER BY S.rid, R.rid")
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT R.* FROM R ORDER BY R.a")
    with pytest.raises(emit.SqlSyntaxError):
        parse_sql("SELECT R.*, S.* FROM R, S ORDER BY R.rid")


# --- mini engine ----------------------------------------------------------------


def db(**values):
    return MiniDb.from_values(values)


R_DATA = OrderedRelation(AB, ((1, "x"), (3, "y"), (2, "z"), (5, "w")))


def test_eval_select_preserves_insertion_order():
    out = eval_sql(parse_sql("SELECT R.* FROM R ORDER BY R.rid"), db(R=R_DATA))
    assert out.rows == R_DATA.rows


def test_eval_where_and_projection():
    out = eval_sql(
        parse_sql("SELECT R.b FROM R WHERE R.a > 2 ORDER BY R.rid"), db(R=R_DATA)
    )
    assert out.rows == (("y",), ("w",))


def test_eval_join_is_left_major():
    r = OrderedRelation(Schema((("a", "int"),)), ((1,), (2,)))
    s = OrderedRelation(Schema((("b", "int"),)), ((5,), (6,), (7,)))
    out = eval_sql(
        parse_sql("SELECT R.*, S.* FROM R, S ORDER BY R.rid, S.rid"), db(R=r, S=s)
    )
    assert out.size == 6
    for i, j in itertools.product(range(2), range(3)):
        assert out.rows[i * 3 + j] == (r.rows[i][0], s.rows[j][0])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("SELECT COALESCE(SUM(R.a), 0) FROM R", 0),
        ("SELECT COUNT(*) FROM R", 0),
        ("SELECT MIN(R.a) FROM R", None),
        ("SELECT MAX(R.a) FROM R", None),
    ],
)
def test_eval_aggregates_on_empty_table(text, expected):
    empty = OrderedRelation(AB, ())
    assert eval_sql(parse_sql(text), db(R=empty)) == expected


def test_eval_limit_clamps():
    base = "SELECT R.* FROM R ORDER BY R.rid LIMIT "
    assert eval_sql(parse_sql(base + "0"), db(R=R_DATA)).size == 0
    assert eval_sql(parse_sql(base + "2"), db(R=R_DATA)).size == 2
    assert eval_sql(parse_sql(base + "9"), db(R=R_DATA)).size == 4
    neg = eval_sql(parse_sql(base + "MAX(:k, 0)"), db(R=R_DATA, k=-3))
    assert neg.size == 0
    assert eval_sql(parse_sql(base + "MAX(-1, 0)"), db(R=R_DATA)).size == 0


def test_eval_bare_negative_limit_is_no_limit():
    base = "SELECT R.* FROM R ORDER BY R.rid LIMIT "
    assert eval_sql(parse_sql(base + ":k"), db(R=R_DATA, k=-3)).rows == R_DATA.rows
    assert eval_sql(parse_sql(base + "-1"), db(R=R_DATA)).rows == R_DATA.rows


def test_eval_unknown_names():
    with pytest.raises(emit.UnknownTable):
        eval_sql(parse_sql("SELECT R.* FROM R ORDER BY R.rid"), db())
    with pytest.raises(emit.UnknownColumn):
        eval_sql(parse_sql("SELECT R.c FROM R ORDER BY R.rid"), db(R=R_DATA))
    with pytest.raises(emit.UnknownParam):
        eval_sql(parse_sql("SELECT R.* FROM R ORDER BY R.rid LIMIT :k"), db(R=R_DATA))


def test_eval_unknown_column_in_where_or_aggregate_needs_a_row():
    empty = db(R=OrderedRelation(AB, ()))
    where = parse_sql("SELECT R.* FROM R WHERE R.c > 1 ORDER BY R.rid")
    assert eval_sql(where, empty).rows == ()
    assert eval_sql(parse_sql("SELECT MIN(R.c) FROM R"), empty) is None
    with pytest.raises(emit.UnknownColumn):
        eval_sql(where, db(R=R_DATA))
    with pytest.raises(emit.UnknownColumn):
        eval_sql(parse_sql("SELECT MIN(R.c) FROM R"), db(R=R_DATA))


def test_eval_and_or_short_circuit_before_a_bad_column():
    base = "SELECT R.* FROM R WHERE {} ORDER BY R.rid"
    assert eval_sql(parse_sql(base.format("R.a > 9 AND R.c > 1")), db(R=R_DATA)).rows == ()
    every = eval_sql(parse_sql(base.format("R.a < 9 OR R.c > 1")), db(R=R_DATA))
    assert every.rows == R_DATA.rows
    with pytest.raises(emit.UnknownColumn):
        eval_sql(parse_sql(base.format("R.a > 4 AND R.c > 1")), db(R=R_DATA))
    with pytest.raises(emit.UnknownParam):
        eval_sql(parse_sql(base.format("R.a < 2 OR R.a = :k")), db(R=R_DATA))
    assert eval_sql(parse_sql(base.format("R.a = :k")), db(R=OrderedRelation(AB, ()))).rows == ()


def test_eval_unknown_column_in_select_raises_on_an_empty_table():
    empty = db(R=OrderedRelation(AB, ()))
    with pytest.raises(emit.UnknownColumn):
        eval_sql(parse_sql("SELECT R.c FROM R ORDER BY R.rid"), empty)
    with pytest.raises(emit.UnknownColumn):
        eval_sql(parse_sql("SELECT R.c FROM R WHERE R.a > 9 ORDER BY R.rid"), db(R=R_DATA))


def test_eval_self_join_qualifies_repeated_names():
    r = OrderedRelation(AB, ((1, "x"), (2, "y")))
    out = eval_sql(
        parse_sql("SELECT R.*, R2.* FROM R, R R2 ORDER BY R.rid, R2.rid"), db(R=r)
    )
    assert out.schema.names == ("R.a", "R.b", "R2.a", "R2.b")
    assert out.rows == (
        (1, "x", 1, "x"),
        (1, "x", 2, "y"),
        (2, "y", 1, "x"),
        (2, "y", 2, "y"),
    )
    picked = eval_sql(
        parse_sql("SELECT R.a, R2.b FROM R, R R2 WHERE R.a < R2.a ORDER BY R.rid, R2.rid"),
        db(R=r),
    )
    assert picked.schema.names == ("a", "b") and picked.rows == ((1, "y"),)


def test_emitted_sql_matches_algebra_semantics():
    # spot check on one nontrivial expression; the acceptance suite sweeps
    # the whole translatable space to depth 4
    e = tor.Proj(
        ("r.w",),
        tor.Sel(
            gt("r.w", 1),
            tor.Join(
                q(),
                tor.Query("S"),
                tor.CmpAtom("=", tor.FieldRef("l.k"), tor.FieldRef("r.k")),
            ),
        ),
    )
    r = OrderedRelation(KV, ((1, 10), (2, 20), (1, 11)))
    s = OrderedRelation(KW, ((1, 7), (2, 2), (1, 1)))
    want = tor.eval_rel(e, {"R": r, "S": s})
    got = eval_sql(to_sql(e, JOIN_SCHEMAS), db(R=r, S=s))
    assert got.rows == want.rows
