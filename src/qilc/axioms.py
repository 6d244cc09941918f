"""The ordered-relation algebra's reference evaluator and axiom suite.

eval_rel, eval_scalar, eval_pred and eval_record walk a tor tree directly;
they pin the meaning of tor's compiled closures and of the SQL engine
(emit.eval_sql). No pipeline path imports this module.

Each check sweeps its axiom exhaustively over bounded domains (relations up
to rel_size rows, int fields over int_domain, text fields over text_domain)
and returns (instances checked, violations). The simplifier's rewrite rules
are sound only if these identities hold, so the suite doubles as the
simplifier's ground truth.

    A1  Top(e, k) = e whenever k >= Size(e)
    A2  Size(Concat(l, r)) = Size(l) + Size(r)
    A3  Agg(kind, f, Concat(l, r)) combines Agg of the parts: sum and count
        add; min and max take the extremum with absent as identity
    A4  Sel(p2, Sel(p1, e)) = Sel(p1 and p2, e)
    A5  Proj(F, Sel(p, e)) = Sel(p, Proj(F, e)) when p mentions only F
    A6  Append(e, rec) = Concat(e, single-row relation of rec)
    A7  Join(l, r, true) places the concatenation of l's row i and r's
        row j at output position i * Size(r) + j (left-major law)

A second registry, LEMMA_CHECKS, holds the lemmas the verifier's row-local
preservation scan (verify._row_wise; L1-L3, besides A3 and A6) and its
prover over Top prefixes (verify._Checker._prefix; L1, L4, L5, besides A1)
rest on. Each is checked for every relation up to rel_size rows, split at
every position into l and r where it concatenates two:

    L1  Top(e, i+1) = Append(Top(e, i), Get(e, i)) for 0 <= i < Size(e)
    L2  Sel(p, Concat(l, r)) = Concat(Sel(p, l), Sel(p, r))
    L3  Proj(F, Concat(l, r)) = Concat(Proj(F, l), Proj(F, r))
    L4  Top(Top(e, a), b) = Top(e, min(a, b)) for a, b in -1 .. rel_size+1
    L5  Top(e, a) is empty for a in -1 .. 0
"""

from __future__ import annotations

import itertools

from . import tor
from .relation import INT, TEXT, OrderedRelation, Schema, SchemaError
from .verify import Bounds, relation_values

def _env_rel(env: dict, name: str) -> OrderedRelation:
    try:
        v = env[name]
    except KeyError:
        raise tor.UnboundName(name) from None
    if not isinstance(v, OrderedRelation):
        raise SchemaError(f"{name!r} is bound to a scalar, expected a relation")
    return v


def _env_scalar(env: dict, name: str):
    try:
        v = env[name]
    except KeyError:
        raise tor.UnboundName(name) from None
    if isinstance(v, OrderedRelation):
        raise SchemaError(f"{name!r} is bound to a relation, expected a scalar")
    return v


def eval_scalar(e, env: dict):
    if isinstance(e, (tor.IntConst, tor.TextConst)):
        return e.value
    if isinstance(e, tor.ParamRef):
        return _env_scalar(env, e.name)
    if isinstance(e, tor.IndexRef):
        return _env_scalar(env, e.name) + e.offset
    if isinstance(e, tor.SizeOf):
        return eval_rel(e.of, env).size
    if isinstance(e, tor.AggOf):
        rel = eval_rel(e.of, env)
        if e.kind == "count":
            return rel.size
        i = rel.schema.index_of(e.field)
        if rel.schema.types[i] != INT:
            raise SchemaError(f"cannot aggregate over text field {e.field!r}")
        col = [r[i] for r in rel.rows]
        if e.kind == "sum":
            return sum(col)
        if not col:
            return None
        return min(col) if e.kind == "min" else max(col)
    raise SchemaError(f"not a scalar expression: {e!r}")


def eval_record(e, env: dict) -> tuple:
    if isinstance(e, tor.RecordConst):
        return e.values
    if isinstance(e, tor.GetRow):
        rel = eval_rel(e.of, env)
        i = eval_scalar(e.idx, env)
        if not (0 <= i < rel.size):
            raise IndexError(f"get index {i} out of range 0..{rel.size - 1}")
        return rel.rows[i]
    raise SchemaError(f"not a record expression: {e!r}")


def _atom_operand(o, schema: Schema, row: tuple, env: dict):
    if isinstance(o, tor.FieldRef):
        return row[schema.index_of(o.name)]
    if isinstance(o, (tor.IntConst, tor.TextConst)):
        return o.value
    if isinstance(o, tor.ParamRef):
        return _env_scalar(env, o.name)
    if isinstance(o, tor.IndexRef):
        return _env_scalar(env, o.name) + o.offset
    raise SchemaError(f"not a predicate operand: {o!r}")


def eval_pred(p, schema: Schema, row: tuple, env: dict) -> bool:
    if isinstance(p, tor.TruePred):
        return True
    if isinstance(p, tor.CmpAtom):
        a = _atom_operand(p.lhs, schema, row, env)
        b = _atom_operand(p.rhs, schema, row, env)
        return tor.CMP_OPS[p.op](a, b)
    if isinstance(p, tor.AndP):
        return eval_pred(p.left, schema, row, env) and eval_pred(p.right, schema, row, env)
    if isinstance(p, tor.OrP):
        return eval_pred(p.left, schema, row, env) or eval_pred(p.right, schema, row, env)
    if isinstance(p, tor.NotP):
        return not eval_pred(p.operand, schema, row, env)
    raise SchemaError(f"not a predicate: {p!r}")


def eval_rel(e, env: dict) -> OrderedRelation:
    """Evaluate a relation expression; order is part of the value."""
    if isinstance(e, tor.Query):
        return _env_rel(env, e.rel)
    if isinstance(e, tor.EmptyRel):
        return OrderedRelation(e.schema, ())
    if isinstance(e, tor.Sel):
        rel = eval_rel(e.of, env)
        rows = tuple(
            r for r in rel.rows if eval_pred(e.pred, rel.schema, r, env)
        )
        return OrderedRelation(rel.schema, rows)
    if isinstance(e, tor.Proj):
        rel = eval_rel(e.of, env)
        sch = rel.schema.restrict(e.fields)
        idx = [rel.schema.index_of(n) for n in e.fields]
        return OrderedRelation(sch, tuple(tuple(r[i] for i in idx) for r in rel.rows))
    if isinstance(e, tor.Join):
        left = eval_rel(e.left, env)
        right = eval_rel(e.right, env)
        sch = left.schema.joined_with(right.schema)
        rows = []
        for lr in left.rows:
            for rr in right.rows:
                combined = lr + rr
                if eval_pred(e.pred, sch, combined, env):
                    rows.append(combined)
        return OrderedRelation(sch, tuple(rows))
    if isinstance(e, tor.Top):
        rel = eval_rel(e.of, env)
        k = eval_scalar(e.k, env)
        if k <= 0:
            return OrderedRelation(rel.schema, ())
        return OrderedRelation(rel.schema, rel.rows[:k])
    if isinstance(e, tor.AppendRow):
        rel = eval_rel(e.of, env)
        rec = eval_record(e.rec, env)
        if len(rec) != len(rel.schema.fields):
            raise SchemaError(f"appended record {rec!r} does not fit schema")
        return OrderedRelation(rel.schema, rel.rows + (rec,))
    if isinstance(e, tor.Concat):
        left = eval_rel(e.left, env)
        right = eval_rel(e.right, env)
        if left.schema.types != right.schema.types:
            raise SchemaError("concat operands disagree on schema")
        return OrderedRelation(left.schema, left.rows + right.rows)
    raise SchemaError(f"not a relation expression: {e!r}")


INT_SCHEMA = Schema((("a", INT),))
MIXED_SCHEMA = Schema((("a", INT), ("b", TEXT)))
PAIR_LEFT = Schema((("a", INT),))
PAIR_RIGHT = Schema((("b", INT),))


def _mixed_preds(bounds: Bounds) -> list:
    preds = []
    for c in bounds.int_domain:
        preds.append(tor.CmpAtom(">", tor.FieldRef("a"), tor.IntConst(c)))
        preds.append(tor.CmpAtom("=", tor.FieldRef("a"), tor.IntConst(c)))
    for t in bounds.text_domain:
        preds.append(tor.CmpAtom("=", tor.FieldRef("b"), tor.TextConst(t)))
        preds.append(tor.CmpAtom("!=", tor.FieldRef("b"), tor.TextConst(t)))
    return preds


def check_a1(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    for v in relation_values(INT_SCHEMA, bounds):
        env = {"R": v}
        for k in range(v.size, bounds.rel_size + 3):
            checked += 1
            got = eval_rel(tor.Top(tor.Query("R"), tor.IntConst(k)), env)
            if got.rows != v.rows:
                violations.append({"axiom": "A1", "relation": v.rows, "k": k})
    return checked, violations


def check_a2(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    values = relation_values(INT_SCHEMA, bounds)
    for l, r in itertools.product(values, values):
        checked += 1
        env = {"L": l, "R": r}
        got = eval_scalar(
            tor.SizeOf(tor.Concat(tor.Query("L"), tor.Query("R"))), env
        )
        if got != l.size + r.size:
            violations.append({"axiom": "A2", "left": l.rows, "right": r.rows})
    return checked, violations


def _combine(kind: str, a, b):
    if kind in ("sum", "count"):
        return a + b
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b) if kind == "min" else max(a, b)


def check_a3(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    values = relation_values(INT_SCHEMA, bounds)
    for kind in tor.AGG_KINDS:
        field = None if kind == "count" else "a"
        for l, r in itertools.product(values, values):
            checked += 1
            env = {"L": l, "R": r}
            whole = eval_scalar(
                tor.AggOf(kind, field, tor.Concat(tor.Query("L"), tor.Query("R"))),
                env,
            )
            left = eval_scalar(tor.AggOf(kind, field, tor.Query("L")), env)
            right = eval_scalar(tor.AggOf(kind, field, tor.Query("R")), env)
            if whole != _combine(kind, left, right):
                violations.append(
                    {"axiom": "A3", "kind": kind, "left": l.rows, "right": r.rows}
                )
    return checked, violations


def check_a4(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    preds = _mixed_preds(bounds)
    for v in relation_values(MIXED_SCHEMA, bounds):
        env = {"R": v}
        for p1, p2 in itertools.product(preds, preds):
            checked += 1
            nested = eval_rel(
                tor.Sel(p2, tor.Sel(p1, tor.Query("R"))), env
            )
            merged = eval_rel(tor.Sel(tor.AndP(p1, p2), tor.Query("R")), env)
            if nested.rows != merged.rows:
                violations.append(
                    {
                        "axiom": "A4",
                        "relation": v.rows,
                        "p1": tor.to_sexpr(p1),
                        "p2": tor.to_sexpr(p2),
                    }
                )
    return checked, violations


def check_a5(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    preds = _mixed_preds(bounds)
    projections = (("a",), ("b",), ("a", "b"))
    for v in relation_values(MIXED_SCHEMA, bounds):
        env = {"R": v}
        for fields in projections:
            for p in preds:
                if not tor.facts(p).fields <= set(fields):
                    continue
                checked += 1
                a = eval_rel(
                    tor.Proj(fields, tor.Sel(p, tor.Query("R"))), env
                )
                b = eval_rel(
                    tor.Sel(p, tor.Proj(fields, tor.Query("R"))), env
                )
                if a.rows != b.rows:
                    violations.append(
                        {
                            "axiom": "A5",
                            "relation": v.rows,
                            "fields": fields,
                            "p": tor.to_sexpr(p),
                        }
                    )
    return checked, violations


def check_a6(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    rows = [
        (i,) for i in bounds.int_domain
    ]
    for v in relation_values(INT_SCHEMA, bounds):
        env = {"R": v}
        for rec in rows:
            checked += 1
            appended = eval_rel(
                tor.AppendRow(tor.Query("R"), tor.RecordConst(rec)), env
            )
            single = tor.AppendRow(tor.EmptyRel(INT_SCHEMA), tor.RecordConst(rec))
            concat = eval_rel(tor.Concat(tor.Query("R"), single), env)
            if appended.rows != concat.rows:
                violations.append({"axiom": "A6", "relation": v.rows, "rec": rec})
    return checked, violations


def check_a7(bounds: Bounds = Bounds()):
    """Left-major law, exhaustive one size beyond the shared bound."""
    wider = Bounds(
        rel_size=bounds.rel_size + 1,
        int_domain=bounds.int_domain,
        text_domain=bounds.text_domain,
    )
    checked, violations = 0, []
    lefts = relation_values(PAIR_LEFT, wider)
    rights = relation_values(PAIR_RIGHT, wider)
    for l, r in itertools.product(lefts, rights):
        checked += 1
        env = {"L": l, "R": r}
        got = eval_rel(
            tor.Join(tor.Query("L"), tor.Query("R"), tor.TruePred()), env
        )
        ok = got.size == l.size * r.size
        if ok:
            for i, j in itertools.product(range(l.size), range(r.size)):
                if got.rows[i * r.size + j] != l.rows[i] + r.rows[j]:
                    ok = False
                    break
        if not ok:
            violations.append({"axiom": "A7", "left": l.rows, "right": r.rows})
    return checked, violations


ALL_CHECKS = (
    ("A1", check_a1),
    ("A2", check_a2),
    ("A3", check_a3),
    ("A4", check_a4),
    ("A5", check_a5),
    ("A6", check_a6),
    ("A7", check_a7),
)


def check_all(bounds: Bounds = Bounds()):
    """Run every axiom check; returns {name: (checked, violations)}."""
    return {name: fn(bounds) for name, fn in ALL_CHECKS}


def check_l1(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    r = tor.Query("R")
    for v in relation_values(MIXED_SCHEMA, bounds):
        env = {"R": v}
        for i in range(v.size):
            checked += 1
            k = tor.IntConst(i)
            longer = eval_rel(tor.Top(r, tor.IntConst(i + 1)), env)
            appended = eval_rel(
                tor.AppendRow(tor.Top(r, k), tor.GetRow(r, k)), env
            )
            if longer.rows != appended.rows:
                violations.append({"lemma": "L1", "relation": v.rows, "i": i})
    return checked, violations


def _splits(bounds: Bounds):
    """Every relation up to rel_size rows, cut at every position: the
    environments {"L": prefix, "R": rest}."""
    for v in relation_values(MIXED_SCHEMA, bounds):
        for cut in range(v.size + 1):
            yield {
                "L": OrderedRelation(MIXED_SCHEMA, v.rows[:cut]),
                "R": OrderedRelation(MIXED_SCHEMA, v.rows[cut:]),
            }


def _distributes(name: str, wrap, variants, bounds: Bounds):
    """wrap(variant, e) over Concat(L, R) equals the Concat of wrap over L
    and over R, for every split and variant."""
    checked, violations = 0, []
    l, r = tor.Query("L"), tor.Query("R")
    for env in _splits(bounds):
        for x in variants:
            checked += 1
            whole = eval_rel(wrap(x, tor.Concat(l, r)), env)
            parts = eval_rel(tor.Concat(wrap(x, l), wrap(x, r)), env)
            if whole.rows != parts.rows:
                violations.append(
                    {
                        "lemma": name,
                        "left": env["L"].rows,
                        "right": env["R"].rows,
                        "with": tor.to_sexpr(wrap(x, l)),
                    }
                )
    return checked, violations


def check_l2(bounds: Bounds = Bounds()):
    return _distributes("L2", tor.Sel, _mixed_preds(bounds), bounds)


def check_l3(bounds: Bounds = Bounds()):
    projections = (("a",), ("b",), ("b", "a"))
    return _distributes("L3", tor.Proj, projections, bounds)


def _top_bounds(bounds: Bounds) -> range:
    return range(-1, bounds.rel_size + 2)


def check_l4(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    r = tor.Query("R")
    for v in relation_values(MIXED_SCHEMA, bounds):
        env = {"R": v}
        for a, b in itertools.product(_top_bounds(bounds), repeat=2):
            checked += 1
            nested = eval_rel(
                tor.Top(tor.Top(r, tor.IntConst(a)), tor.IntConst(b)), env
            )
            once = eval_rel(tor.Top(r, tor.IntConst(min(a, b))), env)
            if nested.rows != once.rows:
                violations.append(
                    {"lemma": "L4", "relation": v.rows, "a": a, "b": b}
                )
    return checked, violations


def check_l5(bounds: Bounds = Bounds()):
    checked, violations = 0, []
    for v in relation_values(MIXED_SCHEMA, bounds):
        for a in (-1, 0):
            checked += 1
            got = eval_rel(tor.Top(tor.Query("R"), tor.IntConst(a)), {"R": v})
            if got.rows:
                violations.append({"lemma": "L5", "relation": v.rows, "a": a})
    return checked, violations


LEMMA_CHECKS = (
    ("L1", check_l1),
    ("L2", check_l2),
    ("L3", check_l3),
    ("L4", check_l4),
    ("L5", check_l5),
)


def check_lemmas(bounds: Bounds = Bounds()):
    """Run every lemma check; returns {name: (checked, violations)}."""
    return {name: fn(bounds) for name, fn in LEMMA_CHECKS}
