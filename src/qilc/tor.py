"""Algebra of ordered relations.

Expressions denote either an ordered relation (sequence of records,
duplicates allowed, position meaningful) or a scalar derived from one.
Relation operators: Query, Empty, Sel, Proj, Join, Top, Append, Concat.
Scalar operators: Agg (sum/count/min/max), Size, plus Get for single rows.

Nodes are immutable, and what is computed from a node alone (its
s-expression, cost, facts fold and compiled closure) is kept on the node
itself, so candidates that share a subterm compute it once and the memo is
freed with the node. The compiled closures are the one evaluator the
pipeline runs; the reference evaluator that pins their meaning lives with
the axiom suite (qilc.axioms), off the pipeline's import path.

Conventions fixed here and relied on everywhere else:
    - Top(e, k) takes the first k records; k < 0 gives the empty prefix,
      k >= Size(e) gives e itself.
    - Join(l, r, p) emits surviving pairs left-major: the pair (i, j) sits
      before (i', j') iff i < i' or (i = i' and j < j').
    - Agg(sum) of no rows is 0, Agg(count) is the row count, Agg(min/max)
      of no rows is absent (None).
    - Serialization is a canonical s-expression, e.g.
      (sel (> (field a) 2) (query R)); candidate ordering ties break on it.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from .record import Record, keep, make
from .relation import INT, TEXT, Schema, SchemaError


class UnboundName(KeyError):
    """An expression referenced a name the environment does not bind."""


# ---------------------------------------------------------------------------
# Expression types
# ---------------------------------------------------------------------------


class Node(Record):
    """Base of every expression type. A node type (made by _node) names
    its fields, in constructor order, in _fields; a field holding a Node is
    a child. Nodes are records (qilc.record): they compare and hash by type
    and fields, the hash computed once, and ==, hash, repr, pickling and
    copying ignore the memo slots below."""

    __slots__ = ("_sexpr", "_cost", "_facts", "_compiled")
    _memo = Record._memo + __slots__


_node = functools.partial(make, base=Node)

IntConst = _node("IntConst", "value")
TextConst = _node("TextConst", "value")
ParamRef = _node("ParamRef", "name")
IndexRef = _node("IndexRef", "name offset", (0,))  # a loop index, shifted by offset
FieldRef = _node("FieldRef", "name")  # a field of the row a predicate tests
TruePred = _node("TruePred", "")
CmpAtom = _node("CmpAtom", "op lhs rhs")  # op: = != < <= > >=
AndP = _node("AndP", "left right")
OrP = _node("OrP", "left right")
NotP = _node("NotP", "operand")

# comparison operator -> its function; the interpreter and the SQL
# evaluator map their own spellings (==, <>) onto these
CMP_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Query = _node("Query", "rel")
EmptyRel = _node("EmptyRel", "schema")
Sel = _node("Sel", "pred of")
Proj = _node("Proj", "fields of")  # fields: a tuple of names
Join = _node("Join", "left right pred")
Top = _node("Top", "of k")  # k: a scalar expression
AppendRow = _node("AppendRow", "of rec")  # rec: a record expression
Concat = _node("Concat", "left right")

REL_NODES = (Query, EmptyRel, Sel, Proj, Join, Top, AppendRow, Concat)

GetRow = _node("GetRow", "of idx")  # the row at 0-based idx; out of range raises IndexError
RecordConst = _node("RecordConst", "values")
SizeOf = _node("SizeOf", "of")
AggOf = _node("AggOf", "kind field of")  # kind: sum | count | min | max; field None for count

AGG_KINDS = ("sum", "count", "min", "max")


# ---------------------------------------------------------------------------
# Generic traversal: walkers that treat every node alike except a few build
# on these instead of listing each node type.
# ---------------------------------------------------------------------------


def _memoized(slot: str):
    """Decorator: f(e) is computed once and kept in e's memo slot; f(e, key)
    is kept there with key and reused for the same or an equal key. A call
    that raises keeps nothing, so it raises again."""

    def decorate(f):
        @functools.wraps(f)
        def memoized(e, *key):
            memo = getattr(e, slot)
            if memo is None or key and memo[0] != key:
                memo = f(e, *key)
                keep(e, slot, (key, memo) if key else memo)
                return memo
            return memo[1] if key else memo

        return memoized

    return decorate


def children(e) -> list:
    """The sub-expressions of e, in field order."""
    return [c for n in e._fields if isinstance(c := getattr(e, n), Node)]


def map_children(e, f):
    """e rebuilt with every child c replaced by f(c); e itself when f returns
    every child unchanged, so a subtree f leaves alone is not copied."""
    values = [getattr(e, n) for n in e._fields]
    mapped = [f(v) if isinstance(v, Node) else v for v in values]
    if all(m is v for m, v in zip(mapped, values)):
        return e
    return type(e)(*mapped)


class Facts(NamedTuple):
    """What a subtree mentions: its int and text constants (record values
    included), the names of the loop indices and fields it reads, and
    whether it holds a Top."""

    ints: frozenset = frozenset()
    texts: frozenset = frozenset()
    indices: frozenset = frozenset()
    fields: frozenset = frozenset()
    has_top: bool = False


@_memoized("_facts")
def facts(e) -> Facts:
    """e's Facts: its own, merged bottom-up with its children's."""
    if isinstance(e, (IntConst, TextConst, RecordConst)):
        values = e.values if isinstance(e, RecordConst) else (e.value,)
        ints = frozenset(v for v in values if isinstance(v, int))
        return Facts(ints=ints, texts=frozenset(values) - ints)
    if isinstance(e, IndexRef):
        return Facts(indices=frozenset((e.name,)))
    if isinstance(e, FieldRef):
        return Facts(fields=frozenset((e.name,)))
    f = Facts(has_top=isinstance(e, Top))
    for c in children(e):
        g = facts(c)  # an empty side is shared, not copied
        f = Facts(*(a | b if a and b else a or b for a, b in zip(f, g))) if any(f) else g
    return f


# ---------------------------------------------------------------------------
# Evaluation, compiled once per expression so the bounded verifier can run
# millions of instances; qilc.axioms.eval_* is the reference it must match.
# Closures take an environment dict and return rows tuples / scalars.
# ---------------------------------------------------------------------------


@_memoized("_compiled")
def compile_pred(p, schema: Schema):
    """Build row_test(row, env) for a predicate over a fixed schema.

    Type-checks while it compiles: fields must exist, a comparison may not
    mix int and text, and text supports only = and !=; raises SchemaError.
    """
    if isinstance(p, TruePred):
        return lambda row, env: True
    if isinstance(p, CmpAtom):
        lt, lhs = _compile_operand(p.lhs, schema)
        rt, rhs = _compile_operand(p.rhs, schema)
        if "param" not in (lt, rt) and lt != rt:
            raise SchemaError(f"comparison mixes {lt} and {rt}")
        if TEXT in (lt, rt) and p.op not in ("=", "!="):
            raise SchemaError("text supports only = and !=")
        op = p.op
        if op == "=":
            return lambda row, env: lhs(row, env) == rhs(row, env)
        if op == "!=":
            return lambda row, env: lhs(row, env) != rhs(row, env)
        if op == "<":
            return lambda row, env: lhs(row, env) < rhs(row, env)
        if op == "<=":
            return lambda row, env: lhs(row, env) <= rhs(row, env)
        if op == ">":
            return lambda row, env: lhs(row, env) > rhs(row, env)
        return lambda row, env: lhs(row, env) >= rhs(row, env)
    if isinstance(p, AndP):
        a = compile_pred(p.left, schema)
        b = compile_pred(p.right, schema)
        return lambda row, env: a(row, env) and b(row, env)
    if isinstance(p, OrP):
        a = compile_pred(p.left, schema)
        b = compile_pred(p.right, schema)
        return lambda row, env: a(row, env) or b(row, env)
    if isinstance(p, NotP):
        a = compile_pred(p.operand, schema)
        return lambda row, env: not a(row, env)
    raise SchemaError(f"not a predicate: {p!r}")


def _compile_operand(o, schema: Schema):
    """Return (type, fn) for a predicate operand; fn(row, env) is its value."""
    if isinstance(o, FieldRef):
        i = schema.index_of(o.name)
        return schema.types[i], lambda row, env: row[i]
    if isinstance(o, (IntConst, TextConst)):
        v = o.value
        return (INT if isinstance(o, IntConst) else TEXT), lambda row, env: v
    # parameters are typed by use; comparisons force both sides equal
    if isinstance(o, ParamRef):
        n = o.name
        return "param", lambda row, env: env[n]
    if isinstance(o, IndexRef):
        n, d = o.name, o.offset
        return "param", lambda row, env: env[n] + d
    raise SchemaError(f"not a predicate operand: {o!r}")


@_memoized("_compiled")
def compile_rel(e, schemas: dict):
    """Return (schema, fn) where fn(env) yields the rows tuple of e.

    One bottom-up pass: each node's schema is built from its children's,
    and predicates, Top bounds and appended records are validated as they
    are compiled. Raises UnboundName for a relation schemas does not name,
    SchemaError for an ill-formed expression. Each node keeps its result
    with the schemas map it read, which must not change afterwards.
    """
    if isinstance(e, Query):
        name = e.rel
        if name not in schemas:
            raise UnboundName(name)
        return schemas[name], lambda env: env[name].rows
    if isinstance(e, EmptyRel):
        return e.schema, lambda env: ()
    if isinstance(e, Sel):
        sch, of = compile_rel(e.of, schemas)
        test = compile_pred(e.pred, sch)
        return sch, lambda env: tuple(r for r in of(env) if test(r, env))
    if isinstance(e, Proj):
        of_sch, of = compile_rel(e.of, schemas)
        sch = of_sch.restrict(e.fields)
        idx = tuple(of_sch.index_of(n) for n in e.fields)
        return sch, lambda env: tuple(tuple(r[i] for i in idx) for r in of(env))
    if isinstance(e, Join):
        lsch, lf = compile_rel(e.left, schemas)
        rsch, rf = compile_rel(e.right, schemas)
        sch = lsch.joined_with(rsch)
        test = compile_pred(e.pred, sch)

        def join(env):
            rrows = rf(env)
            return tuple(
                lr + rr
                for lr in lf(env)
                for rr in rrows
                if test(lr + rr, env)
            )

        return sch, join
    if isinstance(e, Top):
        sch, of = compile_rel(e.of, schemas)
        k = compile_scalar(e.k, schemas)

        def top(env):
            rows = of(env)  # first, as the reference does: a Get inside may raise
            n = k(env)
            return rows[:n] if n > 0 else ()

        return sch, top
    if isinstance(e, AppendRow):
        sch, of = compile_rel(e.of, schemas)
        width, rec = compile_record(e.rec, schemas)
        if width != len(sch.fields):
            raise SchemaError(f"appended record of {width} values does not fit schema")
        return sch, lambda env: of(env) + (rec(env),)
    if isinstance(e, Concat):
        left, lf = compile_rel(e.left, schemas)
        right, rf = compile_rel(e.right, schemas)
        if left.types != right.types:
            raise SchemaError(
                f"concat operands disagree: {left.fields} vs {right.fields}"
            )
        return left, lambda env: lf(env) + rf(env)
    raise SchemaError(f"not a relation expression: {e!r}")


def schema_of(e, schemas: dict) -> Schema:
    """Schema of a relation expression given the schemas of named relations.

    Schema inference and validation are compile_rel's one bottom-up pass:
    this also validates predicates (fields exist, comparisons well typed),
    projections, Top bounds and appended records, and raises SchemaError or
    UnboundName.
    """
    return compile_rel(e, schemas)[0]


@_memoized("_compiled")
def compile_scalar(e, schemas: dict):
    if isinstance(e, (IntConst, TextConst)):
        v = e.value
        return lambda env: v
    if isinstance(e, ParamRef):
        n = e.name
        return lambda env: env[n]
    if isinstance(e, IndexRef):
        n, d = e.name, e.offset
        return lambda env: env[n] + d
    if isinstance(e, SizeOf):
        _, of = compile_rel(e.of, schemas)
        return lambda env: len(of(env))
    if isinstance(e, AggOf):
        of_sch, of = compile_rel(e.of, schemas)
        if e.kind == "count":
            return lambda env: len(of(env))
        i = of_sch.index_of(e.field)
        if of_sch.types[i] != INT:
            raise SchemaError(f"cannot aggregate over text field {e.field!r}")
        if e.kind == "sum":
            return lambda env: sum(r[i] for r in of(env))
        pick = min if e.kind == "min" else max

        def agg(env):
            rows = of(env)
            if not rows:
                return None
            return pick(r[i] for r in rows)

        return agg
    raise SchemaError(f"not a scalar expression: {e!r}")


def compile_record(e, schemas: dict):
    """Return (width, fn): the number of values in the record and fn(env),
    its value."""
    if isinstance(e, RecordConst):
        v = e.values
        return len(v), lambda env: v
    if isinstance(e, GetRow):
        sch, of = compile_rel(e.of, schemas)
        k = compile_scalar(e.idx, schemas)

        def get(env):
            rows = of(env)
            i = k(env)
            if not (0 <= i < len(rows)):
                raise IndexError(f"get index {i} out of range 0..{len(rows) - 1}")
            return rows[i]

        return len(sch.fields), get
    raise SchemaError(f"not a record expression: {e!r}")


# ---------------------------------------------------------------------------
# Canonical serialization and cost
# ---------------------------------------------------------------------------


@_memoized("_sexpr")
def to_sexpr(e) -> str:
    """Canonical text; total order on expressions via string comparison."""
    if isinstance(e, Query):
        return f"(query {e.rel})"
    if isinstance(e, EmptyRel):
        fields = " ".join(f"({n} {t})" for n, t in e.schema.fields)
        return f"(empty {fields})"
    if isinstance(e, Sel):
        return f"(sel {to_sexpr(e.pred)} {to_sexpr(e.of)})"
    if isinstance(e, Proj):
        return f"(proj ({' '.join(e.fields)}) {to_sexpr(e.of)})"
    if isinstance(e, Join):
        return f"(join {to_sexpr(e.left)} {to_sexpr(e.right)} {to_sexpr(e.pred)})"
    if isinstance(e, Top):
        return f"(top {to_sexpr(e.of)} {to_sexpr(e.k)})"
    if isinstance(e, AppendRow):
        return f"(append {to_sexpr(e.of)} {to_sexpr(e.rec)})"
    if isinstance(e, Concat):
        return f"(concat {to_sexpr(e.left)} {to_sexpr(e.right)})"
    if isinstance(e, GetRow):
        return f"(get {to_sexpr(e.of)} {to_sexpr(e.idx)})"
    if isinstance(e, RecordConst):
        return f"(record {' '.join(_lit(v) for v in e.values)})"
    if isinstance(e, SizeOf):
        return f"(size {to_sexpr(e.of)})"
    if isinstance(e, AggOf):
        return f"(agg {e.kind} {e.field if e.field is not None else '*'} {to_sexpr(e.of)})"
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, TextConst):
        return _lit(e.value)
    if isinstance(e, ParamRef):
        return f"(param {e.name})"
    if isinstance(e, IndexRef):
        if e.offset == 0:
            return f"(idx {e.name})"
        return f"(idx {e.name} {e.offset:+d})"
    if isinstance(e, FieldRef):
        return f"(field {e.name})"
    if isinstance(e, TruePred):
        return "true"
    if isinstance(e, CmpAtom):
        return f"({e.op} {to_sexpr(e.lhs)} {to_sexpr(e.rhs)})"
    if isinstance(e, AndP):
        return f"(and {to_sexpr(e.left)} {to_sexpr(e.right)})"
    if isinstance(e, OrP):
        return f"(or {to_sexpr(e.left)} {to_sexpr(e.right)})"
    if isinstance(e, NotP):
        return f"(not {to_sexpr(e.operand)})"
    raise SchemaError(f"cannot serialize {e!r}")


def _lit(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    return str(v)


# the cost of the leaves a node holds outside its children: the relation
# name under Query, field names, record values, and an aggregate's field
_PAYLOAD_COST = {
    Query: lambda e: 1,
    EmptyRel: lambda e: len(e.schema.fields),
    Proj: lambda e: len(e.fields),
    RecordConst: lambda e: len(e.values),
    AggOf: lambda e: 1 if e.field is not None else 0,
}


@_memoized("_cost")
def cost(e) -> int:
    """Leaf-inclusive node count; the enumeration's cost measure.

    Every operator node counts 1 plus its operands; leaves (constants,
    parameter and index references, field references, projected field names,
    the relation name under Query) count 1 each.
    """
    payload = _PAYLOAD_COST.get(type(e))
    return 1 + (payload(e) if payload else 0) + sum(map(cost, children(e)))


# ---------------------------------------------------------------------------
# Simplifier: a terminating rewrite system. Every rule is an identity of the
# algebra (checked by the axiom suite) and strictly reduces the number of
# relation-operator nodes, so bottom-up application reaches a fixpoint.
# ---------------------------------------------------------------------------


def _rewrite_here(e):
    """One rewrite step at the root, or None."""
    # merge stacked selections: Sel(p2, Sel(p1, e)) = Sel(p1 and p2, e)
    if isinstance(e, Sel) and isinstance(e.of, Sel):
        return Sel(AndP(e.of.pred, e.pred), e.of.of)
    # a selection by true is the identity
    if isinstance(e, Sel) and isinstance(e.pred, TruePred):
        return e.of
    # selecting from nothing gives nothing
    if isinstance(e, Sel) and isinstance(e.of, EmptyRel):
        return e.of
    if isinstance(e, Proj) and isinstance(e.of, EmptyRel):
        return EmptyRel(e.of.schema.restrict(e.fields))
    if isinstance(e, Top):
        # the whole prefix of e is e
        if isinstance(e.k, SizeOf) and e.k.of == e.of:
            return e.of
        # constant prefixes compose by the smaller bound
        if (
            isinstance(e.of, Top)
            and isinstance(e.k, IntConst)
            and isinstance(e.of.k, IntConst)
        ):
            return Top(e.of.of, IntConst(min(e.k.value, e.of.k.value)))
        if isinstance(e.of, EmptyRel):
            return e.of
    if isinstance(e, Concat):
        if isinstance(e.left, EmptyRel):
            return e.right
        if isinstance(e.right, EmptyRel):
            return e.left
        # a one-row concat is an append
        if isinstance(e.right, AppendRow) and isinstance(e.right.of, EmptyRel):
            return AppendRow(e.left, e.right.rec)
    return None


def simplify(e):
    """Normalize every relation inside an expression by the rewrite rules,
    to fixpoint."""
    e = map_children(e, simplify)
    while True:
        step = _rewrite_here(e)
        if step is None:
            return e
        e = map_children(step, simplify)
