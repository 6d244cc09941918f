"""SQL emission and a reference SQL evaluator (MiniDb and eval_sql).

A relation expression is *translatable* when rewriting brings it to the
canonical single-SELECT shape

    Top? . Proj? . Sel? . (Query | Join(Query, Query, p))

and a scalar expression when it is Agg(kind, field?, Sel?(base)) over such a
base. The rewrites applied (each an identity of the algebra):

    - the simplifier's rules (selection merge, prefix merges, empty elision)
    - Sel(p, Proj(F, e))      -> Proj(F, Sel(p, e))
    - Proj(F, Top(e, k))      -> Top(Proj(F, e), k)
    - Proj(F, Proj(G, e))     -> Proj(F, e)
    - Join(Sel(p, A), B, q)   -> Sel(p', Join(A, B, q)) and symmetrically
    - Agg(k, f, Proj(F, e))   -> Agg(k, f, e)

Anything that does not reach the shape (Concat, Append, Get, Empty at the
root, a selection applied after Top, a Size-valued prefix bound, loop
indices in predicates) raises NotTranslatable.

Rendering is canonical and byte stable: uppercase keywords, single spaces,
", " separators, scalar parameters as :name, text literals single quoted,
every record query ordered by the hidden rid columns of its sources. A
table's rid is the 0-based position of the row; it never appears in SELECT
output. parse_sql inverts render exactly on rendered output.

eval_sql compiles a query once per tuple of source schemas into a plan
(columns resolved to row positions, WHERE to a closure, the output schema
precomputed) and keeps it on the query, so a difftest case only forms the
product of the rows, filters it, and aggregates or applies LIMIT. The
plain tree evaluator tor.eval_* stays the reference that the emission
oracle checks eval_sql against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

from . import tor
from .relation import INT, OrderedRelation, Schema, SchemaError


class NotTranslatable(ValueError):
    """The expression has no equivalent in the canonical SQL shape."""


class UnknownTable(KeyError):
    pass


class UnknownColumn(KeyError):
    pass


class UnknownParam(KeyError):
    pass


class SqlSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Abstract SQL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqlSource:
    table: str
    alias: str


@dataclass(frozen=True)
class SCol:
    alias: str
    name: str


@dataclass(frozen=True)
class SInt:
    value: int


@dataclass(frozen=True)
class SText:
    value: str


@dataclass(frozen=True)
class SParam:
    name: str


SqlOperand = Union[SCol, SInt, SText, SParam]


@dataclass(frozen=True)
class SCmp:
    op: str  # = <> < <= > >=
    lhs: SqlOperand
    rhs: SqlOperand


@dataclass(frozen=True)
class SAnd:
    left: object
    right: object


@dataclass(frozen=True)
class SOr:
    left: object
    right: object


@dataclass(frozen=True)
class SNot:
    operand: object


SqlPred = Union[SCmp, SAnd, SOr, SNot]


@dataclass(frozen=True)
class SqlStar:
    alias: str


SelectItem = Union[SqlStar, SCol]


@dataclass(frozen=True)
class SqlQuery:
    """A record query: SELECT items FROM sources [WHERE] ORDER BY rids [LIMIT]."""

    items: tuple[SelectItem, ...]
    sources: tuple[SqlSource, ...]
    where: Optional[SqlPred] = None
    limit: Optional[SqlOperand] = None
    # eval_sql's compiled plans, keyed by the sources' schemas
    plans: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class SqlScalar:
    """An aggregate query: SELECT func(arg) FROM sources [WHERE].

    SUM renders wrapped in COALESCE(..., 0) so the empty input agrees with
    the loop semantics; MIN and MAX return NULL on empty input.
    """

    func: str  # sum | count | min | max
    arg: Optional[SCol]  # None only for count
    sources: tuple[SqlSource, ...]
    where: Optional[SqlPred] = None
    # eval_sql's compiled plans, keyed by the sources' schemas
    plans: dict = field(default_factory=dict, compare=False, repr=False)


Sql = Union[SqlQuery, SqlScalar]


# ---------------------------------------------------------------------------
# Translation: relation/scalar expression -> abstract SQL
# ---------------------------------------------------------------------------

_CMP_TO_SQL = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_SQL_CMP = {sql: tor.CMP_OPS[op] for op, sql in _CMP_TO_SQL.items()}


def _prefix_pred(p, prefix: str):
    if isinstance(p, tor.FieldRef):
        return tor.FieldRef(prefix + p.name)
    return tor.map_children(p, lambda c: _prefix_pred(c, prefix))


def _rewrite_step(e):
    if isinstance(e, tor.Sel) and isinstance(e.of, tor.Proj):
        return tor.Proj(e.of.fields, tor.Sel(e.pred, e.of.of))
    if isinstance(e, tor.Proj) and isinstance(e.of, tor.Top):
        return tor.Top(tor.Proj(e.fields, e.of.of), e.of.k)
    if isinstance(e, tor.Proj) and isinstance(e.of, tor.Proj):
        return tor.Proj(e.fields, e.of.of)
    if isinstance(e, tor.Join) and isinstance(e.left, tor.Sel):
        return tor.Sel(
            _prefix_pred(e.left.pred, "l."),
            tor.Join(e.left.of, e.right, e.pred),
        )
    if isinstance(e, tor.Join) and isinstance(e.right, tor.Sel):
        return tor.Sel(
            _prefix_pred(e.right.pred, "r."),
            tor.Join(e.left, e.right.of, e.pred),
        )
    return None


def _normalize(e):
    e = tor.simplify(e)
    while True:
        step = _rewrite_step(e)
        nxt = tor.map_children(
            e if step is None else step,
            lambda c: _normalize(c) if isinstance(c, tor.REL_NODES) else c,
        )
        if nxt == e:
            return tor.simplify(e)
        e = nxt


def _sources_for(base, schemas) -> tuple[tuple[SqlSource, ...], dict]:
    """Sources plus a map from schema field name to (alias, column)."""
    if isinstance(base, tor.Query):
        sch = tor.schema_of(base, schemas)
        alias = base.rel
        fmap = {n: (alias, n) for n in sch.names}
        return (SqlSource(base.rel, alias),), fmap
    if (
        isinstance(base, tor.Join)
        and isinstance(base.left, tor.Query)
        and isinstance(base.right, tor.Query)
    ):
        lt, rt = base.left.rel, base.right.rel
        la = lt
        ra = rt if rt != lt else rt + "2"
        lsch = tor.schema_of(base.left, schemas)
        rsch = tor.schema_of(base.right, schemas)
        fmap = {f"l.{n}": (la, n) for n in lsch.names}
        fmap.update({f"r.{n}": (ra, n) for n in rsch.names})
        return (SqlSource(lt, la), SqlSource(rt, ra)), fmap
    raise NotTranslatable(f"base is not a table or a join of tables: {base!r}")


def _operand_to_sql(o, fmap: dict) -> SqlOperand:
    if isinstance(o, tor.FieldRef):
        try:
            alias, col = fmap[o.name]
        except KeyError:
            raise UnknownColumn(o.name) from None
        return SCol(alias, col)
    if isinstance(o, tor.IntConst):
        return SInt(o.value)
    if isinstance(o, tor.TextConst):
        return SText(o.value)
    if isinstance(o, tor.ParamRef):
        return SParam(o.name)
    if isinstance(o, tor.IndexRef):
        raise NotTranslatable("loop indices cannot appear in emitted SQL")
    raise SchemaError(f"not a predicate operand: {o!r}")


def _pred_to_sql(p, fmap: dict) -> Optional[SqlPred]:
    if isinstance(p, tor.TruePred):
        return None
    if isinstance(p, tor.CmpAtom):
        return SCmp(
            _CMP_TO_SQL[p.op], _operand_to_sql(p.lhs, fmap), _operand_to_sql(p.rhs, fmap)
        )
    if isinstance(p, tor.AndP):
        a, b = _pred_to_sql(p.left, fmap), _pred_to_sql(p.right, fmap)
        if a is None:
            return b
        if b is None:
            return a
        return SAnd(a, b)
    if isinstance(p, tor.OrP):
        return SOr(_pred_to_sql(p.left, fmap), _pred_to_sql(p.right, fmap))
    if isinstance(p, tor.NotP):
        return SNot(_pred_to_sql(p.operand, fmap))
    raise SchemaError(f"not a predicate: {p!r}")


def _conjoin(a: Optional[SqlPred], b: Optional[SqlPred]) -> Optional[SqlPred]:
    if a is None:
        return b
    if b is None:
        return a
    return SAnd(a, b)


def _limit_operand(k) -> SqlOperand:
    if isinstance(k, tor.IntConst):
        return SInt(k.value)
    if isinstance(k, tor.ParamRef):
        return SParam(k.name)
    raise NotTranslatable(f"prefix bound is not a constant or parameter: {k!r}")


def to_sql(e, schemas: dict) -> Sql:
    """Translate a relation or scalar expression, or raise NotTranslatable."""
    if isinstance(e, tor.AggOf):
        body = _normalize(e.of)
        pred = tor.TruePred()
        if isinstance(body, tor.Sel):
            pred, body = body.pred, body.of
        if isinstance(body, tor.Proj):
            if e.field is not None and e.field not in body.fields:
                raise NotTranslatable("aggregated field projected away")
            body = body.of
            if isinstance(body, tor.Sel):
                pred = tor.AndP(body.pred, pred) if not isinstance(pred, tor.TruePred) else body.pred
                body = body.of
        sources, fmap = _sources_for(body, schemas)
        where = _pred_to_sql(pred, fmap)
        if isinstance(body, tor.Join):
            where = _conjoin(_pred_to_sql(body.pred, fmap), where)
        arg = None
        if e.field is not None:
            try:
                alias, col = fmap[e.field]
            except KeyError:
                raise UnknownColumn(e.field) from None
            arg = SCol(alias, col)
        return SqlScalar(e.kind, arg, sources, where)
    if isinstance(e, (tor.SizeOf,)):
        return to_sql(tor.AggOf("count", None, e.of), schemas)
    if isinstance(
        e, (tor.IntConst, tor.TextConst, tor.ParamRef, tor.IndexRef, tor.GetRow)
    ):
        raise NotTranslatable(f"no canonical query for {type(e).__name__}")

    tor.schema_of(e, schemas)  # validate early
    e = _normalize(e)

    limit = None
    if isinstance(e, tor.Top):
        limit = _limit_operand(e.k)
        e = e.of
    proj = None
    if isinstance(e, tor.Proj):
        proj = e.fields
        e = e.of
    pred = tor.TruePred()
    if isinstance(e, tor.Sel):
        pred = e.pred
        e = e.of
    sources, fmap = _sources_for(e, schemas)
    where = _pred_to_sql(pred, fmap)
    if isinstance(e, tor.Join):
        where = _conjoin(_pred_to_sql(e.pred, fmap), where)
    if proj is None:
        items: tuple[SelectItem, ...] = tuple(SqlStar(s.alias) for s in sources)
    else:
        cols = []
        for name in proj:
            try:
                alias, col = fmap[name]
            except KeyError:
                raise UnknownColumn(name) from None
            cols.append(SCol(alias, col))
        items = tuple(cols)
    return SqlQuery(items, sources, where, limit)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_operand(o: SqlOperand) -> str:
    if isinstance(o, SCol):
        return f"{o.alias}.{o.name}"
    if isinstance(o, SInt):
        return str(o.value)
    if isinstance(o, SText):
        return f"'{o.value}'"
    if isinstance(o, SParam):
        return f":{o.name}"
    raise SchemaError(f"not a SQL operand: {o!r}")


def _render_pred(p: SqlPred, parent: Optional[str] = None, side: str = "left") -> str:
    """Left-associative chains of one connective render without parentheses;
    everything else is parenthesized, so parsing is exact."""
    if isinstance(p, SCmp):
        return f"{_render_operand(p.lhs)} {p.op} {_render_operand(p.rhs)}"
    if isinstance(p, SAnd):
        text = f"{_render_pred(p.left, 'AND', 'left')} AND {_render_pred(p.right, 'AND', 'right')}"
        bare = parent is None or (parent == "AND" and side == "left")
        return text if bare else f"({text})"
    if isinstance(p, SOr):
        text = f"{_render_pred(p.left, 'OR', 'left')} OR {_render_pred(p.right, 'OR', 'right')}"
        bare = parent is None or (parent == "OR" and side == "left")
        return text if bare else f"({text})"
    if isinstance(p, SNot):
        return f"NOT ({_render_pred(p.operand)})"
    raise SchemaError(f"not a SQL predicate: {p!r}")


def render(q: Sql) -> str:
    """Canonical single-line SQL text; identical input gives identical bytes."""
    src = ", ".join(
        s.table if s.alias == s.table else f"{s.table} {s.alias}" for s in q.sources
    )
    if isinstance(q, SqlScalar):
        if q.func == "count":
            head = "COUNT(*)"
        elif q.func == "sum":
            head = f"COALESCE(SUM({_render_operand(q.arg)}), 0)"
        else:
            head = f"{q.func.upper()}({_render_operand(q.arg)})"
        text = f"SELECT {head} FROM {src}"
        if q.where is not None:
            text += f" WHERE {_render_pred(q.where)}"
        return text
    items = ", ".join(
        f"{it.alias}.*" if isinstance(it, SqlStar) else _render_operand(it)
        for it in q.items
    )
    text = f"SELECT {items} FROM {src}"
    if q.where is not None:
        text += f" WHERE {_render_pred(q.where)}"
    text += " ORDER BY " + ", ".join(f"{s.alias}.rid" for s in q.sources)
    if q.limit is not None:
        text += f" LIMIT {_render_operand(q.limit)}"
    return text


# ---------------------------------------------------------------------------
# Parsing the canonical dialect
# ---------------------------------------------------------------------------

_SQL_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "ORDER", "BY", "LIMIT"}
_AGG_FUNCS = {"COUNT", "SUM", "MIN", "MAX", "COALESCE"}


def _sql_tokens(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == " ":
            i += 1
            continue
        if c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated text literal")
            toks.append(("text", text[i + 1 : j]))
            i = j + 1
            continue
        if c == ":":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise SqlSyntaxError("bad parameter reference")
            toks.append(("param", text[i + 1 : j]))
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _SQL_KEYWORDS or word in _AGG_FUNCS:
                toks.append(("kw", word))
            else:
                toks.append(("name", word))
            i = j
            continue
        for op in ("<>", "<=", ">=", "<", ">", "=", "(", ")", ",", ".", "*"):
            if text.startswith(op, i):
                toks.append(("op", op))
                i += len(op)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {c!r} at offset {i}")
    toks.append(("end", ""))
    return toks


class _SqlParser:
    def __init__(self, text: str):
        self.toks = _sql_tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.pos]
        if (kind is not None and k != kind) or (value is not None and v != value):
            raise SqlSyntaxError(f"expected {value or kind}, found {v!r}")
        self.pos += 1
        return v

    def at(self, kind, value=None):
        k, v = self.peek()
        return k == kind and (value is None or v == value)

    def parse(self) -> Sql:
        self.take("kw", "SELECT")
        if self.at("kw") and self.peek()[1] in _AGG_FUNCS:
            return self._scalar()
        items = [self._item()]
        while self.at("op", ","):
            self.take()
            items.append(self._item())
        self.take("kw", "FROM")
        sources = self._sources()
        where = None
        if self.at("kw", "WHERE"):
            self.take()
            where = self._pred()
        if self.at("kw", "ORDER"):
            # the engine produces exactly one order: each source's hidden
            # rid, FROM order. Any other clause would be silently
            # misinterpreted, so it is rejected instead.
            self.take()
            self.take("kw", "BY")
            cols = [self._col()]
            while self.at("op", ","):
                self.take()
                cols.append(self._col())
            want = [SCol(s.alias, "rid") for s in sources]
            if cols != want:
                raise SqlSyntaxError(
                    "ORDER BY must list each source's rid in FROM order"
                )
        limit = None
        if self.at("kw", "LIMIT"):
            self.take()
            limit = self._scalar_operand()
        self.take("end")
        return SqlQuery(tuple(items), sources, where, limit)

    def _scalar(self) -> SqlScalar:
        func = self.take("kw")
        if func == "COALESCE":
            self.take("op", "(")
            inner = self.take("kw")
            if inner != "SUM":
                raise SqlSyntaxError("COALESCE applies only to SUM here")
            self.take("op", "(")
            arg = self._col()
            self.take("op", ")")
            self.take("op", ",")
            self.take("int")
            self.take("op", ")")
            kind, col = "sum", arg
        elif func == "COUNT":
            self.take("op", "(")
            self.take("op", "*")
            self.take("op", ")")
            kind, col = "count", None
        else:
            self.take("op", "(")
            col = self._col()
            self.take("op", ")")
            kind = func.lower()
        self.take("kw", "FROM")
        sources = self._sources()
        where = None
        if self.at("kw", "WHERE"):
            self.take()
            where = self._pred()
        self.take("end")
        return SqlScalar(kind, col, sources, where)

    def _sources(self) -> tuple[SqlSource, ...]:
        out = [self._source()]
        while self.at("op", ","):
            self.take()
            out.append(self._source())
        return tuple(out)

    def _source(self) -> SqlSource:
        table = self.take("name")
        alias = table
        if self.at("name"):
            alias = self.take("name")
        return SqlSource(table, alias)

    def _item(self):
        alias = self.take("name")
        self.take("op", ".")
        if self.at("op", "*"):
            self.take()
            return SqlStar(alias)
        return SCol(alias, self.take("name"))

    def _col(self) -> SCol:
        alias = self.take("name")
        self.take("op", ".")
        return SCol(alias, self.take("name"))

    def _pred(self):
        node = self._and()
        while self.at("kw", "OR"):
            self.take()
            node = SOr(node, self._and())
        return node

    def _and(self):
        node = self._not()
        while self.at("kw", "AND"):
            self.take()
            node = SAnd(node, self._not())
        return node

    def _not(self):
        if self.at("kw", "NOT"):
            self.take()
            self.take("op", "(")
            inner = self._pred()
            self.take("op", ")")
            return SNot(inner)
        if self.at("op", "("):
            self.take()
            inner = self._pred()
            self.take("op", ")")
            return inner
        lhs = self._operand()
        k, op = self.peek()
        if k != "op" or op not in _SQL_CMP:
            raise SqlSyntaxError(f"expected comparison, found {op!r}")
        self.take()
        return SCmp(op, lhs, self._operand())

    def _operand(self) -> SqlOperand:
        if self.at("int"):
            return SInt(self.take("int"))
        if self.at("text"):
            return SText(self.take("text"))
        if self.at("param"):
            return SParam(self.take("param"))
        return self._col()

    def _scalar_operand(self) -> SqlOperand:
        if self.at("int"):
            return SInt(self.take("int"))
        if self.at("param"):
            return SParam(self.take("param"))
        raise SqlSyntaxError("LIMIT takes an integer or a parameter")


def parse_sql(text: str) -> Sql:
    try:
        return _SqlParser(text).parse()
    except RecursionError:
        raise SqlSyntaxError("query nested too deeply") from None


# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------


@dataclass
class MiniDb:
    """Tables plus scalar parameter bindings for :name placeholders."""

    tables: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, values: dict) -> "MiniDb":
        db = cls()
        for name, v in values.items():
            if isinstance(v, OrderedRelation):
                db.tables[name] = v
            else:
                db.params[name] = v
        return db


def eval_sql(q: Sql, db: MiniDb):
    """Evaluate against a MiniDb: relations for record queries (ordered by
    the source rids), ints or None for aggregates. LIMIT clamps at 0."""
    rels = []
    for s in q.sources:
        if s.table not in db.tables:
            raise UnknownTable(s.table)
        rels.append(db.tables[s.table])
    return query_plan(q, tuple(rel.schema for rel in rels)).run(rels, db.params)


def query_plan(q: Sql, schemas: tuple) -> "_Plan":
    """The query's plan for its sources' schemas, in FROM order; built once
    per (query, schemas) and kept on the query."""
    plan = q.plans.get(schemas)
    if plan is None:
        plan = q.plans[schemas] = _Plan(q, schemas)
    return plan


class _Plan:
    """A query compiled against its sources' schemas, built once per (query,
    schemas) and kept on the query.

    A row combination is one flat tuple, (rid, row) for each source in FROM
    order; each column reference is resolved to its place in it. A column,
    parameter or node that cannot be resolved compiles to a closure that
    raises when it is evaluated, so WHERE and aggregate arguments fail only
    on a row they are evaluated on, as a tree walk would. The SELECT list is
    resolved here too; when it fails, raw() resolves it again to raise.
    """

    def __init__(self, q: Sql, schemas: tuple):
        self.q = q
        self.schemas = schemas
        # a repeated alias names its last source
        self.slots = {s.alias: n for n, s in enumerate(q.sources)}
        self.where = None if q.where is None else _plan_pred(q.where, self.slots, schemas)
        if isinstance(q, SqlScalar):
            self.arg = _plan_operand(q.arg, self.slots, schemas)
            return
        self.limit = None if q.limit is None else _plan_operand(q.limit, {}, ())
        try:
            self.schema, self.out = _plan_select(q, self.slots, schemas)
        except (UnknownTable, UnknownColumn, SchemaError):
            self.schema = None

    def run(self, rels: list, params: dict):
        """The query's value over the relations of its FROM list."""
        out = self.raw(rels, params)
        if isinstance(self.q, SqlScalar):
            return out
        return OrderedRelation(self.schema, tuple(out))

    def raw(self, rels: list, params: dict):
        """run() without building the result relation: a list of row tuples
        for a record query, the aggregate's value for a scalar one."""
        combos = [()]
        for rel in rels:
            numbered = tuple(enumerate(rel.rows))
            combos = [c + r for c in combos for r in numbered]
        where = self.where
        if where is not None:
            combos = [c for c in combos if where(c, params)]
        q = self.q
        if isinstance(q, SqlScalar):
            if q.func == "count":
                return len(combos)
            arg = self.arg
            values = [arg(c, params) for c in combos]
            if q.func == "sum":
                return sum(values)
            if not values:
                return None
            return min(values) if q.func == "min" else max(values)
        # the product is already in rid order, left-major
        if self.limit is not None:
            combos = combos[: max(self.limit((), params), 0)]
        if self.schema is None:
            _plan_select(q, self.slots, self.schemas)  # raises
        out = self.out
        return [out(c) for c in combos]


def _fails(exc_type, arg):
    def fail(c, params):
        raise exc_type(arg)

    return fail


def _plan_operand(o, slots: dict, schemas: tuple):
    """Closure (combination, params) -> value of one SQL operand."""
    if isinstance(o, SCol):
        n = slots.get(o.alias)
        if n is not None and o.name == "rid":
            at = 2 * n
            return lambda c, params: c[at]
        if n is None or not schemas[n].has(o.name):
            return _fails(UnknownColumn, f"{o.alias}.{o.name}")
        at, k = 2 * n + 1, schemas[n].index_of(o.name)
        return lambda c, params: c[at][k]
    if isinstance(o, (SInt, SText)):
        value = o.value
        return lambda c, params: value
    if isinstance(o, SParam):
        name = o.name

        def param(c, params):
            if name not in params:
                raise UnknownParam(name)
            return params[name]

        return param
    return _fails(SchemaError, f"not a SQL operand: {o!r}")


def _plan_pred(p, slots: dict, schemas: tuple):
    """Closure (combination, params) -> bool of one SQL predicate."""
    if isinstance(p, SCmp):
        f = _SQL_CMP[p.op]
        a, b = _plan_operand(p.lhs, slots, schemas), _plan_operand(p.rhs, slots, schemas)
        return lambda c, params: f(a(c, params), b(c, params))
    if isinstance(p, (SAnd, SOr)):
        a, b = _plan_pred(p.left, slots, schemas), _plan_pred(p.right, slots, schemas)
        if isinstance(p, SAnd):
            return lambda c, params: a(c, params) and b(c, params)
        return lambda c, params: a(c, params) or b(c, params)
    if isinstance(p, SNot):
        a = _plan_pred(p.operand, slots, schemas)
        return lambda c, params: not a(c, params)
    return _fails(SchemaError, f"not a SQL predicate: {p!r}")


def _plan_select(q: SqlQuery, slots: dict, schemas: tuple):
    """The output schema and a closure combination -> output row. Output
    names are the plain column names, or alias.name for every column when
    the plain names repeat."""
    cols: list[tuple[int, int, str, str, str]] = []  # slot, field, alias, name, type
    for it in q.items:
        if it.alias not in slots:
            raise UnknownTable(it.alias)
        n = slots[it.alias]
        sch = schemas[n]
        if isinstance(it, SqlStar):
            for k, (name, ty) in enumerate(sch.fields):
                cols.append((2 * n + 1, k, it.alias, name, ty))
        else:
            if not sch.has(it.name):
                raise UnknownColumn(f"{it.alias}.{it.name}")
            k = sch.index_of(it.name)
            cols.append((2 * n + 1, k, it.alias, it.name, sch.types[k]))
    plain = [name for _, _, _, name, _ in cols]
    if len(set(plain)) == len(plain):
        names = plain
    else:
        names = [f"{alias}.{name}" for _, _, alias, name, _ in cols]
    schema = Schema(tuple((name, c[4]) for name, c in zip(names, cols)))
    if len(q.items) == 1 and isinstance(q.items[0], SqlStar):
        return schema, itemgetter(2 * slots[q.items[0].alias] + 1)
    picks = tuple((at, k) for at, k, _, _, _ in cols)
    return schema, lambda c: tuple([c[at][k] for at, k in picks])
