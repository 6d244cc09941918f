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
indices in predicates, true under OR or NOT) raises NotTranslatable.

The abstract SQL reuses the algebra's nodes (see "Abstract SQL" below),
and both query kinds share one decomposition of the normalized expression
into sources, column map and WHERE.

Rendering is canonical and byte stable: uppercase keywords, single spaces,
", " separators, scalar parameters as :name, text literals single quoted
with ' doubled, a column the program renames written `col AS name`, every
record query ordered by the hidden rid columns of its sources, and a prefix
bound that may be negative written clamped, as
LIMIT MAX(k, 0) (Clamped). A table's rid is the 0-based position of the
row; it never appears in SELECT output. parse_sql inverts render exactly,
and eval_sql reads a bare negative LIMIT as SQLite does, as no limit.

eval_sql compiles a query once per tuple of source schemas into a plan,
one generated Python function (qilc.codegen) with columns resolved to row
positions and the output schema precomputed, and keeps it on the query, so
a difftest case only runs one comprehension over the rows. The plain tree
evaluator qilc.axioms.eval_* stays the reference that the emission oracle
checks eval_sql against.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from . import tor
from .codegen import AND, CMP, NOT, OR, Source, infix, wrap
from .record import keep, record, too_deep
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
# The dialect's vocabulary: render writes it, the tokenizer and parser read
# it, the planner resolves RID, and the frontend refuses a relation or field
# name it would collide with.
# ---------------------------------------------------------------------------

_FUNCS = frozenset({"COUNT", "SUM", "MIN", "MAX", "COALESCE"})
RESERVED = _FUNCS | {"SELECT", "AS", "FROM", "WHERE", "AND", "OR", "NOT", "ORDER", "BY", "LIMIT"}
RID = "rid"  # each table's hidden column: the 0-based position of the row
_SQL_CMP = {op: "<>" if op == "!=" else op for op in tor.CMP_OPS}
_TOR_CMP = {sql: op for op, sql in _SQL_CMP.items()}
_PY_CMP = {op: "==" if op == "=" else op for op in tor.CMP_OPS}  # in generated plans
#: The SQLite keywords w that make SQLite 3.40.1 refuse `SELECT w.* FROM w
#: WHERE w.a > 1 ORDER BY w.rid` or `SELECT R.w FROM R WHERE R.w > 1 ORDER
#: BY R.rid`; with RESERVED, the names the type checker refuses.
SQLITE_RESERVED = frozenset("""ADD ALL ALTER AND AS AUTOINCREMENT BETWEEN CASE CAST CHECK
    COLLATE COMMIT CONSTRAINT CREATE CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP DEFAULT
    DEFERRABLE DELETE DISTINCT DROP ELSE ESCAPE EXCEPT EXISTS FOREIGN FROM GROUP HAVING IN
    INDEX INSERT INTERSECT INTO IS ISNULL JOIN LIMIT NOT NOTHING NOTNULL NULL ON OR ORDER
    PRIMARY RAISE REFERENCES RETURNING SELECT SET TABLE THEN TO TRANSACTION UNION UNIQUE
    UPDATE USING VALUES WHEN WHERE""".split())


# ---------------------------------------------------------------------------
# Abstract SQL. A WHERE clause is a tor predicate (CmpAtom, AndP, OrP, NotP)
# whose fields are renamed to columns (SCol), and a literal, parameter or
# LIMIT bound a tor.IntConst, TextConst or ParamRef, in tor's operator
# spelling; _SQL_CMP respells them only in render and parse_sql.
# ---------------------------------------------------------------------------


@record
class SqlSource:
    table: str
    alias: str


@record
class SCol:
    alias: str
    name: str


@record
class SqlStar:
    alias: str


@record
class Renamed:
    """A SELECT item `col AS name`: the column under the program's name."""

    col: SCol
    name: str


@record
class Clamped:
    """LIMIT MAX(k, 0): k read as 0 when negative (a bare one is no limit)."""

    k: tor.Node  # tor.IntConst | tor.ParamRef


@record(memo="plans")
class SqlQuery:
    """A record query: SELECT items FROM sources [WHERE] ORDER BY rids [LIMIT]."""

    items: tuple  # SqlStar | SCol | Renamed
    sources: tuple[SqlSource, ...]
    where: Optional[tor.Node] = None
    limit: Optional[tor.Node] = None  # tor.IntConst | tor.ParamRef | Clamped


@record(memo="plans")
class SqlScalar:
    """An aggregate query: SELECT func(arg) FROM sources [WHERE].

    SUM renders wrapped in COALESCE(..., 0) so the empty input agrees with
    the loop semantics; MIN and MAX return NULL on empty input.
    """

    func: str  # sum | count | min | max
    arg: Optional[SCol]  # None only for count
    sources: tuple[SqlSource, ...]
    where: Optional[tor.Node] = None


Sql = Union[SqlQuery, SqlScalar]


# ---------------------------------------------------------------------------
# Translation: relation/scalar expression -> abstract SQL
# ---------------------------------------------------------------------------


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


def _column(fmap: dict, name: str) -> SCol:
    try:
        return SCol(*fmap[name])
    except KeyError:
        raise UnknownColumn(name) from None


def _operand_to_sql(o, fmap: dict):
    if isinstance(o, tor.FieldRef):
        return _column(fmap, o.name)
    if isinstance(o, (tor.IntConst, tor.TextConst, tor.ParamRef)):
        return o
    if isinstance(o, tor.IndexRef):
        raise NotTranslatable("loop indices cannot appear in emitted SQL")
    raise SchemaError(f"not a predicate operand: {o!r}")


def _pred_to_sql(p, fmap: dict):
    """p with its fields renamed to columns; None for true."""
    if isinstance(p, tor.TruePred):
        return None
    if isinstance(p, tor.CmpAtom):
        return tor.CmpAtom(
            p.op, _operand_to_sql(p.lhs, fmap), _operand_to_sql(p.rhs, fmap)
        )
    if isinstance(p, tor.AndP):
        return _conjoin(_pred_to_sql(p.left, fmap), _pred_to_sql(p.right, fmap))
    if isinstance(p, (tor.OrP, tor.NotP)):
        parts = [_pred_to_sql(c, fmap) for c in tor.children(p)]
        if None in parts:
            raise NotTranslatable("true under OR or NOT has no SQL form")
        return type(p)(*parts)
    raise SchemaError(f"not a predicate: {p!r}")


def _conjoin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tor.AndP(a, b)


def _select_parts(e, schemas: dict):
    """Split a normalized Proj?.Sel?.base into (projected fields or None,
    sources, map from field to (alias, column), WHERE or None)."""
    proj = None
    if isinstance(e, tor.Proj):
        proj, e = e.fields, e.of
    pred = tor.TruePred()
    if isinstance(e, tor.Sel):
        pred, e = e.pred, e.of
    sources, fmap = _sources_for(e, schemas)
    where = _pred_to_sql(pred, fmap)
    if isinstance(e, tor.Join):
        where = _conjoin(_pred_to_sql(e.pred, fmap), where)
    return proj, sources, fmap, where


def to_sql(e, schemas: dict, names: Optional[tuple] = None) -> Sql:
    """Translate a relation or scalar expression, or raise NotTranslatable.

    names, when given, are the program's names for a record query's output
    fields, in order: a column whose own name differs is selected AS its
    name, and the stars are then written as their columns."""
    if isinstance(e, tor.SizeOf):
        e = tor.AggOf("count", None, e.of)
    if isinstance(e, tor.AggOf):
        tor.compile_scalar(e, schemas)  # validate early
        # a Top under the aggregate stays the base and is refused there
        _, sources, fmap, where = _select_parts(_normalize(e.of), schemas)
        arg = None if e.field is None else _column(fmap, e.field)
        return SqlScalar(e.kind, arg, sources, where)
    if isinstance(
        e, (tor.IntConst, tor.TextConst, tor.ParamRef, tor.IndexRef, tor.GetRow)
    ):
        raise NotTranslatable(f"no canonical query for {type(e).__name__}")

    tor.schema_of(e, schemas)  # validate early
    e = _normalize(e)
    limit = None
    if isinstance(e, tor.Top):
        limit, e = e.k, e.of
        if not isinstance(limit, (tor.IntConst, tor.ParamRef)):
            raise NotTranslatable(
                f"prefix bound is not a constant or parameter: {limit!r}"
            )
        if isinstance(limit, tor.ParamRef) or limit.value < 0:
            limit = Clamped(limit)  # Top reads a negative bound as 0
    proj, sources, fmap, where = _select_parts(e, schemas)
    if proj is None:
        columns = [SCol(*c) for c in fmap.values()]  # the stars' columns
        items = tuple(SqlStar(s.alias) for s in sources)
    else:
        columns = [_column(fmap, name) for name in proj]
        items = tuple(columns)
    if names is not None and names != tuple(c.name for c in columns):
        items = tuple(c if c.name == n else Renamed(c, n) for c, n in zip(columns, names))
    return SqlQuery(items, sources, where, limit)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_operand(o) -> str:
    if isinstance(o, SCol):
        return f"{o.alias}.{o.name}"
    if isinstance(o, tor.IntConst):
        return str(o.value)
    if isinstance(o, tor.TextConst):
        return "'" + o.value.replace("'", "''") + "'"
    if isinstance(o, tor.ParamRef):
        return f":{o.name}"
    raise SchemaError(f"not a SQL operand: {o!r}")


def _render_pred(p, parent: Optional[str] = None, side: str = "left") -> str:
    """Left-associative chains of one connective render without parentheses;
    everything else is parenthesized, so parsing is exact."""
    if isinstance(p, tor.CmpAtom):
        return f"{_render_operand(p.lhs)} {_SQL_CMP[p.op]} {_render_operand(p.rhs)}"
    if isinstance(p, (tor.AndP, tor.OrP)):
        word = "AND" if isinstance(p, tor.AndP) else "OR"
        text = (
            f"{_render_pred(p.left, word, 'left')} {word} "
            f"{_render_pred(p.right, word, 'right')}"
        )
        bare = parent is None or (parent == word and side == "left")
        return text if bare else f"({text})"
    if isinstance(p, tor.NotP):
        return f"NOT ({_render_pred(p.operand)})"
    raise SchemaError(f"not a SQL predicate: {p!r}")


def _render_item(it) -> str:
    if isinstance(it, SqlStar):
        return f"{it.alias}.*"
    if isinstance(it, Renamed):
        return f"{_render_operand(it.col)} AS {it.name}"
    return _render_operand(it)


def render(q: Sql) -> str:
    """Canonical single-line SQL text; identical input gives identical bytes."""
    if isinstance(q, SqlScalar):
        if q.func == "count":
            head = "COUNT(*)"
        elif q.func == "sum":
            head = f"COALESCE(SUM({_render_operand(q.arg)}), 0)"
        else:
            head = f"{q.func.upper()}({_render_operand(q.arg)})"
    else:
        head = ", ".join(map(_render_item, q.items))
    src = ", ".join(
        s.table if s.alias == s.table else f"{s.table} {s.alias}" for s in q.sources
    )
    text = f"SELECT {head} FROM {src}"
    if q.where is not None:
        text += f" WHERE {_render_pred(q.where)}"
    if isinstance(q, SqlScalar):
        return text
    text += " ORDER BY " + ", ".join(f"{s.alias}.{RID}" for s in q.sources)
    if isinstance(q.limit, Clamped):
        text += f" LIMIT MAX({_render_operand(q.limit.k)}, 0)"
    elif q.limit is not None:
        text += f" LIMIT {_render_operand(q.limit)}"
    return text


# ---------------------------------------------------------------------------
# Parsing the canonical dialect
# ---------------------------------------------------------------------------

_CMP_ALTS = "|".join(sorted(_TOR_CMP, key=len, reverse=True))  # longest first
_SQL_TOKEN_RE = re.compile(
    r" +|'(?P<text>(?:[^']|'')*)'|:(?P<param>[A-Za-z0-9_]+)|(?P<int>-?[0-9]+)"
    rf"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>{_CMP_ALTS}|[(),.*])"
)
# errors for a character that starts no token, besides the generic one
_SQL_ERRORS = {"'": "unterminated text literal", ":": "bad parameter reference"}


def _sql_tokens(text: str) -> list:
    toks, pos = [], 0
    while pos < len(text):
        m = _SQL_TOKEN_RE.match(text, pos)
        if m is None:
            c = text[pos]
            generic = f"unexpected character {c!r} at offset {pos}"
            raise SqlSyntaxError(_SQL_ERRORS.get(c, generic))
        kind, value = m.lastgroup, m[m.lastgroup or 0]
        if kind == "text":
            value = value.replace("''", "'")
        elif kind == "int":
            value = int(value)
        elif kind == "word":
            kind = "kw" if value in RESERVED else "name"
        if kind is not None:  # None: the spaces between tokens
            toks.append((kind, value))
        pos = m.end()
    toks.append(("end", ""))
    return toks


_OPERANDS = {"int": tor.IntConst, "text": tor.TextConst, "param": tor.ParamRef}


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

    def skip(self, kind, value=None) -> bool:
        """Take the next token if it is (kind, value)."""
        found = self.at(kind, value)
        self.pos += found
        return found

    def take_all(self, *tokens) -> None:
        """Take the tokens (kind, value) in order."""
        for kind, value in tokens:
            self.take(kind, value)

    def commas(self, parse_one) -> tuple:
        out = [parse_one()]
        while self.skip("op", ","):
            out.append(parse_one())
        return tuple(out)

    def parse(self) -> Sql:
        self.take("kw", "SELECT")
        aggregate = None
        if self.at("kw") and self.peek()[1] in _FUNCS:
            aggregate = self._aggregate()
        else:
            items = self.commas(self._item)
        self.take("kw", "FROM")
        sources = self.commas(self._source)
        where = None
        if self.skip("kw", "WHERE"):
            where = self._pred()
            if too_deep(where, tor.children) is not None:
                raise SqlSyntaxError("query nested too deeply")
        if aggregate is not None:
            self.take("end")
            return SqlScalar(*aggregate, sources, where)
        if self.skip("kw", "ORDER"):
            # the engine produces exactly one order: each source's hidden
            # rid, FROM order. Any other clause would be silently
            # misinterpreted, so it is rejected instead.
            self.take("kw", "BY")
            if self.commas(self._col) != tuple(SCol(s.alias, RID) for s in sources):
                raise SqlSyntaxError(
                    "ORDER BY must list each source's rid in FROM order"
                )
        limit = None
        if self.skip("kw", "LIMIT"):
            clamped = self.skip("kw", "MAX")
            if clamped:
                self.take("op", "(")
            if not (self.at("int") or self.at("param")):
                raise SqlSyntaxError("LIMIT takes an integer or a parameter")
            limit = self._operand()
            if clamped:
                self.take_all(("op", ","), ("int", 0), ("op", ")"))
                limit = Clamped(limit)
        self.take("end")
        return SqlQuery(items, sources, where, limit)

    def _aggregate(self) -> tuple:
        """The SELECT item of an aggregate query, as (func, arg or None).
        SUM is accepted only as COALESCE(SUM(col), 0), the one form whose
        value on empty input MiniDb gives."""
        func = self.take("kw")
        if func == "SUM":
            raise SqlSyntaxError("SUM is written COALESCE(SUM(col), 0)")
        if func == "COALESCE":
            self.take_all(("op", "("), ("kw", "SUM"), ("op", "("))
            arg = self._col()
            self.take_all(("op", ")"), ("op", ","), ("int", 0), ("op", ")"))
            return "sum", arg
        self.take("op", "(")
        if func == "COUNT":
            self.take("op", "*")
            arg = None
        else:
            arg = self._col()
        self.take("op", ")")
        return func.lower(), arg

    def _source(self) -> SqlSource:
        table = self.take("name")
        alias = table
        if self.at("name"):
            alias = self.take("name")
        return SqlSource(table, alias)

    def _item(self):
        alias = self.take("name")
        self.take("op", ".")
        if self.skip("op", "*"):
            return SqlStar(alias)
        col = SCol(alias, self.take("name"))
        return Renamed(col, self.take("name")) if self.skip("kw", "AS") else col

    def _col(self) -> SCol:
        alias = self.take("name")
        self.take("op", ".")
        return SCol(alias, self.take("name"))

    def _pred(self):
        node = self._and()
        while self.skip("kw", "OR"):
            node = tor.OrP(node, self._and())
        return node

    def _and(self):
        node = self._not()
        while self.skip("kw", "AND"):
            node = tor.AndP(node, self._not())
        return node

    def _not(self):
        negated = self.skip("kw", "NOT")
        if negated or self.at("op", "("):
            self.take("op", "(")
            inner = self._pred()
            self.take("op", ")")
            return tor.NotP(inner) if negated else inner
        lhs = self._operand()
        k, op = self.peek()
        if k != "op" or op not in _TOR_CMP:
            raise SqlSyntaxError(f"expected comparison, found {op!r}")
        self.take()
        return tor.CmpAtom(_TOR_CMP[op], lhs, self._operand())

    def _operand(self):
        node = _OPERANDS.get(self.peek()[0])
        return self._col() if node is None else node(self.take())


def parse_sql(text: str) -> Sql:
    try:
        return _SqlParser(text).parse()
    except RecursionError:
        raise SqlSyntaxError("query nested too deeply") from None


# ---------------------------------------------------------------------------
# Reference evaluation
# ---------------------------------------------------------------------------


class MiniDb:
    """Tables plus scalar parameter bindings for :name placeholders."""

    __slots__ = ("tables", "params")

    def __init__(self, tables: dict = None, params: dict = None):
        self.tables = {} if tables is None else tables
        self.params = {} if params is None else params

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
    the source rids), ints or None for aggregates. A bare negative LIMIT is
    no limit, and LIMIT MAX(k, 0) clamps k at 0, as on SQLite."""
    rels = []
    for s in q.sources:
        if s.table not in db.tables:
            raise UnknownTable(s.table)
        rels.append(db.tables[s.table])
    return query_plan(q, tuple(rel.schema for rel in rels)).run(rels, db.params)


def query_plan(q: Sql, schemas: tuple) -> "_Plan":
    """The query's plan for its sources' schemas, in FROM order; built once
    per (query, schemas) and kept in the query's plans memo slot."""
    plans = q.plans
    if plans is None:
        plans = {}
        keep(q, "plans", plans)
    plan = plans.get(schemas)
    if plan is None:
        plan = plans[schemas] = _Plan(q, schemas)
    return plan


class _Plan:
    """A query compiled against its sources' schemas, built once per (query,
    schemas) and kept on the query.

    Every column, SELECT item and node is resolved here, and one that
    cannot be raises here (UnknownTable, UnknownColumn, SchemaError), as
    SQLite refuses to prepare such a query whatever the tables hold. params
    are the scalar parameters the query names, in order; run raises
    UnknownParam for a missing one before it reads a row.

    raw(rels, params), generated here (qilc.codegen), is run() over each
    source's rows tuple, given every parameter in params, without building
    the result relation: one comprehension over the rows, left-major, with
    WHERE and the output tuple or aggregate argument inline, then the
    aggregate or LIMIT.
    """

    def __init__(self, q: Sql, schemas: tuple):
        self.q = q
        self.schemas = schemas
        self.schema = None
        self.params = {}  # the parameters named, in order of first use
        self.src = Source()
        # a repeated alias names its last source
        self.slots = {s.alias: n for n, s in enumerate(q.sources)}
        where = "" if q.where is None else " if " + wrap(self._pred(q.where), OR)
        if isinstance(q, SqlScalar):
            item = "0" if q.arg is None else self._operand(q.arg, self.slots)
        else:
            self.schema, item = _select(q, self.slots, schemas)
        line, sources = self.src.line, range(len(q.sources))
        line(0, "def raw(rels, params):")
        line(1, "".join(f"t{n}, " for n in sources) + "= rels")
        loops = " ".join(f"for n{n}, r{n} in enumerate(t{n})" for n in sources)
        line(1, f"out = [{item} {loops}{where}]")
        if isinstance(q, SqlScalar):
            agg = {"count": "len(out)", "sum": "sum(out)"}.get(q.func)
            line(1, "return " + (agg or f"{q.func}(out) if out else None"))
        else:
            limit = q.limit.k if isinstance(q.limit, Clamped) else q.limit
            if limit is not None:
                k = self._operand(limit, {})
                line(1, f"k = max({k}, 0)" if limit is not q.limit else f"k = {k}")
            line(1, "return out" if limit is None else "return out if k < 0 else out[:k]")
        self.raw = self.src.compile("<qilc query>")["raw"]

    def run(self, rels: list, params: dict):
        """The query's value over the relations of its FROM list."""
        for name in self.params:
            if name not in params:
                raise UnknownParam(name)
        out = self.raw([rel.rows for rel in rels], params)
        if isinstance(self.q, SqlScalar):
            return out
        return OrderedRelation(self.schema, tuple(out))

    def _operand(self, o, slots: dict) -> str:
        """The code of one SQL operand, an atom over the sources' rows rN
        and rids nN."""
        if isinstance(o, SCol):
            n = slots.get(o.alias)
            if n is not None and o.name == RID:
                return f"n{n}"
            if n is None or not self.schemas[n].has(o.name):
                raise UnknownColumn(f"{o.alias}.{o.name}")
            return f"r{n}[{self.schemas[n].index_of(o.name)}]"
        if isinstance(o, (tor.IntConst, tor.TextConst)):
            return self.src.const(o.value)
        if isinstance(o, tor.ParamRef):
            self.params[o.name] = None
            return f"params[{self.src.const(o.name, 'v')}]"
        raise SchemaError(f"not a SQL operand: {o!r}")

    def _pred(self, p) -> tuple:
        """The code of one SQL predicate."""
        if isinstance(p, tor.CmpAtom):
            lhs, rhs = (self._operand(o, self.slots) for o in (p.lhs, p.rhs))
            return f"{lhs} {_PY_CMP[p.op]} {rhs}", CMP
        if isinstance(p, (tor.AndP, tor.OrP)):
            word, prec = ("and", AND) if isinstance(p, tor.AndP) else ("or", OR)
            return infix(self._pred(p.left), word, self._pred(p.right), prec)
        if isinstance(p, tor.NotP):
            return f"not {wrap(self._pred(p.operand), NOT)}", NOT
        raise SchemaError(f"not a SQL predicate: {p!r}")


def _select(q: SqlQuery, slots: dict, schemas: tuple) -> tuple:
    """The output schema and the code of the output row. Output names are
    the AS names and the plain column names, or alias.name for every
    column not renamed when those names repeat."""
    cols, parts = [], []  # (qualified name, name, type) of each column; the row's parts
    for it in q.items:
        col = it.col if isinstance(it, Renamed) else it
        if col.alias not in slots:
            raise UnknownTable(col.alias)
        n = slots[col.alias]
        sch = schemas[n]
        if isinstance(col, SqlStar):
            cols += [(f"{col.alias}.{name}", name, ty) for name, ty in sch.fields]
            parts.append(f"*r{n}")
            continue
        if not sch.has(col.name):
            raise UnknownColumn(f"{col.alias}.{col.name}")
        k = sch.index_of(col.name)
        if isinstance(it, Renamed):
            cols.append((it.name, it.name, sch.types[k]))
        else:
            cols.append((f"{col.alias}.{col.name}", col.name, sch.types[k]))
        parts.append(f"r{n}[{k}]")
    unique = len({name for _, name, _ in cols}) == len(cols)
    schema = Schema(tuple((name if unique else qualified, ty) for qualified, name, ty in cols))
    if len(parts) == 1 and parts[0][0] == "*":
        return schema, parts[0][1:]  # the source's row itself
    return schema, "(" + ", ".join(parts) + ",)"
