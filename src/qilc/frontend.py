"""Kernel-language frontend: AST, parser and typechecker (the pretty-printer
is qilc.pretty).

The kernel language (QIL, files with a .qil extension) is a small imperative
language whose programs traverse relation parameters with counted loops and
build one output: an ordered list of records or a scalar accumulator. The
normative grammar lives in docs/grammar.md; the parser here accepts exactly
that grammar.

Shape restrictions enforced by the typechecker (not the parser):
    - exactly one top-level loop, and it is the last statement before return
    - loop nesting depth at most 2
    - inside loop bodies, assignments must be accumulator updates
      (v = v + e, v = v + 1, v = min(v, e), v = max(v, e))
    - break appears only as `if cond { break; }`, last statement of a loop body
    - row access R[i] must use the index of the enclosing loop over R
"""

from __future__ import annotations

import functools
import re
from typing import Optional

from .emit import RESERVED, RID, SQLITE_RESERVED
from .record import Record, make, record, too_deep
from .relation import Schema

# Internal scalar type for min/max accumulators: an int that may be absent.
OPTINT = "optint"


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@record
class TypeIssue:
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class TypeCheckError(Exception):
    """All type violations found in one pass, in traversal order."""

    def __init__(self, issues: list[TypeIssue]):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = issues


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@record
class Loc:
    line: int
    col: int


class Node(Record):
    """Base of every syntax class. A syntax type (made by _node) names its
    fields, in constructor order, in _fields; a field holding a Node, or a
    tuple holding Nodes, holds children. Nodes are records (qilc.record):
    they compare and hash by type and fields. The source position loc is
    the last constructor argument, Loc(0, 0) when omitted; repr shows it,
    and == and hash ignore it."""

    __slots__ = ()


_node = functools.partial(make, defaults=(Loc(0, 0),), base=Node, loose="loc")

# ty: "int", "text", or a Schema for relation parameters
Param = _node("Param", "name ty")
ListDecl = _node("ListDecl", "name schema")
# base: "int" or "text"; init: an int or text literal, or None for `none`
ScalarDecl = _node("ScalarDecl", "name base init")
IntLit = _node("IntLit", "value")
TextLit = _node("TextLit", "value")
VarRef = _node("VarRef", "name")
FieldAccess = _node("FieldAccess", "rel index fieldname")
RowRef = _node("RowRef", "rel index")
RecordLit = _node("RecordLit", "items")  # items: ((name, expr), ...)
Add = _node("Add", "left right")
MinMax = _node("MinMax", "op left right")  # op: "min" | "max"
Cmp = _node("Cmp", "op left right")  # op: == != < <= > >=
BoolOp = _node("BoolOp", "op left right")  # op: "and" | "or"
NotOp = _node("NotOp", "operand")
Assign = _node("Assign", "target expr")
Append = _node("Append", "target record")  # record: RowRef or RecordLit
If = _node("If", "cond body")
Break = _node("Break", "")
For = _node("For", "index rel body")
Program = _node("Program", "name params decls body result")


# ---------------------------------------------------------------------------
# Generic traversal: walkers that treat every node alike except a few build
# on these instead of listing each node type.
# ---------------------------------------------------------------------------


def _nodes_in(value):
    if isinstance(value, Node):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _nodes_in(v)


def children(node) -> list:
    """The Node values of node's fields, in field order. Tuple fields are
    flattened: statement bodies, parameters, declarations, and the
    (name, expr) pairs of a record literal."""
    return [c for n in node._fields for c in _nodes_in(getattr(node, n))]


def walk(nodes):
    """Every node of the trees rooted at nodes, in pre-order."""
    for node in nodes:
        yield node
        yield from walk(children(node))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "fn", "var", "for", "in", "if", "break", "return",
    "rel", "list", "int", "text", "none", "min", "max", "size",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<int>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\\\n]*")
    | (?P<op>\.\.|==|!=|<=|>=|&&|\|\||[-+(){}\[\]:;,.<>=!])
    """,
    re.VERBOSE,
)


@record
class Token:
    kind: str  # "int" | "ident" | "string" | "op" | keyword itself | "eof"
    text: str
    line: int
    col: int


def _lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in KEYWORDS:
                tokens.append(Token(text, text, line, col))
            else:
                tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def loc(self) -> Loc:
        t = self.peek()
        return Loc(t.line, t.col)

    # --- program structure ---

    def program(self) -> Program:
        loc = self.loc()
        self.expect("fn")
        name = self.expect("ident").text
        self.expect("op", "(")
        params = []
        if not self.accept("op", ")"):
            params.append(self.param())
            while self.accept("op", ","):
                params.append(self.param())
            self.expect("op", ")")
        self.expect("op", "{")
        decls = []
        while self.peek().kind == "var":
            decls.append(self.decl())
        body = []
        while self.peek().kind not in ("return", "eof"):
            body.append(self.stmt())
        self.expect("return")
        result = self.expect("ident").text
        self.expect("op", ";")
        self.expect("op", "}")
        self.expect("eof")
        return Program(name, tuple(params), tuple(decls), tuple(body), result, loc)

    def param(self) -> Param:
        loc = self.loc()
        name = self.expect("ident").text
        self.expect("op", ":")
        if self.accept("rel"):
            return Param(name, self.schema(), loc)
        t = self.accept("int") or self.accept("text")
        if t is None:
            raise self.fail("expected a parameter type (rel(...), int, or text)")
        return Param(name, t.kind, loc)

    def schema(self) -> Schema:
        self.expect("op", "(")
        fields = [self.schema_field()]
        while self.accept("op", ","):
            fields.append(self.schema_field())
        self.expect("op", ")")
        try:
            return Schema(tuple(fields))
        except Exception as e:
            raise self.fail(str(e))

    def schema_field(self) -> tuple[str, str]:
        name = self.expect("ident").text
        self.expect("op", ":")
        t = self.accept("int") or self.accept("text")
        if t is None:
            raise self.fail("expected a field type (int or text)")
        return (name, t.kind)

    def decl(self):
        loc = self.loc()
        self.expect("var")
        name = self.expect("ident").text
        self.expect("op", ":")
        if self.accept("list"):
            schema = self.schema()
            self.expect("op", ";")
            return ListDecl(name, schema, loc)
        t = self.accept("int") or self.accept("text")
        if t is None:
            raise self.fail("expected a declaration type (list(...), int, or text)")
        self.expect("op", "=")
        init = self.initializer()
        self.expect("op", ";")
        return ScalarDecl(name, t.kind, init, loc)

    def initializer(self):
        """none, or an int or text literal as term reads it."""
        if self.accept("none"):
            return None
        t = self.peek()
        if t.kind not in ("int", "string") and (t.kind, t.text) != ("op", "-"):
            raise self.fail("expected an initializer (integer, string, or none)")
        return self.term().value

    # --- statements ---

    def stmt(self):
        t = self.peek()
        if t.kind == "for":
            return self.for_stmt()
        if t.kind == "if":
            return self.if_stmt()
        if self.accept("break"):
            self.expect("op", ";")
            return Break(Loc(t.line, t.col))
        if t.kind == "ident":
            return self.assign_or_append()
        raise self.fail(f"expected a statement, found {t.text!r}")

    def for_stmt(self) -> For:
        loc = self.loc()
        self.expect("for")
        index = self.expect("ident").text
        self.expect("in")
        zero = self.expect("int")
        if zero.text != "0":
            raise ParseError("loop lower bound must be 0", zero.line, zero.col)
        self.expect("op", "..")
        self.expect("size")
        self.expect("op", "(")
        rel = self.expect("ident").text
        self.expect("op", ")")
        body = self.block()
        return For(index, rel, body, loc)

    def if_stmt(self) -> If:
        loc = self.loc()
        self.expect("if")
        cond = self.pred()
        body = self.block()
        return If(cond, body, loc)

    def block(self) -> tuple:
        self.expect("op", "{")
        stmts = []
        while not self.accept("op", "}"):
            if self.peek().kind == "eof":
                raise self.fail("unterminated block")
            stmts.append(self.stmt())
        return tuple(stmts)

    def assign_or_append(self):
        loc = self.loc()
        name = self.expect("ident").text
        if self.accept("op", "."):
            if not self.accept("ident", "append"):
                raise self.fail("expected 'append'")
            self.expect("op", "(")
            record = self.record_expr()
            self.expect("op", ")")
            self.expect("op", ";")
            return Append(name, record, loc)
        self.expect("op", "=")
        expr = self.expr()
        self.expect("op", ";")
        return Assign(name, expr, loc)

    def record_expr(self):
        loc = self.loc()
        if self.accept("op", "{"):
            items = [self.record_item()]
            while self.accept("op", ","):
                items.append(self.record_item())
            self.expect("op", "}")
            return RecordLit(tuple(items), loc)
        if self.peek().kind == "ident":
            rel = self.next().text
            self.expect("op", "[")
            index = self.expect("ident").text
            self.expect("op", "]")
            return RowRef(rel, index, loc)
        raise self.fail("expected a record expression (R[i] or {f: e, ...})")

    def record_item(self) -> tuple[str, object]:
        name = self.expect("ident").text
        self.expect("op", ":")
        return (name, self.expr())

    # --- expressions ---
    # expr := term (+ term)*            (int only; checked later)
    # term := INT | STRING | ident | ident [ ident ] . ident
    #       | min(expr, expr) | max(expr, expr) | ( expr )

    def expr(self):
        loc = self.loc()
        e = self.term()
        while self.accept("op", "+"):
            e = Add(e, self.term(), loc)
        return e

    def term(self):
        t = self.peek()
        loc = self.loc()
        if self.accept("int"):
            return IntLit(int(t.text), loc)
        if self.accept("op", "-"):
            return IntLit(-int(self.expect("int").text), loc)
        if self.accept("string"):
            return TextLit(t.text[1:-1], loc)
        if t.kind in ("min", "max"):
            op = self.next().kind
            self.expect("op", "(")
            a = self.expr()
            self.expect("op", ",")
            b = self.expr()
            self.expect("op", ")")
            return MinMax(op, a, b, loc)
        if self.accept("op", "("):
            e = self.expr()
            self.expect("op", ")")
            return e
        if t.kind == "ident":
            name = self.next().text
            if self.accept("op", "["):
                index = self.expect("ident").text
                self.expect("op", "]")
                self.expect("op", ".")
                fieldname = self.expect("ident").text
                return FieldAccess(name, index, fieldname, loc)
            return VarRef(name, loc)
        raise self.fail(f"expected an expression, found {t.text or 'end of input'!r}")

    # --- predicates: ! binds tightest, then &&, then || ---

    def pred(self):
        e, loc = self.pred_and(), self.loc()
        while self.accept("op", "||"):
            e, loc = BoolOp("or", e, self.pred_and(), loc), self.loc()
        return e

    def pred_and(self):
        e, loc = self.pred_not(), self.loc()
        while self.accept("op", "&&"):
            e, loc = BoolOp("and", e, self.pred_not(), loc), self.loc()
        return e

    def pred_not(self):
        loc = self.loc()
        if self.accept("op", "!"):
            return NotOp(self.pred_not(), loc)
        return self.pred_atom()

    def pred_atom(self):
        # A parenthesized predicate or a comparison between two expressions.
        # "(" is ambiguous (grouping vs arithmetic); resolve by backtracking.
        if self.peek().kind == "op" and self.peek().text == "(":
            saved = self.pos
            try:
                self.next()
                inner = self.pred()
                self.expect("op", ")")
                return inner
            except ParseError:
                self.pos = saved
        loc = self.loc()
        left = self.expr()
        t = self.peek()
        if t.kind != "op" or t.text not in ("==", "!=", "<", "<=", ">", ">="):
            raise self.fail("expected a comparison operator")
        op = self.next().text
        right = self.expr()
        return Cmp(op, left, right, loc)


def parse(source: str) -> Program:
    """Parse kernel source into an AST; raises ParseError on the first
    syntactically offending token, where nesting outgrows the stack, or at
    the first node nested deeper than record.MAX_DEPTH levels."""
    parser = _Parser(_lex(source))
    try:
        ast = parser.program()
    except RecursionError:
        raise parser.fail("nested too deeply") from None
    deep = too_deep(ast, children)
    if deep is not None:
        raise ParseError("nested too deeply", deep.loc.line, deep.loc.col)
    return ast


# ---------------------------------------------------------------------------
# Typechecker
# ---------------------------------------------------------------------------


@record(loose="node prefix suffix")
class LoopInfo:
    """One loop of the (at most two deep) nest, outermost first. prefix and
    suffix are the outer body's statements before and after an inner loop
    (empty for the top-level loop); == and hash ignore them and the For."""

    index: str
    rel: str
    breaks: bool  # the body ends in a guarded break
    node: For
    prefix: tuple
    suffix: tuple


class TypedProgram:
    """A parse tree that passed all checks, plus the facts later passes need.

    var_types maps every name in scope to "int" | "text" | "optint" |
    ("rel", Schema) | ("list", Schema). loops lists the nest outermost first,
    pre_loop the statements before the top-level loop, agg_updates each
    accumulator's "sum" | "count" | "min" | "max", and relations each
    relation parameter's Schema. memo holds what later passes build from
    the program once (interp's compiled statements, the verifier's plan per
    Bounds), keyed by the builder; see derived.
    """

    __slots__ = (
        "ast", "var_types", "loops", "pre_loop", "agg_updates", "relations", "memo",
        "__weakref__",
    )

    def __init__(self, ast, var_types, loops, pre_loop, agg_updates, relations):
        self.ast = ast
        self.var_types = var_types
        self.loops = loops
        self.pre_loop = pre_loop
        self.agg_updates = agg_updates
        self.relations = relations
        self.memo = {}

    @property
    def name(self) -> str:
        return self.ast.name

    def derived(self, build, *args):
        """build(self, *args), built on first use and kept with the program
        under the key (build, *args), or build alone when there are no args."""
        key = (build, *args) if args else build
        memo = self.memo
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]


class _Checker:
    def __init__(self, ast: Program):
        self.ast = ast
        self.issues: list[TypeIssue] = []
        self.var_types: dict = {}
        self.loops: list[LoopInfo] = []
        self.agg_updates: dict = {}
        # index var -> relation it traverses, for row-access checks
        self.loop_rel: dict = {}

    def issue(self, msg: str, loc: Loc) -> None:
        self.issues.append(TypeIssue(msg, loc.line, loc.col))

    def check(self) -> TypedProgram:
        ast = self.ast
        for p in ast.params:
            if p.name in self.var_types:
                self.issue(f"duplicate parameter {p.name!r}", p.loc)
            self.var_types[p.name] = ("rel", p.ty) if isinstance(p.ty, Schema) else p.ty
            if isinstance(p.ty, Schema):
                self.check_sql_names(p.name, p.ty.names, p.loc, relation=True)
                fields = [(f, p.loc) for f in p.ty.names]
                self.check_sql_case("field", fields, f" of {p.name!r}")
        relations = [(p.name, p.loc) for p in ast.params if isinstance(p.ty, Schema)]
        self.check_sql_case("relation", relations)
        for d in ast.decls:
            if d.name in self.var_types:
                self.issue(f"{d.name!r} is already declared", d.loc)
            if isinstance(d, ListDecl):
                self.var_types[d.name] = ("list", d.schema)
                if d.name == ast.result:  # a name a parameter has is checked there
                    fields = {f for p in ast.params if isinstance(p.ty, Schema) for f in p.ty.names}
                    names = [f for f in d.schema.names if f not in fields]
                    self.check_sql_names(d.name, names, d.loc, relation=False)
            else:
                if d.base == "int":
                    self.var_types[d.name] = OPTINT if d.init is None else "int"
                else:
                    if d.init is None:
                        self.issue("none initializer is only for int accumulators", d.loc)
                    self.var_types[d.name] = "text"
                got = "text" if isinstance(d.init, str) else "int"
                if d.init is not None and got != d.base:
                    self.issue(f"cannot initialize {d.name!r} ({d.base}) with {got}", d.loc)

        pre_loop = self.check_toplevel(ast.body)

        # return target: a declared local
        if ast.result not in {d.name for d in ast.decls}:
            self.issue(
                f"return target {ast.result!r} is not a declared local", ast.loc
            )

        if self.issues:
            raise TypeCheckError(self.issues)
        return TypedProgram(
            ast=ast,
            var_types=self.var_types,
            loops=self.loops,
            pre_loop=pre_loop,
            agg_updates=self.agg_updates,
            relations={p.name: p.ty for p in ast.params if isinstance(p.ty, Schema)},
        )

    def check_sql_names(self, name: str, fields, loc: Loc, relation: bool) -> None:
        """The emitted SQL names a relation and its fields as written, and
        the result's fields where it renames a column (AS): none may be a
        word of its dialect or a keyword SQLite refuses there, and no field
        may be the hidden rid."""
        reserved = RESERVED | SQLITE_RESERVED
        if relation and name.upper() in reserved:
            self.issue(f"relation name {name!r} is reserved in the emitted SQL", loc)
        for f in fields:
            if f.upper() in reserved or f.lower() == RID:
                self.issue(f"field name {f!r} of {name!r} is reserved in the emitted SQL", loc)

    def check_sql_case(self, kind: str, named, of: str = "") -> None:
        """SQL reads table and column names without regard to letter case
        (SQLite does), so no two of the (name, loc) pairs may name the
        same. Scalar parameters are bound as :name, which SQLite reads
        case-sensitively, so they are not checked."""
        seen = {}
        for name, loc in named:
            first = seen.setdefault(name.lower(), name)
            if first != name:
                self.issue(
                    f"{kind} names {first!r} and {name!r}{of} differ only in letter case, "
                    "which SQL ignores",
                    loc,
                )

    def check_toplevel(self, body: tuple) -> tuple:
        """The program body: simple statements, then exactly one loop."""
        loop_seen = False
        pre = []
        for st in body:
            if isinstance(st, For):
                if loop_seen:
                    self.issue("only one top-level loop is allowed", st.loc)
                    continue
                loop_seen = True
                self.check_loop(st, 1, (), ())
            elif loop_seen:
                self.issue("statements after the top-level loop are not allowed", st.loc)
            else:
                if isinstance(st, Assign):
                    self.check_plain_assign(st)
                elif isinstance(st, (If, Break, Append)):
                    self.issue(
                        "only scalar initialization may precede the loop", st.loc
                    )
                pre.append(st)
        if not loop_seen:
            self.issue("program must contain a loop", self.ast.loc)
        return tuple(pre)

    def check_loop(self, st: For, depth: int, prefix: tuple, suffix: tuple) -> None:
        if depth > 2:
            self.issue("loops nest at most two deep", st.loc)
            return
        relty = self.var_types.get(st.rel)
        if relty is None:
            self.issue(f"undeclared identifier {st.rel!r}", st.loc)
            return
        if not (isinstance(relty, tuple) and relty[0] == "rel"):
            self.issue(f"{st.rel!r} is not a relation parameter", st.loc)
            return
        if st.index in self.var_types:
            self.issue(f"loop index {st.index!r} shadows another name", st.loc)
            return
        self.var_types[st.index] = "index"
        self.loop_rel[st.index] = st.rel
        breaks = any(isinstance(s, If) and self.is_guarded_break(s) for s in st.body)
        self.loops.append(LoopInfo(st.index, st.rel, breaks, st, prefix, suffix))
        self.check_body(st.body, depth)

    def check_body(self, body: tuple, depth: int, under_if: bool = False) -> None:
        """A loop body's statements, or those under a non-break conditional
        inside it (under_if), where no loop or break may appear and a
        guarded break is reported without checking its guard."""
        for pos, st in enumerate(body):
            if isinstance(st, For):
                if under_if:
                    self.issue("loops may not appear under a conditional", st.loc)
                else:
                    self.check_loop(st, depth + 1, body[:pos], body[pos + 1 :])
            elif isinstance(st, Break):
                self.issue(
                    "break must be the last statement of the loop body"
                    if under_if
                    else "break must appear as `if cond { break; }`",
                    st.loc,
                )
            elif isinstance(st, If):
                guarded = self.is_guarded_break(st)
                if guarded and (under_if or pos < len(body) - 1):
                    self.issue(
                        "a guarded break must be the last statement of the loop body",
                        st.loc,
                    )
                if not (guarded and under_if):
                    self.check_pred(st.cond)
                if not guarded:
                    self.check_body(st.body, depth, under_if=True)
            elif isinstance(st, Append):
                self.check_append(st)
            elif isinstance(st, Assign):
                self.check_accum_update(st)

    @staticmethod
    def is_guarded_break(st: If) -> bool:
        return len(st.body) == 1 and isinstance(st.body[0], Break)

    # --- statement checks ---

    def check_plain_assign(self, st: Assign) -> None:
        ty = self.var_types.get(st.target)
        if ty is None:
            self.issue(f"undeclared identifier {st.target!r}", st.loc)
            return
        if ty not in ("int", "text"):
            self.issue(f"{st.target!r} is not an assignable scalar", st.loc)
            return
        ety = self.expr_type(st.expr)
        if ety is not None and ety != ty:
            self.issue(f"cannot assign {ety} to {st.target!r} ({ty})", st.loc)

    def check_accum_update(self, st: Assign) -> None:
        """Loop-body assignments: v = v + e | v = min(v, e) | v = max(v, e)."""
        ty = self.var_types.get(st.target)
        if ty is None:
            self.issue(f"undeclared identifier {st.target!r}", st.loc)
            return
        e = st.expr
        if isinstance(e, Add) and isinstance(e.left, VarRef) and e.left.name == st.target:
            if ty != "int":
                self.issue(f"accumulator {st.target!r} must be int", st.loc)
                return
            rty = self.expr_type(e.right)
            if rty is not None and rty != "int":
                self.issue("accumulator increment must be int", st.loc)
            if isinstance(e.right, IntLit) and e.right.value == 1:
                self.note_agg(st.target, "count", st.loc)
            else:
                self.note_agg(st.target, "sum", st.loc)
            return
        if isinstance(e, MinMax) and isinstance(e.left, VarRef) and e.left.name == st.target:
            if ty not in ("int", OPTINT):
                self.issue(f"accumulator {st.target!r} must be int", st.loc)
                return
            rty = self.expr_type(e.right)
            if rty is not None and rty != "int":
                self.issue(f"{e.op} argument must be int", st.loc)
            self.note_agg(st.target, e.op, st.loc)
            return
        self.issue(
            "loop bodies only allow accumulator updates "
            "(v = v + e, v = min(v, e), v = max(v, e))",
            st.loc,
        )

    def note_agg(self, name: str, kind: str, loc: Loc) -> None:
        prev = self.agg_updates.get(name)
        if prev is not None and prev != kind:
            self.issue(f"accumulator {name!r} mixes {prev} and {kind} updates", loc)
        self.agg_updates[name] = kind

    def check_append(self, st: Append) -> None:
        ty = self.var_types.get(st.target)
        if ty is None:
            self.issue(f"undeclared identifier {st.target!r}", st.loc)
            return
        if not (isinstance(ty, tuple) and ty[0] == "list"):
            self.issue(f"{st.target!r} is not a list", st.loc)
            return
        declared: Schema = ty[1]
        rec = st.record
        if isinstance(rec, RowRef):
            sch = self.row_schema(rec)
            if sch is not None and sch != declared:
                self.issue(
                    f"appended row schema {sch.names} does not match "
                    f"declared schema {declared.names}",
                    rec.loc,
                )
            return
        # record literal: names, order, and types must match the declaration
        names = tuple(n for n, _ in rec.items)
        if names != declared.names:
            self.issue(
                f"record fields {names} do not match declared schema {declared.names}",
                rec.loc,
            )
            return
        for (name, expr), want in zip(rec.items, declared.types):
            got = self.expr_type(expr)
            if got is not None and got != want:
                self.issue(f"field {name!r} expects {want}, got {got}", rec.loc)

    # --- expression typing ---

    def row_schema(self, rec: RowRef) -> Optional[Schema]:
        relty = self.var_types.get(rec.rel)
        if relty is None:
            self.issue(f"undeclared identifier {rec.rel!r}", rec.loc)
            return None
        if not (isinstance(relty, tuple) and relty[0] == "rel"):
            self.issue(f"{rec.rel!r} is not a relation parameter", rec.loc)
            return None
        if self.loop_rel.get(rec.index) != rec.rel:
            self.issue(
                f"row access {rec.rel}[{rec.index}] must use the index of the "
                f"loop over {rec.rel}",
                rec.loc,
            )
            return None
        return relty[1]

    def expr_type(self, e) -> Optional[str]:
        if isinstance(e, IntLit):
            return "int"
        if isinstance(e, TextLit):
            return "text"
        if isinstance(e, VarRef):
            ty = self.var_types.get(e.name)
            if ty is None:
                self.issue(f"undeclared identifier {e.name!r}", e.loc)
                return None
            if ty == "index":
                return "int"
            if isinstance(ty, tuple):
                self.issue(f"{e.name!r} is not a scalar", e.loc)
                return None
            return ty
        if isinstance(e, FieldAccess):
            sch = self.row_schema(RowRef(e.rel, e.index, e.loc))
            if sch is None:
                return None
            if not sch.has(e.fieldname):
                self.issue(f"no field {e.fieldname!r} in {e.rel!r}", e.loc)
                return None
            return sch.type_of(e.fieldname)
        if isinstance(e, (Add, MinMax)):
            # + takes ints; min and max take an accumulator that may be absent
            op, allowed = ("+", ("int",)) if isinstance(e, Add) else (e.op, ("int", OPTINT))
            types = (self.expr_type(e.left), self.expr_type(e.right))
            if any(t is not None and t not in allowed for t in types):
                self.issue(f"{op} expects int operands", e.loc)
                return None
            return OPTINT if OPTINT in types else "int"
        raise AssertionError(f"unhandled expression {e!r}")

    def check_pred(self, p) -> None:
        if isinstance(p, Cmp):
            lt, rt = self.expr_type(p.left), self.expr_type(p.right)
            if lt == OPTINT or rt == OPTINT:
                self.issue("min/max accumulators cannot be compared", p.loc)
                return
            if lt is not None and rt is not None and lt != rt:
                self.issue(f"cannot compare {lt} with {rt}", p.loc)
                return
            if lt == "text" and p.op not in ("==", "!="):
                self.issue("text supports only == and !=", p.loc)
            return
        if not isinstance(p, (BoolOp, NotOp)):
            raise AssertionError(f"unhandled predicate {p!r}")
        for c in children(p):
            self.check_pred(c)


def typecheck(ast: Program) -> TypedProgram:
    """Validate shape and types; raises TypeCheckError listing every
    violation (in traversal order) when the program is ill-formed."""
    return _Checker(ast).check()
