"""QIL pretty-printer: deterministic formatting whose output re-parses to an
equal AST (round-trip property).

The pipeline never prints a program, so qilc.cli does not import this
module.
"""

from __future__ import annotations

from .frontend import (
    Add,
    Append,
    Assign,
    BoolOp,
    Break,
    Cmp,
    FieldAccess,
    For,
    If,
    IntLit,
    ListDecl,
    MinMax,
    NotOp,
    Param,
    Program,
    RowRef,
    TextLit,
    VarRef,
)
from .relation import Schema


def pretty(ast: Program) -> str:
    out: list[str] = []
    params = ", ".join(_pp_param(p) for p in ast.params)
    out.append(f"fn {ast.name}({params}) {{")
    for d in ast.decls:
        if isinstance(d, ListDecl):
            out.append(f"  var {d.name}: list({_pp_schema(d.schema)});")
        else:
            out.append(f"  var {d.name}: {d.base} = {_pp_init(d.init)};")
    for st in ast.body:
        _pp_stmt(st, out, 1)
    out.append(f"  return {ast.result};")
    out.append("}")
    return "\n".join(out) + "\n"


def _pp_param(p: Param) -> str:
    if isinstance(p.ty, Schema):
        return f"{p.name}: rel({_pp_schema(p.ty)})"
    return f"{p.name}: {p.ty}"


def _pp_schema(s: Schema) -> str:
    return ", ".join(f"{n}: {t}" for n, t in s.fields)


def _pp_init(init) -> str:
    if init is None:
        return "none"
    if isinstance(init, str):
        return f'"{init}"'
    return str(init)


def _pp_stmt(st, out: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(st, For):
        out.append(f"{pad}for {st.index} in 0..size({st.rel}) {{")
        for s in st.body:
            _pp_stmt(s, out, depth + 1)
        out.append(f"{pad}}}")
    elif isinstance(st, If):
        out.append(f"{pad}if {_pp_pred(st.cond)} {{")
        for s in st.body:
            _pp_stmt(s, out, depth + 1)
        out.append(f"{pad}}}")
    elif isinstance(st, Break):
        out.append(f"{pad}break;")
    elif isinstance(st, Append):
        out.append(f"{pad}{st.target}.append({_pp_record(st.record)});")
    elif isinstance(st, Assign):
        out.append(f"{pad}{st.target} = {_pp_expr(st.expr)};")
    else:
        raise AssertionError(f"unhandled statement {st!r}")


def _pp_record(rec) -> str:
    if isinstance(rec, RowRef):
        return f"{rec.rel}[{rec.index}]"
    items = ", ".join(f"{n}: {_pp_expr(e)}" for n, e in rec.items)
    return f"{{{items}}}"


def _pp_expr(e) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, TextLit):
        return f'"{e.value}"'
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, FieldAccess):
        return f"{e.rel}[{e.index}].{e.fieldname}"
    if isinstance(e, Add):
        return f"{_pp_expr(e.left)} + {_pp_expr(e.right)}"
    if isinstance(e, MinMax):
        return f"{e.op}({_pp_expr(e.left)}, {_pp_expr(e.right)})"
    raise AssertionError(f"unhandled expression {e!r}")


def _pp_pred(p) -> str:
    if isinstance(p, Cmp):
        return f"{_pp_expr(p.left)} {p.op} {_pp_expr(p.right)}"
    if isinstance(p, BoolOp):
        sym = "&&" if p.op == "and" else "||"
        return f"({_pp_pred(p.left)}) {sym} ({_pp_pred(p.right)})"
    if isinstance(p, NotOp):
        return f"!({_pp_pred(p.operand)})"
    raise AssertionError(f"unhandled predicate {p!r}")
