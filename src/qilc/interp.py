"""Reference interpreter for typed kernel programs.

Executes the imperative semantics directly: loops visit rows in relation
order, appends accumulate in visit order, min/max accumulators start absent
(None) and become concrete on the first update. This module is the ground
truth that synthesized queries are verified and differentially tested
against.

The verifier reuses the statement executor to run single loop-body
iterations from reconstructed stores; see exec_stmts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import frontend as F
from .relation import INT, OrderedRelation, Schema
from .tor import CMP_OPS

NORMAL = "normal"
BREAK = "break"

_CMP = {("==" if op == "=" else op): f for op, f in CMP_OPS.items()}


class InputError(ValueError):
    """Provided bindings do not match the program's parameters."""


@dataclass
class LoopHeadState:
    """One observation: a loop-head visit, or the final exit state.

    Loop heads are visited once per index value including the failing guard
    check (a loop over a 2-row relation yields heads at i=0,1,2). kind is
    "head" or "exit"; indices holds every active loop index; vars snapshots
    every declared local (lists as OrderedRelation).
    """

    kind: str
    loop: str | None
    indices: dict
    vars: dict


def check_inputs(prog: F.TypedProgram, inputs: dict) -> None:
    """Validate bindings against the parameter list; raises InputError."""
    expected = {p.name for p in prog.ast.params}
    given = set(inputs)
    if expected != given:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise InputError("bindings do not match parameters: " + ", ".join(parts))
    for p in prog.ast.params:
        v = inputs[p.name]
        if isinstance(p.ty, Schema):
            if not isinstance(v, OrderedRelation):
                raise InputError(f"{p.name!r} must be a relation")
            if v.schema != p.ty:
                raise InputError(
                    f"{p.name!r} expects schema {p.ty.fields}, got {v.schema.fields}"
                )
        elif p.ty == INT:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"{p.name!r} must be an int")
        else:
            if not isinstance(v, str):
                raise InputError(f"{p.name!r} must be text")


def init_store(prog: F.TypedProgram, inputs: dict) -> dict:
    """Store at program entry: parameters plus declared locals.

    List locals are held as mutable Python lists of row tuples while the
    program runs; snapshot_store converts them back to relations.
    """
    store = dict(inputs)
    for d in prog.ast.decls:
        if isinstance(d, F.ListDecl):
            store[d.name] = []
        else:
            store[d.name] = d.init
    return store


def snapshot_store(prog: F.TypedProgram, store: dict) -> dict:
    out = {}
    for d in prog.ast.decls:
        v = store[d.name]
        if isinstance(d, F.ListDecl):
            out[d.name] = OrderedRelation(d.schema, tuple(v))
        else:
            out[d.name] = v
    return out


def eval_expr(prog: F.TypedProgram, e, store: dict):
    if isinstance(e, F.IntLit):
        return e.value
    if isinstance(e, F.TextLit):
        return e.value
    if isinstance(e, F.VarRef):
        return store[e.name]
    if isinstance(e, F.FieldAccess):
        rel: OrderedRelation = store[e.rel]
        row = rel.rows[store[e.index]]
        return row[prog.relations[e.rel].index_of(e.fieldname)]
    if isinstance(e, F.Add):
        return eval_expr(prog, e.left, store) + eval_expr(prog, e.right, store)
    if isinstance(e, F.MinMax):
        a = eval_expr(prog, e.left, store)
        b = eval_expr(prog, e.right, store)
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b) if e.op == "min" else max(a, b)
    raise AssertionError(f"unhandled expression {e!r}")


def eval_pred(prog: F.TypedProgram, p, store: dict) -> bool:
    if isinstance(p, F.Cmp):
        a = eval_expr(prog, p.left, store)
        b = eval_expr(prog, p.right, store)
        return _CMP[p.op](a, b)
    if isinstance(p, F.BoolOp):
        if p.op == "and":
            return eval_pred(prog, p.left, store) and eval_pred(prog, p.right, store)
        return eval_pred(prog, p.left, store) or eval_pred(prog, p.right, store)
    if isinstance(p, F.NotOp):
        return not eval_pred(prog, p.operand, store)
    raise AssertionError(f"unhandled predicate {p!r}")


def eval_record(prog: F.TypedProgram, rec, store: dict) -> tuple:
    if isinstance(rec, F.RowRef):
        rel: OrderedRelation = store[rec.rel]
        return rel.rows[store[rec.index]]
    return tuple(eval_expr(prog, e, store) for _, e in rec.items)


def exec_stmts(prog: F.TypedProgram, stmts, store: dict, observer=None) -> str:
    """Run a statement sequence against a mutable store.

    Returns BREAK if a break fired (the enclosing loop must stop), NORMAL
    otherwise. Nested loops run to completion here; their own breaks do not
    escape past their loop.
    """
    for st in stmts:
        if isinstance(st, F.Assign):
            store[st.target] = eval_expr(prog, st.expr, store)
        elif isinstance(st, F.Append):
            store[st.target].append(eval_record(prog, st.record, store))
        elif isinstance(st, F.If):
            if eval_pred(prog, st.cond, store):
                sig = exec_stmts(prog, st.body, store, observer)
                if sig == BREAK:
                    return BREAK
        elif isinstance(st, F.Break):
            return BREAK
        elif isinstance(st, F.For):
            exec_loop(prog, st, store, observer)
        else:
            raise AssertionError(f"unhandled statement {st!r}")
    return NORMAL


def exec_loop(prog: F.TypedProgram, loop: F.For, store: dict, observer=None) -> None:
    """Run one counted loop to completion (its break stops only itself).

    The loop head is visited once per index value 0..size inclusive; the
    final visit is the one whose guard fails, unless a break cut the loop
    short.
    """
    size = store[loop.rel].size
    store[loop.index] = 0
    while True:
        i = store[loop.index]
        if observer is not None:
            observer(loop, store)
        if i >= size:
            break
        sig = exec_stmts(prog, loop.body, store, observer)
        if sig == BREAK:
            break
        store[loop.index] = i + 1
    del store[loop.index]


def run(prog: F.TypedProgram, inputs: dict):
    """Execute the program; returns the result value (an OrderedRelation for
    list results, an int/str for accumulators, None for a min/max accumulator
    that was never updated)."""
    check_inputs(prog, inputs)
    store = init_store(prog, inputs)
    exec_stmts(prog, prog.ast.body, store)
    return snapshot_store(prog, store)[prog.ast.result]


def trace(prog: F.TypedProgram, inputs: dict) -> list[LoopHeadState]:
    """Execute while recording every loop-head visit, then the exit state."""
    check_inputs(prog, inputs)
    store = init_store(prog, inputs)
    states: list[LoopHeadState] = []
    index_names = [li.index for li in prog.loops]

    def observer(loop: F.For, st: dict) -> None:
        states.append(
            LoopHeadState(
                kind="head",
                loop=loop.index,
                indices={n: st[n] for n in index_names if n in st},
                vars=snapshot_store(prog, st),
            )
        )

    exec_stmts(prog, prog.ast.body, store, observer)
    states.append(
        LoopHeadState(kind="exit", loop=None, indices={}, vars=snapshot_store(prog, store))
    )
    return states
