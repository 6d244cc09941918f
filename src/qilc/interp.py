"""Reference interpreter for typed kernel programs.

Executes the imperative semantics directly: loops visit rows in relation
order, appends accumulate in visit order, min/max accumulators start absent
(None) and become concrete on the first update. This module is the ground
truth that synthesized queries are verified and differentially tested
against.

Each statement sequence is compiled once per program into one closure over
a mutable store (closure compilation: Feeley and Lapalme, "Using closures
for code generation", Computer Languages 1987). The Executor holding the
closures is kept on the TypedProgram, so a difftest case or a verifier
instance only runs them. The verifier runs single loop-body iterations from
reconstructed stores through Executor.block.
"""

from __future__ import annotations

from operator import itemgetter

from . import frontend as F
from .relation import INT, OrderedRelation, Schema
from .tor import CMP_OPS

_CMP = {("==" if op == "=" else op): f for op, f in CMP_OPS.items()}


class InputError(ValueError):
    """Provided bindings do not match the program's parameters."""


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


class Executor:
    """One program's statements compiled to closures, built once per program
    (see executor).

    A compiled statement sequence takes the store, a dict from names to
    values in which list locals are Python lists of row tuples, and returns
    a true value when a break fired (the enclosing loop must stop). A loop
    inside the sequence runs to completion; its own break does not escape
    it, and its index is gone from the store afterwards.
    """

    def __init__(self, prog: F.TypedProgram):
        self.prog = prog
        self._blocks: dict = {}
        self._decls = tuple(
            (d.name, isinstance(d, F.ListDecl), d.init if isinstance(d, F.ScalarDecl) else None)
            for d in prog.ast.decls
        )
        result = next(d for d in prog.ast.decls if d.name == prog.ast.result)
        self.result_name = result.name
        self.result_schema = result.schema if isinstance(result, F.ListDecl) else None
        self.body = self.block(prog.ast.body)

    def block(self, stmts: tuple):
        """The closure for a statement sequence of this program."""
        if stmts not in self._blocks:
            self._blocks[stmts] = _block(self.prog, stmts)
        return self._blocks[stmts]

    def init_store(self, inputs: dict) -> dict:
        """Store at program entry: parameters plus declared locals."""
        store = dict(inputs)
        for name, is_list, init in self._decls:
            store[name] = [] if is_list else init
        return store

    def result(self, store: dict):
        v = store[self.result_name]
        if self.result_schema is None:
            return v
        return OrderedRelation(self.result_schema, tuple(v))


def executor(prog: F.TypedProgram) -> Executor:
    """The program's Executor, built on first use and kept on the program."""
    return prog.derived(Executor)


def run(prog: F.TypedProgram, inputs: dict):
    """Execute the program; returns the result value (an OrderedRelation for
    list results, an int/str for accumulators, None for a min/max accumulator
    that was never updated)."""
    check_inputs(prog, inputs)
    ex = executor(prog)
    store = ex.init_store(inputs)
    ex.body(store)
    return ex.result(store)


# ---------------------------------------------------------------------------
# Compilation: each function returns the closure for one node, store -> value
# ---------------------------------------------------------------------------


def _expr(prog: F.TypedProgram, e):
    if isinstance(e, (F.IntLit, F.TextLit)):
        value = e.value
        return lambda s: value
    if isinstance(e, F.VarRef):
        return itemgetter(e.name)
    if isinstance(e, F.FieldAccess):
        rel, index = e.rel, e.index
        k = prog.relations[rel].index_of(e.fieldname)
        return lambda s: s[rel].rows[s[index]][k]
    if isinstance(e, F.Add):
        a, b = _expr(prog, e.left), _expr(prog, e.right)
        return lambda s: a(s) + b(s)
    if isinstance(e, F.MinMax):
        a, b = _expr(prog, e.left), _expr(prog, e.right)
        pick = min if e.op == "min" else max

        def minmax(s):
            x, y = a(s), b(s)
            if x is None:
                return y
            if y is None:
                return x
            return pick(x, y)

        return minmax
    raise AssertionError(f"unhandled expression {e!r}")


def _pred(prog: F.TypedProgram, p):
    if isinstance(p, F.Cmp):
        f, a, b = _CMP[p.op], _expr(prog, p.left), _expr(prog, p.right)
        return lambda s: f(a(s), b(s))
    if isinstance(p, F.BoolOp):
        a, b = _pred(prog, p.left), _pred(prog, p.right)
        if p.op == "and":
            return lambda s: a(s) and b(s)
        return lambda s: a(s) or b(s)
    if isinstance(p, F.NotOp):
        a = _pred(prog, p.operand)
        return lambda s: not a(s)
    raise AssertionError(f"unhandled predicate {p!r}")


def _record(prog: F.TypedProgram, rec):
    if isinstance(rec, F.RowRef):
        rel, index = rec.rel, rec.index
        return lambda s: s[rel].rows[s[index]]
    items = tuple(_expr(prog, e) for _, e in rec.items)
    return lambda s: tuple([f(s) for f in items])


def _stmt(prog: F.TypedProgram, st):
    if isinstance(st, F.Assign):
        target, f = st.target, _expr(prog, st.expr)

        def assign(s):
            s[target] = f(s)

        return assign
    if isinstance(st, F.Append):
        target, rec = st.target, _record(prog, st.record)
        return lambda s: s[target].append(rec(s))
    if isinstance(st, F.If):
        cond = _pred(prog, st.cond)
        if len(st.body) == 1 and isinstance(st.body[0], F.Break):
            return cond
        body = _block(prog, st.body)
        return lambda s: cond(s) and body(s)
    if isinstance(st, F.Break):
        return lambda s: True
    if isinstance(st, F.For):
        return _loop(prog, st)
    raise AssertionError(f"unhandled statement {st!r}")


def _loop(prog: F.TypedProgram, loop: F.For):
    """A counted loop run to completion; its break stops only itself."""
    rel, index, body = loop.rel, loop.index, _block(prog, loop.body)

    def run_loop(s):
        for i in range(s[rel].size):
            s[index] = i
            if body(s):
                break
        s.pop(index, None)

    return run_loop


def _block(prog: F.TypedProgram, stmts: tuple):
    steps = tuple(_stmt(prog, st) for st in stmts)
    if len(steps) == 1:
        return steps[0]

    def block(s):
        for step in steps:
            if step(s):
                return True
        return False

    return block
