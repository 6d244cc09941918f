"""Reference interpreter for typed kernel programs.

Executes the imperative semantics directly: loops visit rows in relation
order, appends accumulate in visit order, min/max accumulators start absent
(None) and become concrete on the first update. This module is the ground
truth that synthesized queries are verified and differentially tested
against.

Each program is written once as Python source (qilc.codegen) and compiled
with one compile() into the Executor kept on the TypedProgram: run, the
whole program as one function of its parameters in declaration order, which
interp.run and difftest call, and one function per statement block that the
verifier runs single loop-body iterations of, from a store (Executor.block).
"""

from __future__ import annotations

from . import frontend as F
from .codegen import ADD, AND, ATOM, CMP, COND, NOT, OR, Source, infix, wrap
from .relation import INT, OrderedRelation, Schema


class InputError(ValueError):
    """Provided bindings do not match the program's parameters."""


def check_inputs(prog: F.TypedProgram, inputs: dict) -> None:
    """Validate bindings against the parameter list; raises InputError."""
    expected, given = {p.name for p in prog.ast.params}, set(inputs)
    if expected != given:
        odd = (("missing", expected - given), ("unexpected", given - expected))
        parts = [f"{word} {sorted(names)}" for word, names in odd if names]
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
        elif not isinstance(v, str):
            raise InputError(f"{p.name!r} must be text")


class Executor:
    """One program as compiled Python functions, built once (see executor).

    run(*values) runs the whole body on locals from the parameters in
    declaration order, a relation as its rows tuple, and returns the result
    local: a fresh list of row tuples, or the scalar.

    The verifier's blocks are the statements before the loop, each loop's
    body, and the statements around an inner loop. A block's function takes
    the store, a dict from names to values in which a relation parameter is
    its rows tuple and list locals are Python lists of row tuples, and
    returns True when a break fired (the enclosing loop must stop). It loads
    the names it uses into locals and writes back the scalars it assigns. A
    loop inside the block runs to completion; its own break does not escape
    it, and its index is gone from the store afterwards.
    """

    def __init__(self, prog: F.TypedProgram):
        self._decls = tuple(
            (d.name, isinstance(d, F.ListDecl), d.init if isinstance(d, F.ScalarDecl) else None)
            for d in prog.ast.decls
        )
        result = next(d for d in prog.ast.decls if d.name == prog.ast.result)
        self.result_schema = result.schema if isinstance(result, F.ListDecl) else None
        blocks = [prog.pre_loop]
        for info in prog.loops:
            body = info.node.body
            blocks.append(body)
            for at, st in enumerate(body):
                if isinstance(st, F.For):  # the statements around an inner loop
                    blocks += [body[:at], body[at + 1 :]]
        writer = _Writer(prog)
        writer.run(self._decls)
        names = {stmts: f"b{n}" for n, stmts in enumerate(dict.fromkeys(blocks)) if stmts}
        for stmts, name in names.items():
            writer.function(name, stmts)
        module = writer.src.compile("<qilc program>")
        self.run = module["run"]
        self._blocks = {stmts: module[name] for stmts, name in names.items()}
        self._blocks[()] = lambda store: False  # an empty block needs no code

    def block(self, stmts: tuple):
        """The function for one of the program's statement blocks."""
        return self._blocks[stmts]

    def init_store(self, inputs: dict) -> dict:
        """Store at program entry: parameters, a relation as its rows tuple,
        plus declared locals."""
        store = {n: v.rows if isinstance(v, OrderedRelation) else v for n, v in inputs.items()}
        for name, is_list, init in self._decls:
            store[name] = [] if is_list else init
        return store


def executor(prog: F.TypedProgram) -> Executor:
    """The program's Executor, built on first use and kept on the program."""
    return prog.derived(Executor)


def run(prog: F.TypedProgram, inputs: dict):
    """Execute the program; returns the result value (an OrderedRelation for
    list results, an int/str for accumulators, None for a min/max accumulator
    that was never updated)."""
    check_inputs(prog, inputs)
    ex = executor(prog)
    values = [inputs[p.name] for p in prog.ast.params]
    out = ex.run(*[v.rows if isinstance(v, OrderedRelation) else v for v in values])
    return out if ex.result_schema is None else OrderedRelation(ex.result_schema, tuple(out))


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def _statements(stmts: tuple):
    """stmts and the statements in their loops and ifs, in pre-order."""
    for st in stmts:
        yield st
        if isinstance(st, (F.For, F.If)):
            yield from _statements(st.body)


class _Writer:
    """Writes a program's run and blocks as the functions of one module. The
    program's name number N is the global vN and the local xN; a loop's
    row is the local rN, and an if's condition gN, N the line setting it."""

    def __init__(self, prog: F.TypedProgram):
        self.prog = prog
        self.src = Source()
        self.rows = {}  # (relation, index) -> the row of a loop written here
        self.used = {}  # the names the function being written uses, in order

    def local(self, name: str) -> str:
        self.used[name] = None
        return "x" + self.src.const(name, "v")[1:]

    def run(self, decls: tuple) -> None:
        """def run(<parameters>): declare the locals, run the body, return
        the result local."""
        prog, local, const = self.prog, self.local, self.src.const
        params = ", ".join(local(p.name) for p in prog.ast.params)
        self.src.line(0, f"def run({params}):")
        for name, is_list, init in decls:
            self.src.line(1, f"{local(name)} = {'[]' if is_list else const(init)}")
        self.stmts(prog.ast.body, 1, None, "")  # the checker allows no break here
        self.src.line(1, f"return {local(prog.ast.result)}")

    def function(self, fname: str, stmts: tuple) -> None:
        """def fname(store): load the names stmts use, run stmts, write
        back, say whether a break fired. Every loop of stmts has run when
        it returns, and its index leaves the store."""
        nodes = list(_statements(stmts))
        own = [n.index for n in nodes if isinstance(n, F.For)]
        assigned = dict.fromkeys(n.target for n in nodes if isinstance(n, F.Assign))
        key, self.used = self.src.const, {}
        leave = [f"store[{key(n, 'v')}] = {self.local(n)}" for n in assigned]
        leave += [f"store.pop({key(n, 'v')}, 0)" for n in own]
        self.src.line(0, f"def {fname}(store):")
        start = len(self.src.lines)
        self.stmts(stmts, 1, None, "; ".join(leave + ["return True"]))
        self.src.line(1, "; ".join(leave + ["return False"]))
        used = [n for n in self.used if n not in own]
        self.src.lines[start:start] = [f"    {self.local(n)} = store[{key(n, 'v')}]" for n in used]

    def stmts(self, stmts: tuple, depth: int, guard, brk: str) -> None:
        """Write stmts at depth; brk is the code of a break. Under an if,
        guard is the local holding the conjunction of the enclosing
        conditions: an if inside an if adds a guard, not a level of
        indentation, so only loops indent."""
        for st in stmts:
            if isinstance(st, F.For):
                i, row = self.local(st.index), "r" + self.local(st.index)[1:]
                self.src.line(depth, f"for {i}, {row} in enumerate({self.local(st.rel)}):")
                self.rows[st.rel, st.index] = row
                self.stmts(st.body, depth + 1, None, "break")
                if not st.body:
                    self.src.line(depth + 1, "pass")
                del self.rows[st.rel, st.index]
            elif isinstance(st, F.If):
                cond = self.pred(st.cond)
                if guard is not None:
                    cond = infix((guard, ATOM), "and", cond, AND)
                if any(isinstance(s, F.If) for s in st.body):
                    g = f"g{len(self.src.lines)}"
                    self.src.line(depth, f"{g} = {cond[0]}")
                    self.stmts(st.body, depth, g, brk)
                else:
                    simple = "; ".join(self.simple(s, brk) for s in st.body)
                    self.src.line(depth, f"if {cond[0]}: {simple or 'pass'}")
            else:
                code = self.simple(st, brk)
                self.src.line(depth, code if guard is None else f"if {guard}: {code}")

    def simple(self, st, brk: str) -> str:
        if isinstance(st, F.Break):
            return brk
        if isinstance(st, F.Assign):
            return f"{self.local(st.target)} = {self.expr(st.expr)[0]}"
        rec = st.record
        if isinstance(rec, F.RowRef):
            code = self.row(rec.rel, rec.index)
        else:
            code = "(" + ", ".join(self.expr(e)[0] for _, e in rec.items) + ",)"
        return f"{self.local(st.target)}.append({code})"

    def row(self, rel: str, index: str) -> str:
        """rel[index]: the loop's row inside a loop written here, else read
        where the code reaches it, so that a bad index raises there."""
        row = self.rows.get((rel, index))
        return row if row is not None else f"{self.local(rel)}[{self.local(index)}]"

    def expr(self, e) -> tuple:
        if isinstance(e, (F.IntLit, F.TextLit)):
            return self.src.const(e.value), ATOM
        if isinstance(e, F.VarRef):
            return self.local(e.name), ATOM
        if isinstance(e, F.FieldAccess):
            k = self.prog.relations[e.rel].index_of(e.fieldname)
            return f"{self.row(e.rel, e.index)}[{k}]", ATOM
        if isinstance(e, F.Add):
            return infix(self.expr(e.left), "+", self.expr(e.right), ADD)
        left, right = self.expr(e.left)[0], self.expr(e.right)[0]
        if isinstance(e.left, F.VarRef) and self.prog.var_types[e.left.name] == F.OPTINT:
            # an accumulator that starts absent takes the first value
            return f"{right} if {left} is None else {e.op}({left}, {right})", COND
        return f"{e.op}({left}, {right})", ATOM

    def pred(self, p) -> tuple:
        if isinstance(p, F.Cmp):
            left, right = wrap(self.expr(p.left), ADD), wrap(self.expr(p.right), ADD)
            return f"{left} {p.op} {right}", CMP
        if isinstance(p, F.NotOp):
            return f"not {wrap(self.pred(p.operand), NOT)}", NOT
        prec = AND if p.op == "and" else OR
        return infix(self.pred(p.left), p.op, self.pred(p.right), prec)
