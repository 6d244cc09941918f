"""Bounded inductive verification of candidate invariants.

A candidate is validated by discharging verification conditions:

    single loop i over R     Initiation(i), Preservation(i),
                             BreakExit(i) when the body can break, Exit(i)
    loop j over S nested     Initiation(i), Initiation(j), Preservation(j),
    in loop i over R         Exit(j), Preservation(i), Exit(i)

Initiation: the invariant holds at index 0 in the really-initialized store.
Preservation: assuming the invariant at an in-range index, one body
iteration reestablishes it at the next index (iterations that break are
covered by BreakExit instead). Exit: at index = relation size the loop's
target holds, where the inner loop's target is the outer invariant at i+1
and the outer loop's target is the candidate postcondition. BreakExit: if
an iteration breaks, the postcondition holds in the resulting store.

Each condition is checked over every instance in bounded domains: relation
contents up to rel_size rows with fields drawn from int_domain/text_domain,
scalar parameters drawn from the same domains, and every in-range index
assignment. Enumeration order is fixed: parameters in declaration order,
relation sizes ascending with row tuples in lexicographic order (earlier
rows more significant, fields cycling int_domain/text_domain order), index
ranges ascending. The checker counts every enumerated instance; the count
must equal the analytic value of instance_count, which is how tests detect
accidental pruning. The store at the assumed index is reconstructed by
evaluating the invariant equalities, so the premise holds by construction
and each instance costs one body execution plus one comparison.

A candidate whose constants fall outside the bounded domains cannot be
meaningfully checked and is reported NonCheckable, as is any program that
breaks inside a nested loop.

One method, _Checker.check, with one signature, decides every instance,
wherever it comes from: the sweep calls it on each instance in enumeration
order, the shortcuts' scans on the instances they pick, and replay
(recheck) on a recorded counterexample, so all three mean the same
condition. It evaluates every invariant and post, the inner loop's Concat
of finished and running parts too, through its tor closure
(tor.compile_rel or tor.compile_scalar), so an ill-formed one raises
SchemaError as tor does.

The search checks thousands of candidates of one program and rejects most
at their first failing VC. So what does not depend on the candidate is
built once per (TypedProgram, Bounds), as the plan (_Plan, kept on the
program; synthesize drops it on return) that validate walks: the VCs in
gen_vcs order, each with its analytic count, the invariant and post groups
it reads and its deciders; the compiled statement blocks, the split of the
outer body around the inner loop, the prover's body paths and the body's
half of the row-local premise; the program's own NonCheckable reason; and,
when first asked, the sweep's first input with its loop-head store and the
row scan's inputs. Per candidate (_Checker) come an uncompiled _VarRecon
per post and invariant equality and, when a decider first asks, whether
the invariants are the derived ones and each update matches its post. Per
VC (_ready) come the closures of the groups it reads, so a candidate
rejected at its first checked VC compiles nothing else; a subterm that
candidates share is compiled once, since tor keeps each node's closure on
the node.

Sweeping every instance one at a time is the semantic definition, but it
is wasteful for the invariant family the synthesizer derives. So run_vc
first tries the deciders that the plan lists for the VC (from _DECIDERS),
in order; the first whose premise holds settles it, the sweep decides the
rest, and run_vc returns the name of what settled the VC with its
instance count and counterexample:

    init-const           Initiation(i): with no statements ahead of the
                         loop, every outer invariant is a constant at
                         i = 0 (read off it by _empty_at_zero), so the
                         first instance decides every instance
    exit-identity        Exit(i): each outer invariant with |R| for i
                         simplifies to its post
    inner-init-identity  Initiation(j): the invariants are the derived ones
                         and no statement runs between the loop heads
    inner-exit-identity  Exit(j): the invariants are the derived ones and
                         no statement follows the inner loop
    prover               a single loop's Preservation and BreakExit,
                         proved for every int (_proves)
    row-scan             Preservation under the row-local premise
                         (_row_scan); a nested loop's Preservation(i) also
                         needs nothing before or after the inner loop
    sweep                every instance, in enumeration order

The row-local scan (_row_scan) runs one iteration of the innermost loop
per combination of one row of each loop's relation and the scalar
parameter values, from the empty prefix: R = [row] at i = 0 for a single
loop, R = [rl] and S = [rs] at i = j = 0 for a nested one. Its premise:
the invariants are the mechanical derivation from the posts, no post has a
Top, and a single loop's posts are Sel/Proj steps, under at most one Agg,
over the scanned relation itself (a Join base reads all of a second
relation); the body has no break, its guards and the values it appends or
folds read only parameters and the current rows, and every update matches
its variable's post: Append only for a relation post, Add only for sum and
count, MinMax(op) only for an Agg of op. Then the change an iteration
makes and the change the invariant expects are both functions of that one
combination (lemmas L1-L3 in axioms.LEMMA_CHECKS, with A3 and A6), and the
update cancels the prefix, so the scan decides every preservation
instance.

The prover (_proves) takes a single loop's Preservation or BreakExit with
the invariants as given, derived or hand-written, and proves it for every
int without reading the bounds. Its fragment: the body is If over a
comparison (<, <=, > or >=; == and != are refused, one branch of each
being a disjunction), Append(var, R[i]) of the loop's row and the guarded
Break, and no Assign; guard operands are x + c with x the loop index, an
int parameter or 0, written with IntLit and Add. The body splits into one
path per If outcome (a body of more than _MAX_PATHS paths is refused),
each carrying its guard literals (or their negations) and
0 <= i <= |R| - 1, |R| >= 0 as a difference-bound matrix over {0, i, int
parameters, |R|} closed by Floyd-Warshall (Miné, PADO 2001); a negative
cycle marks a path infeasible, which holds vacuously. Along each path a
list starts as its invariant term and an Append makes it
AppendRow(term, GetRow(R, i)). Every relation term is rewritten to
Top(R, M), M a set of linear terms read as their minimum: Query(R) is
{|R|}, EmptyRel {0}, Top(X, a) adds a to X's set (L4, L5), and
AppendRow(Top(R, M), GetRow(R, t)) is {t + 1} when the matrix proves
min M = t and 0 <= t < |R| (L1). Two sides agree when the matrix proves
their minimums equal, or both >= |R| (A1), or both <= 0 (L5). Breaking
paths decide BreakExit against the posts, the others Preservation against
the invariants at i + 1; every invariant must also rewrite at i on every
path, since the sweep evaluates it there. Any other shape refuses.

Every decider is exact on the verdict: it reports Valid with the full
analytic instance count exactly when the sweep would pass every instance.
The identities, the prover and a single loop's row-scan only ever say
Valid: when one refuses, or the single-loop scan finds a violation, the
next decider or the sweep decides, so the counts and the counterexample
are the sweep's. init-const and a nested loop's row-scan report their own
violation, counting only the instances they checked. init-const checks
the sweep's first instance, so its counterexample is the sweep's; the
scan's is the first failing instance it checks, which may differ from the
sweep's first hit. fast=False forces the sweep; agreement is
property-tested.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import interp, tor
from .frontend import (
    Add,
    Append,
    Assign,
    Break,
    Cmp,
    FieldAccess,
    If,
    IntLit,
    RowRef,
    TypedProgram,
    VarRef,
    children,
)
from .record import record
from .relation import (
    INT,
    OrderedRelation,
    Schema,
    bindings_from_json,
    bindings_to_json,
)

VALID = "valid"
VIOLATED = "violated"
NON_CHECKABLE = "non-checkable"

INITIATION = "initiation"
PRESERVATION = "preservation"
EXIT = "exit"
BREAK_EXIT = "break-exit"


@record
class Bounds:
    rel_size: int = 3
    int_domain: tuple = (0, 1, 2)
    text_domain: tuple = ("a", "b")


@record
class VC:
    kind: str  # initiation | preservation | exit | break-exit
    loop: str  # index variable of the loop the condition belongs to


@record
class Counterexample:
    """A violated instance. expected and actual are bare row tuples for
    list variables (no schema: under a wrong candidate the rows need not
    fit any one schema) and plain values for scalars; replay goes through
    recheck, which re-evaluates the instance rather than trusting them."""

    vc: VC
    inputs: dict  # parameter name -> value
    indices: dict  # index variable -> int
    var: str
    expected: object
    actual: object

    def to_json(self) -> dict:
        return {
            "vc": {"kind": self.vc.kind, "loop": self.vc.loop},
            "inputs": bindings_to_json(self.inputs),
            "indices": dict(sorted(self.indices.items())),
            "var": self.var,
            "expected": _cex_value_to_json(self.expected),
            "actual": _cex_value_to_json(self.actual),
        }


def _cex_value_to_json(v):
    if isinstance(v, tuple):
        return [list(r) for r in v]
    return v


def _cex_value_from_json(v):
    if isinstance(v, list):
        return tuple(tuple(r) for r in v)
    return v


def counterexample_from_json(data: dict) -> Counterexample:
    return Counterexample(
        vc=VC(data["vc"]["kind"], data["vc"]["loop"]),
        inputs=bindings_from_json(data["inputs"]),
        indices={k: int(v) for k, v in data["indices"].items()},
        var=data["var"],
        expected=_cex_value_from_json(data["expected"]),
        actual=_cex_value_from_json(data["actual"]),
    )


@record
class CheckResult:
    status: str  # valid | violated | non-checkable
    instances: int
    counterexample: Optional[Counterexample] = None
    reason: str = ""
    vcs: int = 0  # verification conditions evaluated


# ---------------------------------------------------------------------------
# VC generation
# ---------------------------------------------------------------------------


def gen_vcs(tp: TypedProgram) -> tuple:
    outer = tp.loops[0]
    if len(tp.loops) == 1:
        vcs = [VC(INITIATION, outer.index), VC(PRESERVATION, outer.index)]
        if outer.breaks:
            vcs.append(VC(BREAK_EXIT, outer.index))
        vcs.append(VC(EXIT, outer.index))
        return tuple(vcs)
    inner = tp.loops[1]
    return (
        VC(INITIATION, outer.index),
        VC(INITIATION, inner.index),
        VC(PRESERVATION, inner.index),
        VC(EXIT, inner.index),
        VC(PRESERVATION, outer.index),
        VC(EXIT, outer.index),
    )


# ---------------------------------------------------------------------------
# Bounded domains
# ---------------------------------------------------------------------------


@functools.cache
def _row_domain(schema: Schema, bounds: Bounds) -> tuple:
    """All rows a relation of this schema can hold, lexicographic."""
    domains = [
        bounds.int_domain if t == INT else bounds.text_domain for t in schema.types
    ]
    return tuple(itertools.product(*domains))


@functools.cache
def relation_values(schema: Schema, bounds: Bounds) -> tuple:
    """All relation instances, sizes ascending, rows lexicographic."""
    row_domain = _row_domain(schema, bounds)
    values = []
    for size in range(bounds.rel_size + 1):
        for rows in itertools.product(row_domain, repeat=size):
            values.append(OrderedRelation(schema, rows))
    return tuple(values)


def instance_count(vc: VC, tp: TypedProgram, bounds: Bounds) -> int:
    """Analytic number of instances the sweep for vc must enumerate."""
    outer = tp.loops[0]
    params = tp.ast.params
    rel_params = [p for p in params if isinstance(p.ty, Schema)]
    scalars = 1
    for p in params:
        if p.ty == INT:
            scalars *= len(bounds.int_domain)
        elif isinstance(p.ty, str):
            scalars *= len(bounds.text_domain)
    total = 0
    for sizes in itertools.product(
        range(bounds.rel_size + 1), repeat=len(rel_params)
    ):
        mult = 1
        size_of = {}
        for p, s in zip(rel_params, sizes):
            mult *= len(_row_domain(p.ty, bounds)) ** s
            size_of[p.name] = s
        factor = 1
        if vc.loop == outer.index:
            if vc.kind in (PRESERVATION, BREAK_EXIT):
                factor = size_of[outer.rel]
        else:
            factor = size_of[outer.rel]
            if vc.kind in (PRESERVATION, BREAK_EXIT):
                factor *= size_of[tp.loops[1].rel]  # the inner loop's relation
        total += mult * factor
    return total * scalars


# ---------------------------------------------------------------------------
# Store reconstruction
# ---------------------------------------------------------------------------

class _VarRecon:
    """One invariant or post equality, var = expr. Built per candidate and
    compiled (compile) only when a VC that reads it runs; value(env) is
    then expr's tor closure: a relation's rows tuple or a scalar."""

    def __init__(self, var: str, expr):
        self.var = var
        self.expr = expr
        # plain attributes: the sweep reads them once per variable per instance
        self.is_rel = isinstance(expr, tor.REL_NODES)
        self.value = None  # set by compile

    def compile(self, schemas: dict) -> None:
        if self.is_rel:
            self.value = tor.compile_rel(self.expr, schemas)[1]
        else:
            self.value = tor.compile_scalar(self.expr, schemas)


def _non_checkable_reason(plan, candidate) -> str:
    if plan.reason:
        return plan.reason
    bounds = plan.bounds
    found = [tor.facts(post) for _, post in candidate.posts]
    lo, hi = min(bounds.int_domain), max(bounds.int_domain)
    bad_int = sorted(c for f in found for c in f.ints if not lo <= c <= hi)
    if bad_int:
        return f"integer constant {bad_int[0]} outside the checked domain"
    bad_text = sorted(c for f in found for c in f.texts if c not in bounds.text_domain)
    if bad_text:
        return f"text constant {bad_text[0]!r} outside the checked domain"
    return ""


# ---------------------------------------------------------------------------
# Symbolic helpers for the deciders. _subst_index replaces a loop index
# with a scalar expression (None when the replacement cannot absorb an
# index offset); _empty_at_zero is a conservative shape fact.
# ---------------------------------------------------------------------------


class _Unabsorbed(Exception):
    """An offset index met a replacement that cannot absorb the offset."""


def _subst_index(e, name: str, repl):
    try:
        return _subst(e, name, repl)
    except _Unabsorbed:
        return None


def _subst(e, name: str, repl):
    """e with the index replaced; e itself when it does not mention it."""
    if isinstance(e, tor.IndexRef) and e.name == name:
        if e.offset == 0:
            return repl
        if not isinstance(repl, tor.IntConst):
            raise _Unabsorbed
        return tor.IntConst(repl.value + e.offset)
    return tor.map_children(e, lambda c: _subst(c, name, repl))


def _empty_at_zero(e, name: str) -> bool:
    """True only when e denotes the empty relation in every environment
    that binds the index name to 0: a Top bounded by the index at an offset
    <= 0, or by a constant <= 0, is empty there."""
    if isinstance(e, tor.EmptyRel):
        return True
    if isinstance(e, tor.Top):
        k = e.k
        if isinstance(k, tor.IndexRef) and k.name == name and k.offset <= 0:
            return True
        if isinstance(k, tor.IntConst) and k.value <= 0:
            return True
        return _empty_at_zero(e.of, name)
    if isinstance(e, (tor.Sel, tor.Proj)):
        return _empty_at_zero(e.of, name)
    if isinstance(e, tor.Join):
        return _empty_at_zero(e.left, name) or _empty_at_zero(e.right, name)
    if isinstance(e, tor.Concat):
        return _empty_at_zero(e.left, name) and _empty_at_zero(e.right, name)
    return False


# the post aggregates that each fold of tp.agg_updates makes
_FOLDS = {
    "sum": ("sum", "count"),
    "count": ("sum", "count"),
    "min": ("min",),
    "max": ("max",),
}


def _row_wise(post, rel: str, index: str) -> bool:
    """post is Sel/Proj steps, under at most one Agg, over Query(rel), and
    reads no loop index. Its derived invariant is then post over Top(R, i),
    and post over Top(R, i+1) = Append(Top(R, i), R[i]) (L1, A6) is post
    over Top(R, i) combined with post over the one row R[i] (L2, L3, A3).
    A Join base is not: it reads the whole of a second relation."""
    if isinstance(post, tor.AggOf):
        post = post.of
    while isinstance(post, (tor.Sel, tor.Proj)):
        if isinstance(post, tor.Sel) and index in tor.facts(post.pred).indices:
            return False
        post = post.of
    return post == tor.Query(rel)


# ---------------------------------------------------------------------------
# The prover's arithmetic. A linear term is a pair (x, c) read as x + c,
# where x names a DBM variable: _ZERO for the constant 0, _SIZE for the
# size of the loop's relation, the loop index or an int parameter.
# ---------------------------------------------------------------------------

_ZERO, _SIZE = "0", "#"  # not identifiers, so no parameter shadows them

# the guard that holds on an If's false branch
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}

# each If doubles the paths through a body; past this many the prover
# refuses, and the sweep, linear in the body, decides
_MAX_PATHS = 64


class _Refuse(Exception):
    """The condition is outside the prover's fragment or not provable."""


def _bound(op: str, a: tuple, b: tuple) -> tuple:
    """The difference constraint (x, y, c), x - y <= c, that the integer
    comparison a op b of linear terms means."""
    if op in (">", ">="):
        op, a, b = ("<" if op == ">" else "<="), b, a
    return a[0], b[0], b[1] - a[1] - (op == "<")


class _Dbm:
    """A difference-bound matrix (Miné, PADO 2001): d[x][y] is the tightest
    c with x - y <= c implied by the constraints, after Floyd-Warshall
    closure. A negative cycle leaves some d[x][x] < 0: no integers satisfy
    the constraints."""

    def __init__(self, names: tuple, constraints):
        at = {v: n for n, v in enumerate(names)}
        inf = float("inf")
        d = [[0 if x == y else inf for y in names] for x in names]
        for x, y, c in constraints:
            d[at[x]][at[y]] = min(d[at[x]][at[y]], c)
        for k in range(len(names)):
            dk = d[k]
            for dx in d:
                via = dx[k]
                if via != inf:
                    for y, ky in enumerate(dk):
                        if via + ky < dx[y]:
                            dx[y] = via + ky
        self.at, self.d = at, d
        self.feasible = all(d[n][n] >= 0 for n in range(len(names)))

    def le(self, s: tuple, t: tuple) -> bool:
        """Proves s <= t."""
        return self.d[self.at[s[0]]][self.at[t[0]]] <= t[1] - s[1]

    def min_le(self, m1: tuple, m2: tuple) -> bool:
        """Proves min m1 <= min m2: every term of m2 has one of m1 below it."""
        return all(any(self.le(a, b) for a in m1) for b in m2)

    def same_prefix(self, m1: tuple, m2: tuple) -> bool:
        """Proves Top(R, min m1) = Top(R, min m2): the minimums are equal,
        or both cover R (A1), or both are at most 0 (L5)."""
        size, zero = (_SIZE, 0), (_ZERO, 0)
        return (
            (self.min_le(m1, m2) and self.min_le(m2, m1))
            or all(self.le(size, a) for a in m1 + m2)
            or (
                any(self.le(a, zero) for a in m1)
                and any(self.le(b, zero) for b in m2)
            )
        )


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class _on_first_read:
    """A method read as an attribute: the first read computes it and stores
    the value in the instance, where later reads find it before this
    descriptor. functools.cached_property does the same behind a lock."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Plan:
    """What checking reads of the program and the Bounds alone, whichever
    the candidate (see the module docstring). Built once per
    (TypedProgram, Bounds): tp.derived(_Plan, bounds)."""

    def __init__(self, tp: TypedProgram, bounds: Bounds):
        self.tp = tp
        self.bounds = bounds
        self.outer = outer = tp.loops[0]
        self.inner = inner = tp.loops[1] if len(tp.loops) == 2 else None
        nested = inner is not None
        self.exec = ex = interp.executor(tp)
        self.run_pre_loop = ex.block(tp.pre_loop)
        self.run_outer = ex.block(outer.node.body)
        params = tp.ast.params
        self.scalar_names = tuple(p.name for p in params if not isinstance(p.ty, Schema))
        self.int_params = tuple(p.name for p in params if p.ty == INT)
        if nested:
            body = outer.node.body
            at = next(i for i, s in enumerate(body) if s is inner.node)
            self.prefix = body[:at]
            self.suffix = body[at + 1 :]
            self.run_prefix = ex.block(self.prefix)
            self.run_suffix = ex.block(self.suffix)
            self.run_inner = ex.block(inner.node.body)
        self.updates = self.accumulator_updates(tp.loops[-1].node.body)
        self.reason = ""
        if nested and any(l.breaks for l in tp.loops):
            self.reason = "break inside a nested loop is outside the checkable fragment"
        # each VC's (count, reads, deciders): its instance_count, the groups
        # _Checker._ready compiles for it (a loop's index names its
        # invariants, None the posts) and the (name, method) pairs to try
        self.steps = {}
        for vc in gen_vcs(tp):
            on_outer = vc.loop == outer.index
            if on_outer and vc.kind in (EXIT, BREAK_EXIT):
                reads = (vc.loop, None)
            elif not on_outer and vc.kind != PRESERVATION:
                reads = (vc.loop, outer.index)
            else:
                reads = (vc.loop,)
            deciders = tuple(
                (name, getattr(_Checker, "_decide_" + name.replace("-", "_")))
                for name in _DECIDERS[nested, on_outer, vc.kind]
            )
            self.steps[vc] = instance_count(vc, tp, bounds), reads, deciders

    def entry(self, inputs: dict) -> dict:
        """The store at the loop head: declared locals, then the pre-loop
        statements."""
        store0 = self.exec.init_store(inputs)
        self.run_pre_loop(store0)
        return store0

    def values(self, ty) -> tuple:
        """The values a parameter of type ty takes, in the sweep's order."""
        if isinstance(ty, Schema):
            return relation_values(ty, self.bounds)
        return self.bounds.int_domain if ty == INT else self.bounds.text_domain

    def sweep_inputs(self):
        """Every (inputs, loop-head store) in the sweep's order."""
        params = self.tp.ast.params
        names = [p.name for p in params]
        for combo in itertools.product(*[self.values(p.ty) for p in params]):
            inputs = dict(zip(names, combo))
            yield inputs, self.entry(inputs)

    @_on_first_read
    def first(self) -> tuple:
        """The sweep's first (inputs, loop-head store): relations empty,
        scalars the first of their domains. No check may mutate either."""
        inputs = {}
        for p in self.tp.ast.params:
            empty = isinstance(p.ty, Schema)
            inputs[p.name] = OrderedRelation(p.ty, ()) if empty else self.values(p.ty)[0]
        return inputs, self.entry(inputs)

    @_on_first_read
    def scan(self) -> tuple:
        """(vc, indices, inputs) of the row-local scan: vc is the innermost
        loop's Preservation, and the inputs combine one row of each loop's
        relation with the scalar parameter values (R = [rl, rs] at i = 0,
        j = 1 when both loops scan R), relation parameters no loop scans
        are empty, and no check may mutate them."""
        bounds = self.bounds
        loops = self.tp.loops
        vc = VC(PRESERVATION, loops[-1].index)
        scanned = [(l.rel, self.tp.relations[l.rel]) for l in loops]
        others = {
            p.name: OrderedRelation(p.ty, ())
            for p in self.tp.ast.params
            if isinstance(p.ty, Schema) and p.name not in dict(scanned)
        }
        domains = [self.values(self.tp.var_types[n]) for n in self.scalar_names]
        same = self.inner is not None and self.inner.rel == self.outer.rel
        if same:
            indices = {self.outer.index: 0, self.inner.index: 1}
        else:
            indices = {l.index: 0 for l in loops}
        all_inputs = []
        for *rows, sc in itertools.product(
            *[_row_domain(sch, bounds) for _, sch in scanned],
            tuple(itertools.product(*domains)),
        ):
            inputs = dict(zip(self.scalar_names, sc), **others)
            if same:
                rel, sch = scanned[0]
                inputs[rel] = OrderedRelation(sch, tuple(rows))
            else:
                for (rel, sch), row in zip(scanned, rows):
                    inputs[rel] = OrderedRelation(sch, (row,))
            all_inputs.append(inputs)
        return vc, indices, tuple(all_inputs)

    def input_only(self, node) -> bool:
        """The expression, record or predicate reads inputs and loop rows
        only, so its value is a function of the rows at the current indices
        and the parameters."""
        if isinstance(node, VarRef):
            return node.name in self.scalar_names
        if isinstance(node, (FieldAccess, RowRef)):
            return any(
                l.index == node.index and l.rel == node.rel for l in self.tp.loops
            )
        return all(self.input_only(c) for c in children(node))

    def accumulator_updates(self, stmts):
        """The row-local premise on the body, up to the posts: every guard
        and appended record is input-only, there is no Break, and every
        Assign folds an input-only value into its target. The typechecker
        admits only v = v + e and v = min/max(v, e) in a loop body and
        records each target's fold in tp.agg_updates. Returns the Assigns'
        targets, for the checker to match against the posts, or None."""
        updates = []
        for s in stmts:
            if isinstance(s, If):
                if not self.input_only(s.cond):
                    return None
                inner = self.accumulator_updates(s.body)
                if inner is None:
                    return None
                updates += inner
            elif isinstance(s, Append):
                if not self.input_only(s.record):
                    return None
            elif isinstance(s, Assign):
                if not self.input_only(s.expr.right):
                    return None
                updates.append(s.target)
            else:
                return None
        return tuple(updates)

    @_on_first_read
    def body_paths(self) -> Optional[list]:
        """(dbm, appended variables, broke) for each feasible path through
        the outer loop's body; None when the body is outside the prover's
        fragment."""
        oi = self.outer.index
        # 0 <= i <= |R| - 1 and |R| >= 0
        facts = ((_ZERO, oi, 0), (oi, _SIZE, -1), (_ZERO, _SIZE, 0))
        names = (_ZERO, oi, _SIZE, *self.int_params)
        try:
            paths = list(
                itertools.islice(
                    self._split(self.outer.node.body, facts, ()), _MAX_PATHS + 1
                )
            )
        except _Refuse:
            return None
        if len(paths) > _MAX_PATHS:
            return None
        return [
            (dbm, appends, broke)
            for cons, appends, broke in paths
            if (dbm := _Dbm(names, cons)).feasible
        ]

    def _split(self, stmts, facts: tuple, appends: tuple):
        """Yield (facts, appends, broke) for each path through stmts: an If
        adds its guard's constraint to one path and the negation's to the
        other."""
        if not stmts:
            yield facts, appends, False
            return
        s, rest = stmts[0], stmts[1:]
        if isinstance(s, Break):
            yield facts, appends, True
        elif isinstance(s, Append) and s.record == RowRef(
            self.outer.rel, self.outer.index
        ):
            yield from self._split(rest, facts, appends + (s.target,))
        elif isinstance(s, If) and isinstance(s.cond, Cmp) and s.cond.op in _NEGATE:
            op = s.cond.op
            a, b = self._guard_term(s.cond.left), self._guard_term(s.cond.right)
            yield from self._split(s.body + rest, facts + (_bound(op, a, b),), appends)
            yield from self._split(rest, facts + (_bound(_NEGATE[op], a, b),), appends)
        else:
            raise _Refuse

    def _guard_term(self, e) -> tuple:
        """A guard operand as a linear term: an IntLit, the loop index, an
        int parameter, or an Add chain with at most one of the latter two."""
        if isinstance(e, IntLit):
            return _ZERO, e.value
        if isinstance(e, VarRef) and (
            e.name == self.outer.index or e.name in self.int_params
        ):
            return e.name, 0
        if isinstance(e, Add):
            (x, a), (y, b) = self._guard_term(e.left), self._guard_term(e.right)
            if x != _ZERO and y != _ZERO:
                raise _Refuse
            return (y if x == _ZERO else x), a + b
        raise _Refuse


class _Checker:
    """One candidate's check, over its program's _Plan. An invariant or
    post is compiled when the first VC that reads it starts (_ready), so a
    candidate rejected early compiles only what its deciding VC reads."""

    def __init__(
        self,
        tp: TypedProgram,
        candidate,
        invariants: dict,
        bounds: Bounds,
        fast: bool = True,
    ):
        self.tp = tp
        self.plan = plan = tp.derived(_Plan, bounds)
        self.fast = fast
        self.outer = plan.outer
        self.inner = plan.inner
        self.candidate = candidate
        self.invariants = invariants
        self.posts = [_VarRecon(v, e) for v, e in candidate.posts]
        self.post_exprs = dict(candidate.posts)
        self.recons = {
            loop: [_VarRecon(v, e) for v, e in eqs]
            for loop, eqs in invariants.items()
        }

    def _ready(self, vc: VC) -> None:
        """Compile the invariants and posts that checking vc reads."""
        for group in self.plan.steps[vc][1]:
            for r in self.posts if group is None else self.recons[group]:
                if r.value is None:
                    r.compile(self.tp.relations)

    # -- the deciders' premises, computed when a decider first asks ----------

    @_on_first_read
    def _derived(self) -> bool:
        """The invariants are exactly the mechanical derivation from the
        postconditions, whose shape the identities and the row-local scan
        rely on. A single loop's posts must also be _row_wise over its
        relation."""
        from . import synth  # import here: synth imports this module

        posts = self.candidate.posts
        rel_size = self.plan.bounds.rel_size
        if self.inner is None:
            if rel_size < 1:
                return False
            oi, rel = self.outer.index, self.outer.rel
            if not all(_row_wise(e, rel, oi) for _, e in posts):
                return False
        elif rel_size < (2 if self.outer.rel == self.inner.rel else 1):
            return False
        if any(tor.facts(e).has_top for _, e in posts):
            return False
        try:
            derived = synth.derive_invariants(self.tp, self.candidate)
        except ValueError:
            return False
        return derived == self.invariants

    @_on_first_read
    def _row_local(self) -> bool:
        """The row-local premise of _row_scan: the invariants are derived
        and every update of the body matches its post."""
        return self._derived and self._updates_match()

    def _updates_match(self) -> bool:
        """Each accumulator update of the body is the fold its post's
        aggregate makes (_FOLDS): appending and adding cancel the prefix,
        and min/max (absent as identity) are associative, so the change an
        iteration makes is a function of the current rows alone."""
        updates = self.plan.updates
        if updates is None:
            return False
        for target in updates:
            post = self.post_exprs.get(target)
            if not isinstance(post, tor.AggOf):
                return False
            if post.kind not in _FOLDS[self.tp.agg_updates[target]]:
                return False
        return True

    # -- shared pieces ------------------------------------------------------

    def _restore(self, store0: dict, recons, env, indices: dict):
        store = dict(store0)
        for recon in recons:
            v = recon.value(env)
            store[recon.var] = list(v) if recon.is_rel else v
        store.update(indices)
        return store

    def _mismatch(self, vc, inputs, indices, recons, store, env):
        for recon in recons:
            expected = recon.value(env)
            actual = store[recon.var]
            if recon.is_rel:
                actual = tuple(actual)
            if actual != expected:
                return Counterexample(
                    vc, dict(inputs), dict(indices), recon.var, expected, actual
                )
        return None

    # -- the per-instance check -----------------------------------------------

    def instance(self, vc: VC, inputs: dict, indices: dict):
        """Check one (inputs, indices) instance; Counterexample or None."""
        self._ready(vc)
        return self.check(vc, inputs, self.plan.entry(inputs), indices)

    def check(self, vc: VC, inputs: dict, store0: dict, indices: dict):
        """Decide one instance of vc from the loop-head store store0."""
        env = {**inputs, **indices}
        oi = self.outer.index
        if vc.loop == oi:
            recons = self.recons[oi]
            if vc.kind == INITIATION:
                return self._mismatch(vc, inputs, indices, recons, store0, env)
            store = self._restore(store0, recons, env, indices)
            if vc.kind == EXIT:
                return self._mismatch(vc, inputs, indices, self.posts, store, inputs)
            broke = bool(self.plan.run_outer(store))
            if broke != (vc.kind == BREAK_EXIT):
                return None
            if broke:
                return self._mismatch(vc, inputs, indices, self.posts, store, inputs)
            env[oi] += 1
            return self._mismatch(vc, inputs, indices, recons, store, env)

        ij = self.inner.index
        irecons = self.recons[ij]
        if vc.kind == INITIATION:
            store = self._restore(store0, self.recons[oi], env, {oi: indices[oi]})
            self.plan.run_prefix(store)
            return self._mismatch(vc, inputs, indices, irecons, store, env)
        if vc.kind == EXIT:
            store = self._restore(store0, irecons, env, {oi: indices[oi]})
            self.plan.run_suffix(store)
            env2 = {**inputs, oi: indices[oi] + 1}
            return self._mismatch(vc, inputs, indices, self.recons[oi], store, env2)
        # inner preservation
        store = self._restore(store0, irecons, env, indices)
        if self.plan.run_inner(store):
            return None
        env[ij] += 1
        return self._mismatch(vc, inputs, indices, irecons, store, env)

    # -- the deciders -------------------------------------------------------------
    #
    # Each is one entry of _DECIDERS. It checks its own premise and returns
    # a verdict: None when the premise does not hold and the next decider or
    # the sweep must decide, VALID, which run_vc reports with the VC's
    # analytic count from the plan, or a violation as (instances checked,
    # counterexample), the counterexample produced by instance() so that it
    # replays like any other.

    def _const_at_zero(self, recon, name: str):
        """("rel"|"scalar", value) when the invariant at index 0 is over a
        relation that _empty_at_zero reads as empty, so it denotes the same
        constant in every environment, else None."""
        e = recon.expr
        if isinstance(e, tor.REL_NODES):
            return ("rel", ()) if _empty_at_zero(e, name) else None
        if isinstance(e, (tor.AggOf, tor.SizeOf)) and _empty_at_zero(e.of, name):
            if isinstance(e, tor.AggOf) and e.kind in ("min", "max"):
                return ("scalar", None)
            return ("scalar", 0)
        return None

    def _decide_init_const(self, vc: VC):
        # With no statements ahead of the loop the initial store is the
        # declared constants, so when the invariant at 0 is a constant too
        # the outcome is the same for every input.
        if self.tp.pre_loop:
            return None
        pairs = []
        for recon in self.recons[self.outer.index]:
            cv = self._const_at_zero(recon, self.outer.index)
            if cv is None:
                return None
            pairs.append((recon, cv))
        inputs, store0 = self.plan.first
        for recon, (kind, want) in pairs:
            have = store0[recon.var]
            ok = tuple(have) == want if kind == "rel" else have == want
            if not ok:
                cex = self.instance(vc, inputs, {self.outer.index: 0})
                if cex is None:
                    return None
                return 1, cex
        return VALID

    def _decide_exit_identity(self, vc: VC):
        # At i = |R| the invariant and the postcondition are often the same
        # expression once the index is substituted away (Top of a whole
        # relation is the relation); then the exit condition is an identity.
        oi = self.outer.index
        size = tor.SizeOf(tor.Query(self.outer.rel))
        for recon in self.recons[oi]:
            inv = _subst_index(recon.expr, oi, size)
            post = self.post_exprs.get(recon.var)
            if inv is None or post is None:
                return None
            if tor.simplify(inv) != tor.simplify(post):
                return None
        return VALID

    @_on_first_read
    def _row_scan(self) -> tuple:
        """Check one iteration of the innermost loop from each of the row
        scan's inputs (_Plan.scan), each from its own loop-head store.
        Under the row-local premise (_row_local; see the module docstring)
        these checks decide every preservation instance. Returns
        (instances checked, first counterexample or None)."""
        vc, indices, all_inputs = self.plan.scan
        for checked, inputs in enumerate(all_inputs, 1):
            cex = self.instance(vc, inputs, indices)
            if cex is not None:
                return checked, cex
        return len(all_inputs), None

    def _decide_inner_init_identity(self, vc: VC):
        # The finished part of the inner invariant is the outer invariant
        # expression and the running part starts empty, so with nothing
        # between the loop heads the condition is an identity.
        return VALID if self._derived and not self.plan.prefix else None

    def _decide_inner_exit_identity(self, vc: VC):
        # At j = |S| the running part has consumed all of S, which is
        # exactly the outer invariant's increment from i to i+1.
        return VALID if self._derived and not self.plan.suffix else None

    def _decide_row_scan(self, vc: VC):
        if self.inner is not None and vc.loop == self.outer.index:
            # Preservation(i) runs the whole outer body, which the scan of
            # the inner body covers only when nothing is around the loop
            if self.plan.prefix or self.plan.suffix:
                return None
        if not self._row_local:
            return None
        checked, cex = self._row_scan
        if cex is None:
            return VALID
        if self.inner is None:
            # the single-loop scan only ever says Valid: on a violation the
            # sweep decides, so the counts and counterexample are its own
            return None
        return checked, cex

    def _decide_prover(self, vc: VC):
        return VALID if self._proves(vc) else None

    # -- the prover ---------------------------------------------------------------

    def _proves(self, vc: VC) -> bool:
        """Single-loop Preservation or BreakExit holds for every int (see
        the module docstring). False is no verdict."""
        oi = self.outer.index
        invs = [(r.var, r.expr) for r in self.recons[oi]]
        row = tor.GetRow(tor.Query(self.outer.rel), tor.IndexRef(oi))
        if vc.kind == BREAK_EXIT:
            want, shift = [(r.var, r.expr) for r in self.posts], None
        else:
            want, shift = invs, 1
        paths = self.plan.body_paths
        if paths is None:
            return False
        try:
            for dbm, appends, broke in paths:
                # every instance takes one feasible path, and on it the
                # sweep evaluates each invariant at i, whichever VC it checks
                for _, e in invs:
                    self._prefix(e, 0, dbm)
                if broke != (vc.kind == BREAK_EXIT):
                    continue
                terms = dict(invs)
                for var in appends:
                    if var not in terms:
                        raise _Refuse
                    terms[var] = tor.AppendRow(terms[var], row)
                for var, e in want:
                    if var not in terms:
                        raise _Refuse
                    got = self._prefix(terms[var], 0, dbm)
                    if not dbm.same_prefix(got, self._prefix(e, shift, dbm)):
                        return False
        except _Refuse:
            return False
        return True

    def _term(self, e, shift) -> tuple:
        """A Top bound or row position as a linear term. shift advances the
        loop index; None means no index is bound (a post is evaluated after
        the loop)."""
        if isinstance(e, tor.IntConst):
            return _ZERO, e.value
        if isinstance(e, tor.IndexRef) and e.name == self.outer.index:
            if shift is None:
                raise _Refuse
            return e.name, e.offset + shift
        if isinstance(e, tor.ParamRef) and e.name in self.plan.int_params:
            return e.name, 0
        if e == tor.SizeOf(tor.Query(self.outer.rel)):
            return _SIZE, 0
        raise _Refuse

    def _prefix(self, e, shift, dbm: _Dbm) -> tuple:
        """The bounds M, a tuple of linear terms, with e = Top(R, min M)
        for the loop's relation R (L4); refuses any other shape."""
        rel = tor.Query(self.outer.rel)
        if e == rel:
            return ((_SIZE, 0),)
        if isinstance(e, tor.EmptyRel):
            return ((_ZERO, 0),)  # L5
        if isinstance(e, tor.Top):
            return self._prefix(e.of, shift, dbm) + (self._term(e.k, shift),)
        if (
            isinstance(e, tor.AppendRow)
            and isinstance(e.rec, tor.GetRow)
            and e.rec.of == rel
        ):
            # L1: Append(Top(R, t), Get(R, t)) = Top(R, t + 1), 0 <= t < |R|
            t = self._term(e.rec.idx, shift)
            m = self._prefix(e.of, shift, dbm)
            if (
                dbm.le((_ZERO, 0), t)
                and dbm.le(t, (_SIZE, -1))
                and dbm.min_le(m, (t,))
                and dbm.min_le((t,), m)
            ):
                return ((t[0], t[1] + 1),)
        raise _Refuse

    # -- the sweep --------------------------------------------------------------

    def _assignments(self, vc: VC, inputs: dict):
        """The index assignments of vc for one input, in sweep order."""
        oi = self.outer.index
        size = inputs[self.outer.rel].size
        if vc.loop == oi:
            if vc.kind == INITIATION:
                yield {oi: 0}
            elif vc.kind == EXIT:
                yield {oi: size}
            else:
                for i in range(size):
                    yield {oi: i}
            return
        ij = self.inner.index
        isize = inputs[self.inner.rel].size
        for i in range(size):
            if vc.kind == INITIATION:
                yield {oi: i, ij: 0}
            elif vc.kind == EXIT:
                yield {oi: i, ij: isize}
            else:
                for j in range(isize):
                    yield {oi: i, ij: j}

    def run_vc(self, vc: VC):
        """(decider, instances, counterexample-or-None): the first of vc's
        deciders in the plan that answers, else the sweep. fast=False
        skips the deciders."""
        if self.fast:
            count, _, deciders = self.plan.steps[vc]
            for name, decide in deciders:
                verdict = decide(self, vc)
                if verdict == VALID:
                    return name, count, None
                if verdict is not None:
                    return (name, *verdict)
        self._ready(vc)
        count = 0
        for inputs, store0 in self.plan.sweep_inputs():
            for indices in self._assignments(vc, inputs):
                count += 1
                cex = self.check(vc, inputs, store0, indices)
                if cex is not None:
                    return "sweep", count, cex
        return "sweep", count, None


# What may settle each VC before the sweep, tried in order, keyed by
# (nested, on the outer loop, VC kind); see the module docstring. The
# decider named n-m is _Checker._decide_n_m.
_DECIDERS = {
    (False, True, INITIATION): ("init-const",),
    (False, True, PRESERVATION): ("prover", "row-scan"),
    (False, True, BREAK_EXIT): ("prover",),
    (False, True, EXIT): ("exit-identity",),
    (True, True, INITIATION): ("init-const",),
    (True, False, INITIATION): ("inner-init-identity",),
    (True, False, PRESERVATION): ("row-scan",),
    (True, False, EXIT): ("inner-exit-identity",),
    (True, True, PRESERVATION): ("row-scan",),
    (True, True, EXIT): ("exit-identity",),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def validate(
    tp: TypedProgram,
    candidate,
    invariants: dict,
    bounds: Bounds = Bounds(),
    fast: bool = True,
):
    """Check every verification condition of the program's plan, in order;
    first violation wins."""
    reason = _non_checkable_reason(tp.derived(_Plan, bounds), candidate)
    if reason:
        return CheckResult(NON_CHECKABLE, 0, None, reason)
    checker = _Checker(tp, candidate, invariants, bounds, fast)
    total = 0
    for done, vc in enumerate(checker.plan.steps, 1):
        _, n, cex = checker.run_vc(vc)
        total += n
        if cex is not None:
            return CheckResult(VIOLATED, total, cex, vcs=done)
    return CheckResult(VALID, total, None, vcs=done)


def recheck(tp: TypedProgram, candidate, invariants: dict, cex: Counterexample) -> bool:
    """Replay one counterexample instance; True when it still violates."""
    checker = _Checker(tp, candidate, invariants, Bounds())
    return checker.instance(cex.vc, cex.inputs, cex.indices) is not None
