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

One method, _Checker.check, decides every instance, wherever it comes
from: the sweep calls it on each instance in enumeration order, the
shortcuts' scans on the instances they pick, and replay (recheck) on a
recorded counterexample, so all three mean the same condition.

The search checks thousands of candidates of one program and rejects most
at their first failing VC, so the checker's state is built at three times.
Once per program (_Program, kept on the TypedProgram): the compiled
statement blocks, the split of the outer body around the inner loop, the
parameter names, the prover's body paths and the half of the row-local
premise that reads the body alone. Once per candidate (_Checker): an
uncompiled _VarRecon per post and invariant equality and, when a decider
first asks, whether the invariants are the derived ones and whether each
accumulator update matches its post. Once per VC (_ready, when instance
or the sweep starts): the closures of the invariants and posts that VC
reads, so a candidate rejected at its first checked VC compiles nothing
else.

Sweeping every instance one at a time is the semantic definition, but it
is wasteful for the invariant family the synthesizer derives. So run_vc
first tries the deciders that _DECIDERS lists for the VC, in order; the
first whose premise holds settles it, the sweep decides the rest, and
run_vc returns the name of what settled the VC with its instance count and
counterexample:

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Bounds:
    rel_size: int = 3
    int_domain: tuple = (0, 1, 2)
    text_domain: tuple = ("a", "b")


@dataclass(frozen=True)
class VC:
    kind: str  # initiation | preservation | exit | break-exit
    loop: str  # index variable of the loop the condition belongs to


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _row_domain_size(schema: Schema, bounds: Bounds) -> int:
    n = 1
    for t in schema.types:
        n *= len(bounds.int_domain) if t == INT else len(bounds.text_domain)
    return n


def instance_count(vc: VC, tp: TypedProgram, bounds: Bounds) -> int:
    """Analytic number of instances the sweep for vc must enumerate."""
    return _instance_count(
        vc,
        tuple((l.index, l.rel) for l in tp.loops),
        tuple((p.name, p.ty) for p in tp.ast.params),
        bounds,
    )


@functools.lru_cache(maxsize=256)
def _instance_count(vc: VC, loops: tuple, params: tuple, bounds: Bounds) -> int:
    """instance_count over the hashable facts it reads: the loops' (index,
    relation) pairs and the parameters' (name, type) pairs. The checker
    asks for the same few counts for every candidate of a program."""
    outer_index, outer_rel = loops[0]
    rel_params = [(name, ty) for name, ty in params if isinstance(ty, Schema)]
    scalars = 1
    for _, ty in params:
        if ty == INT:
            scalars *= len(bounds.int_domain)
        elif isinstance(ty, str):
            scalars *= len(bounds.text_domain)
    total = 0
    for sizes in itertools.product(
        range(bounds.rel_size + 1), repeat=len(rel_params)
    ):
        mult = 1
        size_of = {}
        for (name, sch), s in zip(rel_params, sizes):
            mult *= _row_domain_size(sch, bounds) ** s
            size_of[name] = s
        factor = 1
        if vc.loop == outer_index:
            if vc.kind in (PRESERVATION, BREAK_EXIT):
                factor = size_of[outer_rel]
        else:
            factor = size_of[outer_rel]
            if vc.kind in (PRESERVATION, BREAK_EXIT):
                factor *= size_of[loops[1][1]]  # the inner loop's relation
        total += mult * factor
    return total * scalars


# ---------------------------------------------------------------------------
# Store reconstruction
# ---------------------------------------------------------------------------

class _VarRecon:
    """Evaluates one invariant equality, with the finished-part value of a
    Concat cacheable across inner-index instances. Built per candidate and
    compiled (compile) only when a VC that reads it runs."""

    def __init__(self, var: str, expr):
        self.var = var
        self.expr = expr
        # a plain attribute: the sweep reads it once per variable per instance
        self.is_rel = isinstance(expr, tor.REL_NODES)
        self.kind = None  # set by compile

    def compile(self, schemas: dict) -> None:
        expr = self.expr
        if isinstance(expr, tor.AggOf) and isinstance(expr.of, tor.Concat):
            self.kind = "agg2"
            sch, self._f1 = tor.compile_rel(expr.of.left, schemas)
            _, self._f2 = tor.compile_rel(expr.of.right, schemas)
            self._agg = expr.kind
            self._col = None if expr.field is None else sch.index_of(expr.field)
        elif isinstance(expr, tor.Concat):
            self.kind = "rel2"
            _, self._f1 = tor.compile_rel(expr.left, schemas)
            _, self._f2 = tor.compile_rel(expr.right, schemas)
        elif isinstance(expr, tor.REL_NODES):
            self.kind = "rel"
            _, self._f = tor.compile_rel(expr, schemas)
        else:
            self.kind = "scalar"
            self._f = tor.compile_scalar(expr, schemas)

    def part1(self, env):
        if self.kind in ("rel2", "agg2"):
            return self._f1(env)
        return None

    def value(self, env, p1=None):
        if self.kind == "rel":
            return self._f(env)
        if self.kind == "rel2":
            if p1 is None:
                p1 = self._f1(env)
            return p1 + self._f2(env)
        if self.kind == "agg2":
            if p1 is None:
                p1 = self._f1(env)
            rows = p1 + self._f2(env)
            if self._agg == "count":
                return len(rows)
            if self._agg == "sum":
                return sum(r[self._col] for r in rows)
            if not rows:
                return None
            vals = [r[self._col] for r in rows]
            return min(vals) if self._agg == "min" else max(vals)
        return self._f(env)


def _collect_consts(e, ints: set, texts: set) -> None:
    if isinstance(e, (tor.IntConst, tor.TextConst)):
        values = (e.value,)
    elif isinstance(e, tor.RecordConst):
        values = e.values
    else:
        values = ()
    for v in values:
        (ints if isinstance(v, int) else texts).add(v)
    for c in tor.children(e):
        _collect_consts(c, ints, texts)


def _non_checkable_reason(tp, candidate, bounds: Bounds) -> str:
    if len(tp.loops) == 2 and any(l.breaks for l in tp.loops):
        return "break inside a nested loop is outside the checkable fragment"
    ints: set = set()
    texts: set = set()
    for _, post in candidate.posts:
        _collect_consts(post, ints, texts)
    lo, hi = min(bounds.int_domain), max(bounds.int_domain)
    bad_int = sorted(c for c in ints if not lo <= c <= hi)
    if bad_int:
        return f"integer constant {bad_int[0]} outside the checked domain"
    bad_text = sorted(c for c in texts if c not in bounds.text_domain)
    if bad_text:
        return f"text constant {bad_text[0]!r} outside the checked domain"
    return ""


# ---------------------------------------------------------------------------
# Symbolic helpers for the deciders. _subst_index replaces a loop index
# with a scalar expression (None when the replacement cannot absorb an
# index offset); _empty_at_zero and _has_top are conservative shape facts.
# ---------------------------------------------------------------------------


def _mentions_index(e, name: str) -> bool:
    if isinstance(e, tor.IndexRef):
        return e.name == name
    return any(_mentions_index(c, name) for c in tor.children(e))


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


def _has_top(e) -> bool:
    return isinstance(e, tor.Top) or any(_has_top(c) for c in tor.children(e))


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
        if isinstance(post, tor.Sel) and _mentions_index(post.pred, index):
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


class _Program:
    """What checking reads of the program alone, whichever the candidate:
    the compiled statement blocks, the split of the outer body around the
    inner loop, the parameter names, the prover's body paths and the
    candidate-independent half of the row-local premise. Built once per
    TypedProgram (tp.derived(_Program))."""

    def __init__(self, tp: TypedProgram):
        self.tp = tp
        self.outer = outer = tp.loops[0]
        self.inner = inner = tp.loops[1] if len(tp.loops) == 2 else None
        self.exec = ex = interp.executor(tp)
        self.run_pre_loop = ex.block(tp.pre_loop)
        self.run_outer = ex.block(outer.node.body)
        params = tp.ast.params
        self.scalar_names = tuple(p.name for p in params if not isinstance(p.ty, Schema))
        self.int_params = tuple(p.name for p in params if p.ty == INT)
        if inner is not None:
            body = outer.node.body
            at = next(i for i, s in enumerate(body) if s is inner.node)
            self.prefix = body[:at]
            self.suffix = body[at + 1 :]
            self.run_prefix = ex.block(self.prefix)
            self.run_suffix = ex.block(self.suffix)
            self.run_inner = ex.block(inner.node.body)
        self.updates = self.accumulator_updates(tp.loops[-1].node.body)
        self._paths = None

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

    def body_paths(self) -> list:
        """(dbm, appended variables, broke) for each feasible path through
        the outer loop's body; raises _Refuse when the body is outside the
        prover's fragment."""
        if self._paths is None:
            oi = self.outer.index
            # 0 <= i <= |R| - 1 and |R| >= 0
            facts = ((_ZERO, oi, 0), (oi, _SIZE, -1), (_ZERO, _SIZE, 0))
            names = (_ZERO, oi, _SIZE, *self.int_params)
            try:
                paths = list(
                    itertools.islice(
                        self._split(self.outer.node.body, facts, ()),
                        _MAX_PATHS + 1,
                    )
                )
                if len(paths) > _MAX_PATHS:
                    raise _Refuse
                self._paths = [
                    (dbm, appends, broke)
                    for cons, appends, broke in paths
                    if (dbm := _Dbm(names, cons)).feasible
                ]
            except _Refuse:
                self._paths = False
        if self._paths is False:
            raise _Refuse
        return self._paths

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


class _Checker:
    """One candidate's check, over its program's _Program. An invariant or
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
        self.program = program = tp.derived(_Program)
        self.bounds = bounds
        self.fast = fast
        self.outer = program.outer
        self.inner = program.inner
        self.candidate = candidate
        self.invariants = invariants
        self.posts = [_VarRecon(v, e) for v, e in candidate.posts]
        self.post_exprs = dict(candidate.posts)
        self.recons = {
            loop: [_VarRecon(v, e) for v, e in eqs]
            for loop, eqs in invariants.items()
        }
        self._p1_static = None
        self._scan = None

    def _ready(self, vc: VC) -> None:
        """Compile the invariants and posts that checking vc reads."""
        oi = self.outer.index
        reads = [self.recons[vc.loop]]
        if vc.loop == oi and vc.kind in (EXIT, BREAK_EXIT):
            reads.append(self.posts)
        elif vc.loop != oi and vc.kind != PRESERVATION:
            reads.append(self.recons[oi])
        for recons in reads:
            for r in recons:
                if r.kind is None:
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
        if self.inner is None:
            if self.bounds.rel_size < 1:
                return False
            oi, rel = self.outer.index, self.outer.rel
            if not all(_row_wise(e, rel, oi) for _, e in posts):
                return False
        elif self.bounds.rel_size < (2 if self.outer.rel == self.inner.rel else 1):
            return False
        if any(_has_top(e) for _, e in posts):
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
        updates = self.program.updates
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

    def _entry(self, inputs: dict) -> dict:
        """The store at the loop head: declared locals, then the pre-loop
        statements."""
        program = self.program
        store0 = program.exec.init_store(inputs)
        program.run_pre_loop(store0)
        return store0

    def _inputs(self):
        lists = []
        names = []
        for p in self.tp.ast.params:
            names.append(p.name)
            if isinstance(p.ty, Schema):
                lists.append(relation_values(p.ty, self.bounds))
            elif p.ty == INT:
                lists.append(tuple(self.bounds.int_domain))
            else:
                lists.append(tuple(self.bounds.text_domain))
        for combo in itertools.product(*lists):
            inputs = dict(zip(names, combo))
            yield inputs, self._entry(inputs)

    def _restore(self, store0: dict, recons, env, indices: dict, p1s=None):
        store = dict(store0)
        for n, recon in enumerate(recons):
            v = recon.value(env, None if p1s is None else p1s[n])
            store[recon.var] = list(v) if recon.is_rel else v
        store.update(indices)
        return store

    def _mismatch(self, vc, inputs, indices, recons, store, env, p1s=None):
        for n, recon in enumerate(recons):
            expected = recon.value(env, None if p1s is None else p1s[n])
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
        return self.check(vc, inputs, self._entry(inputs), indices)

    def check(self, vc: VC, inputs: dict, store0: dict, indices: dict, p1s=None):
        """Decide one instance of vc from the loop-head store store0. p1s
        holds the finished parts of a split inner invariant when the caller
        has cached them (None entries are computed here)."""
        env = {**inputs, **indices}
        oi = self.outer.index
        if vc.loop == oi:
            recons = self.recons[oi]
            if vc.kind == INITIATION:
                return self._mismatch(vc, inputs, indices, recons, store0, env)
            store = self._restore(store0, recons, env, indices)
            if vc.kind == EXIT:
                return self._mismatch(vc, inputs, indices, self.posts, store, inputs)
            broke = bool(self.program.run_outer(store))
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
            self.program.run_prefix(store)
            return self._mismatch(vc, inputs, indices, irecons, store, env)
        if vc.kind == EXIT:
            store = self._restore(store0, irecons, env, {oi: indices[oi]}, p1s)
            self.program.run_suffix(store)
            env2 = {**inputs, oi: indices[oi] + 1}
            return self._mismatch(vc, inputs, indices, self.recons[oi], store, env2)
        # inner preservation
        store = self._restore(store0, irecons, env, indices, p1s)
        if self.program.run_inner(store):
            return None
        env[ij] += 1
        return self._mismatch(vc, inputs, indices, irecons, store, env, p1s)

    # -- the deciders -------------------------------------------------------------
    #
    # Each is one row of _DECIDERS. It checks its own premise and returns
    # (instances, counterexample-or-None), or None when the premise does not
    # hold and the next decider or the sweep must decide. A pass is reported
    # with the analytic count of instances the decider covers; a violation
    # is reported with the instances it actually checked and a
    # counterexample produced by instance(), so it replays like any other.

    def _minimal_inputs(self) -> dict:
        """The first inputs combination in canonical enumeration order."""
        inputs = {}
        for p in self.tp.ast.params:
            if isinstance(p.ty, Schema):
                inputs[p.name] = OrderedRelation(p.ty, ())
            elif p.ty == INT:
                inputs[p.name] = self.bounds.int_domain[0]
            else:
                inputs[p.name] = self.bounds.text_domain[0]
        return inputs

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
        inputs = self._minimal_inputs()
        store0 = self._entry(inputs)
        for recon, (kind, want) in pairs:
            have = store0[recon.var]
            ok = tuple(have) == want if kind == "rel" else have == want
            if not ok:
                cex = self.instance(vc, inputs, {self.outer.index: 0})
                if cex is None:
                    return None
                return 1, cex
        return instance_count(vc, self.tp, self.bounds), None

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
        return instance_count(vc, self.tp, self.bounds), None

    def _row_scan(self):
        """Check one iteration of the innermost loop per combination of one
        row of each loop's relation and the scalar parameter values, from
        the empty prefix (R = [rl, rs] at i = 0, j = 1 when both loops scan
        R); relation parameters no loop scans are empty. Under the row-local
        premise (_row_local; see the module docstring) these checks decide
        every preservation instance. Returns (instances checked, first
        counterexample or None)."""
        if self._scan is not None:
            return self._scan
        loops = self.tp.loops
        scanned = [(l.rel, self.tp.relations[l.rel]) for l in loops]
        others = {
            p.name: OrderedRelation(p.ty, ())
            for p in self.tp.ast.params
            if isinstance(p.ty, Schema) and p.name not in dict(scanned)
        }
        domains = [
            self.bounds.int_domain
            if self.tp.var_types[n] == INT
            else self.bounds.text_domain
            for n in self.program.scalar_names
        ]
        same = self.inner is not None and self.inner.rel == self.outer.rel
        if same:
            indices = {self.outer.index: 0, self.inner.index: 1}
        else:
            indices = {l.index: 0 for l in loops}
        vc = VC(PRESERVATION, loops[-1].index)
        checked, cex = 0, None
        for *rows, sc in itertools.product(
            *[_row_domain(sch, self.bounds) for _, sch in scanned],
            tuple(itertools.product(*domains)),
        ):
            checked += 1
            inputs = dict(zip(self.program.scalar_names, sc), **others)
            if same:
                rel, sch = scanned[0]
                inputs[rel] = OrderedRelation(sch, tuple(rows))
            else:
                for (rel, sch), row in zip(scanned, rows):
                    inputs[rel] = OrderedRelation(sch, (row,))
            cex = self.instance(vc, inputs, indices)
            if cex is not None:
                break
        self._scan = (checked, cex)
        return self._scan

    def _decide_inner_init_identity(self, vc: VC):
        # The finished part of the inner invariant is the outer invariant
        # expression and the running part starts empty, so with nothing
        # between the loop heads the condition is an identity.
        if self._derived and not self.program.prefix:
            return instance_count(vc, self.tp, self.bounds), None
        return None

    def _decide_inner_exit_identity(self, vc: VC):
        # At j = |S| the running part has consumed all of S, which is
        # exactly the outer invariant's increment from i to i+1.
        if self._derived and not self.program.suffix:
            return instance_count(vc, self.tp, self.bounds), None
        return None

    def _decide_row_scan(self, vc: VC):
        program = self.program
        if self.inner is not None and vc.loop == self.outer.index:
            # Preservation(i) runs the whole outer body, which the scan of
            # the inner body covers only when nothing is around the loop
            if program.prefix or program.suffix:
                return None
        if not self._row_local:
            return None
        checked, cex = self._row_scan()
        if cex is None:
            return instance_count(vc, self.tp, self.bounds), None
        if self.inner is None:
            # the single-loop scan only ever says Valid: on a violation the
            # sweep decides, so the counts and counterexample are its own
            return None
        return checked, cex

    def _decide_prover(self, vc: VC):
        if self._proves(vc):
            return instance_count(vc, self.tp, self.bounds), None
        return None

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
        try:
            for dbm, appends, broke in self.program.body_paths():
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
        if isinstance(e, tor.ParamRef) and e.name in self.program.int_params:
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
        """The index assignments of vc for one input, in sweep order, each
        with the finished parts of the inner invariant cached for its outer
        row (or None)."""
        oi = self.outer.index
        size = inputs[self.outer.rel].size
        if vc.loop == oi:
            if vc.kind == INITIATION:
                yield {oi: 0}, None
            elif vc.kind == EXIT:
                yield {oi: size}, None
            else:
                for i in range(size):
                    yield {oi: i}, None
            return
        ij = self.inner.index
        isize = inputs[self.inner.rel].size
        irecons = self.recons[ij]
        for i in range(size):
            if vc.kind == INITIATION:
                yield {oi: i, ij: 0}, None
            elif vc.kind == EXIT:
                yield {oi: i, ij: isize}, None
            else:
                env = {**inputs, oi: i, ij: 0}
                p1s = [
                    r.part1(env) if static else None
                    for r, static in zip(irecons, self._static_parts())
                ]
                for j in range(isize):
                    yield {oi: i, ij: j}, p1s

    def _static_parts(self) -> list:
        """For each inner invariant, whether the preservation sweep may
        cache its split finished part across inner indices: sound only when
        that part cannot read the inner index."""
        if self._p1_static is None:
            ij = self.inner.index
            self._p1_static = []
            for r in self.recons[ij]:
                e = r.expr.of if isinstance(r.expr, tor.AggOf) else r.expr
                self._p1_static.append(
                    not (isinstance(e, tor.Concat) and _mentions_index(e.left, ij))
                )
        return self._p1_static

    def run_vc(self, vc: VC):
        """(decider, instances, counterexample-or-None): the first of vc's
        deciders in _DECIDERS that answers, else the sweep. fast=False
        skips the deciders."""
        if self.fast:
            key = (self.inner is not None, vc.loop == self.outer.index, vc.kind)
            for name, decide in _DECIDERS[key]:
                found = decide(self, vc)
                if found is not None:
                    return (name, *found)
        self._ready(vc)
        count = 0
        for inputs, store0 in self._inputs():
            for indices, p1s in self._assignments(vc, inputs):
                count += 1
                cex = self.check(vc, inputs, store0, indices, p1s)
                if cex is not None:
                    return "sweep", count, cex
        return "sweep", count, None


# What may settle each VC before the sweep, tried in order, keyed by
# (nested, on the outer loop, VC kind); see the module docstring.
_DECIDE = {
    "init-const": _Checker._decide_init_const,
    "exit-identity": _Checker._decide_exit_identity,
    "inner-init-identity": _Checker._decide_inner_init_identity,
    "inner-exit-identity": _Checker._decide_inner_exit_identity,
    "prover": _Checker._decide_prover,
    "row-scan": _Checker._decide_row_scan,
}
_DECIDERS = {
    key: tuple((name, _DECIDE[name]) for name in names)
    for key, names in {
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
    }.items()
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
    """Check every verification condition; first violation wins."""
    reason = _non_checkable_reason(tp, candidate, bounds)
    if reason:
        return CheckResult(NON_CHECKABLE, 0, None, reason)
    checker = _Checker(tp, candidate, invariants, bounds, fast)
    total = 0
    done = 0
    for vc in gen_vcs(tp):
        _, n, cex = checker.run_vc(vc)
        total += n
        done += 1
        if cex is not None:
            return CheckResult(VIOLATED, total, cex, vcs=done)
    return CheckResult(VALID, total, None, vcs=done)


def recheck(tp: TypedProgram, candidate, invariants: dict, cex: Counterexample) -> bool:
    """Replay one counterexample instance; True when it still violates."""
    checker = _Checker(tp, candidate, invariants, Bounds())
    return checker.instance(cex.vc, cex.inputs, cex.indices) is not None
