"""Candidate synthesis.

The synthesizer mines a template from the program (relations, scalar
parameters, literal constants, comparison operators, accumulator kinds,
loop structure), enumerates candidate postconditions for every variable
assigned inside the loops, derives the matching loop invariants
mechanically, and accepts the first candidate the verifier validates.

Candidate postconditions are translatable by construction:

    list variable    Top? . Proj? . Sel? . base
    accumulator      Agg(kind, field?, Sel?(base))

where base is Query(R) for a single loop over R and Join(Query(R),
Query(S), p) for a loop over S nested in a loop over R. Top appears only
for single-loop programs containing break. Selection predicates are single
atoms or two-atom conjunctions; atoms compare a field against another
field, a mined constant, or a scalar parameter.

Candidates are ordered by (total cost, canonical serialization), so the
accepted candidate is cost-minimal and reruns accept the same one.

Candidates are streamed, not listed: only those the search reaches are
built. A variable's posts come from one stream per (base, shape), where a
shape is the Top/Proj or Agg wrapper. A stream runs over the base schema's
selection predicates, ranked once per schema by (cost, serialization), or
is the single unselected post. heapq.merge of the streams yields the
variable's posts in acceptance order; several variables are combined one
total cost at a time. The number of candidates within the cost bound is
counted from the streams' cost histograms without building them.

The invariants: for the outer loop the postcondition with the outer rows
restricted to the first i; for the inner loop the concatenation of the
finished part (first i outer rows, all inner rows) and the current part
(outer row i alone, first j inner rows). Aggregates wrap the concatenation
instead of concatenating scalars. Index range conjuncts (0 <= i <= Size)
are implicit; the verifier enumerates only in-range indices.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import operator
import time

from . import tor, verify
from .frontend import (
    Append,
    Assign,
    Cmp,
    For,
    IntLit,
    ListDecl,
    TextLit,
    TypedProgram,
    walk,
)
from .record import record
from .relation import INT, TEXT, Schema

_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
_CMP_ORDER = ("=", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# Template
# ---------------------------------------------------------------------------


@record
class Template:
    relations: tuple  # (name, Schema) in parameter order
    scalar_params: tuple  # (name, "int" | "text")
    constants: tuple  # mined literals, ints then texts, each sorted
    cmps: tuple  # comparison operators appearing in the program
    has_break: bool
    loop_relations: tuple  # relation names outermost first, length 1 or 2


def extract_template(tp: TypedProgram) -> Template:
    ints: set = set()
    texts: set = set()
    ops: set = set()
    for node in walk(tp.ast.body):
        if isinstance(node, IntLit):
            ints.add(node.value)
        elif isinstance(node, TextLit):
            texts.add(node.value)
        elif isinstance(node, Cmp):
            ops.add("=" if node.op == "==" else node.op)
    return Template(
        relations=tuple(sorted(tp.relations.items())),
        scalar_params=tuple(
            (p.name, p.ty) for p in tp.ast.params if isinstance(p.ty, str)
        ),
        constants=tuple(sorted(ints)) + tuple(sorted(texts)),
        cmps=tuple(op for op in _CMP_ORDER if op in ops),
        has_break=any(l.breaks for l in tp.loops),
        loop_relations=tuple(l.rel for l in tp.loops),
    )


# ---------------------------------------------------------------------------
# Live variables
# ---------------------------------------------------------------------------


@record
class LiveVar:
    """A local assigned inside the loops; it needs a postcondition."""

    name: str
    schema: object  # Schema for list variables, None for accumulators
    agg_kind: str  # "" for list variables


def live_vars(tp: TypedProgram) -> tuple:
    loops = [s for s in tp.ast.body if isinstance(s, For)]
    assigned = dict.fromkeys(
        n.target for n in walk(loops) if isinstance(n, (Assign, Append))
    )
    out = []
    decls = {d.name: d for d in tp.ast.decls}
    for name in assigned:
        d = decls[name]
        if isinstance(d, ListDecl):
            out.append(LiveVar(name, d.schema, ""))
        else:
            out.append(LiveVar(name, None, tp.agg_updates[name]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _atoms_for(schema: Schema, template: Template, cross_only: bool) -> list:
    """Comparison atoms over a schema, canonicalized and deduplicated.

    Field-field atoms keep the lexicographically smaller field on the left,
    mirroring the operator when needed. Constants and parameters sit on the
    right. cross_only restricts to atoms relating an l.* and an r.* field,
    the join predicate vocabulary.
    """
    atoms = set()
    names = schema.names
    for op in template.cmps:
        for f in names:
            ft = schema.type_of(f)
            if ft == TEXT and op not in ("=", "!="):
                continue
            for g in names:
                if g == f or schema.type_of(g) != ft:
                    continue
                if cross_only and f.split(".")[0] == g.split(".")[0]:
                    continue
                a, b, o = (f, g, op) if f < g else (g, f, _MIRROR[op])
                atoms.add(tor.CmpAtom(o, tor.FieldRef(a), tor.FieldRef(b)))
            if cross_only:
                continue
            for c in template.constants:
                if (INT if isinstance(c, int) else TEXT) != ft:
                    continue
                rhs = tor.IntConst(c) if isinstance(c, int) else tor.TextConst(c)
                atoms.add(tor.CmpAtom(op, tor.FieldRef(f), rhs))
            for pname, pty in template.scalar_params:
                if pty != ft:
                    continue
                atoms.add(tor.CmpAtom(op, tor.FieldRef(f), tor.ParamRef(pname)))
    return sorted(atoms, key=tor.to_sexpr)


def _preds_for(schema: Schema, template: Template, cross_only: bool = False) -> list:
    """true, each atom, and each two-atom conjunction in canonical order."""
    atoms = _atoms_for(schema, template, cross_only)
    preds: list = [tor.TruePred()]
    preds.extend(atoms)
    for a, b in itertools.combinations(atoms, 2):
        preds.append(tor.AndP(a, b))
    return preds


def _bases(template: Template) -> list:
    """Base expressions fixed by the loop structure."""
    schemas = dict(template.relations)
    if len(template.loop_relations) == 1:
        return [tor.Query(template.loop_relations[0])]
    outer, inner = template.loop_relations
    joined = schemas[outer].joined_with(schemas[inner])
    out = []
    for jp in _preds_for(joined, template, cross_only=True):
        out.append(tor.Join(tor.Query(outer), tor.Query(inner), jp))
    return out


def _projections(schema: Schema) -> list:
    """Proper nonempty order-preserving field subsequences."""
    names = schema.names
    out = []
    for r in range(1, len(names)):
        out.extend(itertools.combinations(names, r))
    return out


def _top_bounds(template: Template) -> list:
    out = [tor.ParamRef(n) for n, t in template.scalar_params if t == INT]
    out.extend(tor.IntConst(c) for c in template.constants if isinstance(c, int))
    return out


def _shapes(var: LiveVar, template: Template, base_schema: Schema) -> list:
    """The functions that wrap a base, selected or not, into a post for var."""
    if var.agg_kind:
        fields = [None] if var.agg_kind == "count" else [
            n for n in base_schema.names if base_schema.type_of(n) == INT
        ]
        return [functools.partial(tor.AggOf, var.agg_kind, f) for f in fields]
    tops: list = [None]
    if template.has_break and len(template.loop_relations) == 1:
        tops.extend(_top_bounds(template))
    out = []
    for proj in [None, *_projections(base_schema)]:
        sch = base_schema if proj is None else base_schema.restrict(proj)
        if sch.types == var.schema.types:
            out.extend(functools.partial(_shape_list, proj, k) for k in tops)
    return out


def _shape_list(proj, k, rel):
    shaped = rel if proj is None else tor.Proj(proj, rel)
    return shaped if k is None else tor.Top(shaped, k)


@record
class _Ranked:
    """Predicates with their costs in (cost, s-expression) order; the
    predicate None stands for no selection."""

    items: tuple  # ((cost, predicate), ...)
    histogram: dict  # cost -> number of items


_UNSELECTED = _Ranked(((0, None),), {0: 1})


def _rank_preds(schema: Schema, template: Template) -> _Ranked:
    """A schema's selection predicates, true excluded, ranked."""
    keyed = [(tor.cost(p), tor.to_sexpr(p), p) for p in _preds_for(schema, template)[1:]]
    keyed.sort(key=lambda t: t[:2])
    items = tuple((c, p) for c, _, p in keyed)
    return _Ranked(items, dict(collections.Counter(c for c, _ in items)))


@record
class _Stream:
    """The posts shape(Sel(p, base)) for the predicates p of ranked (or
    shape(base) for p None), in acceptance order.

    The posts differ only in p, so their costs order as p's costs do, and
    their s-expressions order as p's do: an s-expression is never a proper
    prefix of another (text literals hold no quote), so two serializations
    that share all but p first differ inside p.
    """

    shape: object
    base: object
    offset: int  # a post's cost minus its predicate's
    ranked: _Ranked

    def posts(self, bound: int):
        """(cost, s-expression, post) up to the cost bound."""
        for c, pred in self.ranked.items:
            if self.offset + c > bound:
                return
            e = self.shape(self.base if pred is None else tor.Sel(pred, self.base))
            yield self.offset + c, tor.to_sexpr(e), e

    def histogram(self, bound: int) -> dict:
        """Post cost -> number of posts, up to the cost bound."""
        return {
            self.offset + c: n
            for c, n in self.ranked.histogram.items()
            if self.offset + c <= bound
        }


def _streams(var: LiveVar, template: Template, schemas: dict, ranked: dict) -> list:
    """One unselected and one selected stream per (base, shape). ranked
    caches each base schema's predicates: one schema can serve many bases."""
    out = []
    for base in _bases(template):
        base_schema = tor.schema_of(base, schemas)
        if base_schema not in ranked:
            ranked[base_schema] = _rank_preds(base_schema, template)
        for shape in _shapes(var, template, base_schema):
            out.append(_Stream(shape, base, tor.cost(shape(base)), _UNSELECTED))
            placeholder = tor.TruePred()
            offset = tor.cost(shape(tor.Sel(placeholder, base))) - tor.cost(placeholder)
            out.append(_Stream(shape, base, offset, ranked[base_schema]))
    return out


@record
class Candidate:
    """One postcondition per live variable, declaration order."""

    posts: tuple  # ((var name, expression), ...)
    cost: int

    def serialization(self) -> tuple:
        return tuple(tor.to_sexpr(e) for _, e in self.posts)


_COST_SEXPR = operator.itemgetter(0, 1)


class CandidateSpace:
    """The candidates within a cost bound, in acceptance order.

    Iteration builds each candidate only when it is reached: every
    variable's posts are a heapq.merge of its streams by (cost,
    s-expression). len() counts the candidates from the streams' cost
    histograms without building any.
    """

    def __init__(self, names: tuple, streams: list, bound: int):
        self._names = names
        self._streams = streams  # per variable, its _Stream list
        self._bound = bound
        totals = collections.Counter({0: 1} if streams else {})
        for var_streams in streams:
            hist = collections.Counter()
            for s in var_streams:
                hist.update(s.histogram(bound))
            convolved = collections.Counter()
            for a, m in totals.items():
                for b, n in hist.items():
                    if a + b <= bound:
                        convolved[a + b] += m * n
            totals = convolved
        self._count = sum(totals.values())

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        per_var = [
            heapq.merge(*(s.posts(self._bound) for s in ss), key=_COST_SEXPR)
            for ss in self._streams
        ]
        if not per_var:
            return
        if len(per_var) == 1:
            combos = ((post,) for post in per_var[0])
        else:
            combos = _combine(per_var, self._bound)
        for combo in combos:
            yield Candidate(
                tuple((name, e) for name, (_, _, e) in zip(self._names, combo)),
                sum(c for c, _, _ in combo),
            )


def _combine(per_var: list, bound: int):
    """Tuples of posts, one per variable, by (total cost, serialization).

    Each variable's posts are grouped by cost. For each total cost, the
    products of the groups of every split of it are each in serialization
    order already, and are merged.
    """
    groups = []
    for posts in per_var:
        by_cost: dict = {}
        for post in posts:
            by_cost.setdefault(post[0], []).append(post)
        groups.append(by_cost)
    splits = sorted(itertools.product(*(sorted(g) for g in groups)), key=sum)
    for total, same_total in itertools.groupby(splits, key=sum):
        if total > bound:
            return
        blocks = [
            itertools.product(*(g[c] for g, c in zip(groups, split)))
            for split in same_total
        ]
        yield from heapq.merge(
            *blocks, key=lambda combo: tuple(s for _, s, _ in combo)
        )


def enumerate_candidates(
    tp: TypedProgram, template: Template, bound: int
) -> CandidateSpace:
    """The candidates within the cost bound, built lazily in acceptance order."""
    lvs = live_vars(tp)
    ranked: dict = {}
    streams = [_streams(v, template, tp.relations, ranked) for v in lvs]
    return CandidateSpace(tuple(v.name for v in lvs), streams, bound)


# ---------------------------------------------------------------------------
# Invariant derivation
# ---------------------------------------------------------------------------


def _transform_base(tp: TypedProgram, e, prefix):
    """Rebuild a candidate postcondition, shape by shape, with its base
    replaced by prefix(tp, base), which is built once per (base, prefix)
    and kept with the program: candidates share a few bases."""
    if isinstance(e, (tor.Query, tor.Join)):
        prefixed = tp.derived(_Derivation).prefixed
        got = prefixed.get((prefix, e))
        if got is None:
            got = prefixed[prefix, e] = prefix(tp, e)
        return got
    if isinstance(e, tor.Sel):
        return tor.Sel(e.pred, _transform_base(tp, e.of, prefix))
    if isinstance(e, tor.Proj):
        return tor.Proj(e.fields, _transform_base(tp, e.of, prefix))
    if isinstance(e, tor.Top):
        return tor.Top(_transform_base(tp, e.of, prefix), e.k)
    if isinstance(e, tor.AggOf):
        return tor.AggOf(e.kind, e.field, _transform_base(tp, e.of, prefix))
    raise ValueError(f"not a candidate postcondition: {e!r}")


def _outer_prefix(tp: TypedProgram, base):
    i = tor.IndexRef(tp.loops[0].index)
    if isinstance(base, tor.Query):
        return tor.Top(base, i)
    return tor.Join(tor.Top(base.left, i), base.right, base.pred)


def _current_row_prefix(tp: TypedProgram, base):
    if not isinstance(base, tor.Join):
        raise ValueError(f"not a two-loop postcondition base: {base!r}")
    outer, inner = tp.loops
    left = tor.AppendRow(
        tor.EmptyRel(tp.relations[outer.rel]),
        tor.GetRow(base.left, tor.IndexRef(outer.index)),
    )
    return tor.Join(left, tor.Top(base.right, tor.IndexRef(inner.index)), base.pred)


class _Derivation:
    """Kept per program (tp.derived): each base under each loop prefix, and
    the latest candidate's invariants, which the verifier derives again."""

    def __init__(self, tp: TypedProgram):
        self.prefixed: dict = {}  # (prefix, base) -> prefixed base
        self.last: tuple = (None, {})  # (candidate, invariants)


def derive_invariants(tp: TypedProgram, candidate: Candidate) -> dict:
    """Map each loop index to its invariant equalities ((var, expr), ...).

    The latest result is kept with tp for the same candidate object. Every
    call returns a fresh dict; its values are immutable and shared.
    """
    memo = tp.derived(_Derivation)
    last, inv = memo.last
    if last is not candidate:
        inv = _derive_invariants(tp, candidate)
        memo.last = (candidate, inv)
    return dict(inv)


def _derive_invariants(tp: TypedProgram, candidate: Candidate) -> dict:
    outer = tp.loops[0]
    inv: dict = {}
    inv[outer.index] = tuple(
        (v, _transform_base(tp, p, _outer_prefix)) for v, p in candidate.posts
    )
    if len(tp.loops) == 2:
        eqs = []
        for (v, p), (_, part1) in zip(candidate.posts, inv[outer.index]):
            part2 = _transform_base(tp, p, _current_row_prefix)
            if isinstance(p, tor.AggOf):
                eqs.append((v, tor.AggOf(p.kind, p.field, tor.Concat(part1.of, part2.of))))
            else:
                eqs.append((v, tor.Concat(part1, part2)))
        inv[tp.loops[1].index] = tuple(eqs)
    return inv


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@record
class SynthStats:
    enumerated: int
    tried: int
    rejected: int
    non_checkable: int
    vcs_checked: int
    vc_instances: int


@record
class Solution:
    candidate: Candidate
    invariants: dict
    sql_text: str  # the SQL for the returned variable, as shipped
    rank: int
    stats: SynthStats


@record
class Failure:
    reason: str  # "exhausted" | "timeout"
    stats: SynthStats


@record
class Options:
    cost_bound: int = 24
    bounds: verify.Bounds = verify.Bounds()
    timeout: float = 0.0  # seconds; 0 disables


def synthesize(tp: TypedProgram, options: Options = Options()):
    """Search candidates in order; return Solution or Failure. The search's
    memos on tp (the prefixed bases and the verifier's plan at its bounds)
    are dropped on return; interp's and difftest's are kept."""
    try:
        return _search(tp, options)
    finally:
        tp.memo.pop(_Derivation, None)
        tp.memo.pop((verify._Plan, options.bounds), None)


def _search(tp: TypedProgram, options: Options):
    from . import emit

    template = extract_template(tp)
    if tp.ast.result not in {v.name for v in live_vars(tp)}:
        return Failure("exhausted", SynthStats(0, 0, 0, 0, 0, 0))
    started = time.monotonic()  # the timeout covers enumeration too
    cands = enumerate_candidates(tp, template, options.cost_bound)
    tally = collections.Counter()  # candidates tried, by status, and their VCs and instances
    for idx, cand in enumerate(cands):
        if options.timeout and time.monotonic() - started > options.timeout:
            return Failure("timeout", _stats(cands, tally))
        invariants = derive_invariants(tp, cand)
        check = verify.validate(tp, cand, invariants, options.bounds)
        tally.update({"tried": 1, check.status: 1, "vcs": check.vcs, "instances": check.instances})
        if check.status == verify.VALID:
            post = dict(cand.posts)[tp.ast.result]
            result = tp.var_types[tp.ast.result]
            names = result[1].names if isinstance(result, tuple) else None
            sql = emit.to_sql(post, tp.relations, names)
            stats = _stats(cands, tally)
            return Solution(cand, invariants, emit.render(sql), idx, stats)
    return Failure("exhausted", _stats(cands, tally))


def _stats(cands: CandidateSpace, tally: collections.Counter) -> SynthStats:
    """Statistics over the verdicts of the candidates tried so far, from
    their running tally."""
    return SynthStats(
        enumerated=len(cands),
        tried=tally["tried"],
        rejected=tally[verify.VIOLATED],
        non_checkable=tally[verify.NON_CHECKABLE],
        vcs_checked=tally["vcs"],
        vc_instances=tally["instances"],
    )
