"""Parser and typechecker behavior, pinned against hand-written sources."""

import copy
import pickle

import pytest

from qilc import frontend
from qilc.frontend import ParseError, TypeCheckError, parse, typecheck
from qilc.pretty import pretty

SELECTION = """
fn selection(R: rel(a: int, b: text)) {
    var out: list(a: int, b: text);
    for i in 0 .. size(R) {
        if R[i].a > 2 {
            out.append(R[i]);
        }
    }
    return out;
}
"""

EQUI_JOIN = """
fn equi_join(R: rel(k: int, v: int), S: rel(k: int, w: int)) {
    var out: list(v: int, w: int);
    for i in 0 .. size(R) {
        for j in 0 .. size(S) {
            if R[i].k == S[j].k {
                out.append({v: R[i].v, w: S[j].w});
            }
        }
    }
    return out;
}
"""


def test_selection_ast_shape():
    ast = parse(SELECTION)
    assert ast.name == "selection"
    assert [p.name for p in ast.params] == ["R"]
    assert len(ast.body) == 1
    loop = ast.body[0]
    assert isinstance(loop, frontend.For)
    assert loop.index == "i" and loop.rel == "R"
    guard = loop.body[0]
    assert isinstance(guard, frontend.If)
    assert isinstance(guard.body[0], frontend.Append)


def test_equi_join_ast_shape():
    ast = parse(EQUI_JOIN)
    outer = ast.body[0]
    inner = outer.body[0]
    assert isinstance(inner, frontend.For)
    assert inner.index == "j" and inner.rel == "S"
    cond = inner.body[0].cond
    assert isinstance(cond, frontend.Cmp) and cond.op == "=="
    rec = inner.body[0].body[0].record
    assert isinstance(rec, frontend.RecordLit)
    assert [f for f, _ in rec.items] == ["v", "w"]


def test_typecheck_selection():
    tp = typecheck(parse(SELECTION))
    assert tp.name == "selection"
    assert tp.var_types["out"][0] == "list"
    assert tp.var_types["i"] == "index"
    assert [l.index for l in tp.loops] == ["i"]
    assert tp.pre_loop == ()
    assert tp.agg_updates == {}


def test_typecheck_agg_updates():
    src = """
fn sum(R: rel(a: int)) {
    var s: int = 0;
    for i in 0 .. size(R) {
        s = s + R[i].a;
    }
    return s;
}
"""
    tp = typecheck(parse(src))
    assert tp.agg_updates == {"s": "sum"}


def test_count_update_requires_literal_one():
    src = """
fn f(R: rel(a: int)) {
    var c: int = 0;
    for i in 0 .. size(R) {
        c = c + 2;
    }
    return c;
}
"""
    # adding any constant is a sum of that constant, not a count
    tp = typecheck(parse(src))
    assert tp.agg_updates == {"c": "sum"}


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("fn f(R: rel(a: int)) {\n  var out: list(a: int);\n  for i in 1 .. size(R) { out.append(R[i]); }\n  return out;\n}", "lower bound"),
        ("fn f(R: rel(a: int)) {\n  var out: list(a: int);\n  for i in 0 .. size(R) { out.append(R[i]) }\n  return out;\n}", "expected"),
    ],
)
def test_parse_errors_have_positions(source, fragment):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.line >= 1 and err.value.col >= 1
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("fn f(R: rel(a: int)) { return R; }", "loop"),
        ("fn f() { var out: list(a: int); return out; }", "loop"),
    ],
)
def test_shape_violations_are_type_errors(source, fragment):
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(source))
    assert any(fragment in issue.message for issue in err.value.issues)


def test_lexer_rejects_stray_characters():
    with pytest.raises(ParseError) as err:
        parse("fn f(R: rel(a: int)) { @ }")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("out.append(S[i]);", "undeclared"),
        ("out.append({b: R[i].a});", "schema"),
        ("out.append({a: R[i].a, b: R[i].b});", "schema"),
        ("x = x + R[i].a;", "undeclared"),
        ("break;", "break"),
    ],
)
def test_typecheck_rejections(body, fragment):
    src = f"""
fn f(R: rel(a: int)) {{
    var out: list(a: int);
    for i in 0 .. size(R) {{
        {body}
    }}
    return out;
}}
"""
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(src))
    assert any(fragment in issue.message for issue in err.value.issues)


@pytest.mark.parametrize("update", ["n = R[i].a + n;", "n = min(R[i].a, n);"])
def test_accumulator_must_be_the_left_operand(update):
    src = f"""
fn f(R: rel(a: int)) {{
    var n: int = 0;
    for i in 0 .. size(R) {{
        {update}
    }}
    return n;
}}
"""
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(src))
    assert any("accumulator updates" in issue.message for issue in err.value.issues)


def test_break_must_be_guarded_and_last():
    src = """
fn f(R: rel(a: int), k: int) {
    var out: list(a: int);
    for i in 0 .. size(R) {
        if i + 1 >= k {
            break;
        }
        out.append(R[i]);
    }
    return out;
}
"""
    with pytest.raises(TypeCheckError):
        typecheck(parse(src))


def test_no_loops_under_conditionals():
    src = """
fn f(R: rel(a: int), k: int) {
    var out: list(a: int);
    for i in 0 .. size(R) {
        if R[i].a > 0 {
            for j in 0 .. size(R) {
                out.append(R[j]);
            }
        }
    }
    return out;
}
"""
    with pytest.raises(TypeCheckError):
        typecheck(parse(src))


def test_nesting_depth_capped_at_two():
    src = """
fn f(R: rel(a: int)) {
    var c: int = 0;
    for i in 0 .. size(R) {
        for j in 0 .. size(R) {
            for k in 0 .. size(R) {
                c = c + 1;
            }
        }
    }
    return c;
}
"""
    with pytest.raises(TypeCheckError):
        typecheck(parse(src))


MISPLACED = """
fn f(R: rel(a: int), S: rel(b: int)) {
    var out: list(a: int);
    for i in 0 .. size(R) {
        break;
        if R[i].a > y { break; }
        if R[i].a > 1 {
            for j in 0 .. size(S) { break; }
            break;
            if R[i].a > z { break; }
            if w > 0 {
                break;
                if R[i].a > 2 { break; }
                out.append(R[i]);
            }
        }
        for j in 0 .. size(S) {
            for k in 0 .. size(S) { break; }
            if S[j].b > 0 { break; }
            out.append(R[i]);
        }
        if v > 0 { break; }
    }
    return out;
}
"""


def test_misplaced_loops_and_breaks_report_each_issue_in_order():
    """A for, a bare break and a guarded break out of place, in a loop body
    and under an if: a loop under an if is not checked further, and the
    guard of a guarded break under an if is not checked at all (z)."""
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(MISPLACED))
    assert [(i.message, i.line, i.col) for i in err.value.issues] == [
        ("break must appear as `if cond { break; }`", 5, 9),
        ("a guarded break must be the last statement of the loop body", 6, 9),
        ("undeclared identifier 'y'", 6, 21),
        ("loops may not appear under a conditional", 8, 13),
        ("break must be the last statement of the loop body", 9, 13),
        ("a guarded break must be the last statement of the loop body", 10, 13),
        ("undeclared identifier 'w'", 11, 16),
        ("break must be the last statement of the loop body", 12, 17),
        ("a guarded break must be the last statement of the loop body", 13, 17),
        ("loops nest at most two deep", 18, 13),
        ("a guarded break must be the last statement of the loop body", 19, 13),
        ("undeclared identifier 'v'", 22, 12),
    ]


@pytest.mark.parametrize(
    "rel, schema, message",
    [
        # MiniDb would read R.rid as the row position, not the field
        ("R", "rid: int, b: text", "field name 'rid' of 'R' is reserved in the emitted SQL"),
        # the canonical dialect's own keyword: parse_sql refuses the query
        ("ORDER", "a: int, b: text", "relation name 'ORDER' is reserved in the emitted SQL"),
        # SQLite refuses a keyword in any letter case
        ("order", "a: int, b: text", "relation name 'order' is reserved in the emitted SQL"),
        ("R", "a: int, Sum: int", "field name 'Sum' of 'R' is reserved in the emitted SQL"),
    ],
    ids=["rid-field", "ORDER-relation", "order-relation", "Sum-field"],
)
def test_names_the_emitted_sql_cannot_carry_are_type_errors(rel, schema, message):
    src = f"""fn f(x: int, {rel}: rel({schema})) {{
    var out: list({schema});
    for i in 0 .. size({rel}) {{
        if x > 1 {{
            out.append({rel}[i]);
        }}
    }}
    return out;
}}
"""
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(src))
    assert [(i.message, i.line, i.col) for i in err.value.issues] == [(message, 1, 14)]


# SQLite reads table and column names case-insensitively: it refuses the
# join of r and R (ambiguous column name: r.a), and reads R.A < R.a as one
# column compared with itself; MiniDb told the names apart
CASE_CLASHES = {
    "relations": (
        """fn cc(r: rel(a: int), R: rel(a: int)) {
    var out: list(a: int);
    for i in 0 .. size(r) {
        for j in 0 .. size(R) {
            if r[i].a == R[j].a {
                out.append({a: r[i].a});
            }
        }
    }
    return out;
}""",
        ("relation names 'r' and 'R' differ only in letter case, which SQL ignores", 1, 23),
    ),
    "fields": (
        """fn ff(R: rel(a: int, A: int)) {
    var out: list(a: int, A: int);
    for i in 0 .. size(R) {
        if R[i].a > R[i].A {
            out.append(R[i]);
        }
    }
    return out;
}""",
        ("field names 'a' and 'A' of 'R' differ only in letter case, which SQL ignores", 1, 7),
    ),
}


@pytest.mark.parametrize("clash", sorted(CASE_CLASHES))
def test_names_sql_reads_as_one_are_type_errors(clash):
    src, issue = CASE_CLASHES[clash]
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(src))
    assert [(i.message, i.line, i.col) for i in err.value.issues] == [issue]


def test_scalar_parameters_may_differ_only_in_case():
    """:k and :K are two parameters to SQLite, as to the program."""
    src = """fn f(R: rel(a: int), k: int, K: int) {
    var out: list(a: int);
    for i in 0 .. size(R) {
        if R[i].a > k && R[i].a < K {
            out.append(R[i]);
        }
    }
    return out;
}"""
    assert [p.name for p in typecheck(parse(src)).ast.params] == ["R", "k", "K"]


def test_optint_cannot_appear_in_predicates():
    src = """
fn f(R: rel(a: int)) {
    var m: int = none;
    for i in 0 .. size(R) {
        if m > 0 {
            break;
        }
        m = max(m, R[i].a);
    }
    return m;
}
"""
    with pytest.raises(TypeCheckError):
        typecheck(parse(src))


def test_pretty_round_trip_on_benchmarks(benchmarks):
    for tp in benchmarks.values():
        printed = pretty(tp.ast)
        assert parse(printed) == tp.ast


def test_pretty_is_fixpoint(benchmarks):
    for tp in benchmarks.values():
        once = pretty(tp.ast)
        assert pretty(parse(once)) == once


# --- generic traversal -------------------------------------------------------

# every syntax class appears in this program
EVERY_KIND = """
fn every_kind(R: rel(a: int, b: text), k: int) {
    var out: list(a: int, b: text);
    var n: int = 0;
    var m: int = none;
    for i in 0 .. size(R) {
        if !(R[i].a > k) && (R[i].b == "x" || R[i].a < 3) {
            out.append(R[i]);
            out.append({a: R[i].a + 1, b: "y"});
        }
        n = n + R[i].a;
        m = min(m, R[i].a);
        if R[i].a == 2 {
            break;
        }
    }
    return out;
}
"""

# the fields of each syntax class that hold children, in field order
CHILD_FIELDS = {
    frontend.Param: (),
    frontend.ListDecl: (),
    frontend.ScalarDecl: (),
    frontend.IntLit: (),
    frontend.TextLit: (),
    frontend.VarRef: (),
    frontend.FieldAccess: (),
    frontend.RowRef: (),
    frontend.RecordLit: ("items",),
    frontend.Add: ("left", "right"),
    frontend.MinMax: ("left", "right"),
    frontend.Cmp: ("left", "right"),
    frontend.BoolOp: ("left", "right"),
    frontend.NotOp: ("operand",),
    frontend.Assign: ("expr",),
    frontend.Append: ("record",),
    frontend.If: ("cond", "body"),
    frontend.Break: (),
    frontend.For: ("body",),
    frontend.Program: ("params", "decls", "body"),
}


def _expected_children(node):
    out = []
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if name == "items":
            out.extend(expr for _, expr in value)
        elif isinstance(value, tuple):
            out.extend(value)
        else:
            out.append(value)
    return out


def test_children_are_exactly_the_node_valued_fields():
    ast = parse(EVERY_KIND)
    typecheck(ast)
    assert set(CHILD_FIELDS) == set(frontend.Node.__subclasses__())
    nodes = list(frontend.walk([ast]))
    assert {type(n) for n in nodes} == set(CHILD_FIELDS)
    for n in nodes:
        got, want = frontend.children(n), _expected_children(n)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


def test_nodes_ignore_loc_in_eq_and_hash_and_show_it_in_repr():
    at = frontend.Loc(3, 7)
    a, b = frontend.VarRef("x", at), frontend.VarRef("x")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert (a.loc, b.loc) == (at, frontend.Loc(0, 0)) and a != frontend.VarRef("y", at)
    assert repr(a) == "VarRef(name='x', loc=Loc(line=3, col=7))"
    assert repr(frontend.Break()) == "Break(loc=Loc(line=0, col=0))"
    moved = parse("\n\n" + EQUI_JOIN.replace("    ", "  "))
    assert moved == parse(EQUI_JOIN) and hash(moved) == hash(parse(EQUI_JOIN))
    assert repr(moved) != repr(parse(EQUI_JOIN))


def test_nodes_pickle_copy_and_refuse_writes():
    ast = parse(EQUI_JOIN)
    for clone in (pickle.loads(pickle.dumps(ast)), copy.copy(ast), copy.deepcopy(ast)):
        assert clone == ast and clone is not ast and repr(clone) == repr(ast)
    for node in frontend.walk([ast]):
        for name in (*node._fields, "loc", "unknown"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        with pytest.raises(AttributeError):
            del node.loc


def test_walk_is_preorder():
    ast = parse(EQUI_JOIN)
    assert [type(n).__name__ for n in frontend.walk(ast.body)] == [
        "For", "For", "If", "Cmp", "FieldAccess", "FieldAccess",
        "Append", "RecordLit", "FieldAccess", "FieldAccess",
    ]
    assert [type(n).__name__ for n in frontend.walk([ast])][:4] == [
        "Program", "Param", "Param", "ListDecl",
    ]
