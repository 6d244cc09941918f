import pytest

from qilc.relation import (
    OrderedRelation,
    Schema,
    SchemaError,
    bindings_from_json,
    bindings_to_json,
    dump_bindings,
    load_bindings,
    rows_equal_positional,
    value_from_json,
    values_agree,
)

AB = Schema((("a", "int"), ("b", "text")))


def test_schema_invariants():
    with pytest.raises(SchemaError):
        Schema(())
    with pytest.raises(SchemaError):
        Schema((("a", "int"), ("a", "text")))
    with pytest.raises(SchemaError):
        Schema((("a", "float"),))


def test_schema_restrict_and_join():
    assert AB.restrict(["b"]).fields == (("b", "text"),)
    assert AB.restrict(["b", "a"]).names == ("b", "a")
    with pytest.raises(SchemaError):
        AB.restrict(["a", "a"])
    j = AB.joined_with(Schema((("c", "int"),)))
    assert j.names == ("l.a", "l.b", "r.c")


def test_schema_restrict_and_join_build_each_schema_once():
    # equal arguments give the one schema built the first time; a call
    # that fails raises again every time
    C = Schema((("c", "int"),))
    assert AB.restrict(("b", "a")) is AB.restrict(["b", "a"])
    assert AB.joined_with(C) is Schema(AB.fields).joined_with(Schema(C.fields))
    for _ in range(2):
        with pytest.raises(SchemaError, match="repeats"):
            AB.restrict(["a", "a"])
        with pytest.raises(SchemaError, match="no field"):
            AB.restrict(["z"])


def test_relation_rejects_wrong_arity():
    with pytest.raises(SchemaError):
        OrderedRelation(AB, ((1,),))


def test_order_sensitivity():
    x = OrderedRelation(AB, ((1, "x"), (2, "y")))
    y = OrderedRelation(AB, ((2, "y"), (1, "x")))
    assert x != y
    assert not rows_equal_positional(x, y)


def test_positional_comparison_ignores_names():
    x = OrderedRelation(AB, ((1, "x"),))
    renamed = OrderedRelation(Schema((("p", "int"), ("q", "text"))), ((1, "x"),))
    assert rows_equal_positional(x, renamed)
    assert values_agree(x, renamed)


def test_values_agree_scalar_cases():
    assert values_agree(3, 3)
    assert not values_agree(3, 4)
    assert values_agree(None, None)
    assert not values_agree(None, 0)
    assert not values_agree(OrderedRelation(AB, ()), 0)


def test_binding_round_trip():
    bindings = {"R": OrderedRelation(AB, ((1, "x"), (3, "y"))), "k": 2}
    assert load_bindings(dump_bindings(bindings)) == bindings


def test_binding_json_shape():
    data = bindings_to_json({"R": OrderedRelation(AB, ((1, "x"),)), "k": 2})
    assert data == {
        "R": {"schema": [["a", "int"], ["b", "text"]], "rows": [[1, "x"]]},
        "k": 2,
    }


def test_bindings_from_json_checks_cell_types():
    with pytest.raises(SchemaError):
        value_from_json({"schema": [["a", "int"]], "rows": [["oops"]]})
    with pytest.raises(SchemaError):
        value_from_json({"schema": [["a", "int"]], "rows": [[True]]})
    ok = bindings_from_json({"R": {"schema": [["a", "int"]], "rows": [[1], [2]]}})
    assert ok["R"].rows == ((1,), (2,))
