"""Ordered relations and their schemas.

The data model shared by the interpreter, the expression algebra, the SQL
engine, and the test tooling. A relation is a finite *sequence* of records:
duplicates are allowed and position is meaningful, so two relations with the
same rows in a different order are different values.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

INT = "int"
TEXT = "text"

#: Scalar runtime values are plain Python ints/strs. Absent optional ints
#: (a min/max accumulator that was never updated) are represented as None.
Scalar = Any
Row = tuple


class SchemaError(ValueError):
    """A schema was malformed or an operation violated one."""


@dataclass(frozen=True)
class Schema:
    """Ordered field list of a relation.

    Invariants:
        - at least one field
        - field names unique
        - every field type is "int" or "text"
    """

    fields: tuple[tuple[str, str], ...]
    # Lookups derived from fields once, at construction; equality, hash and
    # repr use fields only.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    types: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.fields:
            raise SchemaError("schema must have at least one field")
        names = tuple(n for n, _ in self.fields)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {list(names)}")
        for name, ty in self.fields:
            if ty not in (INT, TEXT):
                raise SchemaError(f"field {name!r} has unknown type {ty!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "types", tuple(t for _, t in self.fields))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no field {name!r} in schema {self.names}") from None

    def type_of(self, name: str) -> str:
        return self.types[self.index_of(name)]

    def has(self, name: str) -> bool:
        return name in self._index

    def restrict(self, names: Iterable[str]) -> "Schema":
        """Schema of a projection onto the given fields, in the given order."""
        return _restricted(self, tuple(names))

    def joined_with(self, other: "Schema") -> "Schema":
        """Schema of a join: both field lists, disambiguated as l.f / r.f."""
        return _joined(self, other)


# Schemas are immutable, and compiling the candidates of one program builds
# the same few projections and joins over and over, so each is built once.
# A failing call raises again each time: lru_cache keeps no exception.


@functools.lru_cache(maxsize=1024)
def _restricted(schema: Schema, picked: tuple) -> Schema:
    if len(set(picked)) != len(picked):
        raise SchemaError(f"projection repeats a field: {picked}")
    return Schema(tuple((n, schema.type_of(n)) for n in picked))


@functools.lru_cache(maxsize=1024)
def _joined(left: Schema, right: Schema) -> Schema:
    return Schema(
        tuple((f"l.{n}", t) for n, t in left.fields)
        + tuple((f"r.{n}", t) for n, t in right.fields)
    )


@dataclass(frozen=True)
class OrderedRelation:
    """A schema plus an ordered sequence of rows.

    Rows are tuples whose arity and element types follow the schema
    positionally. Equality is structural and order sensitive.
    """

    schema: Schema
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        arity = len(self.schema.fields)
        for r in self.rows:
            if len(r) != arity:
                raise SchemaError(
                    f"row {r!r} has arity {len(r)}, schema wants {arity}"
                )

    @classmethod
    def trusted(cls, schema: Schema, rows: tuple) -> "OrderedRelation":
        """A relation built without the arity check, for callers whose rows
        have the schema's arity by construction."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "schema", schema)
        object.__setattr__(rel, "rows", rows)
        return rel

    @property
    def size(self) -> int:
        return len(self.rows)


def rows_equal_positional(a: OrderedRelation, b: OrderedRelation) -> bool:
    """Order-sensitive comparison ignoring field names.

    Column names are labels (the kernel, the algebra, and SQL each pick their
    own); agreement means same arity, same column types positionally, same
    rows in the same order.
    """
    return a.schema.types == b.schema.types and a.rows == b.rows


def values_agree(a, b) -> bool:
    """Compare two results (relation or scalar); None maps to SQL NULL."""
    if isinstance(a, OrderedRelation) and isinstance(b, OrderedRelation):
        return rows_equal_positional(a, b)
    if isinstance(a, OrderedRelation) or isinstance(b, OrderedRelation):
        return False
    return a == b


# ---------------------------------------------------------------------------
# Shared JSON input-binding format.
#
# A binding maps parameter names to values:
#     {"R": {"schema": [["a", "int"]], "rows": [[1], [3]]}, "k": 2}
# Row arrays follow the schema's field order. The same shape is used by the
# interpreter, CLI replay, the SQL engine loader, and counterexamples.
# ---------------------------------------------------------------------------


def value_to_json(v):
    if isinstance(v, OrderedRelation):
        return {
            "schema": [[n, t] for n, t in v.schema.fields],
            "rows": [list(r) for r in v.rows],
        }
    return v


def value_from_json(v):
    if isinstance(v, dict):
        fields, rows = v["schema"], v["rows"]
        if not isinstance(fields, list) or not all(
            isinstance(f, list) and len(f) == 2 for f in fields
        ):
            raise SchemaError(f"schema {fields!r} is not an array of [name, type] pairs")
        if not isinstance(rows, list):
            raise SchemaError(f"rows {rows!r} is not an array")
        for r in rows:
            if not isinstance(r, list):
                raise SchemaError(f"row {r!r} is not an array")
        schema = Schema(tuple((n, t) for n, t in fields))
        rows = tuple(tuple(r) for r in rows)
        rel = OrderedRelation(schema, rows)
        for row in rows:
            for cell, ty in zip(row, schema.types):
                ok = isinstance(cell, int) and not isinstance(cell, bool) \
                    if ty == INT else isinstance(cell, str)
                if not ok:
                    raise SchemaError(f"cell {cell!r} does not fit type {ty}")
        return rel
    return v


def bindings_to_json(bindings: dict) -> dict:
    return {name: value_to_json(v) for name, v in bindings.items()}


def bindings_from_json(data: dict) -> dict:
    if not isinstance(data, dict):
        raise SchemaError("bindings must be a JSON object")
    return {name: value_from_json(v) for name, v in data.items()}


def dump_bindings(bindings: dict) -> str:
    return json.dumps(bindings_to_json(bindings), indent=2, sort_keys=True)


def load_bindings(text: str) -> dict:
    """Bindings from JSON text; malformed or too deeply nested text raises
    ValueError."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("bindings nested too deeply") from None
    return bindings_from_json(data)
