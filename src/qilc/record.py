"""Immutable record types, made without dataclasses and without exec.

make() builds a slotted type from its field names. Its __init__ is one of
a few hand-written functions, one per arity, renamed so that its parameters
are the fields: keywords, defaults and argument errors work as in a
dataclass. @record builds the same from a class statement's annotations,
defaults and methods. tor's and frontend's tree nodes and the pipeline's
frozen records are all made here, and MAX_DEPTH bounds how deep a tree of
them may nest.
"""

from __future__ import annotations

import operator
from types import FunctionType

keep = object.__setattr__  # writes a slot past Record.__setattr__


class Record:
    """Base of every record type. A type names its compared fields, in
    constructor order, in _fields, and the constructor arguments after them
    (a syntax node's loc) in _loose. Records compare and hash by type and
    _fields, the hash computed once; repr shows _fields and _loose as a
    dataclass's does, and pickling and copying rebuild through the
    constructor. The memo slots in _memo are outside all of these: the
    constructor clears them to None, and the type's own code fills them.
    Records can be weakly referenced, as dataclass instances can."""

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple = ()
    _loose: tuple = ()
    _memo: tuple = ("_hash",)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._get(self) == other._get(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self), self._get(self)))
            keep(self, "_hash", h)
        return h

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields + self._loose)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields + self._loose)


def make(name: str, fields: str, defaults: tuple = (), *, base=Record,
         loose: str = "", memo: str = "", ns: dict = None):
    """A subclass of base with the space-separated fields, then the loose
    constructor arguments, as slots, and the memo slots base does not
    already have. defaults apply to the last constructor arguments, and ns
    holds the class body (methods, docstring)."""
    fields, loose, memo = fields.split(), loose.split(), memo.split()
    ns = dict(ns or (), __slots__=(*fields, *loose, *memo), _fields=tuple(fields),
              _loose=tuple(loose), _memo=base._memo + tuple(memo))
    ns.setdefault("__module__", base.__module__)  # where pickle finds the type
    cls = type(name, (base,), ns)
    args = fields + loose
    init = _arity_init([getattr(cls, n).__set__ for n in args],
                       [getattr(cls, n).__set__ for n in cls._memo])
    code = init.__code__.replace(co_varnames=("self", *args), co_name="__init__")
    if hasattr(code, "co_qualname"):
        code = code.replace(co_qualname=f"{cls.__qualname__}.__init__")
    init = FunctionType(code, init.__globals__, "__init__", tuple(defaults) or None,
                        init.__closure__)
    # a class that validates its arguments defines __init__ and calls _init
    cls._init = init
    if "__init__" not in ns:
        cls.__init__ = init
    # the compared values: one value for one field, else a tuple
    cls._get = staticmethod(operator.attrgetter(*fields) if fields else lambda r: ())
    return cls


def record(cls=None, *, loose: str = "", memo: str = ""):
    """Class decorator: the class remade by make, its annotated names the
    constructor arguments in order (loose ones last) and its class values
    for them their defaults."""

    def build(cls):
        ns = dict(cls.__dict__)
        for n in ("__dict__", "__weakref__", "__annotations__"):
            ns.pop(n, None)
        names = list(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(ns.pop(n) for n in names if n in ns)
        fields = " ".join(n for n in names if n not in loose.split())
        return make(cls.__name__, fields, defaults, loose=loose, memo=memo, ns=ns)

    return build if cls is None else build(cls)


# The deepest a syntax tree may nest, its root at level 1: both parsers reject
# a deeper one, so recursive passes stay well inside Python's 1000 frames.
MAX_DEPTH = 200


def too_deep(root, children):
    """The first node in pre-order that lies more than MAX_DEPTH levels
    deep, or None. It keeps its own stack, so it measures trees of any
    depth."""
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        if level > MAX_DEPTH:
            return node
        stack += [(c, level + 1) for c in reversed(children(node))]
    return None


def _arity_init(sets: list, clears: list):
    """The __init__ of a type with len(sets) constructor arguments, at most
    six: each set through its slot, then every memo slot cleared."""
    a, b, c, d, e, f = sets + [None] * (6 - len(sets))

    def forget(self):
        for put in clears:
            put(self, None)

    if len(sets) == 0:
        def init(self):
            forget(self)
    elif len(sets) == 1:
        def init(self, x1):
            a(self, x1)
            forget(self)
    elif len(sets) == 2:
        def init(self, x1, x2):
            a(self, x1)
            b(self, x2)
            forget(self)
    elif len(sets) == 3:
        def init(self, x1, x2, x3):
            a(self, x1)
            b(self, x2)
            c(self, x3)
            forget(self)
    elif len(sets) == 4:
        def init(self, x1, x2, x3, x4):
            a(self, x1)
            b(self, x2)
            c(self, x3)
            d(self, x4)
            forget(self)
    elif len(sets) == 5:
        def init(self, x1, x2, x3, x4, x5):
            a(self, x1)
            b(self, x2)
            c(self, x3)
            d(self, x4)
            e(self, x5)
            forget(self)
    else:
        def init(self, x1, x2, x3, x4, x5, x6):
            a(self, x1)
            b(self, x2)
            c(self, x3)
            d(self, x4)
            e(self, x5)
            f(self, x6)
            forget(self)
    return init
