"""Python source written for one program (interp) or one query plan
(emit), compiled with one compile().

A name or literal value of the program reaches the code only as a global
of the module under a generated identifier (Source.const), so a name such
as `class` or `None`, or a text holding a quote, stays data. wrap
parenthesizes an expression, written as (code, precedence), only where
Python needs it, so chains as deep as a program or query may nest compile.
"""

from __future__ import annotations

# Python's precedence, lowest first: a conditional expression, or, and,
# not, a comparison, +, an atom (a name, call or subscript)
COND, OR, AND, NOT, CMP, ADD, ATOM = range(7)


def wrap(expr: tuple, level: int) -> str:
    """The code of expr, parenthesized when it binds looser than level."""
    code, prec = expr
    return code if prec >= level else f"({code})"


def infix(left: tuple, op: str, right: tuple, prec: int) -> tuple:
    """left op right; only `and` and `or` regroup a right operand freely."""
    rlevel = prec if prec in (AND, OR) else prec + 1
    return f"{wrap(left, prec)} {op} {wrap(right, rlevel)}", prec


class Source:
    """A module being written: its lines and its globals."""

    def __init__(self):
        self.lines, self.globals, self._names = [], {}, {}

    def const(self, value, prefix: str = "c") -> str:
        """The global holding value, made on first use: vN for a program's
        names, cN for literal values and anything else."""
        key = (prefix, type(value), value)
        if key not in self._names:
            self._names[key] = f"{prefix}{len(self._names)}"
            self.globals[self._names[key]] = value
        return self._names[key]

    def line(self, depth: int, code: str) -> None:
        self.lines.append("    " * depth + code)

    def compile(self, filename: str) -> dict:
        """Compile and run the module; its namespace."""
        exec(compile("\n".join(self.lines) + "\n", filename, "exec"), self.globals)
        return self.globals
