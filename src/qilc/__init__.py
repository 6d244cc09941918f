"""qilc: translate loop kernels over ordered relations into SQL.

The pipeline parses a small kernel language (QIL), enumerates candidate
postconditions in an algebra of ordered relations, derives matching loop
invariants, checks the induction obligations on bounded inputs, and emits
an order-preserving SQL query that is then differentially tested against
the interpreted program.
"""

from __future__ import annotations

from pathlib import Path

__version__ = "0.1.0"

from .difftest import DiffResult, SplitMix64, draw_case, replay_case, run_cases
from .emit import MiniDb, NotTranslatable, eval_sql, parse_sql, render, to_sql
from .frontend import ParseError, TypeCheckError, parse, typecheck
from .interp import run
from .relation import INT, TEXT, OrderedRelation, Schema, values_agree
from .synth import Failure, Options, Solution, enumerate_candidates, synthesize
from .verify import Bounds, gen_vcs, recheck, validate


def __getattr__(name: str):
    # the axiom suite is a test of the algebra that the pipeline never
    # runs, so it is imported on first use, not with the package (PEP 562)
    if name == "check_all":
        from .axioms import check_all

        return check_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def benchmarks_dir() -> Path:
    """Directory holding the bundled benchmark programs."""
    return Path(__file__).resolve().parent / "benchmarks"


__all__ = [
    "__version__",
    "Bounds",
    "DiffResult",
    "Failure",
    "INT",
    "MiniDb",
    "NotTranslatable",
    "Options",
    "OrderedRelation",
    "ParseError",
    "Schema",
    "Solution",
    "SplitMix64",
    "TEXT",
    "TypeCheckError",
    "benchmarks_dir",
    "check_all",
    "draw_case",
    "enumerate_candidates",
    "eval_sql",
    "gen_vcs",
    "parse",
    "parse_sql",
    "recheck",
    "render",
    "replay_case",
    "run",
    "run_cases",
    "synthesize",
    "to_sql",
    "typecheck",
    "validate",
    "values_agree",
]
