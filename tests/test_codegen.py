"""The generated Python source: one compile per program, per query plan
and per difftest case shape, and no name or literal text of the program in
it."""

import builtins
import io
import tokenize

import pytest

from qilc import difftest, frontend
from qilc.difftest import run_cases
from qilc.emit import parse_sql
from qilc.synth import Options, Solution, synthesize
from qilc.verify import Bounds
from tests.conftest import BENCHMARK_NAMES, PYTHON_WORDS, PYTHON_WORDS_TEXT, load_benchmark


def _generated(monkeypatch) -> list:
    """The sources compiled from now on, except modules imported from
    files (importlib compiles those through the same builtin)."""
    sources = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if not str(filename).endswith(".py"):
            sources.append(source)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return sources


def _synthesize_and_difftest(tp, options=Options()):
    """Synthesize, difftest the shipped text and return the query parsed
    from it."""
    sol = synthesize(tp, options)
    assert isinstance(sol, Solution), sol
    query = parse_sql(sol.sql_text)
    assert run_cases(tp, query, seed=3, cases=200).ok
    return query


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_one_compile_for_the_program_and_one_for_its_query(monkeypatch, name):
    difftest._case_loop.cache_clear()
    sources = _generated(monkeypatch)
    _synthesize_and_difftest(load_benchmark(name))
    # the verifier's plan takes its blocks from the program's executor,
    # difftest plans the query once for the whole run, and the case loop
    # is compiled once per case shape
    assert len(sources) == 3
    _synthesize_and_difftest(load_benchmark(name))
    assert len(sources) == 5


def test_programs_of_one_case_shape_share_the_case_loop(monkeypatch):
    difftest._case_loop.cache_clear()
    sources = _generated(monkeypatch)
    _synthesize_and_difftest(load_benchmark("count"))
    assert len(sources) == 3
    _synthesize_and_difftest(load_benchmark("sum"))  # rel(a: int, b: text), FROM R
    assert len(sources) == 5


def _program_names(tp) -> set:
    names = {tp.ast.name}
    for node in frontend.walk((tp.ast,)):
        if isinstance(node, frontend.Param):
            names.add(node.name)
            if not isinstance(node.ty, str):
                names.update(node.ty.names)
        elif isinstance(node, (frontend.ListDecl, frontend.ScalarDecl)):
            names.add(node.name)
        elif isinstance(node, frontend.For):
            names.add(node.index)
    return names


def test_generated_source_holds_no_program_text(monkeypatch):
    tp = frontend.typecheck(frontend.parse(PYTHON_WORDS))
    names = _program_names(tp)
    assert names == {"import", "class", "lambda", "None", "str", "s", "print"}
    difftest._case_loop.cache_clear()
    difftest._reader.cache_clear()
    sources = _generated(monkeypatch)
    query = _synthesize_and_difftest(
        tp, Options(bounds=Bounds(text_domain=("a", PYTHON_WORDS_TEXT)))
    )
    assert difftest.replay_case(tp, query, seed=3, case=5) is None
    # the program, its query, its case loop and the reader a replay takes
    assert len(sources) == 4
    for source in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert {t.string for t in tokens if t.type == tokenize.NAME} & names == set()
        assert [t.string for t in tokens if t.type == tokenize.STRING] == []
        assert PYTHON_WORDS_TEXT not in source and "it''s" not in source
