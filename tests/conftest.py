import pytest

from qilc import benchmarks_dir, frontend

BENCHMARK_NAMES = [
    "count",
    "cross_join",
    "equi_join",
    "identity",
    "join_select_project",
    "max_value",
    "min_value",
    "projection",
    "select_project",
    "selection",
    "sum",
    "top_k",
]

# Python keywords and builtins as names, and a text literal that would end
# a Python string, a call or a line if it reached generated source as text.
PYTHON_WORDS = """
fn import(class: rel(lambda: int, None: text), str: int) {
    var s: int = 0;
    for print in 0 .. size(class) {
        if class[print].None == "it's) #" && class[print].lambda > str {
            s = s + class[print].lambda;
        }
    }
    return s;
}
"""
PYTHON_WORDS_TEXT = "it's) #"


def load_benchmark(name: str):
    path = benchmarks_dir() / f"{name}.qil"
    return frontend.typecheck(frontend.parse(path.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def benchmarks():
    return {name: load_benchmark(name) for name in BENCHMARK_NAMES}
