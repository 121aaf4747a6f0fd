"""Every library name that the benchmark reads exists: each function that
its layer tracer wraps, each ``from lqomor... import name`` in its sources,
and each keyword it passes to a name so imported.  Deleting or renaming one
fails here and not only in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def traced_functions():
    """``FUNCTIONS`` of the tracer, read from its source without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACING} assigns no FUNCTIONS")


FUNCTIONS = traced_functions()


@pytest.mark.parametrize(
    "span, module, attr", FUNCTIONS, ids=[f"{module}.{attr}" for _, module, attr in FUNCTIONS]
)
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{span} traces {module}.{attr}, which the library does not define"
    )


def benchmark_uses():
    """``(file, module, name, keywords)`` of every ``from lqomor... import
    name`` in a benchmark source, with the keywords of the calls of ``name``
    there; read from the sources without running them."""
    uses = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name: node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lqomor"
            for alias in node.names
        }
        keywords = {name: set() for name in imported}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in keywords:
                keywords[node.func.id].update(k.arg for k in node.keywords if k.arg)
        uses += [(path.name, module, name, keywords[name]) for name, module in imported.items()]
    return uses


USES = benchmark_uses()


def test_benchmark_reads_the_library_it_checks():
    # the checks of the error command build systems and horizons themselves
    names = {(module, name) for _, module, name, _ in USES}
    assert {("lqomor.model", "LqoSystem"), ("lqomor.model", "TimeInterval"),
            ("lqomor.norms", "h2tau_error_blockwise")} <= names
    assert any("check_hurwitz" in kw for _, _, name, kw in USES if name == "LqoSystem")


@pytest.mark.parametrize(
    "source, module, name, keywords", USES,
    ids=[f"{source}:{module}.{name}" for source, module, name, _ in USES],
)
def test_benchmark_import_resolves(source, module, name, keywords):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule
    obj = getattr(mod, name)
    if keywords:
        params = inspect.signature(obj).parameters
        missing = sorted(k for k in keywords if k not in params)
        assert not missing, f"{source} passes {missing} to {module}.{name}, which does not accept them"
