"""Every library function that the benchmark's layer tracer wraps exists, so
deleting or renaming one fails here and not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
