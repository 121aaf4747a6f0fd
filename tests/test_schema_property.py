"""Property: any mutated system file ends in the CLI's error contract.

A system file is parsed by ``norm``; whatever the file holds, the command
exits 0 with a JSON result, or 3 or 4 with exactly one JSON error object
on stderr and nothing on stdout, never with a Python traceback.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqomor.cli import run_command

VALID = {
    "version": 1,
    "n_states": 2, "n_inputs": 1, "n_outputs": 1,
    "A": [[-1.0, 0.5], [0.0, -2.0]],
    "B": [[1.0], [1.0]],
    "C": [[1.0, 0.0]],
    "M": [[[0.5, 0.1], [0.1, 0.0]]],
}
FIELDS = tuple(VALID) + ("extra",)
MATRICES = ("A", "B", "C", "M0")

huge_ints = st.integers(min_value=10**300, max_value=10**500) | st.integers(
    min_value=-(10**500), max_value=-(10**300)
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), huge_ints,
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
counts = st.one_of(st.integers(-2, 4), huge_ints, st.booleans(), st.floats(0, 3), st.text(max_size=2))


def _matrix(doc, name):
    return doc["M"][0] if name == "M0" else doc[name]


@st.composite
def mutation(draw, doc):
    """Apply one random edit to ``doc`` in place (it may already be mutated)."""
    kind = draw(st.sampled_from(["field", "drop", "count", "entry", "row", "matrix"]))
    if kind == "field":
        doc[draw(st.sampled_from(FIELDS))] = draw(values)
    elif kind == "drop":
        doc.pop(draw(st.sampled_from(FIELDS)), None)
    elif kind == "count":
        doc[draw(st.sampled_from(("n_states", "n_inputs", "n_outputs")))] = draw(counts)
    else:
        try:
            mat = _matrix(doc, draw(st.sampled_from(MATRICES)))
            row = mat[draw(st.integers(0, len(mat) - 1))]
        except (KeyError, IndexError, TypeError, ValueError):
            return
        if kind == "entry" and isinstance(row, list) and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(scalars)
        elif kind == "row" and isinstance(row, list):
            if draw(st.booleans()) and row:
                row.pop()
            else:
                row.append(draw(scalars))
        elif kind == "matrix":
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            mat[:] = [[draw(st.floats(-3, 3)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def system_files(draw):
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        draw(mutation(doc))
    data = json.dumps(doc).encode("utf-8")
    damage = draw(st.sampled_from(["none", "none", "bom", "bad-byte", "truncate"]))
    if damage == "bom":
        data = b"\xff\xfe" + data
    elif damage == "bad-byte":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xc3\x28" + data[k:]
    elif damage == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    return data


#: The three inputs that ended in a traceback before they were mapped to
#: schema errors: a 400-digit integer, UTF-16 byte-order-mark bytes, and
#: JSON nested past the interpreter's recursion limit.
TRACEBACK_INPUTS = [
    json.dumps(dict(VALID, A=[[-(10**400), 0.0], [0.0, -2.0]])).encode(),
    b"\xff\xfe" + json.dumps(VALID).encode(),
    b"[" * 100_000,
]


#: A Matrix Market file with complex entries, next to the system file.
COMPLEX_MTX = ("complex.mtx", "%%MatrixMarket matrix array complex general\n2 1\n1 2\n3 0.5\n")


@pytest.fixture(scope="module")
def system_path(tmp_path_factory):
    folder = tmp_path_factory.mktemp("schema")
    (folder / COMPLEX_MTX[0]).write_text(COMPLEX_MTX[1])
    return folder / "system.json"


def run_norm(path, data):
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(["norm", "--system", str(path), "--t1", "1"])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 3, 4)
    if code == 0:
        assert "value" in json.loads(out)
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"code", "message", "context"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=system_files() | st.binary(max_size=40))
@example(data=json.dumps(VALID).encode())
@example(data=TRACEBACK_INPUTS[0])
@example(data=TRACEBACK_INPUTS[1])
@example(data=TRACEBACK_INPUTS[2])
@example(data=json.dumps(dict(VALID, n_inputs=10**300)).encode())  # shape too large to allocate
@example(data=json.dumps(dict(VALID, B=COMPLEX_MTX[0])).encode())  # real parts were kept
def test_any_system_file_meets_the_error_contract(system_path, data):
    assert_contract(*run_norm(system_path, data))


@pytest.mark.parametrize("data", TRACEBACK_INPUTS, ids=["huge-int", "utf16-bom", "deep-nesting"])
def test_former_tracebacks_are_schema_errors(system_path, data):
    code, out, err = run_norm(system_path, data)
    assert_contract(code, out, err)
    assert code == 3
    assert json.loads(err)["code"] == "schema"
