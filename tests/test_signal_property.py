"""Property: any ``--input`` string ends ``simulate`` in the CLI's error contract.

Whatever the signal text holds (numbers, ``t``, operators, function calls,
parentheses, junk characters or deep nesting), ``simulate`` exits 0 with a
CSV on stdout, or 3 or 4 with exactly one JSON error object on stderr and
nothing on stdout, never with a Python traceback.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqomor.cli import run_command
from lqomor.signals import MAX_DEPTH

SCALAR = str(Path(__file__).resolve().parent.parent / "data" / "scalar.json")

numbers = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["0", "0.0", ".5", "1.", "1e308", "1e-320", "9" * 400, "2E+3"]),
)
atoms = numbers | st.just("t")


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda x: "".join(x)),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda x: f"{x[0]}({x[1]})"
        ),
        inner.map(lambda x: f"({x})"),
        inner.map(lambda x: f"-{x}"),
    )


expressions = st.recursive(atoms, _compound, max_leaves=12)
junk = st.text(
    alphabet=st.sampled_from(list("t0123456789.eE+-*/^() \t\nsincoxpqz_!#,\x00é ")),
    max_size=20,
)


@st.composite
def deep(draw):
    """An expression wrapped in up to ten times the nesting limit, deep
    enough to exhaust the interpreter's stack if the limit were gone."""
    core = draw(expressions)
    for _ in range(draw(st.integers(MAX_DEPTH - 3, 10 * MAX_DEPTH))):
        core = draw(st.sampled_from(["({})", "-{}", "2^{}", "exp({})", "t+{}"])).format(core)
    return core


@st.composite
def damaged(draw):
    """A grammatical expression with junk spliced in at one place."""
    text = draw(expressions)
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(junk) + text[k:]


signals = st.one_of(expressions, junk, damaged(), deep())


def run_simulate(signal):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(
            ["simulate", "--system", SCALAR, f"--input={signal}",
             "--t1", "1", "--step", "0.25"]
        )
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(signal=signals)
@example(signal="1/(t-0.5)")
@example(signal="exp(exp(exp(t*1000)))")
@example(signal="(-1)^0.5")
@example(signal="9" * 400 + "*0")
@example(signal="(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1))
@example(signal="")
@example(signal="\x00")
def test_any_signal_meets_the_error_contract(signal):
    code, out, err = run_simulate(signal)
    assert code in (0, 3, 4)
    if code == 0:
        lines = out.splitlines()
        assert lines[0] == "t,y_full_1"
        assert len(lines) == 6
        assert err == ""
        return
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"code", "message", "context"}
    assert doc["code"] == {3: "signal_syntax", 4: "signal_eval"}[code]
