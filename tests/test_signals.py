import math

import numpy as np
import pytest

from lqomor.errors import SignalEvalError, SignalSyntaxError
from lqomor.signals import parse_signal


def test_amplitude_at_zero():
    assert parse_signal("0.01*cos(2*t)")(0.0) == pytest.approx(0.01)

def test_identity():
    assert parse_signal("t")(3.5) == 3.5

def test_division_by_zero_is_eval_error():
    u = parse_signal("1/(t-1)")
    assert u(0.0) == pytest.approx(-1.0)
    with pytest.raises(SignalEvalError):
        u(1.0)

def test_matches_direct_computation():
    u = parse_signal("0.01*cos(2*t)")
    for t in np.linspace(0.0, 0.5, 57):
        direct = 0.01 * math.cos(2.0 * t)
        assert abs(u(t) - direct) <= 1e-15 * max(abs(direct), 1e-30)

GRAMMAR_CASES = [
        ("1+2*3", 0.0, 7.0),
        ("(1+2)*3", 0.0, 9.0),
        ("2^3^2", 0.0, 512.0),          # right associative
        ("-2^2", 0.0, -4.0),            # unary minus binds below the power
        ("2^-2", 0.0, 0.25),
        ("exp(-t)", 1.0, math.exp(-1.0)),
        ("sin(t)/2 - cos(t)*t", 0.7, math.sin(0.7) / 2 - math.cos(0.7) * 0.7),
        ("--t", 4.0, 4.0),
        ("1e-2*t", 3.0, 0.03),
        (".5*t", 2.0, 1.0),
]


@pytest.mark.parametrize("text,t,expected", GRAMMAR_CASES)
def test_grammar_cases(text, t, expected):
    assert parse_signal(text)(t) == pytest.approx(expected, rel=1e-14)

@pytest.mark.parametrize("text", [case[0] for case in GRAMMAR_CASES])
def test_array_matches_scalar_calls(text):
    u = parse_signal(text)
    ts = np.linspace(0.0, 4.0, 41)
    values = u(ts)
    assert values.shape == ts.shape
    assert np.array_equal(values, [u(t) for t in ts])

def test_constant_broadcasts_to_array_shape():
    values = parse_signal("1")(np.linspace(0.0, 1.0, 7))
    assert values.shape == (7,)
    assert np.array_equal(values, np.ones(7))

def test_array_division_by_zero_names_earliest_time():
    with pytest.raises(SignalEvalError) as err:
        parse_signal("1/(t-1)")(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    assert err.value.context["t"] == 1.0

@pytest.mark.parametrize("text", ["1/exp(t)", "exp(t)*0"])
def test_nonfinite_intermediate_is_eval_error(text):
    u = parse_signal(text)
    with pytest.raises(SignalEvalError):
        u(1e6)
    with pytest.raises(SignalEvalError) as err:
        u(np.array([0.0, 1.0, 1e6]))
    assert err.value.context["t"] == 1e6

def test_syntax_error_carries_offset():
    with pytest.raises(SignalSyntaxError) as err:
        parse_signal("1 + * 2")
    assert err.value.context["offset"] == 4

def test_unknown_identifier():
    with pytest.raises(SignalSyntaxError) as err:
        parse_signal("2*tan(t)")
    assert err.value.context.get("identifier") == "tan"

def test_unbalanced_parenthesis():
    with pytest.raises(SignalSyntaxError):
        parse_signal("sin(t")

def test_unexpected_character():
    with pytest.raises(SignalSyntaxError) as err:
        parse_signal("t @ 2")
    assert err.value.context["offset"] == 2

def test_trailing_garbage():
    with pytest.raises(SignalSyntaxError):
        parse_signal("1 2")

def test_overflow_is_eval_error():
    with pytest.raises(SignalEvalError):
        parse_signal("exp(t)")(1e6)

def test_complex_power_is_eval_error():
    with pytest.raises(SignalEvalError):
        parse_signal("(-1)^0.5")(0.0)
    with pytest.raises(SignalEvalError):
        parse_signal("(-1)^0.5")(np.zeros(3))
