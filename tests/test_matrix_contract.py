"""The one matrix check of the library's entry points.

Every matrix that a library function takes from its caller goes through
``matfun._as_matrix``: a ragged, non-numeric, complex, 3-d, empty or
misshapen matrix is a ``DimensionError`` and a NaN or inf a ``NonFiniteError``, each
naming the matrix in ``context["name"]``.
"""

import numpy as np
import pytest

from lqomor.demo import demo_system
from lqomor.errors import DimensionError, NonFiniteError
from lqomor.gramians import hankel_singular_values
from lqomor.matfun import expm, expm_frechet, solve_lyapunov, solve_sylvester
from lqomor.model import LqoSystem, simulate

N = 3
A = -np.eye(N) + np.triu(np.ones((N, N)), 1)
B = np.ones((N, 2))
C = np.ones((2, N))
M = [np.eye(N), np.zeros((N, N))]


def system(a=A, b=B, c=C, m=M):
    # no Hurwitz test, so that only the matrix check can refuse a matrix
    return LqoSystem(a, b, c, m, check_hurwitz=False)


#: ``(entry point, name in the error, a valid matrix, call with a matrix)``
ENTRY_POINTS = [
    ("LqoSystem", "A", A, lambda x: system(a=x)),
    ("LqoSystem", "B", B, lambda x: system(b=x)),
    ("LqoSystem", "C", C, lambda x: system(c=x)),
    ("LqoSystem", "M[1]", M[1], lambda x: system(m=[M[0], x])),
    ("expm", "A", A, lambda x: expm(x, 1.0)),
    ("expm_frechet", "V", A, lambda x: expm_frechet(A, x, 1.0)),
    ("solve_sylvester", "C", B, lambda x: solve_sylvester(A, -np.eye(2), x)),
    ("solve_lyapunov", "Q", np.eye(N), lambda x: solve_lyapunov(A, x)),
    ("hankel_singular_values", "P", np.eye(N), lambda x: hankel_singular_values(x, np.eye(N))),
    ("hankel_singular_values", "Q", np.eye(N), lambda x: hankel_singular_values(np.eye(N), x)),
    ("simulate", "x0", np.zeros((1, N)), lambda x: simulate(system(), lambda t: 0.0, [0, 0.1], x0=x)),
]


def with_entry(valid, value):
    bad = valid.copy()
    bad[-1, -1] = value
    return bad


#: ``(bad input, error, the bad matrix made from a valid one)``
BAD_INPUTS = [
    ("ragged", DimensionError, lambda v: v.tolist() + [[0.0]]),
    ("non-numeric", DimensionError, lambda v: [["x"] * v.shape[1]] * v.shape[0]),
    # converted, it would lose its imaginary part with only a ComplexWarning
    ("complex", DimensionError, lambda v: with_entry(v + 0j, 5j)),
    ("3-d", DimensionError, lambda v: np.stack([v, v])),
    ("empty", DimensionError, lambda v: np.zeros((0, 0))),
    ("wrong-shape", DimensionError, lambda v: np.zeros((v.shape[0] + 1, v.shape[1]))),
    ("nan", NonFiniteError, lambda v: with_entry(v, np.nan)),
    ("inf", NonFiniteError, lambda v: with_entry(v, np.inf)),
]


@pytest.mark.parametrize(
    "bad, error, make", BAD_INPUTS, ids=[case[0] for case in BAD_INPUTS]
)
@pytest.mark.parametrize(
    "entry, name, valid, call", ENTRY_POINTS,
    ids=[f"{entry}-{name}" for entry, name, _, _ in ENTRY_POINTS],
)
def test_bad_matrix_is_refused_by_name(entry, name, valid, call, bad, error, make):
    call(valid)  # the valid matrix passes
    with pytest.raises(error) as exc:
        call(make(valid))
    assert exc.value.context["name"] == name


def test_order_zero_system_is_refused_without_the_hurwitz_test():
    empty = np.zeros((0, 0))
    with pytest.raises(DimensionError) as exc:
        system(a=empty, b=np.zeros((0, 1)), c=np.zeros((1, 0)), m=[empty])
    assert exc.value.context["name"] == "A"


@pytest.mark.parametrize("m", [5.0, None], ids=["number", "none"])
def test_output_matrices_that_are_no_sequence_are_refused_by_name(m):
    with pytest.raises(DimensionError) as exc:
        LqoSystem([[-1.0]], [[1.0]], [[1.0]], m)
    assert exc.value.context["name"] == "M"


@pytest.mark.parametrize("x0", [np.ones((2, 3)), np.ones((6, 1))], ids=["2x3", "column"])
def test_initial_state_of_another_shape_is_not_flattened(x0):
    # six numbers for an order-6 system, but not in one row
    with pytest.raises(DimensionError) as exc:
        simulate(demo_system(), lambda t: 0.0, [0.0, 0.1], x0=x0)
    assert exc.value.context["name"] == "x0"
