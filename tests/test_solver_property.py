"""Property: every transpose combination of the Schur-form solvers meets
criterion 9's residual budget.

``SchurForm.transposed`` shares the factors of its form and ``trsyl``
applies the transpose, so each of ``A``/``A^T`` and ``B``/``B^T`` reaches a
different ``trana``/``tranb`` case.  The coefficients are ``S D S^-1`` for a
random non-orthogonal S and a block-diagonal D, so their Schur forms hold
1x1 blocks and 2x2 blocks (complex pairs).  Every real part is an odd
multiple of 1/8 of the form ``(4k + 1) / 8``, so any two eigenvalues sum to
a real part of magnitude at least 1/4: every equation is uniquely solvable,
Hurwitz or not.  Negating a block makes the spectrum singular instead.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqomor.errors import HurwitzError, SolverError
from lqomor.matfun import SchurForm, is_hurwitz, solve_lyapunov, solve_sylvester

from util import lyap_residual, residual_budget, sylv_residual

real_parts = st.integers(-8, 7).map(lambda k: (4 * k + 1) / 8.0)
#: One diagonal block: a real eigenvalue, or a pair ``re +- i im``.
blocks = st.one_of(
    real_parts.map(lambda re: (re, 0.0)),
    st.tuples(real_parts, st.floats(0.25, 3.0)),
)
spectra = st.lists(blocks, min_size=1, max_size=4)
seeds = st.integers(0, 2**32 - 1)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def coefficient(spectrum, seed):
    """``S D S^-1`` with D holding ``spectrum``'s blocks on its diagonal."""
    sizes = [1 if im == 0.0 else 2 for _, im in spectrum]
    n = sum(sizes)
    d = np.zeros((n, n))
    i = 0
    for (re, im), size in zip(spectrum, sizes):
        d[i:i + size, i:i + size] = [[re]] if size == 1 else [[re, im], [-im, re]]
        i += size
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    s = q @ (np.eye(n) + 0.5 * np.triu(rng.normal(size=(n, n)), 1))
    return s @ d @ np.linalg.inv(s)


def sides(m):
    """``(M, form of M)`` and ``(M^T, form of M^T)``, the second a view of the first."""
    form = SchurForm(m)
    return [(m, form), (m.T, form.transposed)]


@SETTINGS
@given(spec_a=spectra, spec_b=spectra, seed=seeds)
def test_sylvester_every_transpose_combination(spec_a, spec_b, seed):
    a, b = coefficient(spec_a, seed), coefficient(spec_b, seed + 1)
    c = np.random.default_rng(seed + 2).normal(size=(a.shape[0], b.shape[0]))
    for (mat_a, form_a), (mat_b, form_b) in itertools.product(sides(a), sides(b)):
        for x in (solve_sylvester(form_a, form_b, c), solve_sylvester(mat_a, mat_b, c)):
            assert sylv_residual(mat_a, mat_b, x, c) <= residual_budget(x, c, mat_a, mat_b)


@SETTINGS
@given(spectrum=spectra, seed=seeds, symmetric=st.booleans())
def test_lyapunov_both_sides(spectrum, seed, symmetric):
    a = coefficient(spectrum, seed)
    q = np.random.default_rng(seed + 1).normal(size=a.shape)
    if symmetric:
        q = q @ q.T
    form = SchurForm(a)
    for side in ("controllability", "observability"):
        x, x_array = (
            solve_lyapunov(coef, q, side=side, require_stable=False) for coef in (form, a)
        )
        for y in (x, x_array):
            assert lyap_residual(a, y, q, side) <= residual_budget(y, q, a)
        if is_hurwitz(form):
            assert np.array_equal(solve_lyapunov(form, q, side=side), x)
        else:
            with pytest.raises(HurwitzError):
                solve_lyapunov(form, q, side=side)


@SETTINGS
@given(spec_a=spectra, extra=st.lists(blocks, max_size=2), seed=seeds)
def test_singular_spectrum_is_a_solver_error(spec_a, extra, seed):
    # B holds -lambda for an eigenvalue lambda of A, and A2 holds both
    re, im = spec_a[0]
    a = coefficient(spec_a, seed)
    b = coefficient([(-re, im)] + extra, seed + 1)
    c = np.ones((a.shape[0], b.shape[0]))
    for (_, form_a), (_, form_b) in itertools.product(sides(a), sides(b)):
        with pytest.raises(SolverError):
            solve_sylvester(form_a, form_b, c)
    a2 = coefficient(spec_a + [(-re, im)], seed)
    for side in ("controllability", "observability"):
        with pytest.raises(SolverError):
            solve_lyapunov(a2, np.eye(a2.shape[0]), side=side, require_stable=False)
