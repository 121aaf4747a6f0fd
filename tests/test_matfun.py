import math

import numpy as np
import pytest
import scipy.linalg as sla

from lqomor.demo import demo_system
from lqomor.errors import DimensionError, HurwitzError, NonFiniteError, SolverError
from lqomor.matfun import (
    SchurForm,
    expm,
    expm_frechet,
    is_hurwitz,
    require_hurwitz,
    solve_lyapunov,
    solve_sylvester,
)

from util import lyap_residual, rand_system, residual_budget, stable_matrix, sylv_residual


class TestExpm:
    def test_identity_at_t_zero(self):
        a = np.array([[3.0, -1.0], [2.0, 5.0]])
        assert np.array_equal(expm(a, 0.0), np.eye(2))

    def test_nilpotent_series_terminates(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(a, 1.0), [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-15)

    def test_scalar_closed_form(self):
        assert expm(np.array([[-1.0]]), 1.0)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            expm(np.ones((2, 3)), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            expm(np.array([[np.nan]]), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm(np.eye(2), -0.5)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 8):
            a = stable_matrix(rng, n)
            t1, t2 = 0.3, 0.9
            lhs = expm(a, t1 + t2)
            rhs = expm(a, t1) @ expm(a, t2)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


class TestExpmFrechet:
    def test_zero_direction(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert np.array_equal(expm_frechet(a, np.zeros((2, 2)), 2.0), np.zeros((2, 2)))

    def test_commuting_scalar(self):
        # d/dh exp((a + h v) t) = t v exp(a t) when a and v commute
        val = expm_frechet(np.array([[-1.0]]), np.array([[2.0]]), 1.0)[0, 0]
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a = stable_matrix(rng, 4)
            v = rng.normal(size=(4, 4))
            t = 0.7
            h = 1e-6 * np.linalg.norm(a)
            fd = (expm(a + h * v, t) - expm(a - h * v, t)) / (2.0 * h)
            an = expm_frechet(a, v, t)
            assert np.linalg.norm(an - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = stable_matrix(rng, 3)
        v1 = rng.normal(size=(3, 3))
        v2 = rng.normal(size=(3, 3))
        alpha, beta = 1.7, -0.4
        combo = expm_frechet(a, alpha * v1 + beta * v2, 1.2)
        parts = alpha * expm_frechet(a, v1, 1.2) + beta * expm_frechet(a, v2, 1.2)
        assert np.linalg.norm(combo - parts) <= 1e-12 * np.linalg.norm(parts)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            expm_frechet(np.eye(2), np.eye(3), 1.0)

    @pytest.mark.parametrize("n", [3, 10])
    def test_block_method_matches_scipy(self, n):
        rng = np.random.default_rng(7 + n)
        a = rng.normal(size=(n, n))
        v = rng.normal(size=(n, n))
        t = 0.8
        ref = sla.expm_frechet(a * t, v * t, compute_expm=False)
        assert np.linalg.norm(expm_frechet(a, v, t) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestSolveLyapunov:
    def test_scalar_closed_form(self):
        x = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
        assert x[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_zero_rhs(self):
        a = np.array([[-2.0, 1.0], [0.0, -1.0]])
        assert np.array_equal(solve_lyapunov(a, np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("side", ["controllability", "observability"])
    def test_random_residual(self, side):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = stable_matrix(rng, 5)
            q0 = rng.normal(size=(5, 5))
            q = q0 @ q0.T
            x = solve_lyapunov(a, q, side=side)
            scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
            assert lyap_residual(a, x, q, side) <= 1e-10 * scale

    def test_symmetric_q_gives_symmetric_psd_x(self):
        rng = np.random.default_rng(13)
        a = stable_matrix(rng, 6)
        q0 = rng.normal(size=(6, 3))
        q = q0 @ q0.T
        x = solve_lyapunov(a, q)
        assert np.array_equal(x, x.T)
        w = np.linalg.eigvalsh(x)
        assert w.min() >= -1e-12 * np.linalg.norm(x)

    def test_nonsymmetric_rhs_supported(self):
        rng = np.random.default_rng(16)
        a = stable_matrix(rng, 4)
        q = rng.normal(size=(4, 4))
        x = solve_lyapunov(a, q)
        scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
        assert lyap_residual(a, x, q) <= 1e-10 * scale
        assert np.linalg.norm(x - x.T) > 1e-8 * np.linalg.norm(x)

    def test_non_hurwitz_rejected_with_eigenvalue(self):
        with pytest.raises(HurwitzError) as err:
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))
        assert "eigenvalue" in err.value.context

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_lyapunov(-np.eye(2), np.zeros((3, 3)))


class TestSolveSylvester:
    def test_scalar_closed_form(self):
        x = solve_sylvester(np.array([[-1.0]]), np.array([[-2.0]]), np.array([[3.0]]))
        assert x[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_zero_rhs(self):
        assert np.array_equal(
            solve_sylvester(-np.eye(2), -np.eye(3), np.zeros((2, 3))), np.zeros((2, 3))
        )

    def test_random_residual(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = stable_matrix(rng, 6)
            b = stable_matrix(rng, 3)
            c = rng.normal(size=(6, 3))
            x = solve_sylvester(a, b, c)
            scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(c)
            assert sylv_residual(a, b, x, c) <= 1e-10 * scale

    def test_spectral_overlap_rejected(self):
        with pytest.raises(SolverError):
            solve_sylvester(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_sylvester(-np.eye(2), -np.eye(3), np.zeros((3, 2)))


def test_is_hurwitz_boundary():
    assert is_hurwitz(np.array([[-1e-3]]))
    assert not is_hurwitz(np.array([[0.0]]))
    assert not is_hurwitz(np.array([[1.0]]))


class TestSchurForm:
    """Solves from cached forms meet criterion 9's residual budget and agree
    with scipy's solvers; the controllability Lyapunov solve, which reads
    A's factors untransposed on both sides, equals scipy's bit for bit."""

    @staticmethod
    def pair(seed, n, r):
        rng = np.random.default_rng(seed)
        a = stable_matrix(rng, n)
        b = stable_matrix(rng, r)
        return rng, a, b, SchurForm(a), SchurForm(b)

    @pytest.mark.parametrize("n, r", [(7, 7), (12, 3), (30, 5)], ids=["square", "12x3", "30x5"])
    def test_sylvester_equals_scipy_on_both_sides(self, n, r):
        rng, a, b, fa, fb = self.pair(20 + n, n, r)
        c = rng.normal(size=(n, r))
        # A X + X B^T, A^T X + X B, A X + X B, A^T X + X B^T
        cases = [
            (a, b.T, fa, fb.transposed),
            (a.T, b, fa.transposed, fb),
            (a, b, fa, fb),
            (a.T, b.T, fa.transposed, fb.transposed),
        ]
        for mat_a, mat_b, form_a, form_b in cases:
            ref = sla.solve_sylvester(mat_a, mat_b, -c)
            for x in (solve_sylvester(form_a, form_b, c), solve_sylvester(mat_a, mat_b, c)):
                budget = residual_budget(x, c, mat_a, mat_b)
                assert sylv_residual(mat_a, mat_b, x, c) <= budget
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
    @pytest.mark.parametrize("side", ["controllability", "observability"])
    def test_lyapunov_equals_scipy_on_both_sides(self, side, symmetric):
        rng, a, _, fa, _ = self.pair(31, 9, 2)
        q = rng.normal(size=(9, 9))
        if symmetric:
            q = q @ q.T
        ref = sla.solve_continuous_lyapunov(a if side == "controllability" else a.T, -q)
        if symmetric:
            ref = (ref + ref.T) / 2.0
        for x in (solve_lyapunov(fa, q, side=side), solve_lyapunov(a, q, side=side)):
            if side == "controllability":
                assert np.array_equal(x, ref)
            else:
                assert lyap_residual(a, x, q, side) <= residual_budget(x, q, a)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_transposed_shares_the_factorization(self, lapack_calls):
        _, a, b, fa, fb = self.pair(40, 6, 2)
        view = fa.transposed
        assert view.transposed is fa and view.trans and not fa.trans
        assert np.array_equal(view.a, a.T)
        assert view.factors is fa.factors
        assert view.eigvals is fa.eigvals
        assert view.rightmost is fa.rightmost
        assert np.array_equal(view.expm(0.4), fa.expm(0.4).T)
        q = a @ a.T
        for side in ("controllability", "observability"):
            solve_lyapunov(fa, q, side=side)
        for form_a in (fa, view):
            for form_b in (fb, fb.transposed):
                solve_sylvester(form_a, form_b, np.ones((6, 2)))
        assert [x.shape for x in lapack_calls.schur] == [(6, 6), (2, 2)]
        assert lapack_calls.factored(a) == 1 and lapack_calls.factored(b) == 1
        assert len(lapack_calls.trsyl) == 6

    def test_eigvals_from_diagonal_blocks(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(15, 15))  # complex pairs: 2x2 blocks in T
        lam = np.sort_complex(SchurForm(a).eigvals)
        ref = np.sort_complex(sla.eigvals(a))
        assert np.abs(lam.imag).max() > 0.1
        assert np.allclose(lam, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        # LqoSystem.poles() reads the same form
        for system in (demo_system(), rand_system(rng, 12, 1, 2)):
            poles = system.poles()
            ref = np.sort_complex(np.linalg.eigvals(system.A))
            assert np.abs(poles.imag).max() > 0.1
            assert np.abs(poles - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_hurwitz_test_reads_the_form(self):
        form = SchurForm(np.array([[0.5, 2.0], [-2.0, 0.5]]))
        assert not is_hurwitz(form)
        with pytest.raises(HurwitzError) as err:
            require_hurwitz(form, "A")
        assert err.value.context["eigenvalue"] == pytest.approx([0.5, 2.0], rel=1e-15)
        assert is_hurwitz(SchurForm(np.array([[-0.5, 2.0], [-2.0, -0.5]])))

    def test_expm_memo(self):
        _, a, _, fa, _ = self.pair(42, 5, 2)
        x = fa.expm(0.3)
        assert fa.expm(0.3) is x
        assert np.array_equal(x, expm(a, 0.3))
        assert not x.flags.writeable
        assert np.array_equal(fa.expm(0.0), np.eye(5))

    def test_singular_sylvester_through_forms(self):
        with pytest.raises(SolverError):
            solve_sylvester(SchurForm(np.array([[-1.0]])), SchurForm(np.array([[1.0]])),
                            np.array([[1.0]]))
