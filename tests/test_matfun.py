import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from lqomor import cli, matfun
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

from util import (
    block_eigvals,
    lyap_residual,
    rand_system,
    residual_budget,
    stable_matrix,
    sylv_residual,
)


def oracle_matrices(seed):
    """Random, shifted and rotation-block matrices of orders 1 to 40 and 150
    (where ``dgees``'s blocking depends on its workspace), the bundled
    benchmark's A, and matrices with zero eigenvalues of either sign."""
    rng = np.random.default_rng(seed)
    for n in range(1, 41):
        g = rng.normal(size=(n, n))
        yield g
        yield g - 3.0 * np.eye(n)
        blocks = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            blocks[i:i + 2, i:i + 2] = [[-0.5 * i, 1.0 + i], [-2.0 - i, -0.5 * i]]
        yield blocks + np.triu(rng.normal(size=(n, n)), 2)
    yield rng.normal(size=(150, 150))
    yield demo_system().A
    yield np.array([[-0.0]])
    yield np.diag([-0.0, 1.0, 0.0])
    yield -np.array([[0.0, 1.0], [-1.0, 0.0]])


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

    @pytest.mark.parametrize(
        "c",
        [
            [[1.0, 2.0], [3.0]],
            (np.ones((3, 1)), np.ones((2, 2))),
            (np.ones((3, 2)), np.ones((3, 2))),
        ],
        ids=["ragged-rows", "factor-pair", "stackable-factor-pair"],
    )
    def test_right_hand_side_that_is_no_matrix(self, c):
        # a right-hand side is one (N, n) array; neither ragged rows nor a
        # pair of factors is one
        with pytest.raises(DimensionError) as exc:
            solve_sylvester(-np.eye(3), -np.eye(2), c)
        assert exc.value.context["name"] == "C"

    @pytest.mark.parametrize(
        "a, b",
        [([[1.0]], [[-1.0 + 1e-10]]), (np.diag([1.0, 2.0]), np.diag([-1.0 + 1e-10, -3.0]))],
        ids=["scalar", "diagonal"],
    )
    def test_overflowing_solution_is_a_solver_error(self, a, b):
        # x = -1e300 / 1e-10 overflows; trsyl solves for a scaled-down right-hand
        # side, and the solution must be scaled back up, not down further
        c = np.full((len(a), len(b)), 1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError):
            solve_sylvester(a, b, c)


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

    def test_leaf_order_is_one_trsyl_call(self, lapack_calls):
        """Up to LEAF rows and columns a solve is one unblocked trsyl call: the
        controllability solve equals scipy's bit for bit."""
        n, r = matfun.LEAF, 5
        rng, a, _, fa, fb = self.pair(33, n, r)
        q = rng.normal(size=(n, n))
        q = q @ q.T
        c = rng.normal(size=(n, r))
        ref = sla.solve_continuous_lyapunov(a, -q)
        (t, u), (s, v) = fa.factors, fb.factors
        y, scale, _ = sla.lapack.dtrsyl(t, s, np.dot(np.dot(u.T, -c), v), tranb="T")
        lapack_calls.trsyl.clear()
        assert np.array_equal(solve_lyapunov(fa, q), (ref + ref.T) / 2.0)
        x = solve_sylvester(fa, fb.transposed, c)
        assert np.array_equal(x, np.dot(np.dot(u, y / scale), v.T))
        assert lapack_calls.trsyl == [(n, n), (n, r)]

    @pytest.mark.parametrize("side", ["controllability", "observability"])
    def test_blocked_lyapunov_equals_scipy(self, lapack_calls, side):
        """Above LEAF a solve is recursive: no trsyl call is larger than LEAF on
        either side, a symmetric right-hand side takes fewer of them, and both
        agree with scipy's unblocked solver."""
        n = 150
        rng, a, _, fa, _ = self.pair(32, n, 2)
        a_side = a if side == "controllability" else a.T
        q = rng.normal(size=(n, n))
        leaves = []
        for rhs in (q, q @ q.T):
            ref = sla.solve_continuous_lyapunov(a_side, -rhs)
            lapack_calls.trsyl.clear()
            x = solve_lyapunov(fa, rhs, side=side)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert lyap_residual(a, x, rhs, side) <= residual_budget(x, rhs, a)
            assert max(max(shape) for shape in lapack_calls.trsyl) <= matfun.LEAF
            leaves.append(len(lapack_calls.trsyl))
        assert leaves[1] < leaves[0]

    def test_transposed_shares_the_factorization(self, lapack_calls):
        _, a, b, fa, fb = self.pair(40, 6, 2)
        view = fa.transposed
        assert view.transposed is fa and view.trans and not fa.trans
        assert np.array_equal(view.a, a.T)
        assert view.factors is fa.factors
        assert view.eigvals is fa.eigvals
        assert view.rightmost is fa.rightmost
        assert view.radius == fa.radius == np.abs(fa.eigvals).max()
        q = a @ a.T
        for side in ("controllability", "observability"):
            solve_lyapunov(fa, q, side=side)
        for form_a in (fa, view):
            for form_b in (fb, fb.transposed):
                solve_sylvester(form_a, form_b, np.ones((6, 2)))
        assert [x.shape for x in lapack_calls.schur] == [(6, 6), (2, 2)]
        assert lapack_calls.factored(a) == 1 and lapack_calls.factored(b) == 1
        assert len(lapack_calls.trsyl) == 6

    def test_freed_without_the_cycle_collector(self):
        # a form and its view make no reference cycle, so a system's factors
        # go with its last reference, however rarely the collector runs
        gc.disable()
        try:
            system = rand_system(np.random.default_rng(42), 5)
            view = system.schur.transposed
            assert view.transposed is system.schur and view.base is system.schur
            assert view.factors is system.schur.factors
            assert system.schur.transposed is not view
            form = weakref.ref(system.schur)
            del system, view
            assert form() is None
        finally:
            gc.enable()

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

    def test_factors_and_eigvals_equal_the_block_formula(self):
        # bitwise, so the sign of a zero eigenvalue counts too
        for a in oracle_matrices(43):
            form = SchurForm(a)
            t, u = sla.schur(a, output="real")
            assert np.array_equal(form.factors[0], t) and np.array_equal(form.factors[1], u)
            assert form.eigvals.tobytes() == block_eigvals(a).tobytes()

    def test_workspace_is_queried_once_per_order(self, monkeypatch, lapack_calls):
        # LAPACK sizes the workspace from the order alone, so forms of one
        # order share one query and still equal scipy's factors bit for bit
        rng = np.random.default_rng(45)
        matrices = [rng.normal(size=(n, n)) for n in (3, 150, 3, 150, 7)]
        refs = [sla.schur(a, output="real") for a in matrices]
        monkeypatch.setattr(matfun, "_GEES_LWORK", {})
        lapack_calls.gees_queries.clear()
        for a, (t, u) in zip(matrices, refs):
            form = SchurForm(a)
            assert np.array_equal(form.factors[0], t) and np.array_equal(form.factors[1], u)
        assert lapack_calls.gees_queries == [3, 150, 7]
        assert len(lapack_calls.schur) == len(matrices)

    @pytest.mark.parametrize("scale", [1e-141, 1e-160, 1e140, 1e160, 1e-300])
    def test_eigvals_of_rescaled_matrices_agree_to_rounding(self, scale):
        a = np.random.default_rng(44).normal(size=(6, 6)) * scale
        ref = block_eigvals(a)
        lam = SchurForm(a).eigvals
        assert np.abs(lam - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("info", [1, -6])
    def test_failed_factorization_is_a_solver_error(self, monkeypatch, info):
        failing(monkeypatch, info)
        with pytest.raises(SolverError):
            SchurForm(np.eye(3)).factors

    def test_empty_matrix_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            SchurForm(np.zeros((0, 0))).factors
        with pytest.raises(DimensionError):
            is_hurwitz(np.zeros((0, 0)))

    def test_hurwitz_test_reads_the_form(self):
        form = SchurForm(np.array([[0.5, 2.0], [-2.0, 0.5]]))
        assert not is_hurwitz(form)
        with pytest.raises(HurwitzError) as err:
            require_hurwitz(form, "A")
        assert err.value.context["eigenvalue"] == pytest.approx([0.5, 2.0], rel=1e-15)
        assert is_hurwitz(SchurForm(np.array([[-0.5, 2.0], [-2.0, -0.5]])))

    def test_singular_sylvester_through_forms(self):
        with pytest.raises(SolverError):
            solve_sylvester(SchurForm(np.array([[-1.0]])), SchurForm(np.array([[1.0]])),
                            np.array([[1.0]]))
        # the bar scales with the larger spectral radius of the two forms
        with pytest.raises(SolverError):
            solve_sylvester(SchurForm(np.array([[-1.0]])),
                            SchurForm(np.diag([1.0 + 1e-8, 1e6])), np.ones((1, 2)))


def test_stand_in_puts_scipy_linalg_in_its_place(monkeypatch):
    # the first read imports scipy.linalg and binds it as matfun.sla, so
    # later reads cost what a read of the module costs
    stand_in = matfun._SciPyLinalg("scipy.linalg")
    monkeypatch.setattr(matfun, "sla", stand_in)
    assert stand_in.expm is sla.expm
    assert matfun.sla is sla


def test_stand_in_leaves_a_later_binding_in_place(monkeypatch):
    # a module put in its place before the first read, as a tracer does,
    # stays there; the stand-in still forwards every read
    stand_in = matfun._SciPyLinalg("scipy.linalg")
    monkeypatch.setattr(matfun, "sla", sla.lapack)
    assert stand_in.lapack is sla.lapack
    assert matfun.sla is sla.lapack


def failing(monkeypatch, info):
    """Make every Schur factorization, not the workspace query, end with
    LAPACK's ``info``."""
    gees = matfun.sla.lapack.dgees

    def fail(select, a, *args, **kwargs):
        out = gees(select, a, *args, **kwargs)
        return out if kwargs.get("lwork") == -1 else out[:-1] + (info,)

    monkeypatch.setattr(matfun.sla.lapack, "dgees", fail)


def test_failed_factorization_exits_as_numerical_failure(monkeypatch, capsys):
    failing(monkeypatch, 1)
    path = str(Path(__file__).resolve().parent.parent / "data" / "benchmark6.json")
    code = cli.run_command(["norm", "--system", path, "--t1", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == "solver"
