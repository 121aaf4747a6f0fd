import math

import numpy as np
import pytest

from lqomor.demo import demo_initial_guess, demo_system
from lqomor.errors import DimensionError, HurwitzError, SolverError
from lqomor.gramians import adjoint_block, controllability_block
from lqomor.model import INFINITE, LqoSystem, TimeInterval
from lqomor.norms import h2tau_error, h2tau_norm
from lqomor.optimality import (
    gradients,
    h2_residuals,
    objective_J,
    theorem2_check,
    tl_residuals,
)
from lqomor.reductors import ProjectionPair, homora

from util import q_route_error_triple, rand_system, reference_op1, shifted_to


def fd_gradient(fun, x0, step):
    g = np.zeros_like(x0)
    for i in range(x0.shape[0]):
        for j in range(x0.shape[1]):
            xp = x0.copy()
            xp[i, j] += step
            xm = x0.copy()
            xm[i, j] -= step
            g[i, j] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


class TestObjective:
    def test_identical_pair_gives_negative_squared_norm(self):
        rng = np.random.default_rng(60)
        sys1 = rand_system(rng, 5, 1, 1)
        iv = TimeInterval(0.0, 1.0)
        j = objective_J(sys1, sys1, iv)
        assert j == pytest.approx(-h2tau_norm(sys1, iv).value ** 2, rel=1e-12)

    def test_zero_rom_input_map(self):
        rng = np.random.default_rng(61)
        full = rand_system(rng, 4, 1, 1)
        rom = LqoSystem([[-1.0]], [[0.0]], [[1.0]], [np.array([[0.2]])])
        assert objective_J(full, rom, TimeInterval(0.0, 2.0)) == 0.0

    def test_error_norm_consistency(self):
        rng = np.random.default_rng(62)
        for iv in (TimeInterval(0.0, 1.2), TimeInterval(0.0, INFINITE)):
            full = rand_system(rng, 5, 2, 2)
            rom = rand_system(rng, 2, 2, 2)
            lhs = h2tau_error(full, rom, iv).value ** 2
            rhs = h2tau_norm(full, iv).value ** 2 + objective_J(full, rom, iv)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize(
        "t0,t1,unstable", [(0.0, 0.9, False), (0.3, 1.7, False),
                           (0.0, INFINITE, False), (0.0, 0.9, True),
                           (0.3, 1.7, True)],
    )
    def test_matches_observability_route(self, t0, t1, unstable):
        rng = np.random.default_rng(66)
        full = rand_system(rng, 7, 2, 2)
        rom = rand_system(rng, 3, 2, 2)
        if unstable:
            rom = shifted_to(rom, 0.8)
        iv = TimeInterval(t0, t1)
        _, inner, rom_squared = q_route_error_triple(full, rom, iv)
        assert objective_J(full, rom, iv) == pytest.approx(
            -2.0 * inner + rom_squared, rel=1e-12
        )


class TestGradients:
    @pytest.mark.parametrize(
        "t0,t1,unstable",
        [
            pytest.param(0.0, 1.0, None, id="0.0-1.0"),
            pytest.param(0.3, 2.0, None, id="0.3-2.0"),
            pytest.param(0.3, 2.0, "rom", id="0.3-2.0-unstable"),
            pytest.param(0.0, 1.0, "full", id="0.0-1.0-unstable-full"),
            pytest.param(0.3, 2.0, "full", id="0.3-2.0-unstable-full"),
            pytest.param(0.0, INFINITE, None, id="0.0-inf"),
            pytest.param(0.3, INFINITE, None, id="0.3-inf"),
        ],
    )
    def test_matches_central_finite_differences(self, t0, t1, unstable):
        # ``unstable`` names the side whose rightmost pole is moved to the
        # right half-plane
        rng = np.random.default_rng(63)
        full = rand_system(rng, 5, 2, 2)
        rom = rand_system(rng, 2, 2, 2)
        if unstable == "rom":
            rom = shifted_to(rom, 0.8)
        elif unstable == "full":
            full = shifted_to(full, 0.5)
        iv = TimeInterval(t0, t1)
        rep = gradients(full, rom, iv)

        def obj(a=None, b=None, c=None, m0=None):
            mats = list(rom.M)
            if m0 is not None:
                mats[0] = m0
            return objective_J(
                full,
                LqoSystem(
                    rom.A if a is None else a,
                    rom.B if b is None else b,
                    rom.C if c is None else c,
                    mats,
                    check_hurwitz=False,
                ),
                iv,
            )

        checks = [
            (rep.grad_A, rom.A, lambda x: obj(a=x)),
            (rep.grad_B, rom.B, lambda x: obj(b=x)),
            (rep.grad_C, rom.C, lambda x: obj(c=x)),
            (rep.grad_M[0], rom.M[0], lambda x: obj(m0=x)),
        ]
        for analytic, base, fun in checks:
            step = 1e-6 * max(np.linalg.norm(base), 1.0)
            fd = fd_gradient(fun, np.array(base, dtype=float), step)
            assert np.linalg.norm(analytic - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_zero_quadratic_part(self):
        rng = np.random.default_rng(64)
        n, r = 4, 2
        a = rand_system(rng, n, 1, 1).A
        ar = rand_system(rng, r, 1, 1).A
        b = rng.normal(size=(n, 1))
        br = rng.normal(size=(r, 1))
        c = rng.normal(size=(1, n))
        cr = rng.normal(size=(1, r))
        full = LqoSystem(a, b, c, [np.zeros((n, n))])
        rom = LqoSystem(ar, br, cr, [np.zeros((r, r))])
        iv = TimeInterval(0.0, 1.5)
        rep = gradients(full, rom, iv)
        assert np.array_equal(rep.grad_M[0], np.zeros((r, r)))
        step = 1e-6
        fd = fd_gradient(
            lambda x: objective_J(
                full, LqoSystem(ar, br, x, rom.M, check_hurwitz=False), iv
            ),
            np.array(cr),
            step,
        )
        assert np.linalg.norm(rep.grad_C - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_stationary_at_converged_infinite_horizon_optimum(self):
        rng = np.random.default_rng(65)
        full = rand_system(rng, 6, 1, 1)
        rom0 = rand_system(rng, 2, 1, 1)
        report = homora(full, rom0, tol=1e-11, max_iter=400)
        assert report.converged
        tau = 100.0 / abs(np.linalg.eigvals(full.A).real.max())
        rep = gradients(full, report.rom, TimeInterval(0.0, tau))
        for grad, base in (
            (rep.grad_B, full.B),
            (rep.grad_C, full.C),
            (rep.grad_M[0], full.M[0]),
        ):
            assert np.linalg.norm(grad) <= 1e-4 * max(np.linalg.norm(base), 1.0)

    @pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (0.3, 2.0), (0.0, INFINITE), (0.3, INFINITE)])
    def test_blocks_are_twice_tl_residuals(self, t0, t1):
        rng = np.random.default_rng(71)
        full = rand_system(rng, 4, 1, 2)
        rom = rand_system(rng, 2, 1, 2)
        iv = TimeInterval(t0, t1)
        grad = gradients(full, rom, iv)
        rep = tl_residuals(full, rom, iv)
        assert np.array_equal(grad.grad_A, 2.0 * rep.op1_residual)
        assert np.array_equal(grad.grad_B, 2.0 * rep.op3_residual)
        assert np.array_equal(grad.grad_C, 2.0 * rep.op4_residual)
        assert len(grad.grad_M) == len(rep.op2_residuals) == 2
        for g_m, op2 in zip(grad.grad_M, rep.op2_residuals):
            assert np.array_equal(g_m, 2.0 * op2)
        assert grad.J == objective_J(full, rom, iv)

    def test_infinite_horizon_needs_only_a_hurwitz_pair(self):
        rng = np.random.default_rng(66)
        full, rom = rand_system(rng, 4, 1, 1), rand_system(rng, 2, 1, 1)
        iv = TimeInterval(0.0, INFINITE)
        grad = gradients(full, rom, iv)
        assert np.array_equal(grad.grad_A, 2.0 * h2_residuals(full, rom).op1_residual)
        with pytest.raises(HurwitzError):
            gradients(full, shifted_to(rom, 0.8), iv)


class TestTlResiduals:
    def test_op1_matrix_is_half_gradient(self):
        rng = np.random.default_rng(67)
        full = rand_system(rng, 5, 1, 2)
        rom = rand_system(rng, 2, 1, 2)
        iv = TimeInterval(0.0, 1.0)
        rep = tl_residuals(full, rom, iv)
        grad = gradients(full, rom, iv)
        assert np.linalg.norm(rep.op1_residual - grad.grad_A / 2.0) <= 1e-10 * max(
            np.linalg.norm(rep.op1_residual), 1e-30
        )
        assert np.array_equal(
            rep.op1_residual, rep.petrov_galerkin_term + rep.L
        )

    def test_exact_rom_zero_residuals(self):
        # a state-space transform of the full model is an exact order-N
        # reduction; every condition holds and L cancels the splits
        rng = np.random.default_rng(68)
        full = rand_system(rng, 4, 1, 1)
        t = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        tinv = np.linalg.inv(t)
        rom = LqoSystem(
            tinv @ full.A @ t,
            tinv @ full.B,
            full.C @ t,
            [t.T @ full.M[0] @ t],
        )
        iv = TimeInterval(0.0, 0.8)
        rep = tl_residuals(full, rom, iv)
        scale = np.linalg.norm(rep.petrov_galerkin_term) + 1.0
        assert rep.op1_norm <= 1e-8 * scale
        assert max(rep.op2_norms) <= 1e-8 * scale
        assert rep.op3_norm <= 1e-8 * scale
        assert rep.op4_norm <= 1e-8 * scale
        # the Petrov-Galerkin term itself vanishes for this exact pair
        assert np.linalg.norm(rep.petrov_galerkin_term) <= 1e-8 * (
            np.linalg.norm(rep.L) + 1.0
        )

    def test_large_horizon_degenerates_to_infinite_conditions(self):
        rng = np.random.default_rng(69)
        full = rand_system(rng, 5, 1, 1)
        rom = rand_system(rng, 2, 1, 1)
        tau = 100.0 / abs(np.linalg.eigvals(full.A).real.max())
        rep_t = tl_residuals(full, rom, TimeInterval(0.0, tau))
        rep_i = h2_residuals(full, rom)
        pairs = [
            (rep_t.op1_residual, rep_i.op1_residual),
            (rep_t.op2_residuals[0], rep_i.op2_residuals[0]),
            (rep_t.op3_residual, rep_i.op3_residual),
            (rep_t.op4_residual, rep_i.op4_residual),
        ]
        for lim, inf in pairs:
            assert np.linalg.norm(lim - inf) <= 1e-6 * max(np.linalg.norm(inf), 1e-30)
        scale = np.linalg.norm(
            (rep_t.petrov_galerkin_term - rep_t.op1_residual)
        ) + np.linalg.norm(rep_t.petrov_galerkin_term)
        assert np.linalg.norm(rep_t.L) <= 1e-6 * max(scale, 1.0)
        for name in ("tail_t", "tail_h"):
            assert np.linalg.norm(rep_t.splits[name]) <= 1e-6

    def test_large_horizon_from_t0_approaches_t0_to_inf(self):
        # [0.3, inf) has a boundary term at t0 that the Petrov-Galerkin term
        # alone misses; op1 on [0.3, tau] must approach the assembly there
        rng = np.random.default_rng(69)
        full = rand_system(rng, 5, 1, 1)
        rom = rand_system(rng, 2, 1, 1)
        tau = 100.0 / abs(np.linalg.eigvals(full.A).real.max())
        rep_t = tl_residuals(full, rom, TimeInterval(0.3, tau))
        rep_i = tl_residuals(full, rom, TimeInterval(0.3, INFINITE))
        assert rep_i.horizon == "infinite"
        pairs = [
            (rep_t.op1_residual, rep_i.op1_residual),
            (rep_t.op2_residuals[0], rep_i.op2_residuals[0]),
            (rep_t.op3_residual, rep_i.op3_residual),
            (rep_t.op4_residual, rep_i.op4_residual),
        ]
        for lim, inf in pairs:
            assert np.linalg.norm(lim - inf) <= 1e-6 * max(np.linalg.norm(inf), 1e-30)
        assert np.linalg.norm(rep_i.L) > 1e-3 * np.linalg.norm(rep_i.op1_residual)

    def test_zero_to_inf_is_the_petrov_galerkin_term(self):
        rng = np.random.default_rng(79)
        full = rand_system(rng, 5, 2, 2)
        rom = rand_system(rng, 2, 2, 2)
        iv = TimeInterval(0.0, INFINITE)
        rep = tl_residuals(full, rom, iv)
        pt, ph = controllability_block(full, rom, iv), controllability_block(rom, rom, iv)
        gt, gh = adjoint_block(full, rom, iv)[0], adjoint_block(rom, rom, iv)[0]
        assert np.array_equal(rep.op1_residual, -gt.T @ pt + gh @ ph)
        assert np.array_equal(rep.op1_residual, rep.petrov_galerkin_term)
        assert not rep.L.any()
        assert not any(part.any() for part in rep.splits.values())
        fresh = h2_residuals(*(LqoSystem(s.A, s.B, s.C, s.M) for s in (full, rom)))
        assert np.array_equal(rep.op1_residual, fresh.op1_residual)
        assert np.array_equal(rep.op3_residual, fresh.op3_residual)
        assert np.array_equal(rep.op4_residual, fresh.op4_residual)
        for op2, fresh_op2 in zip(rep.op2_residuals, fresh.op2_residuals):
            assert np.array_equal(op2, fresh_op2)

    @pytest.mark.parametrize(
        "t0,t1,unstable", [(0.0, 0.9, False), (0.3, 1.7, False),
                           (0.0, 0.9, True), (0.3, 1.7, True)],
    )
    def test_matches_the_split_assembly(self, t0, t1, unstable):
        rng = np.random.default_rng(78)
        full = rand_system(rng, 7, 2, 2)
        rom = rand_system(rng, 3, 2, 2)
        if unstable:
            rom = shifted_to(rom, 0.8)
        iv = TimeInterval(t0, t1)
        rep = tl_residuals(full, rom, iv)
        op1, l_mat = reference_op1(full, rom, iv)
        assert np.linalg.norm(rep.op1_residual - op1) <= 1e-12 * np.linalg.norm(op1)
        assert np.linalg.norm(rep.L - l_mat) <= 1e-12 * np.linalg.norm(l_mat)

    def test_non_hurwitz_rom_has_all_four_conditions(self):
        rng = np.random.default_rng(70)
        full = rand_system(rng, 4, 1, 1)
        rom = LqoSystem(
            [[0.5]], [[1.0]], [[1.0]], [np.array([[0.1]])], check_hurwitz=False
        )
        iv = TimeInterval(0.0, 0.5)
        rep = tl_residuals(full, rom, iv)
        assert np.isfinite(rep.op1_residual).all() and np.isfinite(rep.op1_norm)
        assert np.array_equal(rep.op1_residual, rep.petrov_galerkin_term + rep.L)
        grad = gradients(full, rom, iv)
        assert np.array_equal(rep.op1_residual, grad.grad_A / 2.0)
        assert np.array_equal(rep.op3_residual, grad.grad_B / 2.0)
        assert np.array_equal(rep.op4_residual, grad.grad_C / 2.0)
        for op2, g_m in zip(rep.op2_residuals, grad.grad_M):
            assert np.array_equal(op2, g_m / 2.0)
        assert np.isfinite(rep.op3_norm) and np.isfinite(rep.op4_norm)


def scaled_b_pair(scale=1e80):
    """The bundled benchmark and its initial guess with B scaled: at 1e80
    the quadratic outputs, and with them the stationarity residuals,
    overflow."""
    return tuple(
        LqoSystem(s.A, scale * s.B, s.C, s.M)
        for s in (demo_system(), demo_initial_guess())
    )


@pytest.mark.parametrize(
    "quantity",
    [
        lambda full, rom: h2_residuals(full, rom),
        lambda full, rom: tl_residuals(full, rom, TimeInterval(0.0, 0.5)),
        lambda full, rom: gradients(full, rom, TimeInterval(0.0, 0.5)),
        lambda full, rom: gradients(full, rom, TimeInterval(0.2, 0.5)),
    ],
    ids=["h2_residuals", "tl_residuals", "gradients", "gradients-from-t0"],
)
def test_overflowing_condition_is_solver_error(quantity):
    # on [0, inf) op1 itself overflows; on a finite horizon the Frechet
    # direction of the boundary term already does
    full, rom = scaled_b_pair()
    with np.errstate(all="ignore"), pytest.raises(SolverError) as err:
        quantity(full, rom)
    assert str(err.value) == "first stationarity residual overflowed"


class TestH2Residuals:
    def test_converged_homora_is_stationary(self):
        from lqomor.gramians import cross_gramians

        rng = np.random.default_rng(72)
        full = rand_system(rng, 6, 1, 1)
        rom0 = rand_system(rng, 2, 1, 1)
        report = homora(full, rom0, tol=1e-10, max_iter=400)
        assert report.converged
        rep = report.residuals
        cg = cross_gramians(full, report.rom, TimeInterval(0.0, INFINITE))
        gt = cg.Yt + 2.0 * cg.Zt
        scales = {
            "op1": np.linalg.norm(gt.T @ cg.Pt, 2),
            "op2": np.linalg.norm(cg.Pt.T @ full.M[0] @ cg.Pt, 2),
            "op3": np.linalg.norm(gt.T @ full.B, 2),
            "op4": np.linalg.norm(full.C @ cg.Pt, 2),
        }
        assert rep.op1_norm <= 1e-6 * scales["op1"]
        assert max(rep.op2_norms) <= 1e-6 * scales["op2"]
        assert rep.op3_norm <= 1e-6 * scales["op3"]
        assert rep.op4_norm <= 1e-6 * scales["op4"]

    def test_identical_pair_zero(self):
        rng = np.random.default_rng(73)
        full = rand_system(rng, 4, 1, 1)
        rep = h2_residuals(full, full)
        for norm in (rep.op1_norm, max(rep.op2_norms), rep.op3_norm, rep.op4_norm):
            assert norm <= 1e-8 * max(np.linalg.norm(full.A), 1.0)

    def test_random_rom_not_stationary(self):
        rng = np.random.default_rng(74)
        full = rand_system(rng, 5, 1, 1)
        rom = rand_system(rng, 2, 1, 1)
        rep = h2_residuals(full, rom)
        assert rep.op3_norm > 1e-3 * max(np.linalg.norm(full.B), 1e-12)

    def test_residual_norms_invariant_under_orthogonal_transform(self):
        rng = np.random.default_rng(75)
        full = rand_system(rng, 5, 1, 1)
        rom = rand_system(rng, 2, 1, 1)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        full_t = LqoSystem(
            q.T @ full.A @ q, q.T @ full.B, full.C @ q, [q.T @ full.M[0] @ q]
        )
        rep = h2_residuals(full, rom)
        rep_t = h2_residuals(full_t, rom)
        assert max(rep.op2_norms) == pytest.approx(max(rep_t.op2_norms), rel=1e-10)
        assert rep.op3_norm == pytest.approx(rep_t.op3_norm, rel=1e-10)
        assert rep.op4_norm == pytest.approx(rep_t.op4_norm, rel=1e-10)


class TestTheorem2:
    def test_scalar_scaled_to_identity_gramians(self):
        # scale b so the horizon-limited P is exactly 1 and pick c so the
        # combined observability block is exactly 1: the projection choice
        # and its premises then hold with V = W = [1]
        a, tau, m = -1.0, 1.0, 0.4
        g = (1.0 - math.exp(2.0 * a * tau)) / (-2.0 * a)
        b = math.sqrt(1.0 / g)
        c = math.sqrt(1.0 / g - 2.0 * m * m)
        sys1 = LqoSystem([[a]], [[b]], [[c]], [np.array([[m]])])
        pair = ProjectionPair(V=np.eye(1), W=np.eye(1))
        rep = theorem2_check(sys1, sys1, pair, TimeInterval(0.0, tau))
        assert rep.premise_input <= 1e-12
        assert rep.premise_output <= 1e-12
        assert rep.premise_quadratic <= 1e-12
        assert rep.conclusion_controllability <= 1e-8
        assert rep.conclusion_observability <= 1e-8

    def test_decoupled_diagonal_construction(self):
        tau = 0.8
        a_modes = [-1.0, -2.5]
        m_modes = [0.3, 0.2]
        bs, cs = [], []
        for a, m in zip(a_modes, m_modes):
            g = (1.0 - math.exp(2.0 * a * tau)) / (-2.0 * a)
            bs.append(math.sqrt(1.0 / g))
            cs.append(math.sqrt(1.0 / g - 2.0 * m * m))
        sys1 = LqoSystem(
            np.diag(a_modes),
            np.diag(bs),
            np.diag(cs),
            [np.diag([m_modes[0], 0.0]), np.diag([0.0, m_modes[1]])],
        )
        pair = ProjectionPair(V=np.eye(2), W=np.eye(2))
        rep = theorem2_check(sys1, sys1, pair, TimeInterval(0.0, tau))
        assert rep.conclusion_controllability <= 1e-8

    def test_generic_reduction_violates_premises(self):
        from lqomor.demo import demo_initial_guess, demo_system
        from lqomor.reductors import tlhnoia

        full = demo_system()
        report = tlhnoia(full, demo_initial_guess(), TimeInterval(0.0, 0.5))
        rep = theorem2_check(full, report.rom, report.projection, TimeInterval(0.0, 0.5))
        assert rep.premise_input > 0.0
        assert rep.premise_output > 0.0

    def test_zero_input_premise_vanishes(self):
        rng = np.random.default_rng(76)
        base = rand_system(rng, 3, 1, 1)
        full = LqoSystem(base.A, np.zeros((3, 1)), base.C, base.M)
        rom = LqoSystem(base.A[:2, :2], np.zeros((2, 1)), base.C[:, :2],
                        [base.M[0][:2, :2]], check_hurwitz=False)
        pair = ProjectionPair(V=np.eye(3)[:, :2], W=np.eye(3)[:, :2])
        rep = theorem2_check(full, rom, pair, TimeInterval(0.0, 1.0))
        assert rep.premise_input == 0.0

    @pytest.mark.parametrize("t0", [0.0, 0.2])
    def test_output_count_mismatch_is_dimension_error(self, t0):
        # checked before any premise product is formed
        rng = np.random.default_rng(78)
        full = rand_system(rng, 4, 1, 2)
        rom = rand_system(rng, 2, 1, 3)
        pair = ProjectionPair(V=np.eye(4)[:, :2], W=np.eye(4)[:, :2])
        with pytest.raises(DimensionError, match="input/output dimensions differ"):
            theorem2_check(full, rom, pair, TimeInterval(t0, 1.0))

    def test_zero_to_inf_has_no_premise_to_break(self):
        # no horizon boundary carries a term on [0, inf): only the
        # conclusions remain
        full = demo_system()
        report = homora(full, demo_initial_guess())
        iv = TimeInterval(0.0, INFINITE)
        rep = theorem2_check(full, report.rom, report.projection, iv)
        assert (rep.premise_input, rep.premise_output, rep.premise_quadratic) == (0.0, 0.0, 0.0)
        eye = np.eye(report.rom.order)
        ph = controllability_block(report.rom, report.rom, iv)
        gh = adjoint_block(report.rom, report.rom, iv)[0]
        assert rep.conclusion_controllability == np.linalg.norm(ph - eye, 2)
        assert rep.conclusion_observability == np.linalg.norm(gh - eye, 2)


def test_each_quantity_solves_only_the_blocks_it_reads(lapack_calls):
    # Pt, Ph and the [0, inf) adjoints Xt, Xh one solve each on every
    # horizon: Gt and Gh are Xt and Xh weighted at the horizon ends, and
    # on [0, inf) Xt and Xh themselves
    # Each quantity runs on a fresh pair, since the model keeps its own Ph,
    # Gh and Xh and the Pt, Gt and Xt of its pair: a second call on the same
    # pair solves nothing.
    n, r = 20, 4
    iv = TimeInterval(0.0, 0.5)
    pair = ProjectionPair(V=np.eye(n)[:, :r], W=np.eye(n)[:, :r])

    def solves(fun, calls=1):
        """Sorted trsyl shapes of the last of ``calls`` runs of ``fun``."""
        rng = np.random.default_rng(77)
        full = rand_system(rng, n, 2, 2)
        rom = rand_system(rng, r, 2, 2)
        for _ in range(calls):
            lapack_calls.trsyl.clear()
            fun(full, rom)
        return sorted(lapack_calls.trsyl)

    def theorem2(full, rom):
        return theorem2_check(full, rom, pair, iv)

    assert solves(h2_residuals) == [(r, r)] * 2 + [(n, r)] * 2
    for fun in (tl_residuals, gradients):
        assert solves(lambda full, rom: fun(full, rom, TimeInterval(0.0, INFINITE))) == (
            [(r, r)] * 2 + [(n, r)] * 2
        )
    assert solves(theorem2) == [(r, r)] * 2
    for fun in (tl_residuals, gradients):
        assert solves(lambda full, rom: fun(full, rom, iv)) == [(r, r)] * 2 + [(n, r)] * 2

    assert solves(h2_residuals, 2) == []
    assert solves(theorem2, 2) == []
    for fun in (tl_residuals, gradients):
        assert solves(lambda full, rom: fun(full, rom, iv), 2) == []
