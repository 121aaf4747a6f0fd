import math

import numpy as np
import pytest
import scipy.linalg as sla

from lqomor import gramians, matfun, norms, reductors
from lqomor.errors import (
    DimensionError, HurwitzError, NonFiniteError, RankError, SolverError,
)
from lqomor.demo import demo_system
from lqomor.gramians import (
    adjoint_block,
    balancing,
    controllability_block,
    cross_gramians,
    gramian_blocks,
    gramian_pair,
    hankel_singular_values,
    quadratic_kernel,
    timelimited_gramians,
)
from lqomor.matfun import LEAF, expm
from lqomor.model import INFINITE, LqoSystem, TimeInterval
from lqomor.norms import h2tau_error, h2tau_norm, output_energy
from lqomor.optimality import objective_J, tl_residuals
from lqomor.reductors import bt, tlbt, tlhnoia

from util import (
    dense_controllability_block, dense_observability_block, eigh_balancing, rand_lti,
    rand_system, shifted_to,
)


def scalar_system(a, b, c, m):
    return LqoSystem([[a]], [[b]], [[c]], [np.array([[m]])])


def equation_residuals(system, gset):
    """Re-substitute every Gramian into its defining equation."""
    a, b, c = system.A, system.B, system.C
    iv = gset.interval
    s0 = expm(a, iv.t_start)
    s1 = None if iv.is_infinite else expm(a, iv.t_end)

    def weight(k, left0, left1):
        out = left0 @ k @ left0.T
        if left1 is not None:
            out = out - left1 @ k @ left1.T
        return out

    res = {}
    res["P"] = a @ gset.P + gset.P @ a.T + weight(b @ b.T, s0, s1)
    res["Y"] = a.T @ gset.Y + gset.Y @ a + weight(
        c.T @ c, s0.T, None if s1 is None else s1.T
    )
    kern = sum(mi @ gset.P @ mi for mi in system.M)
    res["Z"] = a.T @ gset.Z + gset.Z @ a + weight(
        kern, s0.T, None if s1 is None else s1.T
    )
    return res


class TestTimelimitedGramians:
    def test_scalar_closed_form_finite(self):
        sys1 = scalar_system(-1.0, 1.0, 1.0, 0.0)
        g = timelimited_gramians(sys1, TimeInterval(0.0, 1.0))
        assert g.P[0, 0] == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-13)

    def test_scalar_infinite_horizon(self):
        sys1 = scalar_system(-1.0, 1.0, 1.0, 0.0)
        g = timelimited_gramians(sys1, TimeInterval(0.0, INFINITE))
        assert g.P[0, 0] == pytest.approx(0.5, rel=1e-13)
        assert g.Y[0, 0] == pytest.approx(0.5, rel=1e-13)

    def test_scalar_nested_quadratic_part(self):
        # Z solves A^T Z + Z A + M P M - S^T M P M S = 0 with this set's own P,
        # i.e. Z = P * (1 - e^(-2)) / 2 = P^2 for the unit scalar data.
        sys1 = scalar_system(-1.0, 1.0, 0.0, 1.0)
        g = timelimited_gramians(sys1, TimeInterval(0.0, 1.0))
        p = (1.0 - math.exp(-2.0)) / 2.0
        assert g.P[0, 0] == pytest.approx(p, rel=1e-13)
        assert g.Z[0, 0] == pytest.approx(p * p, rel=1e-13)

    def test_blocks_symmetric_psd_and_sum(self):
        rng = np.random.default_rng(21)
        sys1 = rand_system(rng, 6, 2, 2)
        g = timelimited_gramians(sys1, TimeInterval(0.2, 1.5))
        for name in ("P", "Y", "Z", "Q"):
            mat = getattr(g, name)
            assert np.linalg.norm(mat - mat.T) <= 1e-12 * max(np.linalg.norm(mat), 1e-30)
        for name in ("P", "Y", "Z"):
            w = np.linalg.eigvalsh(getattr(g, name))
            assert w.min() >= -1e-10 * max(w.max(), 1e-30)
        assert np.array_equal(g.Q, g.Y + g.Z)

    def test_equation_residuals(self):
        rng = np.random.default_rng(22)
        for interval in (TimeInterval(0.0, 0.8), TimeInterval(0.4, 2.0),
                         TimeInterval(0.0, INFINITE), TimeInterval(0.5, INFINITE)):
            sys1 = rand_system(rng, 5, 2, 1)
            g = timelimited_gramians(sys1, interval)
            for name, res in equation_residuals(sys1, g).items():
                x = getattr(g, name)
                scale = np.linalg.norm(sys1.A) * np.linalg.norm(x) + 1.0
                assert np.linalg.norm(res) <= 1e-10 * scale, name

    def test_monotone_in_horizon_length(self):
        rng = np.random.default_rng(23)
        sys1 = rand_system(rng, 5, 1, 1)
        g1 = timelimited_gramians(sys1, TimeInterval(0.0, 0.7))
        g2 = timelimited_gramians(sys1, TimeInterval(0.0, 1.9))
        for name in ("P", "Y", "Z", "Q"):
            diff = getattr(g2, name) - getattr(g1, name)
            w = np.linalg.eigvalsh((diff + diff.T) / 2.0)
            assert w.min() >= -1e-10 * max(np.linalg.norm(diff), 1e-30)

    def test_long_horizon_matches_infinite(self):
        rng = np.random.default_rng(24)
        sys1 = rand_system(rng, 5, 1, 2)
        tau = 100.0 / abs(np.linalg.eigvals(sys1.A).real.max())
        gt = timelimited_gramians(sys1, TimeInterval(0.0, tau))
        gi = timelimited_gramians(sys1, TimeInterval(0.0, INFINITE))
        for name in ("P", "Y", "Z", "Q"):
            a, b = getattr(gt, name), getattr(gi, name)
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(b), 1e-30)

    def test_additive_over_subintervals(self):
        # P and Y are linear in the horizon; Z and Q are not (their equations
        # nest the interval's own P), so additivity is asserted for P and Y
        # on quadratic systems and for every block when the quadratic part
        # vanishes.
        rng = np.random.default_rng(25)
        sys1 = rand_system(rng, 5, 1, 1)
        t1, t2 = 0.6, 1.4
        g_full = timelimited_gramians(sys1, TimeInterval(0.0, t2))
        g_head = timelimited_gramians(sys1, TimeInterval(0.0, t1))
        g_tail = timelimited_gramians(sys1, TimeInterval(t1, t2))
        for name in ("P", "Y"):
            lhs = getattr(g_tail, name)
            rhs = getattr(g_full, name) - getattr(g_head, name)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)
        lti = rand_lti(rng, 4, 2, 2)
        g_full = timelimited_gramians(lti, TimeInterval(0.0, t2))
        g_head = timelimited_gramians(lti, TimeInterval(0.0, t1))
        g_tail = timelimited_gramians(lti, TimeInterval(t1, t2))
        for name in ("P", "Y", "Z", "Q"):
            lhs = getattr(g_tail, name)
            rhs = getattr(g_full, name) - getattr(g_head, name)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

    def test_infinite_horizon_requires_stability(self):
        unstable = LqoSystem(
            [[1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))], check_hurwitz=False
        )
        with pytest.raises(HurwitzError):
            timelimited_gramians(unstable, TimeInterval(0.0, INFINITE))
        # finite horizons remain well posed
        g = timelimited_gramians(unstable, TimeInterval(0.0, 1.0))
        assert g.P[0, 0] == pytest.approx((math.exp(2.0) - 1.0) / 2.0, rel=1e-12)


class TestCrossGramians:
    def test_identical_pair_degenerates(self):
        rng = np.random.default_rng(26)
        sys1 = rand_system(rng, 4, 1, 2)
        for interval in (TimeInterval(0.0, 1.1), TimeInterval(0.0, INFINITE)):
            cg = cross_gramians(sys1, sys1, interval)
            g = timelimited_gramians(sys1, interval)
            for pair in (("Pt", "P"), ("Ph", "P"), ("Qt", "Q"), ("Qh", "Q")):
                lhs = getattr(cg, pair[0])
                rhs = getattr(g, pair[1])
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_scalar_sylvester_closed_form(self):
        full = scalar_system(-1.0, 1.0, 1.0, 0.0)
        rom = scalar_system(-2.0, 1.0, 1.0, 0.0)
        cg = cross_gramians(full, rom, TimeInterval(0.0, INFINITE))
        assert cg.Pt[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_infinite_horizon_equation_residuals(self):
        rng = np.random.default_rng(27)
        full = rand_system(rng, 6, 2, 2)
        rom = rand_system(rng, 3, 2, 2)
        cg = cross_gramians(full, rom, TimeInterval(0.0, INFINITE))
        a, ah = full.A, rom.A
        b, bh = full.B, rom.B
        c, ch = full.C, rom.C
        checks = {
            "Pt": a @ cg.Pt + cg.Pt @ ah.T + b @ bh.T,
            "Ph": ah @ cg.Ph + cg.Ph @ ah.T + bh @ bh.T,
            "Yt": a.T @ cg.Yt + cg.Yt @ ah + c.T @ ch,
            "Yh": ah.T @ cg.Yh + cg.Yh @ ah + ch.T @ ch,
            "Zt": a.T @ cg.Zt + cg.Zt @ ah
            + sum(mi @ cg.Pt @ mhi for mi, mhi in zip(full.M, rom.M)),
            "Zh": ah.T @ cg.Zh + cg.Zh @ ah
            + sum(mhi @ cg.Ph @ mhi for mhi in rom.M),
        }
        for name, res in checks.items():
            x = getattr(cg, name)
            scale = np.linalg.norm(a) * np.linalg.norm(x) + 1.0
            assert np.linalg.norm(res) <= 1e-10 * scale, name
        assert np.array_equal(cg.Qt, cg.Yt + cg.Zt)
        assert np.array_equal(cg.Qh, cg.Yh + cg.Zh)

    def test_general_interval_matches_error_system_partition(self):
        # blocks of the pair must agree with the partition of the stacked
        # error realization's Gramians (the sign convention flips the mixed
        # observability blocks)
        rng = np.random.default_rng(28)
        full = rand_system(rng, 5, 1, 1)
        rom = rand_system(rng, 2, 1, 1)
        interval = TimeInterval(0.3, 1.7)
        cg = cross_gramians(full, rom, interval)
        from lqomor.model import error_system

        esys = error_system(full, rom)
        ge = timelimited_gramians(esys, interval)
        n = full.order
        assert np.allclose(ge.P[:n, n:], cg.Pt, atol=1e-11 * np.linalg.norm(ge.P))
        assert np.allclose(ge.P[n:, n:], cg.Ph, atol=1e-11 * np.linalg.norm(ge.P))
        assert np.allclose(ge.Y[:n, n:], -cg.Yt, atol=1e-11 * np.linalg.norm(ge.Y))
        assert np.allclose(ge.Z[:n, n:], -cg.Zt, atol=1e-11 * np.linalg.norm(ge.Z))
        assert np.allclose(ge.Q[n:, n:], cg.Qh, atol=1e-11 * np.linalg.norm(ge.Q))

    def test_rejects_incompatible_io(self):
        rng = np.random.default_rng(29)
        with pytest.raises(DimensionError):
            cross_gramians(
                rand_system(rng, 4, 1, 1), rand_system(rng, 2, 2, 1), TimeInterval(0, 1)
            )


class TestGramianBlocks:
    @pytest.mark.parametrize(
        "iv", [TimeInterval(0.2, 1.5), TimeInterval(0.0, INFINITE)], ids=["finite", "infinite"]
    )
    def test_every_triple_comes_from_the_builder(self, iv):
        rng = np.random.default_rng(91)
        full = rand_system(rng, 6, 2, 2)
        rom = rand_system(rng, 3, 2, 2)
        gset = timelimited_gramians(rom, iv)
        cg = cross_gramians(full, rom, iv)
        p, y, z = gramian_blocks(rom, rom, iv)
        for block, own, reduced in ((p, gset.P, cg.Ph), (y, gset.Y, cg.Yh), (z, gset.Z, cg.Zh)):
            assert np.array_equal(block, own)
            assert np.array_equal(block, reduced)
        for block, mixed in zip(gramian_blocks(full, rom, iv), (cg.Pt, cg.Yt, cg.Zt)):
            assert np.array_equal(block, mixed)
        # G = Y + 2 Z from one solve, also for a non-Hurwitz model on a
        # finite horizon
        roms = [rom] if iv.is_infinite else [rom, shifted_to(rom, 0.7)]
        for r in roms:
            for left in (full, r):
                p, y, z = gramian_blocks(left, r, iv)
                g = y + 2.0 * z
                assert np.linalg.norm(adjoint_block(left, r, iv)[0] - g) <= (
                    1e-12 * np.linalg.norm(g)
                )

    def test_mixed_blocks_skip_the_hurwitz_test(self):
        # a reductor's unstable iterate still gets its infinite-horizon blocks
        rng = np.random.default_rng(92)
        full = rand_system(rng, 4, 1, 1)
        rom = LqoSystem([[0.5]], [[1.0]], [[1.0]], [np.array([[0.2]])], check_hurwitz=False)
        iv = TimeInterval(0.0, INFINITE)
        pt, yt, zt = gramian_blocks(full, rom, iv)
        assert pt.shape == yt.shape == zt.shape == (4, 1)
        rhs = full.B @ rom.B.T
        res = full.A @ pt + pt @ rom.A.T + rhs
        scale = np.linalg.norm(full.A) * np.linalg.norm(pt) + np.linalg.norm(rhs)
        assert np.linalg.norm(res) <= 1e-12 * scale
        with pytest.raises(HurwitzError):
            cross_gramians(full, rom, iv)


class TestHankelSingularValues:
    def test_identity_pair(self):
        spec = hankel_singular_values(np.eye(3), np.eye(3))
        assert np.allclose(spec.sigma, [1.0, 1.0, 1.0])

    def test_diagonal_closed_form(self):
        spec = hankel_singular_values(np.diag([4.0, 1.0]), np.diag([9.0, 1.0]))
        assert np.allclose(spec.sigma, [6.0, 1.0])

    def test_zero_observability(self):
        spec = hankel_singular_values(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        assert np.array_equal(spec.sigma, [0.0, 0.0])

    def test_nonincreasing_and_real_on_random_gramians(self):
        rng = np.random.default_rng(30)
        sys1 = rand_system(rng, 6, 1, 1)
        g = timelimited_gramians(sys1, TimeInterval(0.0, 1.0))
        spec = hankel_singular_values(g.P, g.Q)
        assert (np.diff(spec.sigma) <= 1e-12).all()
        assert (spec.sigma >= 0.0).all()

    def test_equals_the_balancing_spectrum_of_tlbt(self):
        sys1 = demo_system()
        iv = TimeInterval(0.0, 0.5)
        spec = hankel_singular_values(*gramian_pair(sys1, iv))
        assert np.array_equal(spec.sigma, tlbt(sys1, 3, iv).sigma)

    def test_indefinite_q_rejected(self):
        with pytest.raises(SolverError):
            hankel_singular_values(np.eye(2), np.diag([1.0, -1.0]))

    def test_indefinite_p_rejected(self):
        with pytest.raises(SolverError):
            hankel_singular_values(np.diag([1.0, -1.0]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hankel_singular_values(np.eye(2), np.eye(3))


class TestPivotedCholeskyBalancing:
    """The balancing of pivoted Cholesky factors against
    :func:`util.eigh_balancing` of the same P and Q.  Two factorizations of
    the same rounded Gramians agree on sigma_i to about
    ``N eps (sigma_1 / sigma_i)^2`` relative, and the truncated models they
    give have the same poles."""

    HORIZONS = [TimeInterval(0.0, 0.5), TimeInterval(0.1, 1.0), TimeInterval(0.0, INFINITE)]

    @staticmethod
    def system(case):
        if case == "bench6":
            return demo_system()
        return rand_system(np.random.default_rng(0), case, 2, 2)

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    @pytest.mark.parametrize("case", ["bench6", 30, 60, 150])
    def test_sigma_within_the_factorization_bound(self, case, iv):
        system = self.system(case)
        p, q = gramian_pair(system, iv)
        sigma = hankel_singular_values(p, q).sigma
        oracle = eigh_balancing(p, q)[0]
        kept = oracle >= 1e-6 * oracle[0]
        bound = system.order * np.finfo(float).eps * (oracle[0] / oracle[kept]) ** 2
        assert (abs(sigma[kept] - oracle[kept]) <= bound * oracle[kept]).all()

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    @pytest.mark.parametrize("case, order", [("bench6", 3), (30, 10), (150, 10)])
    def test_truncated_poles_match_the_eigh_route(self, case, order, iv):
        system = self.system(case)
        report = bt(system, order) if iv.is_infinite else tlbt(system, order, iv)
        sigma, w, v = eigh_balancing(*gramian_pair(system, iv))
        scale = sigma[:order] ** -0.5
        oracle = reductors._project(system, v[:, :order] * scale, w[:, :order] * scale)
        want, got = (np.sort_complex(m.poles()) for m in (oracle, report.rom))
        assert (abs(got - want) <= 1e-8 * abs(want)).all()


#: The three horizon kinds of a controllability block: [0, inf) is the plain
#: solve, t0 = 0 weights it at t1 alone, and [t0, t1] at both ends.
HORIZONS = [TimeInterval(0.0, INFINITE), TimeInterval(0.0, 0.4), TimeInterval(0.1, 0.4)]


def dense_output_energy(left, right, p):
    """``trace(C_l P C_r^T) + sum_i trace(M_l,i P M_r,i P^T)`` as written."""
    return float(np.sum((left.C @ p) * right.C) + np.sum(quadratic_kernel(left, right, p) * p))


def transient_system():
    """Hurwitz A with a 1e11 transient: e^(A t) B overflows at t = 0.5 and 1,
    and so does B B^T."""
    return LqoSystem(
        [[-1.0, 1e11], [0.0, -1.0]], [[0.0], [1e298]], [[1.0, 0.0]], [np.zeros((2, 2))]
    )


def large_input_system():
    """Finite factors whose product ``B B^T = 1e400`` overflows."""
    return LqoSystem([[-1.0]], [[1e200]], [[1.0]], [np.zeros((1, 1))])


class TestFactoredControllability:
    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    @pytest.mark.parametrize("kind", ["self", "pair"])
    @pytest.mark.parametrize("n", [6, LEAF, LEAF + 1, 200])
    def test_matches_the_dense_kernel(self, n, kind, iv):
        rng = np.random.default_rng(n)
        full = rand_system(rng, n, 2, 2)
        right = full if kind == "self" else rand_system(rng, 3 if n == 6 else 5, 2, 2)
        x = controllability_block(full, right, iv)
        ref = dense_controllability_block(full, right, iv)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        if kind == "self":
            assert np.array_equal(x, x.T)

    @pytest.mark.parametrize(
        "iv",
        [TimeInterval(0.0, 0.3), TimeInterval(0.05, 0.3), TimeInterval(0.0, INFINITE)],
        ids=str,
    )
    @pytest.mark.parametrize("n", [150, 400])
    def test_norm_and_error_match_the_dense_kernel(self, n, iv):
        full = rand_system(np.random.default_rng(0), n, 2, 2)
        rom = rand_system(np.random.default_rng(1), 10, 2, 2)
        norm2 = dense_output_energy(full, full, dense_controllability_block(full, full, iv))
        assert h2tau_norm(full, iv).value ** 2 == pytest.approx(norm2, rel=1e-12)
        terms = [norm2] + [
            dense_output_energy(left, right, dense_controllability_block(left, right, iv))
            for left, right in ((full, rom), (rom, rom))
        ]
        got = h2tau_error(full, rom, iv).decomposition
        assert got == pytest.approx(terms, rel=1e-12)
        radicand = lambda t: t[0] - 2.0 * t[1] + t[2]  # noqa: E731
        scale = abs(terms[0]) + 2.0 * abs(terms[1]) + abs(terms[2])
        assert abs(radicand(got) - radicand(terms)) <= 1e-12 * scale

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    @pytest.mark.parametrize("make", [transient_system, large_input_system])
    def test_overflow_is_the_right_hand_side_error(self, make, iv):
        # the dense kernel overflows too, which the Gramian builders have
        # always reported as this SolverError
        system = make()
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError):
                dense_controllability_block(system, system, iv)
            with pytest.raises(SolverError) as exc:
                controllability_block(system, system, iv)
        assert str(exc.value) == "controllability Gramian right-hand side overflowed"
        assert exc.value.context == {"side": "controllability"}

    def test_output_energy_reads_trace_of_the_square(self):
        # an M_i asymmetric at rounding level is kept as given, and the norm
        # is sum_i trace(M_i P M_i P) for it
        rng = np.random.default_rng(61)
        base = rand_system(rng, 30, 2, 2)
        skew = rng.normal(size=(30, 30))
        mats = [mi + 1e-15 * np.linalg.norm(mi) * (skew - skew.T) for mi in base.M]
        system = LqoSystem(base.A, base.B, base.C, mats)
        assert all(np.array_equal(mi, m0) for mi, m0 in zip(system.M, mats))
        assert all(not np.array_equal(mi, mi.T) for mi in system.M)
        iv = TimeInterval(0.1, 0.6)
        p = controllability_block(system, system, iv)
        expected = np.trace(system.C @ p @ system.C.T) + sum(
            np.trace(mi @ p @ mi @ p) for mi in system.M
        )
        assert output_energy(system, system, p) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 6, LEAF])
    def test_small_self_block_is_scipys_lyapunov_solution(self, n):
        # at most LEAF rows the solve is one trsyl call on the kernel B B^T
        # transformed as scipy transforms it, so the two agree bit for bit
        system = rand_system(np.random.default_rng(n), n, 2, 2)
        x = sla.solve_continuous_lyapunov(system.A, -(system.B @ system.B.T))
        p = controllability_block(system, system, TimeInterval(0.0, INFINITE))
        assert np.array_equal(p, (x + x.T) / 2.0)

    def test_no_dense_controllability_kernel(self, monkeypatch):
        """norm, error, bt and tlbt make one controllability solve per pair,
        of the plain kernel ``B_l B_r^T`` on [0, inf) that every horizon
        weights, so no horizon forms a weighted kernel."""
        controllability = []
        solve = gramians._solve

        def solving(left, right, side, q):
            if side == "controllability":
                controllability.append((left, right, q))
            return solve(left, right, side, q)

        monkeypatch.setattr(gramians, "_solve", solving)
        iv = TimeInterval(0.1, 0.5)
        # each run on a fresh pair, since a system keeps its own block and
        # the model the block of the pair; the count of controllability
        # solves of each run
        runs = [
            (lambda full, rom: h2tau_norm(full, iv), 1),
            (lambda full, rom: h2tau_error(full, rom, iv), 3),
            (lambda full, rom: h2tau_error(full, rom, TimeInterval(0.0, INFINITE)), 3),
            (lambda full, rom: bt(full, 4), 1),
            (lambda full, rom: tlbt(full, 4, iv), 1),
        ]
        for run, count in runs:
            rng = np.random.default_rng(62)
            full = rand_system(rng, 2 * LEAF, 2, 2)
            rom = rand_system(rng, 4, 2, 2)
            controllability.clear()
            run(full, rom)
            pairs = set()
            for left, right, q in controllability:
                assert {left, right} <= {full, rom}
                assert np.array_equal(q, left.B @ right.B.T)
                pairs.add((id(left), id(right)))
            assert len(controllability) == len(pairs) == count
            controllability.clear()
            run(full, rom)
            assert controllability == []


class TestHorizonRule:
    """Every block of a horizon is the [0, inf) solve of its kernel weighted
    at the horizon ends, and equals the solve of the weighted kernel."""

    @staticmethod
    def close(x, ref):
        return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "iv, unstable",
        [
            (TimeInterval(0.0, 0.7), False), (TimeInterval(0.2, 1.1), False),
            (TimeInterval(0.3, INFINITE), False),
            # an infinite horizon needs a Hurwitz A, a finite one does not
            (TimeInterval(0.0, 0.7), True), (TimeInterval(0.2, 1.1), True),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("n", [6, 2 * LEAF + 3])
    def test_blocks_equal_the_weighted_kernel_solves(self, n, iv, unstable):
        rng = np.random.default_rng(n)
        full, rom = rand_system(rng, n, 2, 2), rand_system(rng, 3, 2, 2)
        if unstable:
            full, rom = shifted_to(full, 0.6), shifted_to(rom, 0.4)
        p, q = gramian_pair(full, iv)
        p_ref = dense_controllability_block(full, full, iv)
        q_kern = full.C.T @ full.C + quadratic_kernel(full, full, p_ref)
        assert self.close(p, p_ref) and np.array_equal(p, p.T)
        assert self.close(q, dense_observability_block(full, full, iv, q_kern))
        assert np.array_equal(q, q.T)
        for left in (full, rom):
            pt = controllability_block(left, rom, iv)
            pt_ref = dense_controllability_block(left, rom, iv)
            assert self.close(pt, pt_ref)
            kern = left.C.T @ rom.C + 2.0 * quadratic_kernel(left, rom, pt_ref)
            gt, xt = adjoint_block(left, rom, iv)
            assert self.close(gt, dense_observability_block(left, rom, iv, kern))
            inf = TimeInterval(0.0, INFINITE)
            assert self.close(xt, dense_observability_block(left, rom, inf, kern))

    def test_finite_horizons_weight_the_infinite_horizon_solve(self):
        rng = np.random.default_rng(7)
        full, rom = rand_system(rng, 6, 2, 2), rand_system(rng, 3, 2, 2)
        iv = TimeInterval(0.2, 1.1)
        e0, e1 = (expm(full.A, t) for t in (0.2, 1.1))
        f0, f1 = (expm(rom.A, t) for t in (0.2, 1.1))
        inf = TimeInterval(0.0, INFINITE)
        x = controllability_block(full, rom, inf)
        assert np.array_equal(
            controllability_block(full, rom, iv), e0 @ x @ f0.T - e1 @ x @ f1.T
        )
        gt, xt = adjoint_block(full, rom, iv)
        assert np.array_equal(gt, e0.T @ xt @ f0 - e1.T @ xt @ f1)
        g, x = adjoint_block(full, rom, inf)
        assert g is x


class TestGramianMemo:
    """A system's own P and Q, their balancing, its ||H||^2 and its boundary
    exponentials are computed once per horizon and kept for the
    GRAMIAN_MEMO most recently used horizons.  Every horizon weights the
    [0, inf) P, so a finite horizon uses [0, inf) too, just before itself."""

    N = LEAF
    IV = TimeInterval(0.1, 0.5)
    INF = TimeInterval(0.0, INFINITE)

    def fresh(self):
        return rand_system(np.random.default_rng(63), self.N, 2, 2)

    def full_solves(self, lapack_calls):
        """(N, N) trsyl calls since the log was last cleared."""
        return lapack_calls.trsyl.count((self.N, self.N))

    def balancings(self, lapack_calls):
        """``(eigvalsh, dpstrf, svd)`` calls since the logs were last
        cleared, the first two of (N, N) matrices: one balancing tests and
        factors P and Q once each and takes one SVD of their factors."""
        full = (self.N, self.N)
        return (lapack_calls.eigvalsh.count(full), lapack_calls.dpstrf.count(full),
                len(lapack_calls.svd))

    @staticmethod
    def clear(lapack_calls):
        for log in (lapack_calls.trsyl, lapack_calls.eigvalsh, lapack_calls.dpstrf,
                    lapack_calls.svd):
            log.clear()

    @pytest.mark.parametrize("quantity", ["norm", "error", "hsv"])
    def test_second_call_makes_no_full_order_solve(self, lapack_calls, quantity):
        system = self.fresh()
        rom = rand_system(np.random.default_rng(64), 4, 2, 2)
        run = {
            "norm": lambda: h2tau_norm(system, self.IV),
            "error": lambda: h2tau_error(system, rom, self.IV),
            "hsv": lambda: hankel_singular_values(*gramian_pair(system, self.IV)),
        }[quantity]
        run()
        assert self.full_solves(lapack_calls) == (2 if quantity == "hsv" else 1)
        lapack_calls.trsyl.clear()
        run()
        assert self.full_solves(lapack_calls) == 0

    @pytest.mark.parametrize("quantity", ["hsv", "bt", "tlbt"])
    def test_second_call_balances_no_more(self, lapack_calls, quantity):
        system = self.fresh()
        run = {
            "hsv": lambda: balancing(system, self.IV),
            "bt": lambda: bt(system, 3),
            "tlbt": lambda: tlbt(system, 3, self.IV),
        }[quantity]
        run()
        assert self.balancings(lapack_calls) == (2, 2, 1)
        self.clear(lapack_calls)
        run()
        assert self.balancings(lapack_calls) == (0, 0, 0)
        assert self.full_solves(lapack_calls) == 0

    def test_tlbt_at_several_orders_solves_p_and_q_once(self, lapack_calls):
        system = self.fresh()
        for n in range(2, 6):
            tlbt(system, n, self.IV)
        assert self.full_solves(lapack_calls) == 2
        assert self.balancings(lapack_calls) == (2, 2, 1)

    @pytest.mark.parametrize("first", ["bt", "tlbt"])
    def test_bt_and_tlbt_share_one_lyapunov_solve(self, lapack_calls, first):
        # the P of tlbt weights the [0, inf) P of bt: P, Q of one method,
        # then the Q of the other
        system = self.fresh()
        runs = [lambda: bt(system, 3), lambda: tlbt(system, 3, self.IV)]
        if first == "tlbt":
            runs.reverse()
        runs[0]()
        assert self.full_solves(lapack_calls) == 2
        runs[1]()
        assert self.full_solves(lapack_calls) == 3
        assert list(system.gramian_memo) == (
            [self.IV, self.INF] if first == "tlbt" else [self.INF, self.IV]
        )

    def test_warm_hsv_is_the_sigma_of_tlbt(self):
        system = self.fresh()
        sigma = tlbt(system, 3, self.IV).sigma
        assert np.array_equal(balancing(system, self.IV).sigma, sigma)
        fresh = hankel_singular_values(*gramian_pair(self.fresh(), self.IV))
        assert np.array_equal(fresh.sigma, sigma)

    def test_rank_error_leaves_the_memo_usable(self, lapack_calls):
        # the second state is unreachable and unobservable: numerical rank 1
        def make():
            return LqoSystem(
                np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0]], [np.zeros((2, 2))]
            )

        system = make()
        for _ in range(2):
            with pytest.raises(RankError):
                tlbt(system, 2, self.IV)
        kept = system.gramian_memo[self.IV]["balancing"]
        rom = tlbt(system, 1, self.IV).rom
        assert system.gramian_memo[self.IV]["balancing"] is kept
        assert len(lapack_calls.svd) == 1
        assert np.array_equal(rom.A, tlbt(make(), 1, self.IV).rom.A)

    def test_failed_factorization_keeps_no_balancing(self, monkeypatch):
        system = self.fresh()
        p, q = gramian_pair(system, self.IV)
        factor = gramians._psd_factor

        def failing(x, name):
            raise SolverError(f"{name} failed")

        monkeypatch.setattr(gramians, "_psd_factor", failing)
        with pytest.raises(SolverError):
            balancing(system, self.IV)
        assert set(system.gramian_memo[self.IV]) == {"P", "Q", "expm_t0", "expm_t1"}
        monkeypatch.setattr(gramians, "_psd_factor", factor)
        bal = balancing(system, self.IV)
        assert system.gramian_memo[self.IV]["balancing"] is bal
        assert gramian_pair(system, self.IV) == (p, q)

    def test_results_equal_those_of_a_fresh_system(self):
        system = self.fresh()
        rom = rand_system(np.random.default_rng(64), 4, 2, 2)

        def results(full, model):
            return [
                h2tau_norm(full, self.IV).value,
                *h2tau_error(full, model, self.IV).decomposition,
                *h2tau_error(full, model, TimeInterval(0.0, INFINITE)).decomposition,
                *hankel_singular_values(*gramian_pair(full, self.IV)).sigma,
                *tlbt(full, 3, self.IV).rom.A.ravel(),
                *bt(full, 3).rom.C.ravel(),
                *bt(full, 5).rom.A.ravel(),
                *balancing(full, self.IV).sigma,
            ]

        first = results(system, rom)
        warm = results(system, rom)
        cold = results(self.fresh(), rand_system(np.random.default_rng(64), 4, 2, 2))
        assert first == warm == cold

    @pytest.mark.parametrize("iv", [IV, TimeInterval(0.0, INFINITE)], ids=str)
    def test_kept_gramians_are_read_only(self, iv):
        system = self.fresh()
        p, q = gramian_pair(system, iv)
        gset = timelimited_gramians(system, iv)
        assert gset.P is p
        for x in (p, q, controllability_block(system, system, iv)):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0.0
        assert system.gramian_memo[iv]["P"] is p and system.gramian_memo[iv]["Q"] is q

    @pytest.mark.parametrize("iv", [IV, TimeInterval(0.0, INFINITE)], ids=str)
    def test_kept_balancing_is_read_only(self, iv):
        system = self.fresh()
        report = bt(system, 3) if iv.is_infinite else tlbt(system, 3, iv)
        bal = balancing(system, iv)
        assert system.gramian_memo[iv]["balancing"] is bal and report.sigma is bal.sigma
        # N x k bases, k the lower rank of the pivoted Cholesky factors
        k = min(gramians._psd_factor(x, "")[0].shape[1] for x in gramian_pair(system, iv))
        assert bal.W.shape == bal.V.shape == (self.N, k)
        assert (bal.sigma[:k] > 0.0).all() and not bal.sigma[k:].any()
        for x in (bal.sigma, bal.W, bal.V):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0

    def test_third_horizon_evicts_the_least_recently_used(self, lapack_calls):
        assert gramians.GRAMIAN_MEMO == 2
        system = self.fresh()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, first, third):
            h2tau_norm(system, iv)
        # each finite horizon used [0, inf) just before itself
        assert list(system.gramian_memo) == [self.INF, third]
        assert set(system.gramian_memo[self.INF]) == {"P"}
        assert self.full_solves(lapack_calls) == 1
        lapack_calls.trsyl.clear()
        h2tau_norm(system, third)
        assert system.gramian_memo[third]["P"] is controllability_block(system, system, third)
        h2tau_norm(system, second)
        assert self.full_solves(lapack_calls) == 0
        assert list(system.gramian_memo) == [self.INF, second]
        h2tau_norm(system, self.INF)
        h2tau_norm(system, first)
        assert list(system.gramian_memo) == [self.INF, first]
        assert self.full_solves(lapack_calls) == 0

    def test_third_horizon_evicts_the_balancing_with_p_and_q(self, lapack_calls):
        system = self.fresh()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, third):
            balancing(system, iv)
        assert list(system.gramian_memo) == [self.INF, third]
        assert set(system.gramian_memo[self.INF]) == {"P"}
        assert set(system.gramian_memo[third]) == {"P", "Q", "balancing", "expm_t1"}
        self.clear(lapack_calls)
        # Q is solved again, P weighted from the kept [0, inf) P
        balancing(system, first)
        assert self.full_solves(lapack_calls) == 1
        assert self.balancings(lapack_calls) == (2, 2, 1)
        assert list(system.gramian_memo) == [self.INF, first]

    @pytest.fixture()
    def energies(self, monkeypatch):
        """The system of every output energy of a system with itself that
        the norms evaluate from here on."""
        calls = []
        energy = norms.output_energy

        def counting(left, right, p):
            if left is right:
                calls.append(left)
            return energy(left, right, p)

        monkeypatch.setattr(norms, "output_energy", counting)
        return calls

    def test_error_then_norm_evaluate_the_energy_once(self, energies):
        system = self.fresh()
        rom = rand_system(np.random.default_rng(64), 4, 2, 2)
        for _ in range(2):
            first = h2tau_error(system, rom, self.IV).decomposition[0]
            value = h2tau_norm(system, self.IV).value
        assert energies.count(system) == 1 and energies.count(rom) == 1
        assert system.gramian_memo[self.IV]["energy"] == first and value == np.sqrt(first)
        assert set(system.gramian_memo[self.IV]) == {"P", "energy", "expm_t0", "expm_t1"}

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_kept_energy_equals_that_of_a_fresh_system(self, iv):
        system = self.fresh()
        rom = rand_system(np.random.default_rng(64), 4, 2, 2)
        kept = h2tau_norm(system, iv).value
        decomposition = h2tau_error(system, rom, iv).decomposition
        fresh = self.fresh()
        energy = output_energy(fresh, fresh, controllability_block(fresh, fresh, iv))
        assert system.gramian_memo[iv]["energy"].hex() == energy.hex()
        assert decomposition[0].hex() == energy.hex()
        assert kept.hex() == h2tau_norm(self.fresh(), iv).value.hex()
        assert decomposition == h2tau_error(self.fresh(), rom, iv).decomposition

    def test_third_horizon_evicts_the_energy(self, energies):
        system = self.fresh()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, first, third):
            h2tau_norm(system, iv)
        assert list(system.gramian_memo) == [self.INF, third]
        assert "energy" in system.gramian_memo[third]
        energies.clear()
        h2tau_norm(system, third)
        assert energies == []
        h2tau_norm(system, first)
        assert energies == [system]
        assert list(system.gramian_memo) == [self.INF, first]

    def test_overflowing_energy_keeps_nothing(self):
        # P is finite, but trace((M P)^2) overflows
        system = scalar_system(-1.0, 1.0, 1.0, 1e200)
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(SolverError):
                h2tau_norm(system, self.IV)
            assert set(system.gramian_memo[self.IV]) == {"P", "expm_t0", "expm_t1"}

    def test_non_hurwitz_system_raises_on_every_infinite_horizon_call(self):
        # a kept energy does not skip the Hurwitz test of [0, inf)
        system = LqoSystem(
            np.diag([1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [np.eye(2)],
            check_hurwitz=False,
        )
        rom = scalar_system(-1.0, 1.0, 1.0, 1.0)
        infinite = TimeInterval(0.0, INFINITE)
        finite = h2tau_norm(system, self.IV).value
        norms._inner(system, system, infinite)
        assert "energy" in system.gramian_memo[infinite]
        for _ in range(2):
            with pytest.raises(HurwitzError):
                h2tau_norm(system, infinite)
            with pytest.raises(HurwitzError):
                h2tau_error(system, rom, infinite)
        assert h2tau_norm(system, self.IV).value == finite

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_failed_solve_keeps_nothing(self, iv):
        # the 1e11 transient of transient_system with a smaller B: P
        # overflows on [0, inf), which every horizon weights
        system = LqoSystem(
            [[-1.0, 1e11], [0.0, -1.0]], [[0.0], [1e145]], [[1.0, 0.0]], [np.zeros((2, 2))]
        )
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(SolverError):
                controllability_block(system, system, iv)
            # no Gramian is kept; the exponentials the weights read stay
            assert not any("P" in facts for facts in system.gramian_memo.values())
            assert set(system.gramian_memo.get(iv, {})) <= {"expm_t0", "expm_t1"}

    @pytest.mark.xfail(
        strict=True,
        raises=SolverError,
        reason="P on [0, 0.001] is finite, but every horizon weights the [0, inf) "
        "solve, which overflows; ROADMAP item 17's doubling forms P(tau) without it",
    )
    def test_finite_block_of_an_overflowing_infinite_horizon_solve(self):
        system = LqoSystem(
            [[-1.0, 1e11], [0.0, -1.0]], [[0.0], [1e145]], [[1.0, 0.0]], [np.zeros((2, 2))]
        )
        iv = TimeInterval(0.0, 0.001)
        with np.errstate(all="ignore"):
            p = controllability_block(system, system, iv)
        assert np.allclose(p, dense_controllability_block(system, system, iv), rtol=1e-6, atol=0)
        assert controllability_block(system, system, iv) is p

    @pytest.mark.parametrize(
        "iv", [TimeInterval(0.0, 400.0), TimeInterval(0.1, 400.0)], ids=str
    )
    def test_overflowing_weights_keep_the_infinite_horizon_solve(self, lapack_calls, iv):
        # A = 1: the [0, inf) solve -1/2 and the block of [0, 1] are finite,
        # but e^(A t) P e^(A t) overflows at t = 400
        system = LqoSystem([[1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))], check_hurwitz=False)
        short = TimeInterval(0.0, 1.0)
        p = controllability_block(system, system, short)
        inf = system.gramian_memo[self.INF]["P"]
        assert inf.tolist() == [[-0.5]]
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(SolverError) as exc:
                controllability_block(system, system, iv)
            assert str(exc.value) == "controllability Gramian right-hand side overflowed"
            assert exc.value.context == {"side": "controllability"}
            assert list(system.gramian_memo) == [self.INF, iv]
            assert set(system.gramian_memo[iv]) <= {"expm_t0", "expm_t1"}
            assert system.gramian_memo[self.INF]["P"] is inf
        assert controllability_block(system, system, short).tobytes() == p.tobytes()
        assert lapack_calls.trsyl == [(1, 1)]

    def test_mixed_blocks_are_kept_by_one_member(self):
        system = self.fresh()
        twin = self.fresh()
        a = controllability_block(system, twin, self.IV)
        b = controllability_block(system, twin, self.IV)
        assert a is b and not a.flags.writeable
        # Y and Z apart are solved on each call
        y, z = gramian_blocks(system, twin, self.IV)[1:]
        again = gramian_blocks(system, twin, self.IV)
        assert again[0] is a and again[1] is not y and again[2] is not z
        assert y.flags.writeable and z.flags.writeable
        # the right-hand member keeps the block and the [0, inf) block it
        # weights beside its exponentials; the left keeps its exponentials
        assert list(system.gramian_memo) == [self.IV]
        assert list(twin.gramian_memo) == [self.INF, self.IV]
        assert set(system.gramian_memo[self.IV]) == {"expm_t0", "expm_t1"}
        assert set(twin.gramian_memo[self.IV]) == {"expm_t0", "expm_t1", "pair"}
        partner, blocks = twin.gramian_memo[self.IV]["pair"]
        assert partner() is system and blocks == {"P": a}
        partner, blocks = twin.gramian_memo[self.INF]["pair"]
        assert partner() is system
        assert blocks == {"P": controllability_block(system, twin, self.INF)}

    @pytest.fixture()
    def exponentials(self, monkeypatch):
        """The ``(a, t)`` of every :func:`matfun.expm` call from here on."""
        calls = []

        def counting(a, t=1.0):
            calls.append((a, t))
            return expm(a, t)

        monkeypatch.setattr(matfun, "expm", counting)
        return calls

    @staticmethod
    def own(exponentials, system):
        """Times of the exponentials of ``system``'s own A among ``exponentials``."""
        return [t for a, t in exponentials if a is system.A]

    @pytest.mark.parametrize("iv", [IV, TimeInterval(0.0, 0.5)], ids=str)
    def test_each_nonzero_end_is_exponentiated_once(self, exponentials, iv):
        system = self.fresh()
        rom = rand_system(np.random.default_rng(64), 4, 2, 2)
        tlbt(system, 3, iv)
        h2tau_norm(system, iv)
        h2tau_error(system, rom, iv)
        tl_residuals(system, rom, iv)
        balancing(system, iv)
        ends = [t for t in (iv.t_start, iv.t_end) if t != 0.0]
        assert self.own(exponentials, system) == ends
        report = tlhnoia(system, bt(system, 3).rom, iv, tol=0.0, max_iter=3)
        assert report.iterations == 3
        assert self.own(exponentials, system) == ends

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_kept_exponentials_are_read_only_and_exact(self, iv):
        system = self.fresh()
        h2tau_norm(system, iv)
        kept = system.gramian_memo[iv]
        ends = gramians.boundaries(system, iv)
        for x, name, t in zip(ends, ("expm_t0", "expm_t1"), (iv.t_start, iv.t_end)):
            if t == 0.0 or t == INFINITE:
                assert x is None and name not in kept
                continue
            assert kept[name] is x and not x.flags.writeable
            assert x.tobytes() == expm(system.A, t).tobytes()
            with pytest.raises(ValueError):
                x[0, 0] = 0.0

    def test_third_horizon_evicts_the_exponentials_with_p_and_q(self, exponentials):
        system = self.fresh()
        first, second, third = (TimeInterval(0.1, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, third):
            gramian_pair(system, iv)
        assert list(system.gramian_memo) == [self.INF, third]
        assert set(system.gramian_memo[third]) == {"P", "Q", "expm_t0", "expm_t1"}
        exponentials.clear()
        gramian_pair(system, third)
        assert exponentials == []
        gramian_pair(system, first)
        assert self.own(exponentials, system) == [0.1, 0.3]
        assert list(system.gramian_memo) == [self.INF, first]


class TestPairMemo:
    """The blocks Pt, Gt, the [0, inf) tail Xt and the inner product
    <H, Hr> of a pair are kept, read-only, by its right-hand member for one
    partner per horizon, and go with their horizon; the [0, inf) Pt that
    a finite horizon weights is kept under [0, inf)."""

    N, R = LEAF, 4
    IV = TimeInterval(0.1, 0.5)
    INF = TimeInterval(0.0, INFINITE)

    def pair(self, seed=65):
        rng = np.random.default_rng(seed)
        return rand_system(rng, self.N, 2, 2), rand_system(rng, self.R, 2, 2)

    def blocks(self, full, rom, iv):
        """``(Pt, Gt, Xt)`` of the pair on ``iv``."""
        return (controllability_block(full, rom, iv), *adjoint_block(full, rom, iv))

    def mixed_solves(self, lapack_calls):
        return lapack_calls.trsyl.count((self.N, self.R))

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_kept_blocks_equal_those_of_a_fresh_pair(self, lapack_calls, iv):
        full, rom = self.pair()
        kept = self.blocks(full, rom, iv)
        lapack_calls.trsyl.clear()
        assert all(a is b for a, b in zip(self.blocks(full, rom, iv), kept))
        assert lapack_calls.trsyl == []
        partner, facts = rom.gramian_memo[iv]["pair"]
        assert partner() is full
        assert facts["P"] is kept[0] and facts["G"] is kept[1] and facts["X"] is kept[2]
        assert (kept[1] is kept[2]) == (iv == self.INF)
        assert "pair" not in full.gramian_memo.get(iv, {})
        for x, y in zip(kept, self.blocks(*self.pair(), iv)):
            assert x.tobytes() == y.tobytes()

    def test_kept_blocks_are_read_only(self):
        full, rom = self.pair()
        own = adjoint_block(rom, rom, self.IV)
        for x in self.blocks(full, rom, self.IV) + own:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0, 0] = 0.0
        assert rom.gramian_memo[self.IV]["G"] is own[0]
        assert rom.gramian_memo[self.IV]["X"] is own[1]

    def test_third_horizon_evicts_the_blocks(self, lapack_calls):
        full, rom = self.pair()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, third):
            self.blocks(full, rom, iv)
        assert list(rom.gramian_memo) == [self.INF, third]
        assert set(rom.gramian_memo[self.INF]["pair"][1]) == {"P"}
        assert set(rom.gramian_memo[third]["pair"][1]) == {"P", "G", "X"}
        lapack_calls.trsyl.clear()
        self.blocks(full, rom, third)
        assert self.mixed_solves(lapack_calls) == 0
        # Xt is solved again, Pt weighted from the kept [0, inf) Pt
        self.blocks(full, rom, first)
        assert self.mixed_solves(lapack_calls) == 1
        assert list(rom.gramian_memo) == [self.INF, first]

    def test_second_partner_replaces_the_first(self, lapack_calls):
        full, rom = self.pair()
        other = self.pair(66)[0]
        pt = controllability_block(full, rom, self.IV)
        po = controllability_block(other, rom, self.IV)
        partner, facts = rom.gramian_memo[self.IV]["pair"]
        assert partner() is other and facts == {"P": po}
        lapack_calls.trsyl.clear()
        again = controllability_block(full, rom, self.IV)
        assert again is not pt and again.tobytes() == pt.tobytes()
        assert self.mixed_solves(lapack_calls) == 1
        partner, facts = rom.gramian_memo[self.IV]["pair"]
        assert partner() is full and facts == {"P": again}
        # the same partner on the other side is another pair, kept by its
        # right-hand member whatever the orders
        swapped = controllability_block(rom, full, self.IV)
        assert swapped.shape == (self.R, self.N)
        partner, facts = full.gramian_memo[self.IV]["pair"]
        assert partner() is rom and facts == {"P": swapped}
        assert rom.gramian_memo[self.IV]["pair"][1] == {"P": again}
        twin = rand_system(np.random.default_rng(67), self.R, 2, 2)
        tied = controllability_block(twin, rom, self.IV)
        assert rom.gramian_memo[self.IV]["pair"][1] == {"P": tied}
        assert "pair" not in twin.gramian_memo[self.IV]

    def test_each_side_of_a_pair_is_kept_by_its_right_hand_member(self, lapack_calls):
        full, rom = self.pair()
        swapped = controllability_block(rom, full, self.IV)
        pt = controllability_block(full, rom, self.IV)
        assert swapped.shape == (self.R, self.N) and pt.shape == (self.N, self.R)
        partner, facts = full.gramian_memo[self.IV]["pair"]
        assert partner() is rom and facts == {"P": swapped}
        partner, facts = rom.gramian_memo[self.IV]["pair"]
        assert partner() is full and facts == {"P": pt}
        lapack_calls.trsyl.clear()
        for _ in range(2):
            assert controllability_block(rom, full, self.IV) is swapped
            assert controllability_block(full, rom, self.IV) is pt
        assert lapack_calls.trsyl == []

    @pytest.fixture()
    def energies(self, monkeypatch):
        """The ``(left, right)`` of every output energy the norms evaluate
        from here on."""
        calls = []
        energy = norms.output_energy

        def counting(left, right, p):
            calls.append((left, right))
            return energy(left, right, p)

        monkeypatch.setattr(norms, "output_energy", counting)
        return calls

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_error_and_objective_read_the_kept_inner_products(self, energies, iv):
        full, rom = self.pair()
        first, second, third = h2tau_error(full, rom, iv).decomposition
        assert energies == [(full, full), (full, rom), (rom, rom)]
        assert rom.gramian_memo[iv]["pair"][1]["energy"] == second
        energies.clear()
        assert h2tau_error(full, rom, iv).decomposition == (first, second, third)
        assert objective_J(full, rom, iv) == -2.0 * second + third
        assert energies == []
        fresh = self.pair()
        assert h2tau_error(*fresh, iv).decomposition == (first, second, third)

    def test_kept_inner_product_goes_with_its_horizon_and_partner(self, energies):
        def inner(left, right, iv):
            gramians.require_pair(left, right, iv)
            return norms._inner(left, right, iv)

        full, rom = self.pair()
        other = self.pair(66)[0]
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        values = {iv: inner(full, rom, iv) for iv in (first, second, third)}
        assert list(rom.gramian_memo) == [self.INF, third]
        assert rom.gramian_memo[third]["pair"][1]["energy"] == values[third]
        energies.clear()
        inner(full, rom, third)
        assert energies == []
        assert inner(full, rom, first) == values[first]
        assert energies == [(full, rom)]
        inner(other, rom, first)
        for iv in (self.INF, first):
            partner, facts = rom.gramian_memo[iv]["pair"]
            assert partner() is other
        assert set(rom.gramian_memo[first]["pair"][1]) == {"P", "energy"}
        energies.clear()
        assert inner(full, rom, first) == values[first]
        assert energies == [(full, rom)]

    def test_failed_solve_keeps_nothing(self, monkeypatch):
        full, rom = self.pair()
        # B B_r^T overflows, though each factor of it is finite
        big, huge = (LqoSystem(s.A, 1e160 * s.B, s.C, s.M) for s in (full, rom))
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(SolverError):
                controllability_block(big, huge, self.IV)
            assert not any("pair" in facts for facts in huge.gramian_memo.values())
        pt = controllability_block(full, rom, self.IV)
        solve = gramians._solve

        def failing(left, right, side, q):
            if side == "observability":
                raise SolverError("observability solve failed")
            return solve(left, right, side, q)

        monkeypatch.setattr(gramians, "_solve", failing)
        for _ in range(2):
            with pytest.raises(SolverError):
                adjoint_block(full, rom, self.IV)
            assert rom.gramian_memo[self.IV]["pair"][1] == {"P": pt}
        monkeypatch.setattr(gramians, "_solve", solve)
        gt, xt = adjoint_block(full, rom, self.IV)
        assert rom.gramian_memo[self.IV]["pair"][1] == {"P": pt, "X": xt, "G": gt}

    def test_sweeps_keep_the_blocks_of_every_swept_model(self, lapack_calls, monkeypatch):
        full = self.pair()[0]
        rom0 = bt(full, self.R).rom
        iterates = []
        project = reductors._project

        def recording(system, v, w):
            iterates.append(project(system, v, w))
            return iterates[-1]

        monkeypatch.setattr(reductors, "_project", recording)
        lapack_calls.trsyl.clear()
        report = tlhnoia(full, rom0, self.IV, tol=0.0, max_iter=3)
        # the [0, inf) Pt and the Xt that Gt weights per sweep and for the
        # residual report, which reads Xt as the tail of Gt
        assert self.mixed_solves(lapack_calls) == 2 * 3 + 2
        assert len(iterates) == 3 and iterates[-1] is report.rom
        for rom in (rom0, *iterates):
            partner, blocks = rom.gramian_memo[self.IV]["pair"]
            assert partner() is full
            assert set(blocks) == {"P", "G", "X"}
            assert set(rom.gramian_memo[self.INF]["pair"][1]) == {"P"}
        lapack_calls.trsyl.clear()
        again = tlhnoia(full, rom0, self.IV, tol=0.0, max_iter=3)
        assert self.mixed_solves(lapack_calls) == 2 * 2 + 2
        assert again.rom.A.tobytes() == report.rom.A.tobytes()

    def test_error_and_residuals_of_a_reduction_solve_no_mixed_block(self, monkeypatch):
        full = self.pair()[0]
        report = tlhnoia(full, bt(full, self.R).rom, self.IV, tol=0.0, max_iter=2)
        assert report.iterations == 2 and report.residuals is not None
        shapes = []
        solve = gramians._solve

        def counting(left, right, side, q):
            shapes.append((left.order, right.order))
            return solve(left, right, side, q)

        monkeypatch.setattr(gramians, "_solve", counting)
        error = h2tau_error(full, report.rom, self.IV)
        # nothing: the system's own P weights the [0, inf) P that bt solved,
        # and Pt, Ph, Gt, Gh, Xt and Xh are those of the residual report
        assert shapes == []
        residuals = tl_residuals(full, report.rom, self.IV)
        assert shapes == []
        assert residuals.op1_norm == report.residuals.op1_norm
        rom = report.rom
        copy = LqoSystem(rom.A, rom.B, rom.C, rom.M, check_hurwitz=False)
        fresh = h2tau_error(self.pair()[0], copy, self.IV)
        assert error.decomposition == fresh.decomposition
