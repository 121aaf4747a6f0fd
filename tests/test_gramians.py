import math

import numpy as np
import pytest

from lqomor.errors import DimensionError, HurwitzError, SolverError
from lqomor.demo import demo_system
from lqomor.gramians import (
    cross_gramians,
    gramian_blocks,
    gramian_pair,
    hankel_singular_values,
    timelimited_gramians,
)
from lqomor.matfun import expm
from lqomor.model import INFINITE, LqoSystem, TimeInterval
from lqomor.reductors import tlbt

from util import rand_lti, rand_system


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
