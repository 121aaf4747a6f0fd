import math
import sys

import numpy as np
import pytest

from lqomor import gramians, matfun
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
from lqomor.reductors import bt, tlbt

from util import dense_controllability_block, rand_lti, rand_system, shifted_to


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
                assert np.linalg.norm(adjoint_block(left, r, iv, p) - g) <= (
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


#: The three horizon kinds of the factor pair: [0, inf) drops the second
#: column block, t0 = 0 takes B itself, and [t0, t1] takes both exponentials.
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

    def test_no_dense_controllability_kernel(self, monkeypatch):
        """norm, error, bt and tlbt hand every controllability solve the
        factors of B_l B_r^T, and only observability kernels are weighted."""
        weighted, controllability = [], []
        weigh, solve = gramians._weighted, matfun.solve_sylvester

        def weighing(kern, left, right):
            weighted.append(sys._getframe(1).f_code.co_name)
            return weigh(kern, left, right)

        def solving(a, b, c):
            if not a.trans:
                controllability.append(c)
            return solve(a, b, c)

        monkeypatch.setattr(gramians, "_weighted", weighing)
        monkeypatch.setattr(matfun, "solve_sylvester", solving)
        iv = TimeInterval(0.1, 0.5)
        # each run on a fresh pair, since a system keeps its own block; the
        # count of controllability solves when the same run is repeated
        runs = [
            (lambda full, rom: h2tau_norm(full, iv), 0),
            (lambda full, rom: h2tau_error(full, rom, iv), 1),
            (lambda full, rom: h2tau_error(full, rom, TimeInterval(0.0, INFINITE)), 1),
            (lambda full, rom: bt(full, 4), 0),
            (lambda full, rom: tlbt(full, 4, iv), 0),
        ]
        for run, repeated in runs:
            rng = np.random.default_rng(62)
            full = rand_system(rng, 2 * LEAF, 2, 2)
            rom = rand_system(rng, 4, 2, 2)
            controllability.clear()
            run(full, rom)
            assert controllability
            for c in controllability:
                assert isinstance(c, tuple) and len(c) == 2
                assert all(f.ndim == 2 and f.shape[1] <= 2 * full.n_inputs for f in c)
            controllability.clear()
            run(full, rom)
            assert len(controllability) == repeated
        assert weighted and set(weighted) == {"observability_block"}


class TestGramianMemo:
    """A system's own P and Q, and their balancing, are computed once per
    horizon and kept for the GRAMIAN_MEMO most recently used horizons."""

    N = LEAF
    IV = TimeInterval(0.1, 0.5)

    def fresh(self):
        return rand_system(np.random.default_rng(63), self.N, 2, 2)

    def full_solves(self, lapack_calls):
        """(N, N) trsyl calls since the log was last cleared."""
        return lapack_calls.trsyl.count((self.N, self.N))

    def balancings(self, lapack_calls):
        """(N, N) ``(eigh, svd)`` calls since the logs were last cleared."""
        full = (self.N, self.N)
        return lapack_calls.eigh.count(full), lapack_calls.svd.count(full)

    @staticmethod
    def clear(lapack_calls):
        for log in (lapack_calls.trsyl, lapack_calls.eigh, lapack_calls.svd):
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
        assert self.balancings(lapack_calls) == (2, 1)
        self.clear(lapack_calls)
        run()
        assert not lapack_calls.eigh and not lapack_calls.svd
        assert self.full_solves(lapack_calls) == 0

    def test_tlbt_at_several_orders_solves_p_and_q_once(self, lapack_calls):
        system = self.fresh()
        for n in range(2, 6):
            tlbt(system, n, self.IV)
        assert self.full_solves(lapack_calls) == 2
        assert self.balancings(lapack_calls) == (2, 1)

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
        assert set(system.gramian_memo[self.IV]) == {"P", "Q"}
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
        assert bal.W.shape == bal.V.shape == (self.N, self.N)
        for x in (bal.sigma, bal.W, bal.V):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0

    def test_third_horizon_evicts_the_least_recently_used(self, lapack_calls):
        assert matfun.GRAMIAN_MEMO == 2
        system = self.fresh()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, first, third):
            h2tau_norm(system, iv)
        assert list(system.gramian_memo) == [first, third]
        lapack_calls.trsyl.clear()
        h2tau_norm(system, first)
        h2tau_norm(system, third)
        assert self.full_solves(lapack_calls) == 0
        h2tau_norm(system, second)
        assert self.full_solves(lapack_calls) == 1
        assert list(system.gramian_memo) == [third, second]

    def test_third_horizon_evicts_the_balancing_with_p_and_q(self, lapack_calls):
        system = self.fresh()
        first, second, third = (TimeInterval(0.0, t) for t in (0.3, 0.5, 0.7))
        for iv in (first, second, third):
            balancing(system, iv)
        assert list(system.gramian_memo) == [second, third]
        assert all(set(kept) == {"P", "Q", "balancing"} for kept in system.gramian_memo.values())
        self.clear(lapack_calls)
        balancing(system, first)
        assert self.full_solves(lapack_calls) == 2
        assert self.balancings(lapack_calls) == (2, 1)
        assert list(system.gramian_memo) == [third, first]

    @pytest.mark.parametrize("iv", HORIZONS, ids=str)
    def test_failed_solve_keeps_nothing(self, iv):
        # the 1e11 transient of transient_system with a smaller B: P exists
        # on [0, 0.001], but overflows on [0, inf) and the right-hand side
        # overflows on the finite horizons
        system = LqoSystem(
            [[-1.0, 1e11], [0.0, -1.0]], [[0.0], [1e145]], [[1.0, 0.0]], [np.zeros((2, 2))]
        )
        kept = TimeInterval(0.0, 0.001)
        p = controllability_block(system, system, kept)
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(SolverError):
                controllability_block(system, system, iv)
            assert list(system.gramian_memo) == [kept]
        assert controllability_block(system, system, kept) is p

    def test_mixed_blocks_are_not_kept(self):
        system = self.fresh()
        twin = self.fresh()
        a = controllability_block(system, twin, self.IV)
        b = controllability_block(system, twin, self.IV)
        assert a is not b and a.flags.writeable
        assert not system.gramian_memo and not twin.gramian_memo
