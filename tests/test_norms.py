import math

import numpy as np
import pytest

from lqomor.errors import ValidationError
from lqomor.model import INFINITE, LqoSystem, TimeInterval, error_system
from lqomor.norms import (
    h2tau_error,
    h2tau_error_blockwise,
    h2tau_inner,
    h2tau_norm,
    h2tau_norm_quadrature,
)
from lqomor.demo import demo_system

from util import (
    einsum_quadrature_squared,
    q_route_error_triple,
    q_route_norm_squared,
    rand_lti,
    rand_system,
    shifted_to,
)


def scalar_system(a, b, c, m):
    return LqoSystem([[a]], [[b]], [[c]], [np.array([[m]])])


UNIT_INTERVAL = TimeInterval(0.0, 1.0)

#: A horizon from 0, one from t0 > 0 and the infinite horizon.
HORIZONS = {
    "zero_start": TimeInterval(0.0, 0.9),
    "late_start": TimeInterval(0.3, 1.7),
    "infinite": TimeInterval(0.0, INFINITE),
}


def q_route_pair(seed):
    """A 7-state system and a 3-state reduced model, m = p = 2."""
    rng = np.random.default_rng(seed)
    return rand_system(rng, 7, 2, 2), rand_system(rng, 3, 2, 2)


class TestGramianNorm:
    def test_scalar_linear_closed_form(self):
        val = h2tau_norm(scalar_system(-1.0, 1.0, 1.0, 0.0), UNIT_INTERVAL).value
        assert val == pytest.approx(math.sqrt((1.0 - math.exp(-2.0)) / 2.0), rel=1e-12)

    def test_scalar_quadratic_closed_form(self):
        # norm^2 is the squared double-integral kernel energy,
        # (int_0^1 e^(-2t) dt)^2, so the norm equals that single integral
        val = h2tau_norm(scalar_system(-1.0, 1.0, 0.0, 1.0), UNIT_INTERVAL).value
        assert val == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)

    def test_zero_input_map(self):
        sys1 = LqoSystem([[-1.0]], [[0.0]], [[1.0]], [np.array([[1.0]])])
        assert h2tau_norm(sys1, UNIT_INTERVAL).value == 0.0

    @pytest.mark.parametrize("k", [1e-13, 1e-14])
    def test_time_rescaled_benchmark_keeps_its_infinite_horizon_norm(self, k):
        # A -> k A, B -> sqrt(k) B leaves P, so the [0, inf) norm, as it is;
        # the solvability test is relative to the spectral radius
        sys6 = demo_system()
        slow = LqoSystem(k * sys6.A, math.sqrt(k) * sys6.B, sys6.C, sys6.M)
        iv = TimeInterval(0.0, INFINITE)
        assert h2tau_norm(slow, iv).value == pytest.approx(
            h2tau_norm(sys6, iv).value, rel=1e-12
        )

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(40)
        sys1 = rand_system(rng, 5, 2, 2)
        values = [
            h2tau_norm(sys1, TimeInterval(0.0, t)).value for t in (0.3, 0.8, 2.0, 6.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_infinite_horizon_is_limit(self):
        rng = np.random.default_rng(41)
        sys1 = rand_system(rng, 4, 1, 1)
        tau = 100.0 / abs(np.linalg.eigvals(sys1.A).real.max())
        lim = h2tau_norm(sys1, TimeInterval(0.0, tau)).value
        inf = h2tau_norm(sys1, TimeInterval(0.0, INFINITE)).value
        assert lim == pytest.approx(inf, rel=1e-8)


class TestQuadratureOracle:
    def test_matches_scalar_closed_forms(self):
        for sys1, expected in (
            (scalar_system(-1.0, 1.0, 1.0, 0.0), math.sqrt((1 - math.exp(-2)) / 2)),
            (scalar_system(-1.0, 1.0, 0.0, 1.0), (1 - math.exp(-2)) / 2),
        ):
            val = h2tau_norm_quadrature(sys1, UNIT_INTERVAL, resolution=400).value
            assert val == pytest.approx(expected, rel=1e-6)

    def test_matches_gramians_on_benchmark(self):
        sys6 = demo_system()
        iv = TimeInterval(0.0, 0.5)
        g = h2tau_norm(sys6, iv).value
        q = h2tau_norm_quadrature(sys6, iv, resolution=400).value
        assert q == pytest.approx(g, rel=1e-6)

    def test_lti_reduces_to_linear_part(self):
        rng = np.random.default_rng(42)
        sys1 = rand_lti(rng, 5, 2, 2)
        iv = TimeInterval(0.0, 1.2)
        from lqomor.gramians import timelimited_gramians

        g = timelimited_gramians(sys1, iv)
        linear_only = math.sqrt(np.trace(sys1.B.T @ g.Y @ sys1.B))
        q = h2tau_norm_quadrature(sys1, iv, resolution=400).value
        assert q == pytest.approx(linear_only, rel=1e-6)

    def test_gramian_agreement_on_random_systems(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            sys1 = rand_system(rng, n, m, p)
            tau = float(rng.uniform(0.3, 3.0)) / abs(np.linalg.eigvals(sys1.A).real.max())
            iv = TimeInterval(0.0, tau)
            g = h2tau_norm(sys1, iv).value
            q = h2tau_norm_quadrature(sys1, iv, resolution=400).value
            assert abs(g - q) <= 1e-5 * g

    def test_general_interval_start(self):
        sys1 = scalar_system(-1.0, 1.0, 1.0, 0.0)
        iv = TimeInterval(0.5, 1.5)
        expected = math.sqrt((math.exp(-1.0) - math.exp(-3.0)) / 2.0)
        assert h2tau_norm(sys1, iv).value == pytest.approx(expected, rel=1e-12)
        q = h2tau_norm_quadrature(sys1, iv, resolution=200).value
        assert q == pytest.approx(expected, rel=1e-7)

    def test_gemm_contraction_matches_einsum_reference(self):
        rng = np.random.default_rng(51)
        sys1 = rand_system(rng, 6, 2, 2)
        iv = TimeInterval(0.1, 1.3)
        # 124 sample rows fit one row block; 406 rows take 11, the last partial
        for resolution in (61, 201):
            gemm = h2tau_norm_quadrature(sys1, iv, resolution=resolution).value
            reference = math.sqrt(einsum_quadrature_squared(sys1, iv, resolution))
            assert gemm == pytest.approx(reference, rel=1e-13)

    def test_sample_budget_is_checked_before_allocating(self, monkeypatch):
        # m = 2: resolution 5790 gives 11582^2 kernel samples, under 2**27;
        # 5791 rounds up to 5792 and gives 11586^2, over it
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("lqomor.matfun.expm", reached)
        sys1 = rand_system(np.random.default_rng(52), 3, 2, 1)
        with pytest.raises(Reached):
            h2tau_norm_quadrature(sys1, UNIT_INTERVAL, resolution=5790)
        for resolution in (5791, 5792):
            with pytest.raises(ValidationError) as err:
                h2tau_norm_quadrature(sys1, UNIT_INTERVAL, resolution=resolution)
            assert err.value.context["rows"] == 11586

    def test_rejects_infinite_horizon(self):
        with pytest.raises(ValidationError):
            h2tau_norm_quadrature(
                scalar_system(-1.0, 1.0, 1.0, 0.0), TimeInterval(0.0, INFINITE)
            )


class TestInnerProduct:
    def test_self_inner_product_is_squared_norm(self):
        rng = np.random.default_rng(44)
        sys1 = rand_system(rng, 4, 2, 1)
        iv = TimeInterval(0.0, 1.5)
        inner = h2tau_inner(sys1, sys1, iv)
        norm = h2tau_norm(sys1, iv).value
        assert inner == pytest.approx(norm**2, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(45)
        for _ in range(4):
            a = rand_system(rng, 5, 2, 2)
            b = rand_system(rng, 3, 2, 2)
            iv = TimeInterval(0.0, 1.0)
            assert h2tau_inner(a, b, iv) == pytest.approx(
                h2tau_inner(b, a, iv), rel=1e-10
            )

    def test_zero_partner(self):
        rng = np.random.default_rng(46)
        a = rand_system(rng, 4, 1, 1)
        b = LqoSystem([[-1.0]], [[0.0]], [[1.0]], [np.array([[0.3]])])
        assert h2tau_inner(a, b, TimeInterval(0.0, 2.0)) == 0.0


class TestErrorNorm:
    def test_identical_pair(self):
        rng = np.random.default_rng(47)
        sys1 = rand_system(rng, 5, 1, 1)
        iv = TimeInterval(0.0, 1.0)
        err = h2tau_error(sys1, sys1, iv).value
        assert err <= 1e-8 * h2tau_norm(sys1, iv).value

    def test_matches_blockwise_error_system(self):
        rng = np.random.default_rng(48)
        for iv in (TimeInterval(0.0, 0.9), TimeInterval(0.2, 2.1)):
            full = rand_system(rng, 5, 2, 2)
            rom = rand_system(rng, 2, 2, 2)
            direct = h2tau_error(full, rom, iv).value
            blockwise = h2tau_error_blockwise(full, rom, iv).value
            assert direct == pytest.approx(blockwise, rel=1e-10)

    def test_norm_axioms(self):
        rng = np.random.default_rng(49)
        for _ in range(4):
            full = rand_system(rng, 4, 1, 2)
            rom = rand_system(rng, 2, 1, 2)
            iv = TimeInterval(0.0, 1.3)
            err = h2tau_error(full, rom, iv).value
            assert err >= 0.0
            assert err <= (
                h2tau_norm(full, iv).value + h2tau_norm(rom, iv).value + 1e-12
            )

    @pytest.mark.parametrize(
        "delta",
        [
            1e-2,
            pytest.param(1e-12, marks=pytest.mark.xfail(
                strict=True,
                reason="the pair's Sylvester equation is nearly singular: "
                "the Gramian route is 4.1e-4 off the quadrature",
            )),
        ],
    )
    def test_mirrored_poles_match_quadrature(self, delta):
        # the reduced poles mirror A's rightmost pair -1.0 +- 0.887j across
        # the imaginary axis, up to a relative offset delta
        full = rand_system(np.random.default_rng(5), 8, 1, 1)
        eig = np.linalg.eigvals(full.A)
        top = eig[np.argmax(eig.real)]
        x, y = -top.real * (1.0 + delta), abs(top.imag)
        rom = LqoSystem(
            [[x, y], [-y, x]], [[1.0], [0.5]], [[0.7, 0.2]],
            [np.array([[0.3, 0.1], [0.1, 0.2]])], check_hurwitz=False,
        )
        iv = TimeInterval(0.0, 1.0)
        oracle = h2tau_norm_quadrature(error_system(full, rom), iv, resolution=2000)
        assert h2tau_error(full, rom, iv).value == pytest.approx(oracle.value, rel=1e-6)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(50)
        full = rand_system(rng, 6, 2, 1)
        rom = rand_system(rng, 3, 2, 1)
        rep = h2tau_error(full, rom, TimeInterval(0.0, 1.0))
        first, second, third = rep.decomposition
        assert rep.value**2 == pytest.approx(
            first - 2.0 * second + third, rel=1e-12, abs=1e-300
        )


class TestObservabilityRouteOracle:
    """The P-only norms against ``trace(B^T Q B)`` from the full Gramians."""

    @pytest.mark.parametrize("name", sorted(HORIZONS))
    def test_norm(self, name):
        full, _ = q_route_pair(52)
        value = h2tau_norm(full, HORIZONS[name]).value
        assert value**2 == pytest.approx(
            q_route_norm_squared(full, HORIZONS[name]), rel=1e-12
        )

    @pytest.mark.parametrize("name", sorted(HORIZONS))
    def test_inner_product(self, name):
        full, rom = q_route_pair(53)
        expected = q_route_error_triple(full, rom, HORIZONS[name])[1]
        assert h2tau_inner(full, rom, HORIZONS[name]) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "name,unstable",
        [(name, False) for name in sorted(HORIZONS)]
        + [("zero_start", True), ("late_start", True)],
    )
    def test_error_decomposition(self, name, unstable):
        full, rom = q_route_pair(54)
        if unstable:
            rom = shifted_to(rom, 0.8)
        rep = h2tau_error(full, rom, HORIZONS[name])
        expected = q_route_error_triple(full, rom, HORIZONS[name])
        assert rep.decomposition == pytest.approx(expected, rel=1e-12)


def test_norm_and_error_solve_only_controllability_blocks(lapack_calls):
    """h2tau_norm and h2tau_error factor A once, never A^T, and make one
    trsyl call per controllability block.  Each runs on a fresh pair, since
    a system keeps its own block and the model keeps Pt: called again,
    nothing is solved."""
    n, r = 20, 4
    horizon = TimeInterval(0.0, 0.8)

    def fresh():
        lapack_calls.schur.clear()
        lapack_calls.trsyl.clear()
        rng = np.random.default_rng(78)
        return rand_system(rng, n, m=2, p=2), rand_system(rng, r, m=2, p=2)

    system, rom = fresh()
    h2tau_norm(system, horizon)
    assert lapack_calls.factored(system.A) == 1
    assert lapack_calls.factored(system.A.T) == 0
    assert lapack_calls.trsyl == [(n, n)]

    system, rom = fresh()
    h2tau_error(system, rom, horizon)
    assert lapack_calls.factored(system.A) == 1
    assert lapack_calls.factored(system.A.T) == 0
    assert sorted(lapack_calls.trsyl) == sorted([(n, n), (n, r), (r, r)])

    lapack_calls.trsyl.clear()
    h2tau_norm(system, horizon)
    assert lapack_calls.trsyl == []
    h2tau_error(system, rom, horizon)
    assert lapack_calls.trsyl == []
    assert lapack_calls.factored(system.A) == 1
