import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lqomor.errors import DimensionError, HurwitzError, NumericalError, ValidationError
from lqomor.matfun import expm, require_hurwitz
from lqomor.model import (
    LqoSystem,
    TimeInterval,
    Trajectory,
    error_system,
    simulate,
    time_grid,
    _block_jump,
    _output_trajectory,
    _rk4_step_matrices,
)
from lqomor.demo import (
    DEMO_INPUT, DEMO_INTERVAL, DEMO_STEP, demo_system, relative_output_error,
)
from lqomor.norms import h2tau_norm
from lqomor.signals import parse_signal

from util import rand_lti, rand_system, rk4_reference


def _output(system, x):
    """Output vector of the single state ``x``, as ``simulate`` forms it."""
    return _output_trajectory(system, np.atleast_2d(np.asarray(x, dtype=float)))[0]


def _assert_matches_reference(system, u, grid, **kwargs):
    traj = simulate(system, u, grid, **kwargs)
    ref = rk4_reference(system, u, grid, **kwargs)
    assert traj.states.shape == ref.shape
    assert np.abs(traj.states - ref).max() <= 1e-12 * np.abs(ref).max()


class TestTimeInterval:
    def test_finite(self):
        iv = TimeInterval(0.5, 2.0)
        assert not iv.is_infinite

    def test_infinite_end(self):
        assert TimeInterval(0.0, math.inf).is_infinite

    def test_rejects_reversed(self):
        with pytest.raises(ValidationError):
            TimeInterval(2.0, 1.0)

    def test_rejects_infinite_start(self):
        with pytest.raises(ValidationError):
            TimeInterval(math.inf, math.inf)

    def test_rejects_negative_start(self):
        with pytest.raises(ValidationError):
            TimeInterval(-1.0, 1.0)

    @pytest.mark.parametrize("ends", [(0.0, 0.5), (-0.0, 0.5), (0, 0.5), (0.1, math.inf)])
    def test_hash_is_kept_and_equal_intervals_hash_alike(self, ends):
        iv = TimeInterval(*ends)
        twin = TimeInterval(abs(float(ends[0])), ends[1])
        assert iv == twin and hash(iv) == hash(twin)
        assert hash(iv) == iv._hash == hash((iv.t_start, iv.t_end))

    def test_equal_intervals_share_kept_facts(self):
        system = rand_system(np.random.default_rng(5), 4, 1, 1)
        value = h2tau_norm(system, TimeInterval(0.0, 0.5)).value
        assert list(system.gramian_memo) == [TimeInterval(-0.0, 0.5)]
        kept = system.gramian_memo[TimeInterval(-0.0, 0.5)]["energy"]
        assert h2tau_norm(system, TimeInterval(-0.0, 0.5)).value == value
        assert len(system.gramian_memo) == 1
        assert system.gramian_memo[TimeInterval(0, 0.5)]["energy"] is kept


class TestValidate:
    def test_accepts_bundled_benchmark(self):
        sys6 = demo_system()
        require_hurwitz(sys6.schur, "A")
        assert sys6.is_hurwitz

    def test_rejects_unstable_scalar(self):
        with pytest.raises(HurwitzError):
            LqoSystem([[1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))])

    def test_rejects_unstable_system_built_without_the_test(self):
        unchecked = LqoSystem(
            [[1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))], check_hurwitz=False
        )
        assert not unchecked.is_hurwitz
        with pytest.raises(HurwitzError):
            require_hurwitz(unchecked.schur, "A")

    def test_huge_stable_a_is_hurwitz(self):
        # ||A||_F^2 overflows, ||A||_F does not: the Hurwitz bar reads it
        sys2 = LqoSystem(-1e200 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [np.eye(2)])
        assert sys2.is_hurwitz

    def test_order_zero_is_a_dimension_error(self):
        empty = np.zeros((0, 0))
        with pytest.raises(DimensionError):
            LqoSystem(empty, np.zeros((0, 1)), np.zeros((1, 0)), [empty])

    def test_rejects_m_length_mismatch(self):
        with pytest.raises(DimensionError):
            LqoSystem(
                -np.eye(2), np.ones((2, 1)), np.ones((2, 2)), [np.zeros((2, 2))]
            )

    def test_asymmetric_m_acts_as_its_symmetric_part(self):
        # x^T M x only sees (M + M^T)/2, so the norm and the response must too
        a, b, c = [[-1.0, 0.5], [0.0, -2.0]], [[1.0], [1.0]], [[0.0, 0.0]]
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        asym = LqoSystem(a, b, c, [m])
        sym = LqoSystem(a, b, c, [(m + m.T) / 2.0])
        iv = TimeInterval(0.0, 1.0)
        assert h2tau_norm(asym, iv).value == h2tau_norm(sym, iv).value
        grid = np.linspace(0.0, 1.0, 21)
        u = parse_signal("cos(3*t)")
        assert np.array_equal(
            simulate(asym, u, grid).outputs, simulate(sym, u, grid).outputs
        )

    def test_rounding_level_asymmetry_is_kept(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-15, 2.0]])
        sys2 = LqoSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [m])
        assert np.array_equal(sys2.M[0], m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("skew", [1e200, 1e185], ids=["asymmetric", "rounding-level"])
    def test_norms_whose_squares_overflow_decide_as_finite_ones(self, skew):
        # ||M||^2 overflows but ||M|| does not; the bar is relative, so a
        # skew of 1e-15 times the largest entry is still kept as given
        m = np.array([[0.0, 1e200], [1e200 - skew, 0.0]])
        sys2 = LqoSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [m])
        expected = (m + m.T) / 2.0 if skew == 1e200 else m
        assert np.array_equal(sys2.M[0], expected)

    def test_overflowing_norm_prints_no_warning(self):
        # a warning that is recorded, not raised, must not happen either:
        # under the default filter it is printed
        m = np.array([[0.0, 1e200], [0.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sys2 = LqoSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [m])
        assert caught == []
        assert np.array_equal(sys2.M[0], (m + m.T) / 2.0)

    def test_symmetric_part_whose_sum_overflows_is_formed_from_halves(self):
        # ||M|| and M + M^T overflow, the halves and their norms do not
        m = np.array([[0.0, 1.5e308], [1e308, 0.0]])
        with np.errstate(all="raise"):
            sys2 = LqoSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [m])
        assert np.array_equal(sys2.M[0], [[0.0, 1.25e308], [1.25e308, 0.0]])

    def test_tiny_asymmetric_m_acts_as_its_symmetric_part(self):
        # the bar is relative, so M = k [[0, 1], [0, 0]] is symmetrized at
        # any k, and the norm, quadratic in x and linear in M, scales by k
        k = 1e-13
        a, b, c = [[-1.0, 0.3], [0.0, -2.0]], [[1.0], [1.0]], [[0.0, 0.0]]
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        iv = TimeInterval(0.0, 1.0)
        unit = LqoSystem(a, b, c, [m])
        tiny = LqoSystem(a, b, c, [k * m])
        assert np.array_equal(tiny.M[0], tiny.M[0].T)
        assert h2tau_norm(tiny, iv).value / k == pytest.approx(
            h2tau_norm(unit, iv).value, rel=1e-12
        )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            LqoSystem([[-1.0]], [[np.inf]], [[1.0]], [np.zeros((1, 1))])


class TestOwnedMatrices:
    def test_caller_arrays_do_not_reach_the_cached_facts(self):
        # the Schur form and the Gramians were cached from A = -I; a system
        # that shared the caller's array would answer for A = -I after
        # A *= 2 from its stale caches
        a, b, c, m = -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.eye(2)
        system = LqoSystem(a, b, c, [m])
        iv = TimeInterval(0.0, 1.0)
        before = h2tau_norm(system, iv).value
        a *= 2.0
        assert h2tau_norm(system, iv).value == before
        assert np.array_equal(system.A, -np.eye(2))
        fresh = LqoSystem(-np.eye(2), b, c, [m])
        assert h2tau_norm(fresh, iv).value == before
        assert h2tau_norm(LqoSystem(a, b, c, [m]), iv).value != before

    @pytest.mark.parametrize("name", ["A", "B", "C", "M_0", "M_1", "schur_t.a"])
    def test_constructed_matrices_are_read_only(self, name):
        # M_0 is stored as its symmetric part, M_1 as given
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        system = LqoSystem(-np.eye(2), np.ones((2, 1)), np.ones((2, 2)), [m, m.T @ m])
        mat = {
            "A": system.A, "B": system.B, "C": system.C, "M_0": system.M[0],
            "M_1": system.M[1], "schur_t.a": system.schur_t.a,
        }[name]
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0


class TestRelativeOutputError:
    def test_outputs_near_overflow_give_the_same_ratio(self):
        rng = np.random.default_rng(170)
        y = rng.normal(size=(40, 3))
        y[0] = 0.0
        yr = y + 1e-2 * rng.normal(size=y.shape)
        yr[0] = 0.0

        def rel(scale):
            return relative_output_error(
                Trajectory(None, None, y * scale), Trajectory(None, None, yr * scale)
            )

        with np.errstate(all="raise"):
            assert np.allclose(rel(1e170), rel(1.0), rtol=1e-12, atol=0.0)

    def test_one_output_is_the_absolute_ratio(self):
        y = np.random.default_rng(1).normal(size=(40, 1))
        full, rom = Trajectory(None, None, y), Trajectory(None, None, y / 3.0)
        expected = np.abs(y - y / 3.0)[:, 0] / np.maximum(np.abs(y)[:, 0], 1e-12)
        assert np.array_equal(relative_output_error(full, rom), expected)


class TestEvalOutput:
    def test_zero_state(self):
        sys1 = rand_system(np.random.default_rng(0), 4, 2, 2)
        assert np.array_equal(_output(sys1, np.zeros(4)), np.zeros(2))

    def test_pure_quadratic_form(self):
        sys1 = LqoSystem([[-1.0]], [[1.0]], [[0.0]], [np.array([[1.0]])])
        assert _output(sys1, [2.0])[0] == pytest.approx(4.0)

    def test_benchmark_first_unit_vector(self):
        # first C column is 2, first quadratic form entry is 0.5
        y = _output(demo_system(), np.eye(6)[0])
        assert y[0] == pytest.approx(2.5, rel=1e-14)

    def test_quadratic_part_scales_quadratically(self):
        rng = np.random.default_rng(1)
        sys1 = rand_system(rng, 5, 1, 2)
        x = rng.normal(size=5)
        base_quad = _output(sys1, x) - sys1.C @ x
        for alpha in (2.0, 3.0):
            quad = _output(sys1, alpha * x) - sys1.C @ (alpha * x)
            assert np.allclose(quad, alpha**2 * base_quad, rtol=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            simulate(demo_system(), lambda t: 0.0, [0.0, 0.1], x0=np.zeros(5))


class TestSimulate:
    def test_zero_input_zero_state(self):
        sys1 = rand_system(np.random.default_rng(2), 4)
        traj = simulate(sys1, lambda t: 0.0, np.linspace(0, 1, 11))
        assert np.array_equal(traj.outputs, np.zeros((11, 1)))

    def test_step_response_scalar(self):
        sys1 = LqoSystem([[-1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))])
        grid = np.linspace(0.0, 2.0, 2001)
        traj = simulate(sys1, lambda t: 1.0, grid)
        exact = 1.0 - np.exp(-grid)
        assert np.abs(traj.outputs[:, 0] - exact).max() <= 1e-6

    def test_step_response_squared_for_quadratic_output(self):
        sys1 = LqoSystem([[-1.0]], [[1.0]], [[0.0]], [np.array([[1.0]])])
        grid = np.linspace(0.0, 2.0, 2001)
        traj = simulate(sys1, lambda t: 1.0, grid)
        exact = (1.0 - np.exp(-grid)) ** 2
        assert np.abs(traj.outputs[:, 0] - exact).max() <= 1e-6

    def test_matches_variation_of_constants_on_lti(self):
        rng = np.random.default_rng(3)
        sys1 = rand_lti(rng, 4, 1, 1)
        u = lambda t: math.sin(1.3 * t) + 0.5
        grid = np.linspace(0.0, 2.0, 201)
        # four RK4 steps per grid interval: every fourth state of a finer grid
        states = simulate(sys1, u, np.linspace(0.0, 2.0, 801)).states[::4]
        # independent oracle: x(t+h) = e^(A h) x + int_0^h e^(A (h-s)) B u(t+s) ds
        # with the convolution integral done by composite Simpson on a fine grid
        h = grid[1] - grid[0]
        panels = 16
        s_nodes = np.linspace(0.0, h, panels + 1)
        weights = np.ones(panels + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= (h / panels) / 3.0
        props = [expm(sys1.A, h - s) @ sys1.B for s in s_nodes]
        step = expm(sys1.A, h)
        x = np.zeros(4)
        worst = 0.0
        for k, t0 in enumerate(grid[:-1]):
            forced = sum(
                w * (pr @ np.atleast_1d(u(t0 + s)))
                for w, pr, s in zip(weights, props, s_nodes)
            )
            x = step @ x + forced
            err = np.linalg.norm(states[k + 1] - x)
            worst = max(worst, err / max(np.linalg.norm(x), 1e-12))
        assert worst <= 1e-6

    def test_recurrence_matches_stages_on_demo_cli_grid(self):
        # the grid the CLI builds: t0 + step * arange(n + 1)
        n_steps = int(round((DEMO_INTERVAL.t_end - DEMO_INTERVAL.t_start) / DEMO_STEP))
        grid = DEMO_INTERVAL.t_start + DEMO_STEP * np.arange(n_steps + 1)
        _assert_matches_reference(demo_system(), parse_signal(DEMO_INPUT), grid)

    def test_recurrence_matches_stages_on_geometric_grid_with_substeps(self):
        sys1 = rand_system(np.random.default_rng(9), 5, 1, 2)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 60)])
        # three steps per interval: runs of three equal step lengths
        fine = np.append(grid[:-1, None] + np.arange(3) * np.diff(grid)[:, None] / 3, grid[-1])
        u = parse_signal("sin(3*t) + 0.5")
        _assert_matches_reference(sys1, u, fine, x0=np.ones(5))

    def test_recurrence_matches_stages_with_scalar_signal_on_two_inputs(self):
        sys1 = rand_system(np.random.default_rng(10), 4, 2, 2)
        grid = np.linspace(0.0, 1.5, 301)
        _assert_matches_reference(sys1, parse_signal("exp(-t)*cos(5*t)"), grid)

    @pytest.mark.parametrize(
        "n_steps", [1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 99, 100, 101]
    )
    def test_recurrence_matches_stages_for_every_block_split(self, n_steps):
        # blocks of 1, 2, 4 and 8 steps, with and without a tail
        sys1 = rand_system(np.random.default_rng(12), 4, 2, 2)
        grid = np.linspace(0.0, 1.5, n_steps + 1)
        u = parse_signal("sin(3*t) + 0.5")
        _assert_matches_reference(sys1, u, grid, x0=[1.0, -2.0, 0.5, 3.0])

    def test_recurrence_matches_stages_over_many_steps(self):
        grid = time_grid(0.0, 4.0, 1e-4, 6)
        assert grid.size == 40001
        _assert_matches_reference(demo_system(), lambda t: 0.01 * math.cos(2.0 * t), grid)

    def test_recurrence_matches_stages_on_growing_oscillator(self):
        # poles 0.3 +- 5i: the response grows by e^6 and stays finite
        sys1 = LqoSystem(
            [[0.3, 5.0], [-5.0, 0.3]], [[1.0], [0.5]], [[1.0, 0.0]], [np.eye(2)],
            check_hurwitz=False,
        )
        grid = np.linspace(0.0, 20.0, 4001)
        _assert_matches_reference(sys1, parse_signal("cos(t)"), grid, x0=[1.0, -1.0])

    def test_block_jump_keeps_the_digits_of_small_increments(self):
        # Phi = I + diag(d): Phi^L - I is expm1(L log1p(d)) entry by entry;
        # forming I + d first would lose all digits of d below 1e-16
        d = np.array([1e-7, -3e-6, 2e-5])
        block, jump = _block_jump(np.diag(d), 10_000)
        assert block == 64
        exact = np.expm1(block * np.log1p(d))
        assert np.array_equal(jump, np.diag(np.diag(jump)))
        assert (np.abs(np.diag(jump) - exact) <= 1e-14 * np.abs(exact)).all()

    def test_zero_response_of_fast_growing_model_stays_zero(self):
        # Phi = 1 + psi with psi near 1.2e5 at h = 1: Phi^64 overflows, so the
        # blocks shrink to 32 steps and inf * 0 never reaches a state
        rom = LqoSystem([[40.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))], check_hurwitz=False)
        psi = _rk4_step_matrices(rom.A, rom.B, 1.0)[0]
        assert _block_jump(psi, 10_000)[0] == 32
        traj = simulate(rom, parse_signal("0*t"), np.arange(10001.0))
        assert (traj.states == 0.0).all()

    def test_peak_memory_of_a_long_run(self):
        # 200 000 steps: the states, the stage inputs and their forcing; the
        # blocked recurrence adds O(sqrt(S) N) floats, well inside 1% of the
        # 3.355 state arrays that the step-by-step loop peaked at
        grid = time_grid(0.0, 20.0, 1e-4, 6)
        system, u = demo_system(), parse_signal(DEMO_INPUT)
        tracemalloc.start()
        try:
            traj = simulate(system, u, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (200001, 6)
        assert peak <= 1.01 * 3.355 * traj.states.nbytes

    def test_single_point_grid_returns_initial_state(self):
        sys1 = rand_system(np.random.default_rng(11), 3)
        traj = simulate(sys1, parse_signal("1"), [0.3], x0=[1.0, 2.0, 3.0])
        assert np.array_equal(traj.states, [[1.0, 2.0, 3.0]])

    def test_rejects_empty_grid(self):
        sys1 = rand_system(np.random.default_rng(4), 3)
        with pytest.raises(ValidationError):
            simulate(sys1, lambda t: 0.0, [])

    def test_overflowing_output_is_numerical_error(self):
        # the states stay finite, near 1e159 at t = 0.1; their square does not
        sys1 = LqoSystem([[-1.0]], [[1e160]], [[1.0]], [[[1.0]]])
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NumericalError) as info:
            simulate(sys1, parse_signal("1"), grid)
        assert info.value.context["t"] == grid[1]

    def test_rejects_nonfinite_signal(self):
        sys1 = rand_system(np.random.default_rng(5), 3)
        with pytest.raises(ValidationError):
            simulate(sys1, lambda t: math.inf, np.linspace(0, 1, 5))


class TestErrorSystem:
    def test_block_shapes(self):
        rng = np.random.default_rng(6)
        full = rand_system(rng, 6, 1, 1)
        rom = rand_system(rng, 3, 1, 1)
        esys = error_system(full, rom)
        assert esys.order == 9
        assert esys.M[0].shape == (9, 9)

    def test_input_stacking(self):
        full = LqoSystem([[-1.0]], [[1.0]], [[1.0]], [np.zeros((1, 1))])
        rom = LqoSystem([[-2.0]], [[3.0]], [[1.0]], [np.zeros((1, 1))])
        esys = error_system(full, rom)
        assert np.array_equal(esys.B, [[1.0], [3.0]])

    def test_identical_pair_cancels(self):
        rng = np.random.default_rng(7)
        full = rand_system(rng, 5, 1, 2)
        esys = error_system(full, full)
        grid = np.linspace(0.0, 3.0, 301)
        u = lambda t: math.cos(2.0 * t)
        ye = simulate(esys, u, grid).outputs
        y = simulate(full, u, grid).outputs
        assert np.abs(ye).max() <= 1e-9 * max(np.abs(y).max(), 1e-12)

    def test_rejects_incompatible_io(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DimensionError):
            error_system(rand_system(rng, 4, 1, 1), rand_system(rng, 2, 2, 1))
