"""Bundled sixth-order benchmark and the end-to-end demonstration pipeline.

The benchmark is a lightly damped three-mass oscillator chain with one
force input, one mixed linear output and one quadratic form on the first
two displacement coordinates.  The demonstration reduces it to order 3
over the horizon [0, 0.5] s with all four methods, reports the residual
norms of the horizon-limited stationarity conditions for the fixed-point
method, and writes a CSV comparing the relative output errors under the
input ``u(t) = 0.01*cos(2*t)``.
"""

import numpy as np

from .model import LqoSystem, TimeInterval, simulate, time_grid
from .reductors import bt, homora, tlbt, tlhnoia
from .signals import parse_signal

#: Default demonstration horizon in seconds.
DEMO_INTERVAL = TimeInterval(0.0, 0.5)
DEMO_ORDER = 3
DEMO_INPUT = "0.01*cos(2*t)"
DEMO_STEP = 1e-4


def demo_system():
    """The bundled sixth-order quadratic-output benchmark."""
    a = np.array(
        [
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [-5.4545, 4.5455, 0.0, -0.0545, 0.0455, 0.0],
            [10.0, -21.0, 11.0, 0.1, -0.21, 0.11],
            [0.0, 5.5, -6.5, 0.0, 0.055, -0.065],
        ]
    )
    b = np.array([[0.0], [0.0], [0.0], [0.0909], [0.4], [-0.5]])
    c = np.array([[2.0, -2.0, 3.0, 0.0, 0.0, 0.0]])
    m1 = np.diag([0.5, 0.3, 0.0, 0.0, 0.0, 0.0])
    return LqoSystem(a, b, c, [m1])


def demo_initial_guess():
    """Third-order starting point for the fixed-point reductions."""
    a = np.array(
        [
            [-0.0038, -0.8737, 0.0046],
            [0.8737, -0.0038, 0.0053],
            [0.0054, -0.0060, -0.0353],
        ]
    )
    b = np.array([[0.3518], [-0.3472], [-0.2617]])
    c = np.array([[-0.3454, -0.3405, 0.2479]])
    m1 = np.array(
        [
            [0.0113, 0.0114, 0.0130],
            [0.0114, 0.0116, 0.0132],
            [0.0130, 0.0132, 0.0271],
        ]
    )
    return LqoSystem(a, b, c, [m1])


def _row_norms(y):
    """2-norm of each row of ``y``, taken with its largest entry scaled into
    [0.5, 1) by a power of two, so that no square overflows or underflows;
    summed down the contiguous columns of ``y^T``, the fast layout."""
    cols = np.ascontiguousarray(y.T)
    e = np.frexp(np.abs(cols).max(axis=0, initial=0.0))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(cols, -e), axis=0), e)


def relative_output_error(full_traj, rom_traj, eps=1e-12):
    """Pointwise ``||y - y_r||_2 / max(||y||_2, eps)`` along two trajectories."""
    diff = _row_norms(full_traj.outputs - rom_traj.outputs)
    return diff / np.maximum(_row_norms(full_traj.outputs), eps)


def run_demo(tol=1e-6, max_iter=200, step=DEMO_STEP):
    """Run the full demonstration pipeline.

    ``step`` is the simulation grid step, checked by
    :func:`lqomor.model.time_grid` before any reduction runs.

    Returns
    -------
    dict
        Keys: ``system``, ``reports`` (method name to ReductionReport),
        ``grid``, ``errors`` (method name to pointwise relative error) and
        ``mean_errors``.
    """
    system = demo_system()
    rom0 = demo_initial_guess()
    grid = time_grid(
        DEMO_INTERVAL.t_start, DEMO_INTERVAL.t_end, step, system.order + DEMO_ORDER
    )

    reports = {
        "bt": bt(system, DEMO_ORDER),
        "tlbt": tlbt(system, DEMO_ORDER, DEMO_INTERVAL),
        "homora": homora(system, rom0, tol=tol, max_iter=max_iter),
        "tlhnoia": tlhnoia(system, rom0, DEMO_INTERVAL, tol=tol, max_iter=max_iter),
    }

    u = parse_signal(DEMO_INPUT)
    full_traj = simulate(system, u, grid)
    errors = {}
    for name, rep in reports.items():
        rom_traj = simulate(rep.rom, u, grid)
        errors[name] = relative_output_error(full_traj, rom_traj)

    return {
        "system": system,
        "reports": reports,
        "grid": grid,
        "errors": errors,
        "mean_errors": {name: float(err.mean()) for name, err in errors.items()},
    }
