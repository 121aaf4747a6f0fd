"""Metamorphic relations of the horizon norm: answers that must not depend
on the coordinates, the time origin or the units a system is written in,
and two that follow from its output energy: every output taken twice
doubles ``||H||^2``, and a block-diagonal composition of two systems has
the sum of their ``||H||^2``.  The fixed point of ``homora`` reaches the
same reduced poles in any coordinates.

A system in coordinates ``x = T z`` is ``(T^-1 A T, T^-1 B, C T, T^T M_i T)``
and has the same norm and Hankel singular values on every horizon.  The cases are bench6 and
``rand_system(default_rng(0), 30, 2, 2)``; T is ``I + 0.5 G / sqrt(N)`` for
a seeded standard normal G, drawn until ``cond(T) <= 100``.  No relation
needs an oracle, so each holds to rounding only: :data:`TOL` relative,
times ``cond(T)^2`` for a change of coordinates, which rounds the
transformed matrices by about ``eps cond(T)`` and the Gramians by its square,
and a Hankel value ``sigma_i`` further times ``(sigma_1 / sigma_i)^2``, the
amplification of a perturbation of P and Q of order ``||P|| ||Q||`` in
``sigma_i^2 = eig_i(P Q)``.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqomor import matfun
from lqomor.demo import demo_system
from lqomor.gramians import balancing
from lqomor.model import INFINITE, LqoSystem, TimeInterval
from lqomor.norms import h2tau_error, h2tau_norm
from lqomor.reductors import homora, tlbt
from lqomor.sysio import load_system

from util import rand_system

INIT = Path(__file__).resolve().parent.parent / "data" / "benchmark6_init.json"

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: Relative tolerance of every relation, ``2^14 eps`` (3.6e-12).  The worst
#: seen in 150 seeded draws per relation was 285 eps cond(T)^2 for a change
#: of coordinates (bench6 on [0, inf)), 544 eps for the time shift (bench6
#: on [1, 1.5]), 1561 eps for the input scaling (bench6 on [0, 0.5]) and
#: 682 eps cond(T)^2 (sigma_1 / sigma_i)^2 for the four leading Hankel values
#: (bench6 on [0.3, 2]; 5.8e-9 relative for sigma_4 = 4.1e-5 on [0, 0.5]).
TOL = 2.0**14 * np.finfo(float).eps

SYSTEMS = {
    "bench6": demo_system,
    "rand30": lambda: rand_system(np.random.default_rng(0), 30, 2, 2),
}
HORIZONS = [
    TimeInterval(0.0, 0.5), TimeInterval(0.3, 2.0),
    TimeInterval(0.0, INFINITE), TimeInterval(0.3, INFINITE),
]

systems = st.sampled_from(sorted(SYSTEMS))
horizons = st.sampled_from(HORIZONS)
seeds = st.integers(0, 2**32 - 1)


def coordinates(n, seed):
    """``T = I + 0.5 G / sqrt(n)`` for G standard normal from ``seed``."""
    g = np.random.default_rng(seed).normal(size=(n, n))
    return np.eye(n) + 0.5 * g / np.sqrt(n)


def transformed(system, t):
    """``system`` in the coordinates ``x = T z``."""
    return LqoSystem(
        np.linalg.solve(t, system.A @ t), np.linalg.solve(t, system.B),
        system.C @ t, [t.T @ mi @ t for mi in system.M],
    )


def with_parts(system, b=None, c=None, m=None):
    """``system`` with any of B, C and the M_i replaced."""
    return LqoSystem(
        system.A, system.B if b is None else b, system.C if c is None else c,
        system.M if m is None else m,
    )


def close(value, ref, tol):
    return abs(value - ref) <= tol * abs(ref)


@SETTINGS
@given(name=systems, seed=seeds)
def test_norm_is_invariant_under_a_change_of_coordinates(name, seed):
    # every horizon on one system and on its transform, in opposite orders,
    # so a fact kept for one horizon and read for another shows
    system = SYSTEMS[name]()
    t = coordinates(system.order, seed)
    cond = np.linalg.cond(t)
    assume(cond <= 100.0)
    other = transformed(system, t)
    values = [h2tau_norm(other, iv).value for iv in reversed(HORIZONS)][::-1]
    for interval, value in zip(HORIZONS, values):
        assert close(value, h2tau_norm(system, interval).value, TOL * cond**2), interval


@SETTINGS
@given(name=systems, seed=seeds)
def test_leading_hankel_values_are_invariant_under_a_change_of_coordinates(name, seed):
    # sigma_i^2 = eig_i(P Q) is a similarity invariant: (T^-1 P T^-T)(T^T Q T)
    system = SYSTEMS[name]()
    t = coordinates(system.order, seed)
    cond = np.linalg.cond(t)
    assume(cond <= 100.0)
    other = transformed(system, t)
    values = [balancing(other, iv).sigma[:4] for iv in reversed(HORIZONS)][::-1]
    for interval, sigma in zip(HORIZONS, values):
        ref = balancing(system, interval).sigma[:4]
        tol = TOL * cond**2 * (ref[0] / ref) ** 2
        assert (np.abs(sigma - ref) <= tol * ref).all(), interval


@SETTINGS
@given(name=systems, bounds=st.sampled_from([(0.3, 2.0), (1.0, 1.5)]))
def test_late_horizon_is_the_shifted_start(name, bounds):
    # ||(A, B, C, M)||_[t0, t1] = ||(A, e^(A t0) B, C, M)||_[0, t1 - t0]
    t0, t1 = bounds
    system = SYSTEMS[name]()
    shifted = with_parts(system, b=matfun.expm(system.A, t0) @ system.B)
    value = h2tau_norm(shifted, TimeInterval(0.0, t1 - t0)).value
    assert close(value, h2tau_norm(system, TimeInterval(t0, t1)).value, TOL)


@SETTINGS
@given(name=systems, interval=horizons, exponent=st.floats(-3.0, 60.0))
def test_input_scaling_splits_into_linear_and_quadratic_parts(name, interval, exponent):
    # ||(A, aB, C, M)||^2 = a^2 ||(A, B, C, 0)||^2 + a^4 ||(A, B, 0, M)||^2
    alpha = 10.0**exponent
    system = SYSTEMS[name]()
    linear = h2tau_norm(with_parts(system, m=[0.0 * mi for mi in system.M]), interval)
    quadratic = h2tau_norm(with_parts(system, c=0.0 * system.C), interval)
    value = h2tau_norm(with_parts(system, b=alpha * system.B), interval).value
    ref = alpha**2 * linear.value**2 + alpha**4 * quadratic.value**2
    assert close(value**2, ref, TOL)


@SETTINGS
@given(name=systems, interval=horizons, seed=seeds, scale=st.floats(1e-3, 1e3))
def test_skew_part_of_the_output_matrices_changes_nothing(name, interval, seed, scale):
    # only the symmetric part of M_i reaches the output x^T M_i x
    system = SYSTEMS[name]()
    g = np.random.default_rng(seed).normal(size=system.A.shape)
    skew = scale * (g - g.T)
    value = h2tau_norm(with_parts(system, m=[mi + skew for mi in system.M]), interval).value
    assert close(value, h2tau_norm(system, interval).value, TOL)


@pytest.mark.parametrize("interval", HORIZONS, ids=str)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_outputs_stacked_twice_double_the_squared_norm(name, interval):
    # ([C; C], M_1..M_p, M_1..M_p) has every output twice, so twice the energy
    system = SYSTEMS[name]()
    twice = with_parts(system, c=np.vstack([system.C, system.C]), m=system.M + system.M)
    value = h2tau_norm(twice, interval).value
    assert close(value**2, 2.0 * h2tau_norm(system, interval).value ** 2, TOL)


def parallel(first, second):
    """Block-diagonal composition: each system keeps its own inputs, states
    and outputs, so no output of one sees the other."""
    z1, z2 = np.zeros(first.A.shape), np.zeros(second.A.shape)
    return LqoSystem(
        sla.block_diag(first.A, second.A), sla.block_diag(first.B, second.B),
        sla.block_diag(first.C, second.C),
        [sla.block_diag(mi, z2) for mi in first.M] + [sla.block_diag(z1, mi) for mi in second.M],
    )


@pytest.mark.parametrize("interval", HORIZONS, ids=str)
def test_parallel_composition_adds_the_squared_norms(interval):
    first, second = (SYSTEMS[name]() for name in sorted(SYSTEMS))
    value = h2tau_norm(parallel(first, second), interval).value
    ref = h2tau_norm(first, interval).value ** 2 + h2tau_norm(second, interval).value ** 2
    assert close(value**2, ref, TOL)


def poles(report):
    assert report.converged
    return np.linalg.eigvals(report.rom.A)


@pytest.mark.parametrize("seed", range(4))
def test_fixed_point_poles_are_invariant_under_a_change_of_coordinates(seed):
    """``homora`` on bench6 from the bundled guess reaches the poles it
    reaches in the file's coordinates under T of seeds 0-3 (cond(T) from 2.2
    to 3.7) within 1e-6 relative; the worst seen was 2.8e-7 (seed 0).  Its
    path is not invariant: Anderson mixing aligns the bases in the file's
    Euclidean metric, and the runs took 26, 29, 35 and 23 sweeps against 19.
    Sweep paths are rounding-sensitive across CPUs, so those counts are
    recorded here, not pinned."""
    system, rom0 = demo_system(), load_system(str(INIT))
    ref = poles(homora(system, rom0))
    value = poles(homora(transformed(system, coordinates(system.order, seed)), rom0))
    assert len(value) == len(ref)
    gap = np.abs(value[:, None] - ref[None, :]).min(axis=0)
    assert (gap <= 1e-6 * np.abs(ref)).all()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the error of bench6's order-5 tlbt model on [0, 0.5] is "
    "8.4622e-8 in the file's coordinates and 2.2991e-7 under T of seed 2 "
    "(cond 3.1), a difference of three terms lost in their rounding",
)
def test_error_is_invariant_under_a_change_of_coordinates():
    system, interval = demo_system(), TimeInterval(0.0, 0.5)
    rom = tlbt(system, 5, interval).rom
    t = coordinates(system.order, 2)
    value = h2tau_error(transformed(system, t), rom, interval).value
    assert close(value, h2tau_error(system, rom, interval).value, 1e-6)
