"""Finite-horizon H2-type norms, inner products and error norms.

The squared horizon-limited norm of a quadratic-output system is the output
energy of its impulse-response kernels

    k1(t)      = C e^(A t) B                    (linear part)
    k2_i(s, t) = B^T e^(A^T s) M_i e^(A t) B    (quadratic part)

integrated over the horizon (the double integral runs over the square).
It equals ``trace(B^T Q B)`` with the observability Gramian Q = Y + Z of
the horizon.  Since Z solves the observability equation whose right-hand
side is ``sum_i M_i P M_i``, the same value is

    ||H||^2 = trace(C P C^T) + sum_i trace(M_i P M_i P),

which needs only the controllability Gramian P (Benner, Goyal and Pontes
Duff, "Gramians, energy functionals and balanced truncation for linear
dynamical systems with quadratic outputs", IEEE TAC 2022).  Inner products
and error norms use the controllability blocks of system/reduced-model
pairs in the same way (:func:`output_energy`).  An independent
composite-Simpson quadrature of the kernels serves as the cross-check
oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import SolverError, ValidationError
from .gramians import _kept, controllability_block, quadratic_kernel, require_pair
from .model import (
    BLOCK_FLOATS, MAX_SAMPLE_FLOATS, TimeInterval, _block_jump, error_system,
)


@dataclass(frozen=True)
class NormReport:
    """A nonnegative norm value plus how it was obtained.

    ``decomposition``, when present, is the triple
    ``(||H||^2, <H, Hr>, ||Hr||^2)`` whose combination
    ``first - 2*second + third`` equals ``value**2``.
    """

    value: float
    method: str
    interval: TimeInterval
    decomposition: tuple = None


def output_energy(left, right, p):
    """Inner product of two systems' kernels from their controllability block.

    ``trace(C_l P C_r^T) + sum_i trace(M_l,i P M_r,i P^T)`` with the
    :func:`lqomor.gramians.controllability_block` ``p`` of ``(left, right)``
    on a horizon: the horizon-limited ``<H_l, H_r>``, and ``||H||^2`` for a
    system with itself.  For a system with itself (``left is right``, whose
    block is symmetric) the quadratic part is ``sum_i trace((M_i P)^2)``,
    the sum of ``X_i * X_i^T`` for ``X_i = M_i P``: one product per
    ``M_i``, and exact whether or not ``M_i`` is symmetric.  A value that
    overflowed raises ``SolverError``.
    """
    if left is right:
        quad = sum(np.sum(x * x.T) for x in (mi @ p for mi in left.M))
    else:
        quad = np.sum(quadratic_kernel(left, right, p) * p)
    val = float(np.sum((left.C @ p) * right.C) + quad)
    if not np.isfinite(val):
        raise SolverError(f"output energy overflowed to {val}")
    return val


def _inner(left, right, interval):
    """:func:`output_energy` of the pair on ``interval``, kept beside its
    controllability block (see :func:`lqomor.gramians.controllability_block`):
    a system's own ``||H||^2``, or a pair's ``<H, Hr>``."""
    def energy():
        return output_energy(left, right, controllability_block(left, right, interval))

    return _kept(left, right, interval, "energy", energy)


def h2tau_norm(system, interval):
    """Horizon-limited H2 norm from the controllability Gramian alone.

    ``value = sqrt(trace(C P C^T) + sum_i trace(M_i P M_i P))`` with the
    controllability Gramian P of the horizon, which equals
    ``sqrt(trace(B^T Q B))`` (Benner, Goyal and Pontes Duff, IEEE TAC 2022);
    an infinite right endpoint yields the classical H2 norm and needs a
    Hurwitz A.

    Returns
    -------
    NormReport
    """
    require_pair(system, system, interval)
    val = _inner(system, system, interval)
    return NormReport(value=np.sqrt(max(val, 0.0)), method="gramian", interval=interval)


def _simpson_weights(n_intervals):
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def h2tau_norm_quadrature(system, interval, resolution=400):
    """Independent quadrature evaluation of the horizon-limited H2 norm.

    Integrates ``trace(k1^T k1)`` over the horizon and
    ``sum_i trace(k2_i^T k2_i)`` over its Cartesian square with composite
    Simpson rules on a uniform grid of ``resolution`` subintervals (rounded
    up to an even count).  Finite horizons only.  The ``rows = (resolution
    + 1) m`` sample rows for m inputs give ``rows x N`` state samples and
    ``rows x rows`` kernel samples per ``M_i``; the larger count must be
    within :data:`lqomor.model.MAX_SAMPLE_FLOATS`, else ``ValidationError``
    before anything is allocated.  A horizon too long for the samples to
    resolve raises ``SolverError`` where it shows: a step propagator
    ``e^(A h)`` with no nonzero entry, before the march, or a sum that is
    not finite.  A step too long for A whose propagator keeps a nonzero
    entry is not detected.

    The samples ``e^(A t_j) B`` are marched by the block rule of the RK4
    recurrence (:func:`lqomor.model._block_jump`): the first L nodes by the
    step ``e^(A h)``, then each run of L nodes from the run before it and
    the jump ``e^(A L h) - I``, L the largest power of two with ``L^2 <=
    R`` whose jump is finite.  For R subintervals that is about ``2 sqrt(R)
    + log2(sqrt(R))`` matrix products, not R, within rounding of the
    node-by-node march.  The samples are the columns of one N x rows array.

    Returns
    -------
    NormReport
    """
    if interval.is_infinite:
        raise ValidationError("quadrature norm requires a finite horizon")
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    r = int(resolution)
    if r % 2:
        r += 1
    rows = (r + 1) * system.n_inputs
    if rows * max(rows, system.order) > MAX_SAMPLE_FLOATS:
        raise ValidationError(
            f"resolution {resolution} needs {rows} x {max(rows, system.order)} "
            f"samples, over the budget of {MAX_SAMPLE_FLOATS}",
            rows=rows,
            max_floats=MAX_SAMPLE_FLOATS,
        )
    t0, t1 = interval.t_start, interval.t_end
    h = (t1 - t0) / r
    n, m = system.order, system.n_inputs

    # Column (j, a) of f is (e^(A t_j) B)[:, a].  The first L nodes after t0
    # are stepped by the propagator; each later run of L nodes is the run
    # before it plus the jump e^(A L h) - I times that run.
    prop = matfun.expm(system.A, h)
    if not prop.any():
        raise SolverError(f"step propagator e^(A h) is zero at h = {h:.6g}", step=h)
    block, jump = _block_jump(prop - np.eye(n), r)
    f = np.empty((n, rows), order="F")
    f[:, :m] = matfun.expm(system.A, t0) @ system.B
    for lo in range(m, (block + 1) * m, m):
        np.matmul(prop, f[:, lo - m:lo], out=f[:, lo:lo + m])
    run = block * m
    for lo in range(run + m, rows, run):
        hi = min(lo + run, rows)
        prev = f[:, lo - run:hi - run]
        np.matmul(jump, prev, out=f[:, lo:hi])
        f[:, lo:hi] += prev

    # Scaled by sqrt(w_j), the columns give the linear energy as a sum of
    # squares of C f, and the entries of f^T M_i f are the kernel samples
    # k2_i(t_j, t_k)[a, b] scaled by sqrt(w_j w_k), whose sum of squares is
    # the weighted double sum; it is summed over row blocks of BLOCK_FLOATS
    # samples.
    f *= np.sqrt(np.repeat(_simpson_weights(r), m))
    weight = h / 3.0
    k1 = system.C @ f
    total = weight * float(np.vdot(k1, k1))
    step = max(1, BLOCK_FLOATS // rows)
    for mi in system.M:
        fm = f.T @ mi
        for lo in range(0, rows, step):
            cross = fm[lo:lo + step] @ f
            total += weight * weight * float(np.vdot(cross, cross))
    if not np.isfinite(total):
        raise SolverError(f"quadrature sum is not finite ({total})")

    return NormReport(
        value=np.sqrt(max(total, 0.0)), method="quadrature", interval=interval
    )


def h2tau_error(system, rom, interval):
    """Horizon-limited norm of the output error between two systems.

    Evaluates ``sqrt(||H||^2 - 2 <H, Hr> + ||Hr||^2)``, each term an
    :func:`output_energy` of one controllability block: P of the system, Pt
    of the pair and Ph of the reduced model.  Equal input/output counts are
    required, and Hurwitz A on both sides for an infinite horizon.  Small
    negative radicands from rounding clamp to zero; larger ones indicate a
    solver failure and raise.

    Returns
    -------
    NormReport
        With the ``decomposition`` triple populated.
    """
    require_pair(system, rom, interval)
    first = _inner(system, system, interval)
    second = _inner(system, rom, interval)
    third = _inner(rom, rom, interval)
    radicand = first - 2.0 * second + third
    scale = abs(first) + 2.0 * abs(second) + abs(third)
    if radicand < -1e-12 * max(scale, 1.0):
        raise SolverError(
            f"error norm radicand {radicand:.3e} is negative beyond tolerance",
            radicand=radicand,
        )
    return NormReport(
        value=np.sqrt(max(radicand, 0.0)),
        method="gramian",
        interval=interval,
        decomposition=(first, second, third),
    )


def h2tau_error_blockwise(system, rom, interval):
    """Error norm computed on the stacked (N + n)-state difference realization.

    Independent cross-check of :func:`h2tau_error`: builds the block error
    system and takes its plain horizon-limited norm.
    """
    return h2tau_norm(error_system(system, rom), interval)
