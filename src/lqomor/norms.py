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
from .gramians import controllability_block, require_pair
from .model import TimeInterval, error_system


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
    system with itself.
    """
    val = np.sum((left.C @ p) * right.C)
    for ml, mr in zip(left.M, right.M):
        val += np.sum((ml @ p @ mr) * p)
    return float(val)


def _inner(left, right, interval):
    return output_energy(left, right, controllability_block(left, right, interval))


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
    up to an even count).  Finite horizons only.

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
    t0, t1 = interval.t_start, interval.t_end
    h = (t1 - t0) / r

    # March e^(A t) B across the grid with one fixed step propagator.
    prop = matfun.expm(system.A, h)
    ub = np.empty((r + 1, system.order, system.n_inputs))
    ub[0] = matfun.expm(system.A, t0) @ system.B
    for j in range(r):
        ub[j + 1] = prop @ ub[j]

    w = _simpson_weights(r)
    k1 = np.einsum("pn,jnm->jpm", system.C, ub)
    total = (h / 3.0) * float(w @ np.einsum("jpm,jpm->j", k1, k1))

    # Row (j, a) of f is (e^(A t_j) B)[:, a]^T, so the entries of f M_i f^T
    # are the kernel samples k2_i(t_j, t_k)[a, b].
    f = ub.transpose(0, 2, 1).reshape(-1, system.order)
    wf = np.repeat(w, system.n_inputs)
    for mi in system.M:
        cross = f @ mi @ f.T
        total += (h / 3.0) ** 2 * float(wf @ (cross * cross) @ wf)

    return NormReport(
        value=np.sqrt(max(total, 0.0)), method="quadrature", interval=interval
    )


def h2tau_inner(system, rom, interval):
    """Inner product of two systems over a horizon.

    ``trace(C Pt Cr^T) + sum_i trace(M_i Pt Mr_i Pt^T)`` with the
    controllability block Pt of the pair, which equals ``trace(B^T Qt Br)``.
    """
    require_pair(system, rom, interval)
    return _inner(system, rom, interval)


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
