"""Reduction objective, analytic gradients and optimality-condition residuals.

The objective is the part of the squared horizon-limited error norm that
depends on the reduced model,

    J = trace(-2 B^T Qt Br + Br^T Qh Br) = -2 <H, Hr> + ||Hr||^2,

so that ``||H - Hr||^2 = ||H||^2 + J``; it is evaluated from the
controllability blocks Pt and Ph alone (:func:`lqomor.norms.output_energy`).  First-order stationarity of J
yields four matrix conditions, each residual half the gradient of J with
respect to the matching reduced matrix.  Three of them, and the
Petrov-Galerkin part of the condition on the reduced A, read only the
horizon-limited controllability blocks Pt, Ph and the adjoint blocks
``Gt = Yt + 2 Zt`` and ``Gh = Yh + 2 Zh``, one solve each
(:func:`lqomor.gramians.adjoint_block`).  The condition on the reduced A
carries a deviation term ``L``, which only a finite horizon needs: the
[0, inf) adjoint blocks ``Xt`` and ``Xh`` of the same kernels as Gt and Gh
(one more solve each) minus Gt and Gh, and a Frechet-derivative term of
the matrix exponential at the horizon boundaries.  All four exist for
every uniquely solvable pair, Hurwitz or not: one whose Gramian equations
have no two eigenvalues summing to zero (else ``SolverError``).

All gradients follow the entrywise convention ``dJ = sum_ij G_ij dX_ij``
and are validated against central finite differences of :func:`objective_J`
in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import SolverError, ValidationError
from .gramians import adjoint_block, boundaries, controllability_block, require_pair
from .model import TimeInterval
from .norms import output_energy


@dataclass(frozen=True)
class GradientReport:
    """Objective value and its gradients with respect to the reduced matrices."""

    J: float
    grad_A: np.ndarray
    grad_B: np.ndarray
    grad_C: np.ndarray
    grad_M: list


@dataclass(frozen=True)
class OptimalityReport:
    """Residual matrices and norms of the four stationarity conditions.

    ``op1_residual = petrov_galerkin_term + L`` holds exactly as assembled.
    On a finite horizon ``splits`` holds the parts of ``L``: the tails
    ``tail_t = Xt - Gt`` and ``tail_h = Xh - Gh`` of the adjoint blocks
    beyond the horizon and the boundary Frechet term ``W``, with
    ``L = -tail_t^T Pt + tail_h Ph + W``; on [0, inf) it is None.
    """

    op1_residual: np.ndarray
    op1_norm: float
    op2_residuals: list
    op2_norms: list
    op3_residual: np.ndarray
    op3_norm: float
    op4_residual: np.ndarray
    op4_norm: float
    L: np.ndarray
    petrov_galerkin_term: np.ndarray
    horizon: str
    splits: dict = None


@dataclass(frozen=True)
class Theorem2Report:
    """Premise and conclusion deviations of the identity-Gramian projection test.

    Premise deviations measure, at each finite horizon boundary tau,
    ``||W^T e^(A tau) B - e^(Ar tau) Br||``, ``||C e^(A tau) V - Cr e^(Ar tau)||``
    and ``max_i ||V^T M_i e^(A tau) V - Mr_i e^(Ar tau)||`` (maximum over the
    boundaries).  Conclusion deviations measure how far the reduced blocks are
    from the identity: ``||Ph - I||`` and ``||Gh - I||`` with the adjoint
    block ``Gh = Yh + 2 Zh``.
    """

    premise_input: float
    premise_output: float
    premise_quadratic: float
    conclusion_controllability: float
    conclusion_observability: float


def _objective(system, rom, pt, ph):
    """J from the controllability blocks Pt and Ph: ``-2 <H, Hr> + ||Hr||^2``."""
    return -2.0 * output_energy(system, rom, pt) + output_energy(rom, rom, ph)


def _controllability_blocks(system, rom, interval):
    """Pt and Ph of the pair on ``interval``, after :func:`require_pair`."""
    require_pair(system, rom, interval)
    return (
        controllability_block(system, rom, interval),
        controllability_block(rom, rom, interval),
    )


def objective_J(system, rom, interval):
    """Reduced-model-dependent part of the squared error norm.

    Satisfies ``h2tau_error(system, rom)^2 = h2tau_norm(system)^2 + J``;
    needs only the controllability blocks Pt and Ph.
    """
    return _objective(system, rom, *_controllability_blocks(system, rom, interval))


def _stationarity(system, rom, interval, pt, ph):
    """The four stationarity blocks, each half the gradient of J, from the
    controllability blocks Pt and Ph of the pair.

    Returns ``(op1, op2, op3, op4, pg, L, splits)`` with ``op1 = pg + L``.
    On a finite horizon the gradient of J tests ``dPt`` and ``dPh`` against
    the [0, inf) adjoints ``Xt``, ``Xh`` of the kernels of Gt and Gh, so
    ``op1 = -Xt^T Pt + Xh Ph + W``.  The boundary term is
    ``W = sum_k s_k L_exp(Ar^T, V_k Br^T, t_k)`` with
    ``V_k = Xh e^(Ar t_k) Br - Xt^T e^(A t_k) B``, where ``L_exp`` is the
    Frechet derivative of the exponential (:func:`lqomor.matfun.expm_frechet`),
    ``s = +1`` at t0 (no term for t0 = 0) and ``s = -1`` at t1.  ``splits``
    holds the parts of ``L``: ``tail_t = Xt - Gt``, ``tail_h = Xh - Gh``
    and ``W``.  On the infinite horizon ``L`` is zero and ``splits`` is None.
    """
    gt = adjoint_block(system, rom, interval)
    gh = adjoint_block(rom, rom, interval)
    op2 = [-pt.T @ mi @ pt + ph @ mhi @ ph for mi, mhi in zip(system.M, rom.M)]
    op3 = -gt.T @ system.B + gh @ rom.B
    op4 = -system.C @ pt + rom.C @ ph
    pg = -gt.T @ pt + gh @ ph
    if interval.is_infinite:
        return pg, op2, op3, op4, pg, np.zeros_like(pg), None
    inf = TimeInterval(0.0, np.inf)
    xt = adjoint_block(system, rom, interval, inf)
    xh = adjoint_block(rom, rom, interval, inf)
    w = np.zeros_like(pg)
    for sign, t, s, sh in zip((1.0, -1.0), (interval.t_start, interval.t_end),
                              boundaries(system, interval), boundaries(rom, interval)):
        if s is not None:
            v = xh @ sh @ rom.B - xt.T @ (s @ system.B)
            w = w + sign * matfun.expm_frechet(rom.A.T, v @ rom.B.T, t)
    tail_t, tail_h = xt - gt, xh - gh
    l_mat = -tail_t.T @ pt + tail_h @ ph + w
    op1 = pg + l_mat
    if not np.isfinite(op1).all():
        raise SolverError("first stationarity residual overflowed")
    splits = {"tail_t": tail_t, "tail_h": tail_h, "W": w}
    return op1, op2, op3, op4, pg, l_mat, splits


def gradients(system, rom, interval):
    """Analytic gradients of the objective with respect to (Ar, Br, Cr, Mr_i).

    Requires a finite horizon and a uniquely solvable pair, Hurwitz or not.
    Each block is exactly twice the matching :func:`tl_residuals` block, and
    every block matches a central finite difference of :func:`objective_J`.

    Returns
    -------
    GradientReport
    """
    if interval.is_infinite:
        raise ValidationError("gradients require a finite horizon")
    pt, ph = _controllability_blocks(system, rom, interval)
    op1, op2, op3, op4 = _stationarity(system, rom, interval, pt, ph)[:4]
    return GradientReport(
        J=_objective(system, rom, pt, ph),
        grad_A=2.0 * op1,
        grad_B=2.0 * op3,
        grad_C=2.0 * op4,
        grad_M=[2.0 * r for r in op2],
    )


def _norm2(mat):
    return float(np.linalg.norm(mat, 2))


def _report(system, rom, interval):
    pt, ph = _controllability_blocks(system, rom, interval)
    op1, op2, op3, op4, pg, l_mat, splits = _stationarity(system, rom, interval, pt, ph)
    return OptimalityReport(
        op1_residual=op1,
        op1_norm=_norm2(op1),
        op2_residuals=op2,
        op2_norms=[_norm2(r) for r in op2],
        op3_residual=op3,
        op3_norm=_norm2(op3),
        op4_residual=op4,
        op4_norm=_norm2(op4),
        L=l_mat,
        petrov_galerkin_term=pg,
        horizon="infinite" if interval.is_infinite else "limited",
        splits=splits,
    )


def tl_residuals(system, rom, interval):
    """Residuals of the four horizon-limited stationarity conditions.

    The first condition reads ``petrov_galerkin_term + L = 0`` where L
    collects the tails of the adjoint blocks beyond the horizon and the
    boundary Frechet term; conditions two to four use horizon-limited
    blocks only.  All four exist for every uniquely solvable pair, Hurwitz
    or not.

    Returns
    -------
    OptimalityReport
    """
    if interval.is_infinite:
        raise ValidationError("horizon-limited residuals require a finite horizon")
    return _report(system, rom, interval)


def h2_residuals(system, rom):
    """Residuals of the four infinite-horizon stationarity conditions.

    Both systems must be Hurwitz.  Here the first condition has no
    deviation term, so ``op1_residual`` equals the Petrov-Galerkin term and
    ``L`` is exactly zero.

    Returns
    -------
    OptimalityReport
    """
    return _report(system, rom, TimeInterval(0.0, np.inf))


def theorem2_check(system, rom, pair, interval):
    """Diagnose the premises and conclusions of the identity-Gramian property.

    For the projection choice whose reduced Gramian blocks would collapse to
    the identity, the property requires the projected propagator to commute
    with reduction at the horizon boundaries.  This diagnostic reports the
    deviations without asserting any threshold.

    Returns
    -------
    Theorem2Report
    """
    if interval.is_infinite:
        raise ValidationError("the identity-Gramian diagnostic requires a finite horizon")
    v, w = pair.V, pair.W
    b, c = system.B, system.C
    bh, ch = rom.B, rom.C
    dev_in = dev_out = dev_quad = 0.0
    for s, sh in zip(boundaries(system, interval), boundaries(rom, interval)):
        if s is None:
            continue
        dev_in = max(dev_in, float(np.linalg.norm(w.T @ s @ b - sh @ bh, 2)))
        dev_out = max(dev_out, float(np.linalg.norm(c @ s @ v - ch @ sh, 2)))
        for mi, mhi in zip(system.M, rom.M):
            dev_quad = max(
                dev_quad, float(np.linalg.norm(v.T @ mi @ s @ v - mhi @ sh, 2))
            )
    require_pair(system, rom, interval)
    ph = controllability_block(rom, rom, interval)
    gh = adjoint_block(rom, rom, interval)
    eye = np.eye(rom.order)
    return Theorem2Report(
        premise_input=dev_in,
        premise_output=dev_out,
        premise_quadratic=dev_quad,
        conclusion_controllability=float(np.linalg.norm(ph - eye, 2)),
        conclusion_observability=float(np.linalg.norm(gh - eye, 2)),
    )
