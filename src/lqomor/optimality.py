"""Reduction objective, analytic gradients and optimality-condition residuals.

The objective is the part of the squared horizon-limited error norm that
depends on the reduced model,

    J = trace(-2 B^T Qt Br + Br^T Qh Br) = -2 <H, Hr> + ||Hr||^2,

so that ``||H - Hr||^2 = ||H||^2 + J``; it is evaluated from the
controllability blocks Pt and Ph alone, as the kept inner products of
:func:`lqomor.norms.h2tau_error`.  First-order stationarity of J
yields four matrix conditions, each residual half the gradient of J with
respect to the matching reduced matrix, all built by one assembly,
:func:`tl_residuals`, that :func:`h2_residuals` and :func:`gradients`
read.  Three of them, and the Petrov-Galerkin part of the condition on
the reduced A, read only the horizon-limited controllability blocks Pt,
Ph and the adjoint blocks ``Gt = Yt + 2 Zt`` and ``Gh = Yh + 2 Zh``, one
solve each (:func:`lqomor.gramians.adjoint_block`).  The condition on the reduced A
carries a deviation term ``L``: the [0, inf) adjoint blocks ``Xt`` and
``Xh`` of the same kernels as Gt and Gh (the solves that Gt and Gh weight,
so Gt and Gh themselves on [0, inf)) minus Gt and Gh, and a
Frechet-derivative term of the matrix exponential at the horizon
boundaries t0 > 0 and t1 < inf.  On [0, inf) both parts, and with them
``L``, are exactly zero.  One assembly serves every horizon, [0, inf)
and [t0, inf) included.  On a finite horizon all four exist for every
uniquely solvable pair, Hurwitz or not: one whose Gramian equations have
no two eigenvalues summing to zero (else ``SolverError``); an infinite
horizon needs both A Hurwitz.  A condition that overflowed raises
``SolverError``.

All gradients follow the entrywise convention ``dJ = sum_ij G_ij dX_ij``
and are validated against central finite differences of :func:`objective_J`
in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import SolverError
from .gramians import adjoint_block, boundaries, controllability_block, require_pair
from .model import TimeInterval
from .norms import _inner


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
    ``splits`` holds the parts of ``L``: the tails ``tail_t = Xt - Gt`` and
    ``tail_h = Xh - Gh`` of the adjoint blocks beyond the horizon and the
    boundary Frechet term ``W``, with ``L = -tail_t^T Pt + tail_h Ph + W``;
    on [0, inf) all three are exactly zero.
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
    splits: dict


@dataclass(frozen=True)
class Theorem2Report:
    """Premise and conclusion deviations of the identity-Gramian projection test.

    Premise deviations measure, at each horizon boundary tau other than
    t0 = 0 and t1 = inf (so they are 0 on [0, inf)),
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


def objective_J(system, rom, interval):
    """Reduced-model-dependent part of the squared error norm.

    Satisfies ``h2tau_error(system, rom)^2 = h2tau_norm(system)^2 + J``;
    reads the inner products that ``h2tau_error`` keeps, from the
    controllability blocks Pt and Ph alone.
    """
    require_pair(system, rom, interval)
    return -2.0 * _inner(system, rom, interval) + _inner(rom, rom, interval)


def _norm2(mat, name):
    """Spectral norm of ``mat``; one that overflowed raises ``SolverError``."""
    if not np.isfinite(mat).all():
        raise SolverError(f"{name} overflowed")
    return float(np.linalg.norm(mat, 2))


def tl_residuals(system, rom, interval):
    """Residuals of the four stationarity conditions on ``interval``: the
    one assembly of them, each residual half the gradient of J, from the
    kept blocks Pt, Ph, Gt and Gh.  :func:`h2_residuals` returns it on
    [0, inf), :func:`gradients` doubles its blocks.

    The first condition reads ``petrov_galerkin_term + L = 0`` where L
    collects the tails of the adjoint blocks beyond the horizon and the
    boundary Frechet term; conditions two to four use horizon-limited
    blocks only.  On a finite horizon all four exist for every uniquely
    solvable pair, Hurwitz or not; an infinite one needs both Hurwitz.

    The gradient of J tests ``dPt`` and ``dPh`` against the [0, inf)
    adjoints ``Xt``, ``Xh`` of the kernels of Gt and Gh, the solves that
    :func:`lqomor.gramians.adjoint_block` keeps beside them, so
    ``op1 = -Xt^T Pt + Xh Ph + W``.  The boundary term is
    ``W = sum_k s_k L_exp(Ar^T, V_k Br^T, t_k)`` with
    ``V_k = Xh e^(Ar t_k) Br - Xt^T e^(A t_k) B``, where ``L_exp`` is the
    Frechet derivative of the exponential (:func:`lqomor.matfun.expm_frechet`),
    ``s = +1`` at t0 and ``s = -1`` at t1 (no term for t0 = 0 or t1 = inf).
    ``splits`` holds the parts of ``L``: ``tail_t = Xt - Gt``,
    ``tail_h = Xh - Gh`` and ``W``.  On [0, inf) ``Xt`` and ``Xh`` are the
    kept Gt and Gh, so the tails, ``W`` and ``L`` are exactly zero and
    ``op1`` is the Petrov-Galerkin term, from the same four solves.
    A Frechet direction or a residual that overflowed raises ``SolverError``.

    Returns
    -------
    OptimalityReport
    """
    require_pair(system, rom, interval)
    pt = controllability_block(system, rom, interval)
    ph = controllability_block(rom, rom, interval)
    gt, xt = adjoint_block(system, rom, interval)
    gh, xh = adjoint_block(rom, rom, interval)
    op2 = [-pt.T @ mi @ pt + ph @ mhi @ ph for mi, mhi in zip(system.M, rom.M)]
    op3 = -gt.T @ system.B + gh @ rom.B
    op4 = -system.C @ pt + rom.C @ ph
    pg = -gt.T @ pt + gh @ ph
    w = np.zeros_like(pg)
    for sign, t, s, sh in zip((1.0, -1.0), (interval.t_start, interval.t_end),
                              boundaries(system, interval), boundaries(rom, interval)):
        if s is not None:
            v = (xh @ sh @ rom.B - xt.T @ (s @ system.B)) @ rom.B.T
            if not np.isfinite(v).all():
                raise SolverError("first stationarity residual overflowed")
            w = w + sign * matfun.expm_frechet(rom.A.T, v, t)
    tail_t, tail_h = xt - gt, xh - gh
    l_mat = -tail_t.T @ pt + tail_h @ ph + w
    op1 = pg + l_mat
    return OptimalityReport(
        op1_residual=op1,
        op1_norm=_norm2(op1, "first stationarity residual"),
        op2_residuals=op2,
        op2_norms=[_norm2(r, "second stationarity residual") for r in op2],
        op3_residual=op3,
        op3_norm=_norm2(op3, "third stationarity residual"),
        op4_residual=op4,
        op4_norm=_norm2(op4, "fourth stationarity residual"),
        L=l_mat,
        petrov_galerkin_term=pg,
        horizon="infinite" if interval.is_infinite else "limited",
        splits={"tail_t": tail_t, "tail_h": tail_h, "W": w},
    )


def gradients(system, rom, interval):
    """Analytic gradients of the objective with respect to (Ar, Br, Cr, Mr_i).

    Takes every horizon and a uniquely solvable pair, Hurwitz or not on a
    finite horizon, Hurwitz on an infinite one.  Each block is exactly
    twice the matching :func:`tl_residuals` block, and every block matches
    a central finite difference of :func:`objective_J`.

    Returns
    -------
    GradientReport
    """
    rep = tl_residuals(system, rom, interval)
    return GradientReport(
        J=objective_J(system, rom, interval),
        grad_A=2.0 * rep.op1_residual,
        grad_B=2.0 * rep.op3_residual,
        grad_C=2.0 * rep.op4_residual,
        grad_M=[2.0 * r for r in rep.op2_residuals],
    )


def h2_residuals(system, rom):
    """Residuals of the four infinite-horizon stationarity conditions:
    :func:`tl_residuals` on [0, inf).

    Both systems must be Hurwitz.  Here the first condition has no
    deviation term, so ``op1_residual`` equals the Petrov-Galerkin term and
    ``L`` is exactly zero.

    Returns
    -------
    OptimalityReport
    """
    return tl_residuals(system, rom, TimeInterval(0.0, np.inf))


def theorem2_check(system, rom, pair, interval):
    """Diagnose the premises and conclusions of the identity-Gramian property.

    For the projection choice whose reduced Gramian blocks would collapse to
    the identity, the property requires the projected propagator to commute
    with reduction at the horizon boundaries.  This diagnostic reports the
    deviations without asserting any threshold; on [0, inf) there is no
    such boundary, and the premise deviations are 0.  The pair's
    preconditions (:func:`lqomor.gramians.require_pair`) come first.

    Returns
    -------
    Theorem2Report
    """
    require_pair(system, rom, interval)
    v, w = pair.V, pair.W
    b, c = system.B, system.C
    bh, ch = rom.B, rom.C
    dev_in = dev_out = dev_quad = 0.0
    for s, sh in zip(boundaries(system, interval), boundaries(rom, interval)):
        if s is None:
            continue
        dev_in = max(dev_in, _norm2(w.T @ s @ b - sh @ bh, "premise deviation"))
        dev_out = max(dev_out, _norm2(c @ s @ v - ch @ sh, "premise deviation"))
        for mi, mhi in zip(system.M, rom.M):
            quad = v.T @ mi @ s @ v - mhi @ sh
            dev_quad = max(dev_quad, _norm2(quad, "premise deviation"))
    ph = controllability_block(rom, rom, interval)
    gh = adjoint_block(rom, rom, interval)[0]
    eye = np.eye(rom.order)
    return Theorem2Report(
        premise_input=dev_in,
        premise_output=dev_out,
        premise_quadratic=dev_quad,
        conclusion_controllability=_norm2(ph - eye, "conclusion deviation"),
        conclusion_observability=_norm2(gh - eye, "conclusion deviation"),
    )
