"""Reduction objective, analytic gradients and optimality-condition residuals.

The objective is the part of the squared horizon-limited error norm that
depends on the reduced model,

    J = trace(-2 B^T Qt Br + Br^T Qh Br) = -2 <H, Hr> + ||Hr||^2,

so that ``||H - Hr||^2 = ||H||^2 + J``; it is evaluated from the
controllability blocks Pt and Ph alone (:func:`lqomor.norms.output_energy`).  First-order stationarity of J
yields four matrix conditions, each residual half the gradient of J with
respect to the matching reduced matrix.  Three of them involve only
horizon-limited Gramian blocks; the condition on the reduced A carries a
deviation term ``L`` built from infinite-horizon blocks, the differences
between infinite and horizon-limited blocks, and a Frechet-derivative term
of the matrix exponential at the horizon boundaries.  All four exist for
every uniquely solvable pair, Hurwitz or not: one whose Gramian equations
have no two eigenvalues summing to zero (else ``SolverError``).

All gradients follow the entrywise convention ``dJ = sum_ij G_ij dX_ij``
and are validated against central finite differences of :func:`objective_J`
in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import ValidationError
from .gramians import (
    controllability_block,
    cross_gramians,
    observability_block,
    require_pair,
)
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
    from the identity: ``||Ph - I||`` and ``||Yh + 2 Zh - I||``.
    """

    premise_input: float
    premise_output: float
    premise_quadratic: float
    conclusion_controllability: float
    conclusion_observability: float


def _objective(system, rom, pt, ph):
    """J from the controllability blocks Pt and Ph: ``-2 <H, Hr> + ||Hr||^2``."""
    return -2.0 * output_energy(system, rom, pt) + output_energy(rom, rom, ph)


def objective_J(system, rom, interval):
    """Reduced-model-dependent part of the squared error norm.

    Satisfies ``h2tau_error(system, rom)^2 = h2tau_norm(system)^2 + J``;
    needs only the controllability blocks Pt and Ph.
    """
    require_pair(system, rom, interval)
    return _objective(
        system, rom,
        controllability_block(system, rom, interval),
        controllability_block(rom, rom, interval),
    )


def _infinite_adjoints(system, rom, cg):
    """Infinite-horizon blocks entering the gradient of J with respect to Ar.

    The [0, inf) controllability blocks ``pti, phi`` of the pair and of the
    reduced model, and the [0, inf) observability blocks ``zb, zbn`` whose
    kernels carry the horizon-limited Pt and Ph.
    """
    inf = TimeInterval(0.0, np.inf)
    pti = controllability_block(system, rom, inf)
    phi = controllability_block(rom, rom, inf)
    kt = sum(mi @ cg.Pt @ mhi for mi, mhi in zip(system.M, rom.M))
    zb = observability_block(system, rom, inf, kt)
    kh = sum(mhi @ cg.Ph @ mhi for mhi in rom.M)
    zbn = observability_block(rom, rom, inf, kh)
    return pti, phi, zb, zbn


def _boundary_direction(system, rom, cg, pti, phi, zb, zbn, s, sh):
    """Direction matrix of the Frechet boundary term at one horizon endpoint."""
    b, c = system.B, system.C
    bh, ch = rom.B, rom.C
    v = (
        pti.T @ s.T @ c.T @ ch
        + bh @ b.T @ s.T @ zb
        - phi @ sh.T @ ch.T @ ch
        - bh @ bh.T @ sh.T @ zbn
    )
    for mi, mhi in zip(system.M, rom.M):
        v = v + pti.T @ s.T @ mi @ cg.Pt @ mhi - phi @ sh.T @ mhi @ cg.Ph @ mhi
    return v


def _w_total(system, rom, cg, adjoints, interval):
    """Frechet boundary term: its value at t1 minus its value at t0."""
    w = np.zeros_like(rom.A)
    for sign, t in ((-1.0, interval.t_start), (1.0, interval.t_end)):
        if t == 0.0:
            continue
        v = _boundary_direction(
            system, rom, cg, *adjoints, system.schur.expm(t), rom.schur.expm(t)
        )
        w = w + sign * matfun.expm_frechet(rom.A, v, t)
    return w


def _stationarity(system, rom, cg, interval):
    """The four stationarity blocks, each half the gradient of J.

    Returns ``(op1, op2, op3, op4, pg, L, splits)`` with ``op1 = pg + L``.
    On the infinite horizon ``L`` is zero and ``splits`` is None.
    """
    gt = cg.Yt + 2.0 * cg.Zt
    gh = cg.Yh + 2.0 * cg.Zh
    op2 = [
        -cg.Pt.T @ mi @ cg.Pt + cg.Ph @ mhi @ cg.Ph
        for mi, mhi in zip(system.M, rom.M)
    ]
    op3 = -gt.T @ system.B + gh @ rom.B
    op4 = -system.C @ cg.Pt + rom.C @ cg.Ph
    pg = -gt.T @ cg.Pt + gh @ cg.Ph
    if interval.is_infinite:
        return pg, op2, op3, op4, pg, np.zeros_like(pg), None
    adjoints = _infinite_adjoints(system, rom, cg)
    pti, phi, zb, zbn = adjoints
    w = _w_total(system, rom, cg, adjoints, interval)
    p12 = pti - cg.Pt
    pn = phi - cg.Ph
    z12 = zb - cg.Zt
    zn = zbn - cg.Zh
    l_mat = -cg.Qt.T @ p12 + cg.Qh @ pn - z12.T @ cg.Pt + zn @ cg.Ph + w.T
    splits = {"P12": p12, "Pn": pn, "Z12": z12, "Zn": zn, "W": w}
    return pg + l_mat, op2, op3, op4, pg, l_mat, splits


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
    cg = cross_gramians(system, rom, interval)
    op1, op2, op3, op4 = _stationarity(system, rom, cg, interval)[:4]
    return GradientReport(
        J=_objective(system, rom, cg.Pt, cg.Ph),
        grad_A=2.0 * op1,
        grad_B=2.0 * op3,
        grad_C=2.0 * op4,
        grad_M=[2.0 * r for r in op2],
    )


def _norm2(mat):
    return float(np.linalg.norm(mat, 2))


def _report(system, rom, interval):
    cg = cross_gramians(system, rom, interval)
    op1, op2, op3, op4, pg, l_mat, splits = _stationarity(system, rom, cg, interval)
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
    collects the infinite-minus-limited splits and the boundary Frechet
    term; conditions two to four use horizon-limited blocks only.  All four
    exist for every uniquely solvable pair, Hurwitz or not.

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
    times = [interval.t_end]
    if interval.t_start > 0.0:
        times.append(interval.t_start)
    dev_in = dev_out = dev_quad = 0.0
    for t in times:
        s = system.schur.expm(t)
        sh = rom.schur.expm(t)
        dev_in = max(dev_in, float(np.linalg.norm(w.T @ s @ b - sh @ bh, 2)))
        dev_out = max(dev_out, float(np.linalg.norm(c @ s @ v - ch @ sh, 2)))
        for mi, mhi in zip(system.M, rom.M):
            dev_quad = max(
                dev_quad, float(np.linalg.norm(v.T @ mi @ s @ v - mhi @ sh, 2))
            )
    cg = cross_gramians(system, rom, interval)
    eye = np.eye(rom.order)
    return Theorem2Report(
        premise_input=dev_in,
        premise_output=dev_out,
        premise_quadratic=dev_quad,
        conclusion_controllability=float(np.linalg.norm(cg.Ph - eye, 2)),
        conclusion_observability=float(np.linalg.norm(cg.Yh + 2.0 * cg.Zh - eye, 2)),
    )
