"""Projection-based reduction algorithms.

All four reductors produce a reduced model through the congruence

    Ar = W^T A V,  Br = W^T B,  Cr = C V,  Mr_i = V^T M_i V

with ``W^T V = I``.  The balancing methods (``bt``, ``tlbt``) pick the
projection from a square-root balancing of the controllability and total
observability Gramians; the fixed-point methods (``homora``, ``tlhnoia``)
share one Petrov-Galerkin loop that projects onto the spans of the coupled
Gramian blocks of the (system, model) pair until the reduced poles stagnate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matfun, optimality
from .errors import DimensionError, NumericalError, RankError, ValidationError
from .gramians import balancing, sweep_blocks
from .model import LqoSystem, TimeInterval, require_same_io


@dataclass(frozen=True)
class ProjectionPair:
    """Right and left projection bases with ``W^T V = I``."""

    V: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one reduction run.

    ``pole_history`` has one sorted eigenvalue list per iterate including
    the starting point, so its length is ``iterations + 1``;
    ``convergence_metric`` holds the relative pole change per iteration.
    The ``sigma`` of ``bt`` and ``tlbt`` is the system's kept, read-only
    Hankel spectrum (see :func:`lqomor.gramians.balancing`).
    """

    method: str
    rom: LqoSystem
    iterations: int
    pole_history: list
    convergence_metric: list
    converged: bool
    residuals: optimality.OptimalityReport = None
    projection: ProjectionPair = None
    sigma: np.ndarray = None
    warnings: tuple = ()


def pole_change(prev, new):
    """Relative pole displacement between two eigenvalue lists.

    Both lists are sorted lexicographically by (real, imaginary) part and
    compared pairwise; the metric is
    ``max_k |prev_k - new_k| / max(1, |prev_k|)``.
    """
    prev = np.sort_complex(np.asarray(prev, dtype=complex).reshape(-1))
    new = np.sort_complex(np.asarray(new, dtype=complex).reshape(-1))
    if prev.size != new.size:
        raise DimensionError(
            f"eigenvalue lists differ in length: {prev.size} vs {new.size}"
        )
    return float((np.abs(prev - new) / np.maximum(1.0, np.abs(prev))).max())


def biorthogonalize(v, w):
    """Column-by-column bi-orthogonal Gram-Schmidt sweep.

    Each column pair is deflated against the previously fixed columns,
    normalized to unit 2-norm, and the right column is rescaled by
    ``1 / (w^T v)`` so that ``W^T V = I``.

    Returns
    -------
    ProjectionPair

    Raises
    ------
    RankError
        If a column collapses under deflation or the normalization pivot
        ``|w^T v|`` falls below 1e-13, reported with the column index.

    Each column pair is deflated in contiguous copies against the strided
    columns ``v[:, j]``, ``w[:, j]``: the BLAS dot kernel, and with it the
    last bits of every product, depends on that memory layout, so the
    fixed-point paths are reproducible only with it.  A norm is
    ``sqrt(x . x)`` of such a copy, the sum ``np.linalg.norm`` forms.
    """
    v = np.array(v, dtype=float)
    w = np.array(w, dtype=float)
    if v.shape != w.shape or v.ndim != 2:
        raise DimensionError(f"V and W must share a shape, got {v.shape} and {w.shape}")
    if v.shape[1] > v.shape[0]:
        raise DimensionError(f"more columns than rows: {v.shape}")
    for col in range(v.shape[1]):
        vc = v[:, col].copy()
        wc = w[:, col].copy()
        v0 = math.sqrt(vc.dot(vc))
        w0 = math.sqrt(wc.dot(wc))
        for j in range(col):
            vc -= v[:, j] * w[:, j].dot(vc)
            wc -= w[:, j] * v[:, j].dot(wc)
        nv = math.sqrt(vc.dot(vc))
        nw = math.sqrt(wc.dot(wc))
        if nv <= 1e-13 * v0 or nw <= 1e-13 * w0:
            raise RankError(
                f"column {col} collapsed during deflation", column=col
            )
        vc /= nv
        wc /= nw
        pivot = wc.dot(vc)
        if abs(pivot) < 1e-13:
            raise RankError(
                f"normalization pivot |w^T v| = {abs(pivot):.3e} at column {col}",
                column=col,
            )
        v[:, col] = vc / pivot
        w[:, col] = wc
    return ProjectionPair(V=v, W=w)


def _project(system, v, w):
    return LqoSystem(
        w.T @ system.A @ v,
        w.T @ system.B,
        system.C @ v,
        [v.T @ mi @ v for mi in system.M],
        check_hurwitz=False,
    )


def _report(method, rom, pole_history, metric, converged, notes, **extra):
    """The report of a run whose ``metric`` has one entry per iteration."""
    return ReductionReport(
        method, rom, len(metric), pole_history, metric, converged,
        warnings=tuple(notes), **extra,
    )


def _balanced_truncation(method, system, n, interval):
    if not 0 < n <= system.order:
        raise ValidationError(f"order n must satisfy 0 < n <= {system.order}, got {n}")
    bal = balancing(system, interval)
    s = bal.sigma
    if s[n - 1] <= 1e-12 * s[0]:
        raise RankError(
            f"requested order {n} exceeds the numerical rank of the balancing "
            f"problem (sigma_n = {s[n - 1]:.3e})",
            order=n,
        )
    scale = 1.0 / np.sqrt(s[:n])
    v, w = bal.V[:, :n] * scale, bal.W[:, :n] * scale
    rom = _project(system, v, w)
    notes = []
    if not rom.is_hurwitz:
        notes.append(
            "reduced A is not Hurwitz; horizon-limited balancing does not "
            "guarantee stability"
        )
    return _report(
        method, rom, [rom.poles()], [], True, notes,
        projection=ProjectionPair(V=v, W=w), sigma=bal.sigma,
    )


def bt(system, n):
    """Balanced truncation with infinite-horizon Gramians.

    Balances the controllability Gramian against the total observability
    Gramian (linear plus quadratic part) and truncates to the ``n`` largest
    singular values, so that ``W^T P W = V^T Q V = diag(sigma_1..sigma_n)``.

    Returns
    -------
    ReductionReport
    """
    return _balanced_truncation("bt", system, n, TimeInterval(0.0, np.inf))


def tlbt(system, n, interval):
    """Balanced truncation with horizon-limited Gramians.

    Same square-root balancing as :func:`bt` applied to the Gramians of the
    given horizon.  Stability of the reduced model is not guaranteed; a
    non-Hurwitz result is returned with a warning entry, not an error.

    Returns
    -------
    ReductionReport
    """
    return _balanced_truncation("tlbt", system, n, interval)


def _check_start(system, rom0):
    """Start checks of the fixed-point methods: Hurwitz A, Hurwitz initial
    model, ``0 < n <= N`` and equal input/output counts, in this order."""
    matfun.require_hurwitz(system.schur, "A")
    matfun.require_hurwitz(rom0.schur, "initial reduced A")
    if not 0 < rom0.order <= system.order:
        raise ValidationError(
            f"initial order must satisfy 0 < n <= {system.order}, got {rom0.order}"
        )
    require_same_io(system, rom0)


def _fixed_point(method, system, rom0, interval, tol, max_iter):
    """The Petrov-Galerkin fixed-point loop shared by both iterative methods.

    Per sweep: the controllability block Pt of the (system, model) pair,
    its adjoint block ``Gt = Yt + 2 Zt`` (one observability solve), both
    from :func:`lqomor.gramians.sweep_blocks`, ``biorthogonalize(Pt, Gt)``
    and the projection.  A Petrov-Galerkin model depends only on span(Pt)
    and span(Gt), so no normalization factor is needed.  The mixed blocks
    are Sylvester solves with no Hurwitz test, so unstable iterates pass.
    ``rom0`` keeps its blocks, the iterates made here do not.  The
    loop stops when the reduced poles stagnate (relative change ``<= tol``),
    after ``max_iter`` sweeps, or when a sweep raises a
    :class:`NumericalError` (an overflow included), which adds one note
    naming the sweep.

    The returned model is the last iterate whose horizon norm exists: on a
    finite horizon the last iterate, on [0, inf) the last Hurwitz iterate
    (``rom0`` if there is none).  ``converged`` is true only if the poles
    stagnated on the returned iterate.  Its residuals are computed under the
    same guard: if they raise a :class:`NumericalError` (an overflow), the
    model is still returned, with ``residuals`` None and a note.
    """
    _check_start(system, rom0)
    rom = rom0
    pole_history = [rom.poles()]
    metric = []
    notes = []
    kept = (rom0, None, False)
    for it in range(1, max_iter + 1):
        try:
            pair = biorthogonalize(*sweep_blocks(system, rom, interval, rom is rom0))
            rom = _project(system, pair.V, pair.W)
        except NumericalError as exc:
            notes.append(f"sweep {it} broke down ({exc}); returning the kept iterate")
            break
        poles = rom.poles()
        metric.append(pole_change(pole_history[-1], poles))
        pole_history.append(poles)
        stagnated = metric[-1] <= tol
        if not interval.is_infinite or rom.is_hurwitz:
            kept = (rom, pair, stagnated)
        if stagnated:
            if kept[0] is not rom:
                notes.append("poles stagnated on a non-Hurwitz iterate")
            break
    else:
        notes.append(f"no pole stagnation within {max_iter} iterations")
    rom, pair, converged = kept
    if not rom.is_hurwitz:
        notes.append("returned reduced model is not Hurwitz")
    try:
        residuals = (
            optimality.h2_residuals(system, rom) if interval.is_infinite
            else optimality.tl_residuals(system, rom, interval)
        )
    except NumericalError as exc:
        residuals = None
        notes.append(f"residuals of the returned model broke down ({exc})")
    return _report(
        method, rom, pole_history, metric, converged, notes,
        residuals=residuals, projection=pair,
    )


def homora(system, rom0, tol=1e-6, max_iter=200):
    """Fixed-point iteration for the infinite-horizon optimality conditions.

    The shared Petrov-Galerkin loop of :func:`tlhnoia` on [0, inf): each
    sweep projects onto the spans of the infinite-horizon blocks Pt and
    ``Gt = Yt + 2 Zt`` of the pair, until the reduced poles stagnate.
    Unstable iterates are passed through, but the returned model is the
    last Hurwitz iterate (``rom0`` if there is none), and ``converged`` is
    true only if the poles stagnated on it.  A breakdown ends the run with a
    note and returns that iterate.

    Returns
    -------
    ReductionReport
        With ``residuals`` populated by :func:`lqomor.optimality.h2_residuals`,
        or None with a note if they broke down.
    """
    return _fixed_point(
        "homora", system, rom0, TimeInterval(0.0, np.inf), tol, max_iter
    )


def tlhnoia(system, rom0, interval, tol=1e-6, max_iter=200):
    """Fixed-point iteration for the horizon-limited near-optimality conditions.

    The shared Petrov-Galerkin loop of :func:`homora` on a finite horizon:
    each sweep projects onto the spans of the horizon-limited blocks Pt and
    ``Gt = Yt + 2 Zt`` of the pair, until the reduced poles stagnate.  The
    finite-horizon equations stay well posed for unstable iterates, so the
    returned model is the last iterate; it may legitimately be non-Hurwitz
    (it is then flagged in the warnings, not rejected).  A breakdown ends
    the run with a note and returns the iterate before it.

    Returns
    -------
    ReductionReport
        With ``residuals`` populated by :func:`lqomor.optimality.tl_residuals`,
        all four conditions also for a non-Hurwitz result, or None with a
        note if they overflowed.
    """
    if interval.is_infinite:
        raise ValidationError("this reductor requires a finite horizon")
    return _fixed_point("tlhnoia", system, rom0, interval, tol, max_iter)
