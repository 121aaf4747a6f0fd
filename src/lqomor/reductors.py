"""Projection-based reduction algorithms.

All four reductors produce a reduced model through the congruence

    Ar = W^T A V,  Br = W^T B,  Cr = C V,  Mr_i = V^T M_i V

with ``W^T V = I``.  The balancing methods (``bt``, ``tlbt``) pick the
projection from a square-root balancing of the controllability and total
observability Gramians; the fixed-point methods (``homora``, ``tlhnoia``)
share one Petrov-Galerkin loop that projects onto the spans of the coupled
Gramian blocks of the (system, model) pair, mixing the bases of slow sweeps,
until the reduced poles stagnate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimality
from .errors import DimensionError, NumericalError, RankError, SolverError, ValidationError
from .gramians import adjoint_block, balancing, controllability_block, require_pair
from .model import LqoSystem, TimeInterval


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
    An iterate of ``homora`` and ``tlhnoia`` is the plain image of a sweep.
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
    prev = np.sort(np.asarray(prev, dtype=complex), axis=None)
    new = np.sort(np.asarray(new, dtype=complex), axis=None)
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
    SolverError
        If a column's 2-norm before or after deflation is not finite (an
        overflow), reported with the column index.
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
        if not all(map(math.isfinite, (v0, w0, nv, nw))):
            raise SolverError(f"column {col} overflowed: its 2-norm is not finite", column=col)
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


def _norm(a):
    """Frobenius norm of ``a`` as ``np.linalg.norm(a)`` forms it, ``sqrt(x . x)``
    over ``a.ravel("K")``, bit for bit."""
    x = a.ravel("K")
    return math.sqrt(x.dot(x))


def _anderson(system, interval, pair, last, history):
    """One step of depth-2 Anderson type-II mixing (Walker & Ni, SIAM J.
    Numer. Anal. 2011) of the stacked bases ``X = [V; W]`` of the model just
    swept (``pair``, each column pair scaled to equal norms), whose sweep
    gave the plain image and its bases ``(V', W')``, ``last``.

    Each half of X is aligned by least squares to the span of its block,
    ``V' (V'^T V')^-1 V'^T V`` with span(V') = span(Pt) (the bi-orthogonal
    bases are far better conditioned than Pt and Gt), so that
    ``f = aligned - X`` measures the change of the spans, not of their
    coordinates.  ``history`` holds the last three ``(X, f)`` pairs; when
    ``f`` grows, only the previous pair is kept.  Returns the next model to
    sweep, its bases and the history: the model of the mixed bases, or
    ``last`` if there is one pair only, or with an empty history if the
    mixed model breaks down or, on an infinite horizon, is not Hurwitz.
    """
    n = len(pair.V)
    # column norms as np.linalg.norm(V, axis=0) forms them; the columns of W
    # are unit
    scale = np.sqrt(np.add.reduce(pair.V * pair.V, axis=0)) ** -0.5
    x = np.vstack((pair.V * scale, pair.W / scale))
    # both halves in one stack: numpy runs the same BLAS and LAPACK call on
    # each matrix of a stack as on that matrix alone
    k = np.array((last[1].V, last[1].W))
    kt = k.transpose(0, 2, 1)
    f = (k @ np.linalg.solve(kt @ k, kt @ x.reshape(k.shape))).reshape(x.shape) - x
    if history and _norm(f) > _norm(history[-1][1]):
        history = history[-1:]
    history = (history + [(x, f)])[-3:]
    if len(history) > 1:
        # the differences of consecutive X and f, one column each
        dx, df = ((h[1:] - h[:-1]).reshape(len(history) - 1, -1).T
                  for h in map(np.array, zip(*history)))
        gamma = np.linalg.lstsq(df, f.ravel(), rcond=None)[0]
        mixed = x + f - ((dx + df) @ gamma).reshape(x.shape)
        try:
            pair = biorthogonalize(mixed[:n], mixed[n:])
            rom = _project(system, pair.V, pair.W)
            if not interval.is_infinite or rom.is_hurwitz:
                return rom, pair, history
        except NumericalError:
            pass
        history = []
    return (*last, history)


def _fixed_point(method, system, rom0, interval, tol, max_iter):
    """The Petrov-Galerkin fixed-point loop shared by both iterative methods.

    Per sweep: the controllability block Pt of the (system, model) pair
    (:func:`lqomor.gramians.controllability_block`), its adjoint block
    ``Gt = Yt + 2 Zt`` (one observability solve,
    :func:`lqomor.gramians.adjoint_block`), ``biorthogonalize(Pt, Gt)``
    and the projection, the sweep's plain image.  A Petrov-Galerkin model
    depends only on span(Pt) and span(Gt), so no normalization factor is
    needed.  The coupled blocks are Sylvester solves with no Hurwitz test,
    so unstable iterates pass.  Every model swept, ``rom0`` included,
    keeps its blocks, so the residuals of a returned model that a sweep
    read do not solve its Pt and Gt again.  The loop stops when the poles
    of consecutive plain images stagnate (relative change ``<= tol``),
    after ``max_iter`` sweeps, or when a sweep raises a
    :class:`NumericalError` (an overflow included), which adds one note
    naming the sweep.

    The next model swept is the plain image while the pole change falls at
    least tenfold per sweep.  From the first sweep where it does not on, it
    is the mixed model of :func:`_anderson`, except after the last sweep
    ``max_iter`` allows.  A mixed model whose sweep breaks down adds no
    iterate: the loop goes on from the last plain image.

    The returned model is the last plain image whose horizon norm exists:
    on a finite horizon the last one, on an infinite one the last Hurwitz
    one (``rom0`` if there is none).  ``converged`` is true only if the poles
    stagnated on the returned iterate.  Its residuals,
    :func:`lqomor.optimality.tl_residuals` on ``interval`` whatever the
    horizon, are computed under the same guard: if
    any overflows (a ``SolverError``), the model is still returned, with
    ``residuals`` None and a note.  A negative
    ``max_iter`` or a NaN or negative ``tol`` raises ``ValidationError``
    before any check or solve.  The start is checked by
    :func:`lqomor.gramians.require_pair` on ``interval``, so a Hurwitz A
    and ``rom0`` are needed on an infinite horizon only, then for
    ``0 < n <= N``.
    """
    if max_iter < 0:
        raise ValidationError(f"max_iter must be nonnegative, got {max_iter}")
    if not tol >= 0.0:
        raise ValidationError(f"tol must be a nonnegative number, got {tol}")
    require_pair(system, rom0, interval)
    if not 0 < rom0.order <= system.order:
        raise ValidationError(
            f"initial order must satisfy 0 < n <= {system.order}, got {rom0.order}"
        )
    rom = rom0
    pole_history = [rom.poles()]
    metric = []
    notes = []
    kept = (rom0, None, False)
    pair = last = None
    mixing, history = False, []
    for it in range(1, max_iter + 1):
        try:
            pt = controllability_block(system, rom, interval)
            new = biorthogonalize(pt, adjoint_block(system, rom, interval)[0])
            image = _project(system, new.V, new.W)
        except NumericalError as exc:
            if last is None or rom is last[0]:
                notes.append(f"sweep {it} broke down ({exc}); returning the kept iterate")
                break
            (rom, pair), history = last, []
            continue
        poles = image.poles()
        metric.append(pole_change(pole_history[-1], poles))
        pole_history.append(poles)
        stagnated = metric[-1] <= tol
        if not interval.is_infinite or image.is_hurwitz:
            kept = (image, new, stagnated)
        if stagnated:
            if kept[0] is not image:
                notes.append("poles stagnated on a non-Hurwitz iterate")
            break
        last = (image, new)
        mixing = mixing or len(metric) > 1 and metric[-1] > metric[-2] / 10.0
        if mixing and it < max_iter:
            rom, pair, history = _anderson(system, interval, pair, last, history)
        else:
            rom, pair = last
    else:
        notes.append(f"no pole stagnation within {max_iter} iterations")
    rom, pair, converged = kept
    if not rom.is_hurwitz:
        notes.append("returned reduced model is not Hurwitz")
    try:
        residuals = optimality.tl_residuals(system, rom, interval)
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
    ``Gt = Yt + 2 Zt`` of the pair, mixing the bases once the reduced poles
    settle slowly, until they stagnate.
    Unstable iterates are passed through, but the returned model is the
    last Hurwitz iterate (``rom0`` if there is none), and ``converged`` is
    true only if the poles stagnated on it.  A breakdown ends the run with a
    note and returns that iterate.

    Returns
    -------
    ReductionReport
        With ``residuals`` populated by :func:`lqomor.optimality.tl_residuals`
        on [0, inf), or None with a note if they broke down.
    """
    return _fixed_point(
        "homora", system, rom0, TimeInterval(0.0, np.inf), tol, max_iter
    )


def tlhnoia(system, rom0, interval, tol=1e-6, max_iter=200):
    """Fixed-point iteration for the horizon-limited near-optimality conditions.

    The shared Petrov-Galerkin loop of :func:`homora` on ``interval``: each
    sweep projects onto the spans of the horizon-limited blocks Pt and
    ``Gt = Yt + 2 Zt`` of the pair, mixing the bases once the reduced poles
    settle slowly, until they stagnate.  The finite-horizon equations stay
    well posed for an unstable system, start or iterate, so on a finite
    horizon the returned
    model is the last iterate; it may legitimately be non-Hurwitz (it is
    then flagged in the warnings, not rejected).  On an infinite horizon it
    is the last Hurwitz iterate, as for :func:`homora`, which is this loop
    on [0, inf).  A breakdown ends the run with a note and returns the
    iterate before it.

    Returns
    -------
    ReductionReport
        With ``residuals`` populated by :func:`lqomor.optimality.tl_residuals`,
        all four conditions also for a non-Hurwitz result on a finite
        horizon, or None with a note if they overflowed.
    """
    return _fixed_point("tlhnoia", system, rom0, interval, tol, max_iter)
