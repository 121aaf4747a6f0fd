"""Time-limited and infinite-horizon Gramians.

For a horizon ``[t0, t1]`` every Gramian is the solution of a Lyapunov or
Sylvester equation whose right-hand side carries the two-point exponential
weighting ``e^(X t0) K e^(Y t0) - e^(X t1) K e^(Y t1)``; an infinite right
endpoint drops the second term and ``t0 = 0`` drops the first factor pair
(the identity), recovering the classical equations.

The controllability Gramian P of one system, or the block of a
system/reduced-model pair, comes from :func:`controllability_block`, and
every observability-type block from :func:`observability_block`; every
Gramian triple, P and the linear and quadratic observability parts Y and Z
(whose right-hand side uses this same P), comes from :func:`gramian_blocks`.
The total observability Gramian is Q = Y + Z.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimensionError, SolverError
from .model import TimeInterval, require_same_io


def _boundaries(form, interval):
    """Exponentials ``(e^(a t0), e^(a t1))`` from the memo of the Schur form
    of ``a``, None for ``t0 = 0`` (the identity) and for an infinite end, and
    the pair of their transposes."""
    s = (None if interval.t_start == 0.0 else form.expm(interval.t_start),
         None if interval.is_infinite else form.expm(interval.t_end))
    return s, tuple(None if x is None else x.T for x in s)


def _weighted(kern, left, right):
    """Two-point weighted right-hand side ``L0 K R0^T - L1 K R1^T``, where a
    None first pair is the identity and a None second pair drops its term."""
    (l0, l1), (r0, r1) = left, right
    rhs = kern if l0 is None else l0 @ kern @ r0.T
    if l1 is not None:
        rhs = rhs - l1 @ kern @ r1.T
    return rhs


def _solve(left, right, side, q, interval):
    """Gramian-type block of the pair on one side with right-hand side ``q``:
    a symmetrized Lyapunov solution if ``left is right`` (an infinite horizon
    needs a Hurwitz A), else a Sylvester solution with no Hurwitz test."""
    if left is right:
        x = matfun.solve_lyapunov(
            left.schur, q, side=side, require_stable=interval.is_infinite
        )
        return (x + x.T) / 2.0
    if side == "controllability":
        return matfun.solve_sylvester(left.schur, right.schur_t, q)
    return matfun.solve_sylvester(left.schur_t, right.schur, q)


@dataclass(frozen=True)
class GramianSet:
    """Controllability Gramian P and observability parts Y, Z, Q of one system."""

    P: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    Q: np.ndarray
    interval: TimeInterval


@dataclass(frozen=True)
class CrossGramianSet:
    """Coupled Gramian blocks of a (system, reduced model) pair.

    ``Pt, Yt, Zt, Qt`` are the N x n mixed blocks; ``Ph, Yh, Zh, Qh`` the
    n x n blocks belonging to the reduced model alone.  ``Qt = Yt + Zt`` and
    ``Qh = Yh + Zh`` hold exactly as stored.
    """

    Pt: np.ndarray
    Ph: np.ndarray
    Yt: np.ndarray
    Yh: np.ndarray
    Zt: np.ndarray
    Zh: np.ndarray
    Qt: np.ndarray
    Qh: np.ndarray
    interval: TimeInterval


@dataclass(frozen=True)
class HankelSpectrum:
    """Nonincreasing, nonnegative singular values sigma_i = sqrt(eig_i(P Q)).

    ``clamp_magnitude`` records the largest negative eigenvalue magnitude
    (in units of sigma^2) that was clamped to zero.
    """

    sigma: np.ndarray
    clamp_magnitude: float = 0.0


def require_pair(system, rom, interval):
    """Preconditions of every system/reduced-model pair quantity: equal
    input and output counts and, on an infinite horizon, Hurwitz A on both
    sides."""
    require_same_io(system, rom)
    if interval.is_infinite:
        matfun.require_hurwitz(system.schur, "A")
        matfun.require_hurwitz(rom.schur, "reduced A")


def controllability_block(left, right, interval):
    """Controllability block P of the pair ``(left, right)`` on ``interval``.

    Solves ``A_l P + P A_r^T + K = 0`` with K the weighted ``B_l B_r^T``;
    this needs only the Schur forms of ``A_l`` and ``A_r``.  The block of a
    system with itself is its controllability Gramian.

    Returns
    -------
    (left.order, right.order) ndarray
    """
    s = _boundaries(left.schur, interval)[0]
    sr = _boundaries(right.schur, interval)[0]
    return _solve(
        left, right, "controllability", _weighted(left.B @ right.B.T, s, sr),
        interval,
    )


def observability_block(left, right, interval, kern):
    """Observability block of the pair ``(left, right)`` on ``interval``.

    Solves ``A_l^T X + X A_r + K = 0`` with K the weighted ``kern``; this
    needs only the Schur forms of ``A_l^T`` and ``A_r``.  It is the only
    writer of a weighted observability right-hand side: ``C_l^T C_r`` gives
    the linear part Y, ``sum_i M_l,i P M_r,i`` the quadratic part Z, and by
    linearity any combination of the two kernels gives the same combination
    of Y and Z from one solve.

    Returns
    -------
    (left.order, right.order) ndarray
    """
    st = _boundaries(left.schur, interval)[1]
    srt = _boundaries(right.schur, interval)[1]
    return _solve(left, right, "observability", _weighted(kern, st, srt), interval)


def gramian_blocks(left, right, interval):
    """Gramian triple ``(P, Y, Z)`` of the pair ``(left, right)`` on ``interval``.

    P is the :func:`controllability_block`; Y and Z are the
    :func:`observability_block` with kernels ``C_l^T C_r`` and
    ``sum_i M_l,i P M_r,i``: symmetrized Lyapunov solutions if
    ``left is right`` (an infinite horizon needs a Hurwitz A), else
    Sylvester solutions with no Hurwitz test.

    Returns
    -------
    tuple
        ``(P, Y, Z)``, each of shape ``(left.order, right.order)``.
    """
    p = controllability_block(left, right, interval)
    kern = sum(mi @ p @ mri for mi, mri in zip(left.M, right.M))
    y, z = (
        observability_block(left, right, interval, k)
        for k in (left.C.T @ right.C, kern)
    )
    return p, y, z


def timelimited_gramians(system, interval):
    """Gramian set of ``system`` on ``interval``: the :func:`gramian_blocks`
    of the system with itself, and ``Q = Y + Z``.

    Returns
    -------
    GramianSet
    """
    p, y, z = gramian_blocks(system, system, interval)
    return GramianSet(P=p, Y=y, Z=z, Q=y + z, interval=interval)


def cross_gramians(system, rom, interval):
    """Coupled Gramian blocks of a system/reduced-model pair on ``interval``.

    Pt, Yt, Zt are the :func:`gramian_blocks` of the pair and Ph, Yh, Zh
    those of the reduced model with itself, with ``Qt = Yt + Zt`` and
    ``Qh = Yh + Zh``.  An infinite horizon needs both A to be Hurwitz.

    Returns
    -------
    CrossGramianSet
    """
    require_pair(system, rom, interval)
    pt, yt, zt = gramian_blocks(system, rom, interval)
    ph, yh, zh = gramian_blocks(rom, rom, interval)
    return CrossGramianSet(
        Pt=pt, Ph=ph, Yt=yt, Yh=yh, Zt=zt, Zh=zh, Qt=yt + zt, Qh=yh + zh,
        interval=interval,
    )


def _psd_eig(x, name):
    sym = (x + x.T) / 2.0
    w, v = np.linalg.eigh(sym)
    wmax = max(w.max(initial=0.0), 0.0)
    floor = 1e-10 * wmax + 64.0 * np.finfo(float).eps * max(np.linalg.norm(sym), 1.0)
    if w.min(initial=0.0) < -floor:
        raise SolverError(
            f"{name} is indefinite beyond tolerance: min eigenvalue {w.min():.3e}",
            min_eigenvalue=float(w.min()),
        )
    return np.clip(w, 0.0, None), v


def hankel_singular_values(p, q):
    """Time-limited Hankel spectrum ``sigma_i = sqrt(eig_i(P Q))``.

    Uses the symmetric formulation ``eig(L^T Q L)`` with ``P = L L^T`` from a
    clamped eigenfactorization, so the values are real by construction.
    Negative eigenvalues of magnitude at most ``1e-10 * sigma_max^2`` are
    clamped to zero (recorded in the result); larger ones raise.

    Returns
    -------
    HankelSpectrum
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(
            f"P and Q must be equal square matrices, got {p.shape} and {q.shape}"
        )
    wp, vp = _psd_eig(p, "P")
    factor = vp * np.sqrt(wp)
    core = factor.T @ ((q + q.T) / 2.0) @ factor
    lam = np.linalg.eigvalsh((core + core.T) / 2.0)
    lam_max = max(lam.max(initial=0.0), 0.0)
    thresh = 1e-10 * lam_max + 64.0 * np.finfo(float).eps * max(np.linalg.norm(core), 1.0)
    negative = lam[lam < 0.0]
    clamp = float(-negative.min()) if negative.size else 0.0
    if clamp > thresh:
        raise SolverError(
            f"P*Q has a negative eigenvalue {-clamp:.3e} beyond the clamp tolerance",
            eigenvalue=-clamp,
        )
    sigma = np.sqrt(np.clip(lam, 0.0, None))[::-1].copy()
    return HankelSpectrum(sigma=sigma, clamp_magnitude=clamp)
