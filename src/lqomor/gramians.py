"""Time-limited and infinite-horizon Gramians.

For a horizon ``[t0, t1]`` every Gramian is the solution of a Lyapunov or
Sylvester equation whose right-hand side carries the two-point exponential
weighting ``e^(X t0) K e^(Y t0) - e^(X t1) K e^(Y t1)``; an infinite right
endpoint drops the second term and ``t0 = 0`` reduces the first factor pair
to the identity, recovering the classical equations.

The controllability Gramian P of one system solves

    A P + P A^T + w(B B^T) = 0

and the observability Gramian splits into a linear-output part Y, a
quadratic-output part Z (whose right-hand side uses this same P inside
``sum_i M_i P M_i``) and their total Q = Y + Z.  The coupled blocks of a
system/reduced-model pair satisfy the analogous mixed equations.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimensionError, SolverError
from .model import LqoSystem, TimeInterval


def _boundaries(form, interval):
    """Exponentials ``e^(a t0)`` and ``e^(a t1)`` (None for an infinite end)
    from the memo of the Schur form of ``a``."""
    s0 = form.expm(interval.t_start)
    s1 = None if interval.is_infinite else form.expm(interval.t_end)
    return s0, s1


def _weighted(kern, left, right):
    """Two-point weighted right-hand side ``L0 K R0^T - L1 K R1^T``."""
    (l0, l1), (r0, r1) = left, right
    rhs = l0 @ kern @ r0.T
    if l1 is not None:
        rhs = rhs - l1 @ kern @ r1.T
    return rhs


def _solve_lyap(a, q, side, stable_required):
    x = matfun.solve_lyapunov(a, q, side=side, require_stable=stable_required)
    return (x + x.T) / 2.0


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


def timelimited_gramians(system, interval):
    """Gramian set of ``system`` restricted to ``interval``.

    The quadratic part Z is solved after P because its right-hand side
    contains ``sum_i M_i P M_i`` with this set's own P.  An infinite-horizon
    interval requires a Hurwitz A; finite horizons are well posed for any A
    whose spectrum contains no pair summing to zero.

    Returns
    -------
    GramianSet
    """
    a, b, c = system.schur, system.B, system.C
    stable_required = interval.is_infinite
    s = _boundaries(a, interval)
    p = _solve_lyap(a, _weighted(b @ b.T, s, s), "controllability", stable_required)
    st = (s[0].T, None if s[1] is None else s[1].T)
    y = _solve_lyap(a, _weighted(c.T @ c, st, st), "observability", stable_required)
    kern = sum(mi @ p @ mi for mi in system.M)
    z = _solve_lyap(a, _weighted(kern, st, st), "observability", stable_required)
    return GramianSet(P=p, Y=y, Z=z, Q=y + z, interval=interval)


def cross_gramians(system, rom, interval):
    """Coupled Gramian blocks of a system/reduced-model pair on ``interval``.

    Solved in dependency order Pt, Ph, Yt, Yh, Zt (uses Pt), Zh (uses Ph);
    the totals are assembled as Qt = Yt + Zt and Qh = Yh + Zh.  Every solve
    uses the cached Schur forms of the two systems' ``A`` and ``A^T``.

    Returns
    -------
    CrossGramianSet
    """
    if system.n_inputs != rom.n_inputs or system.n_outputs != rom.n_outputs:
        raise DimensionError(
            "input/output dimensions differ: "
            f"({system.n_inputs}, {system.n_outputs}) vs ({rom.n_inputs}, {rom.n_outputs})"
        )
    a, at, b, c = system.schur, system.schur_t, system.B, system.C
    ah, aht, bh, ch = rom.schur, rom.schur_t, rom.B, rom.C
    stable_required = interval.is_infinite
    if stable_required:
        matfun.require_hurwitz(a, "A")
        matfun.require_hurwitz(ah, "reduced A")
    s = _boundaries(a, interval)
    sh = _boundaries(ah, interval)
    st = (s[0].T, None if s[1] is None else s[1].T)
    sht = (sh[0].T, None if sh[1] is None else sh[1].T)

    pt = matfun.solve_sylvester(a, aht, _weighted(b @ bh.T, s, sh))
    ph = _solve_lyap(ah, _weighted(bh @ bh.T, sh, sh), "controllability", stable_required)
    yt = matfun.solve_sylvester(at, ah, _weighted(c.T @ ch, st, sht))
    yh = _solve_lyap(ah, _weighted(ch.T @ ch, sht, sht), "observability", stable_required)
    kt = sum(mi @ pt @ mhi for mi, mhi in zip(system.M, rom.M))
    zt = matfun.solve_sylvester(at, ah, _weighted(kt, st, sht))
    kh = sum(mhi @ ph @ mhi for mhi in rom.M)
    zh = _solve_lyap(ah, _weighted(kh, sht, sht), "observability", stable_required)
    return CrossGramianSet(
        Pt=pt, Ph=ph, Yt=yt, Yh=yh, Zt=zt, Zh=zh, Qt=yt + zt, Qh=yh + zh,
        interval=interval,
    )


def _psd_eig(x, name, rtol=1e-10):
    sym = (x + x.T) / 2.0
    w, v = np.linalg.eigh(sym)
    wmax = max(w.max(initial=0.0), 0.0)
    floor = rtol * wmax + 64.0 * np.finfo(float).eps * max(np.linalg.norm(sym), 1.0)
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
