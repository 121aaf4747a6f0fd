"""Time-limited and infinite-horizon Gramians.

For a horizon ``[t0, t1]`` every Gramian is the solution of a Lyapunov or
Sylvester equation whose right-hand side carries the two-point exponential
weighting ``e^(X t0) K e^(Y t0) - e^(X t1) K e^(Y t1)``; an infinite right
endpoint drops the second term and ``t0 = 0`` drops the first factor pair
(the identity), recovering the classical equations.

The controllability Gramian P of one system, or the block of a
system/reduced-model pair, comes from :func:`controllability_block`.  Its
kernel ``B_l B_r^T`` has rank m, so its weighted right-hand side is handed
to the solver as the factor pair ``L R^T`` with ``L = [e^(A_l t0) B_l,
e^(A_l t1) B_l]`` and ``R = [e^(A_r t0) B_r, -e^(A_r t1) B_r]``, at most 2m
columns each, and is never formed as a matrix.  Every observability-type
block comes from :func:`observability_block`, whose
equation is linear in its kernel: ``C_l^T C_r`` gives the linear part Y and
:func:`quadratic_kernel` the quadratic part Z.  So each combination a
caller reads is one solve: Q = Y + Z from :func:`gramian_pair` and
G = Y + 2 Z of the optimality conditions from :func:`adjoint_block`.
:func:`gramian_blocks`, :func:`timelimited_gramians` and
:func:`cross_gramians` return Y and Z apart.

A system's own P and Q are facts of the system: :func:`controllability_block`
of a system with itself and the Q of :func:`gramian_pair` are solved at most
once per horizon and kept, read-only, in the system's ``gramian_memo`` for
the :data:`GRAMIAN_MEMO` most recently used horizons, with their
:func:`balancing`, the system's ``||H||^2`` of :mod:`lqomor.norms` and its
:func:`boundaries` ``e^(A t0)``, ``e^(A t1)``.  So ``h2tau_norm``,
``h2tau_error``, ``objective_J``, ``bt``, ``tlbt``, ``hsv``,
:func:`timelimited_gramians` and :func:`cross_gramians` share one solve of
each, ``bt``, ``tlbt`` and ``hsv`` one balancing, ``h2tau_norm`` and
``h2tau_error`` one ``||H||^2``, and every block and condition one pair of
exponentials.  Every :func:`adjoint_block` is kept the same way, and so
are the blocks of a (system, reduced model) pair, which are facts of the
pair: its controllability block and adjoint blocks are kept in the memo
of the pair's lower-order member (the right-hand one on a tie) beside a
weak reference to its partner.  Each member keeps the blocks of one
partner per horizon, and a second partner replaces the first.  So the
stationarity conditions, the error norm and a reductor's first sweep on
one pair share one solve of each block; the blocks of the iterates a
reductor makes are not kept (:func:`sweep_blocks`).  Y and Z apart are
solved on each call.  A kept block passed the same checks on the same
matrices (see :class:`~lqomor.model.LqoSystem`); a solve that raises keeps
no block, though the exponentials it read stay.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import matfun
from .errors import DimensionError, NonFiniteError, SolverError
from .model import TimeInterval, require_same_io

#: Horizons a system keeps P, Q, their balancing, ``||H||^2``, the
#: boundary exponentials and the blocks of one partner for: the two most
#: recently used, as a ``bt``/``tlbt`` comparison reads.  4 N^2 + N + 1
#: floats per horizon, plus N^2 per nonzero finite end: at N = 150, 1.4 MiB
#: for two horizons and 0.17 MiB per end.  The lower-order member of a pair
#: of orders N and r keeps 3 N r floats per horizon for its partner (Pt, Gt
#: and the [0, inf) tail Xt): 36 KB at N = 150, r = 10.
GRAMIAN_MEMO = 2


def boundaries(system, interval):
    """``(e^(A t0), e^(A t1))`` of ``system`` on ``interval``, None for
    ``t0 = 0`` (the identity) and for an infinite end: the one test of which
    ends carry a term.  Each is kept read-only in the system's memo under
    its horizon, and evicted with P and Q."""
    def at(name, t):
        return _memo(system, interval, name, lambda: matfun.expm(system.A, t))

    return (at("expm_t0", interval.t_start) if interval.t_start else None,
            None if interval.is_infinite else at("expm_t1", interval.t_end))


def _weighted(kern, left, right):
    """Two-point weighted right-hand side ``L0^T K R0 - L1^T K R1`` of the
    :func:`boundaries` ``(L0, L1)`` and ``(R0, R1)``, a None first pair the
    identity and a None second pair no term.  The only writer of a weighted
    kernel, and only of the observability kernels, which have full rank."""
    (l0, l1), (r0, r1) = left, right
    rhs = kern if l0 is None else l0.T @ kern @ r0
    if l1 is not None:
        rhs = rhs - l1.T @ kern @ r1
    return rhs


def _solve(left, right, side, q):
    """Gramian-type block of the pair on one side with right-hand side ``q``,
    an array or a factor pair: one Sylvester solve, which ``matfun`` runs as
    the Lyapunov equation when ``left is right`` and then symmetrized.  Only
    unique solvability is checked, never the Hurwitz test; a right-hand side
    (or factor) that overflowed is a numerical failure, not bad input."""
    if side == "controllability":
        a, b = left.schur, right.schur_t
    else:
        a, b = left.schur_t, right.schur
    try:
        x = matfun.solve_sylvester(a, b, q)
    except NonFiniteError:
        raise SolverError(
            f"{side} Gramian right-hand side overflowed", side=side
        ) from None
    return (x + x.T) / 2.0 if left is right else x


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
    of P or Q that was clipped to zero.
    """

    sigma: np.ndarray
    clamp_magnitude: float = 0.0


@dataclass(frozen=True)
class Balancing:
    """Hankel spectrum of a system's own P and Q with the full, unscaled
    bases ``W = Lq U`` and ``V = Lp V`` of :func:`balancing_svd`, whose
    first n columns times ``sigma[:n]^(-1/2)`` balance to order n."""

    sigma: np.ndarray
    clamp_magnitude: float
    W: np.ndarray
    V: np.ndarray


def require_pair(system, rom, interval):
    """Preconditions of every pair quantity, or of a system with itself:
    equal input and output counts and, on an infinite horizon, Hurwitz A on
    both sides.  The one Hurwitz test of the Gramians and norms."""
    require_same_io(system, rom)
    if interval.is_infinite:
        matfun.require_hurwitz(system.schur, "A")
        matfun.require_hurwitz(rom.schur, "reduced A")


def _boundary_factor(system, interval, negate):
    """``[e^(A t0) B, e^(A t1) B]``, its second block negated if ``negate``:
    the identity stands in for ``t0 = 0`` and an infinite horizon drops the
    second block."""
    e0, e1 = boundaries(system, interval)
    head = system.B if e0 is None else e0 @ system.B
    if e1 is None:
        return head
    tail = e1 @ system.B
    if negate:
        np.negative(tail, out=tail)
    return np.concatenate((head, tail), axis=1)


def controllability_block(left, right, interval):
    """Controllability block P of the pair ``(left, right)`` on ``interval``.

    Solves ``A_l P + P A_r^T + L R^T = 0`` with ``L R^T`` the weighted
    ``B_l B_r^T``: ``L = [e^(A_l t0) B_l, e^(A_l t1) B_l]`` and
    ``R = [e^(A_r t0) B_r, -e^(A_r t1) B_r]``, handed to the solver as
    factors, so no N x N kernel is formed and no N^3 product weights it.
    This needs only the Schur forms of ``A_l`` and ``A_r``.  The block of a
    system with itself (``left is right``) is its controllability Gramian.
    Each block is kept read-only (see :func:`_pair_memo`).

    Returns
    -------
    (left.order, right.order) ndarray
    """
    return _pair_memo(
        left, right, interval, "P", lambda: _controllability(left, right, interval)
    )


def _controllability(left, right, interval):
    factors = (
        _boundary_factor(left, interval, False), _boundary_factor(right, interval, True)
    )
    return _solve(left, right, "controllability", factors)


def _memo(system, interval, name, solve, partner=None):
    """Fact ``name`` of ``system`` on ``interval`` (a Gramian, its balancing,
    ``||H||^2``, an exponential or, with ``partner``, a block of a pair) from
    its memo, or from ``solve()`` and then kept, its arrays read-only, under
    the policy of :func:`~lqomor.matfun.recall` with :data:`GRAMIAN_MEMO`
    horizons.  The solve comes first, so one that raises keeps nothing of
    its own.  ``partner`` is ``(weak reference, side)`` of the pair's other
    member; a horizon keeps the blocks of one partner, under ``"pair"``."""
    facts = system.gramian_memo.get(interval, {})
    if partner is not None:
        kept = facts.get("pair")
        facts = kept[1] if kept is not None and kept[0] == partner else {}
    x = facts.get(name)
    if x is None:
        x = solve()
        for a in (x.sigma, x.W, x.V) if isinstance(x, Balancing) else (x,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    facts = matfun.recall(system.gramian_memo, interval, GRAMIAN_MEMO, dict)
    if partner is not None:
        kept = facts.get("pair")
        if kept is None or kept[0] != partner:
            kept = facts["pair"] = (partner, {})
        facts = kept[1]
    facts[name] = x
    return x


def _pair_memo(left, right, interval, name, solve):
    """Block ``name`` of the pair ``(left, right)`` on ``interval`` by
    :func:`_memo`: a fact of a system with itself, else kept by the pair's
    lower-order member (the right-hand one on a tie) for its partner."""
    if left is right:
        return _memo(left, interval, name, solve)
    if right.order <= left.order:
        return _memo(right, interval, name, solve, (weakref.ref(left), "left"))
    return _memo(left, interval, name, solve, (weakref.ref(right), "right"))


def quadratic_kernel(left, right, p):
    """``sum_i M_l,i P M_r,i`` for the controllability block ``p`` of the
    pair ``(left, right)``: the observability kernel of the quadratic part Z."""
    return sum(ml @ p @ mr for ml, mr in zip(left.M, right.M))


def observability_block(left, right, interval, kern):
    """Observability block of the pair ``(left, right)`` on ``interval``.

    Solves ``A_l^T X + X A_r + K = 0`` with K the weighted ``kern``; this
    reads the Schur forms of ``A_l`` (transposed) and ``A_r``, the same
    factorizations as :func:`controllability_block`.  Its kernel is weighted
    as a matrix, by :func:`_weighted`: ``C_l^T C_r`` gives
    the linear part Y, :func:`quadratic_kernel` the quadratic part Z, and by
    linearity any combination of the two kernels gives the same combination
    of Y and Z from one solve.

    Returns
    -------
    (left.order, right.order) ndarray
    """
    rhs = _weighted(kern, boundaries(left, interval), boundaries(right, interval))
    return _solve(left, right, "observability", rhs)


def adjoint_block(left, right, interval, solve_on=None):
    """``G = Y + 2 Z`` of the pair ``(left, right)`` for its
    :func:`controllability_block` P on ``interval``: one
    :func:`observability_block` solve on ``solve_on`` (by default
    ``interval`` itself) with kernel ``C_l^T C_r + 2 sum_i M_l,i P M_r,i``.
    The fixed-point sweep and the optimality conditions read G in place of
    Y and Z, and the conditions of a finite horizon also the [0, inf) tail
    X of the same kernel.  Each is kept read-only beside P (see
    :func:`_pair_memo`)."""
    solve_on = interval if solve_on is None else solve_on

    def solve():
        return _adjoint(left, right, solve_on, controllability_block(left, right, interval))

    return _pair_memo(left, right, interval, ("G", solve_on), solve)


def _adjoint(left, right, interval, p):
    kern = left.C.T @ right.C + 2.0 * quadratic_kernel(left, right, p)
    return observability_block(left, right, interval, kern)


def sweep_blocks(system, rom, interval, keep):
    """``(Pt, Gt)`` of the pair ``(system, rom)`` on ``interval``, the blocks
    a fixed-point sweep reads: kept as :func:`controllability_block` and
    :func:`adjoint_block` keep them if ``keep``, else solved by the same
    builders and not kept.  A reductor keeps the blocks of the model it
    starts from, which outlives the run, but not those of the iterates it
    makes: one sweep reads each, and only the residuals of a ``homora``
    result read its blocks again (two small solves).  Keeping them cost
    about 12 us of Python a sweep, a tenth of a ``homora`` run of 200
    sweeps on the bundled benchmark."""
    if keep:
        return controllability_block(system, rom, interval), adjoint_block(system, rom, interval)
    pt = _controllability(system, rom, interval)
    return pt, _adjoint(system, rom, interval, pt)


def gramian_blocks(left, right, interval):
    """Gramian triple ``(P, Y, Z)`` of the pair ``(left, right)`` on ``interval``.

    P is the :func:`controllability_block`; Y and Z are the
    :func:`observability_block` with kernels ``C_l^T C_r`` and the
    :func:`quadratic_kernel` of P: symmetrized Lyapunov solutions if
    ``left is right``, else Sylvester solutions, with no Hurwitz test.

    Returns
    -------
    tuple
        ``(P, Y, Z)``, each of shape ``(left.order, right.order)``.
    """
    p = controllability_block(left, right, interval)
    y, z = (
        observability_block(left, right, interval, k)
        for k in (left.C.T @ right.C, quadratic_kernel(left, right, p))
    )
    return p, y, z


def gramian_pair(system, interval):
    """Controllability Gramian P and total observability Gramian Q of
    ``system`` on ``interval``, from one solve each: by linearity Q = Y + Z
    is the :func:`observability_block` with kernel
    ``C^T C + sum_i M_i P M_i``.  An infinite horizon needs a Hurwitz A,
    tested on every call.  Both are kept read-only in the system's memo.

    Returns
    -------
    tuple
        ``(P, Q)``, each of shape ``(system.order, system.order)``.
    """
    require_pair(system, system, interval)
    p = controllability_block(system, system, interval)

    def solve_q():
        kern = system.C.T @ system.C + quadratic_kernel(system, system, p)
        return observability_block(system, system, interval, kern)

    return p, _memo(system, interval, "Q", solve_q)


def timelimited_gramians(system, interval):
    """Gramian set of ``system`` on ``interval``: the :func:`gramian_blocks`
    of the system with itself, and ``Q = Y + Z``.  An infinite horizon
    needs a Hurwitz A.

    Returns
    -------
    GramianSet
    """
    require_pair(system, system, interval)
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


def _psd_factor(x, name):
    """``L`` with ``x = L L^T``, columns by nonincreasing eigenvalue, and the
    largest negative eigenvalue magnitude clipped to zero."""
    sym = (x + x.T) / 2.0
    w, v = np.linalg.eigh(sym)
    wmax = max(w.max(initial=0.0), 0.0)
    floor = 1e-10 * wmax + 64.0 * np.finfo(float).eps * max(np.linalg.norm(sym), 1.0)
    lowest = float(w.min(initial=0.0))
    if lowest < -floor:
        raise SolverError(
            f"{name} is indefinite beyond tolerance: min eigenvalue {lowest:.3e}",
            min_eigenvalue=lowest,
        )
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    return v[:, order] * np.sqrt(w[order]), max(0.0, -lowest)


def balancing_svd(p, q):
    """``(Lp, Lq, U, sigma, V^T, clipped)``: factors ``P = Lp Lp^T`` and
    ``Q = Lq Lq^T``, the SVD ``Lq^T Lp = U diag(sigma) V^T`` and the largest
    negative eigenvalue magnitude clipped from P or Q."""
    lp, clip_p = _psd_factor(p, "P")
    lq, clip_q = _psd_factor(q, "Q")
    u, s, vt = sla.svd(lq.T @ lp)
    return lp, lq, u, s, vt, max(clip_p, clip_q)


def balancing(system, interval):
    """Read-only :class:`Balancing` of the :func:`gramian_pair` of ``system``
    on ``interval``, kept in its memo beside P and Q and evicted with them."""
    p, q = gramian_pair(system, interval)

    def factor():
        lp, lq, u, sigma, vt, clipped = balancing_svd(p, q)
        return Balancing(sigma, clipped, lq @ u, lp @ vt.T)

    return _memo(system, interval, "balancing", factor)


def hankel_singular_values(p, q):
    """Time-limited Hankel spectrum ``sigma_i = sqrt(eig_i(P Q))``.

    The singular values of :func:`balancing_svd`, which ``bt`` and ``tlbt``
    balance with.  Negative eigenvalues of P or Q of magnitude at most
    ``1e-10`` times the largest are clipped to zero (the largest clip is
    recorded in the result); larger ones raise.

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
    _, _, _, sigma, _, clipped = balancing_svd(p, q)
    return HankelSpectrum(sigma=sigma, clamp_magnitude=clipped)
