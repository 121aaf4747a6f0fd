"""Time-limited and infinite-horizon Gramians.

For a horizon ``[t0, t1]`` every Gramian-type block is the [0, inf)
solution X of its Lyapunov or Sylvester equation with kernel K weighted at
the horizon ends, ``E_l(t0) X E_r(t0)^T - E_l(t1) X E_r(t1)^T`` with
``E = e^(A t)`` on the controllability side and ``e^(A^T t)`` on the
observability side (Gawronski and Juang, 1990): the solution for the kernel
weighted alike, as the Sylvester operator commutes with ``E_l (.) E_r^T``.
``t0 = 0`` takes the identity and an infinite ``t1`` no second term.

The controllability Gramian P of one system, or the block of a
system/reduced-model pair, comes from :func:`controllability_block`: one
[0, inf) solve of the kernel ``B_l B_r^T`` for every horizon.  Every
observability-type block comes from :func:`observability_block`, whose
equation is linear in its kernel: ``C_l^T C_r`` gives the linear part Y and
:func:`quadratic_kernel` the quadratic part Z.  So each combination a
caller reads is one solve: Q = Y + Z from :func:`gramian_pair` and
G = Y + 2 Z of the optimality conditions from :func:`adjoint_block`.
:func:`gramian_blocks`, :func:`timelimited_gramians` and
:func:`cross_gramians` return Y and Z apart.

Every kept fact is a fact of a pair ``(left, right)`` on one horizon and
lives with the right-hand member: :func:`_kept` stores it, read-only, in
``right``'s ``gramian_memo`` for the :data:`GRAMIAN_MEMO` most recently
used horizons.  A fact of a system with itself (``left is right``) is kept
under the horizon: P and Q (:func:`gramian_pair`), their
:func:`balancing`, ``||H||^2`` of :mod:`lqomor.norms`, the
:func:`boundaries` and the :func:`adjoint_block`.  Any other is kept under
``"pair"`` beside a weak reference to ``left``, for one partner per horizon
(a second replaces the first): Pt, Gt, Xt and ``<H, Hr>``.  Every library
and CLI path puts the reduced model on the right, so a reduced model keeps
the facts of its pair with the system.  So the norms, reductors, Gramian
sets and stationarity conditions of one pair share one controllability
solve for every horizon and, per horizon, one solve of each other block,
one balancing, one evaluation of each inner product and one pair of
exponentials, and so do the sweeps of a reductor: every model it sweeps
keeps its blocks, so the residuals of the one it returns solve no block
that a sweep read.  Y and Z apart are solved on each call.  A kept fact
passed the same checks on the same matrices (see
:class:`~lqomor.model.LqoSystem`); a solve that raises keeps nothing,
though the exponentials and [0, inf) solves it read stay.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import SolverError
from .model import INFINITE, TimeInterval, require_same_io

#: Horizons a system keeps the facts of its pairs for (:func:`_kept`): the
#: two most recently used.  A finite horizon uses [0, inf), whose P it
#: weights, just before itself, so it keeps [0, inf) beside it, as a
#: ``bt``/``tlbt`` comparison reads.  Its own P, Q, balancing and
#: ``||H||^2`` take 2 N^2 + 2 N k + N + 1 floats per horizon for factors of
#: rank k <= N, plus N^2 per nonzero finite end: at N = 150, 0.84 MiB for
#: [0, 0.3] and [0, inf) of a random system (k = 20, 47), 0.17 MiB per end.
#: A reduced model of order r keeps 3 N r + 1 floats per horizon for its
#: partner of order N (Pt, Gt, the [0, inf) tail Xt and ``<H, Hr>``): 36 KB
#: at N = 150, r = 10.
GRAMIAN_MEMO = 2

#: The horizon [0, inf), whose controllability blocks every horizon weights.
_INFINITE = TimeInterval(0.0, INFINITE)


def boundaries(system, interval):
    """``(e^(A t0), e^(A t1))`` of ``system`` on ``interval``, None for
    ``t0 = 0`` (the identity) and for an infinite end: the one test of which
    ends carry a term.  Each is kept read-only in the system's memo under
    its horizon, and evicted with P and Q."""
    def at(name, t):
        return _kept(system, system, interval, name, lambda: matfun.expm(system.A, t))

    return (at("expm_t0", interval.t_start) if interval.t_start else None,
            None if interval.is_infinite else at("expm_t1", interval.t_end))


def _weighted(x, left, right, interval, side):
    """Block of the pair on ``interval`` from the [0, inf) solution ``x`` of
    its kernel, ``E_l(t0) X E_r(t0)^T - E_l(t1) X E_r(t1)^T`` of the
    :func:`boundaries` (see the module docstring): the one function that
    applies boundary exponentials to a block.  ``x`` itself on [0, inf),
    else symmetrized for a system with itself; one that overflowed raises
    the ``SolverError`` of an overflowed right-hand side."""
    (l0, l1), (r0, r1) = boundaries(left, interval), boundaries(right, interval)

    def term(el, er):
        return el.T @ x @ er if side == "observability" else el @ x @ er.T

    w = x if l0 is None else term(l0, r0)
    if l1 is not None:
        w = w - term(l1, r1)
    if w is x:
        return x
    if not matfun.finite(w):
        raise SolverError(f"{side} Gramian right-hand side overflowed", side=side)
    return (w + w.T) / 2.0 if left is right else w


def _solve(left, right, side, q):
    """Gramian-type block of the pair on one side with right-hand side ``q``:
    one Sylvester solve, which ``matfun`` runs as the Lyapunov equation when
    ``left is right`` and then symmetrized.  The one entry of every Gramian
    solve.

    ``q`` is a C-ordered float kernel of the pair's shape that the library
    built from the two checked systems, so the matrix check of the public
    :func:`~lqomor.matfun.solve_sylvester` is not repeated: this tests that
    ``q`` is finite (one that overflowed is a numerical failure, a
    ``SolverError``, not bad input), then the pair's unique solvability, and
    calls the kernel solve ``matfun._trsyl``.  Never the Hurwitz test."""
    if side == "controllability":
        a, b = left.schur, right.schur.transposed
    else:
        a, b = left.schur.transposed, right.schur
    if not matfun.finite(q):
        raise SolverError(f"{side} Gramian right-hand side overflowed", side=side)
    matfun._require_unique_solution(a, b)
    x = matfun._trsyl(a, b, -q)
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
class Balancing:
    """Square-root balancing of P and Q from :func:`hankel_singular_values`.

    ``sigma`` is the nonincreasing, nonnegative Hankel spectrum
    ``sqrt(eig_i(P Q))`` of length N, exactly zero beyond the lower rank k
    of the pivoted Cholesky factors ``P = Lp Lp^T``, ``Q = Lq Lq^T``, and
    ``clamp_magnitude`` the largest negative eigenvalue magnitude of P or Q
    that was clipped to zero.  ``W = Lq U`` and ``V = Lp V`` are the N x k
    unscaled bases of the thin SVD ``Lq^T Lp = U diag(sigma[:k]) V^T``;
    their first n <= k columns times ``sigma[:n]^(-1/2)`` balance to order
    n.  Every array is read-only.
    """

    sigma: np.ndarray
    clamp_magnitude: float
    W: np.ndarray
    V: np.ndarray


def require_pair(system, rom, interval):
    """Preconditions of every pair quantity, or of a system with itself:
    equal input and output counts and, on an infinite horizon, Hurwitz A on
    both sides.  The one Hurwitz test of the library's quantities, the
    fixed-point start included: a load tests no spectrum, and a finite
    horizon takes any A."""
    require_same_io(system, rom)
    if interval.is_infinite:
        matfun.require_hurwitz(system.schur, "A")
        matfun.require_hurwitz(rom.schur, "reduced A")


def controllability_block(left, right, interval):
    """Controllability block P of the pair ``(left, right)`` on ``interval``.

    One solve of ``A_l X + X A_r^T + B_l B_r^T = 0`` is the block of
    [0, inf), which every other horizon reads :func:`_weighted`; this needs
    only the Schur forms of ``A_l`` and ``A_r``.  The block of a system
    with itself (``left is right``) is its controllability Gramian.  Each
    block is kept read-only by ``right`` (see :func:`_kept`).

    Returns
    -------
    (left.order, right.order) ndarray
    """
    def solve():
        if interval == _INFINITE:
            return _solve(left, right, "controllability", left.B @ right.B.T)
        x = controllability_block(left, right, _INFINITE)
        return _weighted(x, left, right, interval, "controllability")

    return _kept(left, right, interval, "P", solve)


def _kept(left, right, interval, name, solve):
    """Fact ``name`` of the pair ``(left, right)`` on ``interval`` (a block,
    a Gramian, its balancing, an inner product or an exponential) from
    ``right``'s memo, or from ``solve()`` and then kept there, its array
    read-only, under the policy of :func:`~lqomor.matfun.recall` with
    :data:`GRAMIAN_MEMO` horizons.  A fact of a system with itself
    (``left is right``) is kept under the horizon, any other under
    ``"pair"`` beside a weak reference to ``left``: one partner per horizon,
    and a second replaces the first.  The solve comes first, so one that
    raises keeps nothing of its own."""
    partner = None if left is right else weakref.ref(left)
    facts = right.gramian_memo.get(interval, {})
    if partner is not None:
        kept = facts.get("pair")
        facts = kept[1] if kept is not None and kept[0] == partner else {}
    x = facts.get(name)
    if x is not None:
        matfun.recall(right.gramian_memo, interval, GRAMIAN_MEMO, dict)
        return x
    x = solve()
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    facts = matfun.recall(right.gramian_memo, interval, GRAMIAN_MEMO, dict)
    if partner is not None:
        kept = facts.get("pair")
        if kept is None or kept[0] != partner:
            kept = facts["pair"] = (partner, {})
        facts = kept[1]
    facts[name] = x
    return x


def quadratic_kernel(left, right, p):
    """``sum_i M_l,i P M_r,i`` for the controllability block ``p`` of the
    pair ``(left, right)``: the observability kernel of the quadratic part Z."""
    return sum(ml @ p @ mr for ml, mr in zip(left.M, right.M))


def observability_block(left, right, interval, kern):
    """Observability block of the pair ``(left, right)`` on ``interval``.

    Solves ``A_l^T X + X A_r + K = 0`` for ``K = kern``, the [0, inf) form,
    and returns X :func:`_weighted`; this reads the Schur forms of ``A_l``
    (transposed) and ``A_r``, the same factorizations as
    :func:`controllability_block`.  ``C_l^T C_r`` gives the linear part Y,
    :func:`quadratic_kernel` the quadratic part Z, and by linearity any
    combination of the two kernels gives the same combination of Y and Z
    from one solve.

    Returns
    -------
    (left.order, right.order) ndarray
    """
    x = _solve(left, right, "observability", kern)
    return _weighted(x, left, right, interval, "observability")


def adjoint_block(left, right, interval):
    """``(G, X)`` of the pair ``(left, right)`` for its
    :func:`controllability_block` P on ``interval``: X is one observability
    solve of the kernel ``C_l^T C_r + 2 sum_i M_l,i P M_r,i`` in [0, inf)
    form and ``G = Y + 2 Z`` is X :func:`_weighted` (X itself on [0, inf)).
    The fixed-point sweep reads G, the optimality conditions G and its
    [0, inf) tail X.  Both are kept read-only beside P (see :func:`_kept`)."""
    def solve():
        p = controllability_block(left, right, interval)
        kern = left.C.T @ right.C + 2.0 * quadratic_kernel(left, right, p)
        return _solve(left, right, "observability", kern)

    x = _kept(left, right, interval, "X", solve)
    g = _kept(left, right, interval, "G",
              lambda: _weighted(x, left, right, interval, "observability"))
    return g, x


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

    return p, _kept(system, system, interval, "Q", solve_q)


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
    """N x k ``L`` with ``x = L L^T`` from LAPACK's pivoted Cholesky
    ``dpstrf`` (a pivot at most ``N u max(diag)`` ends it, k is the rank),
    and the largest negative eigenvalue magnitude that the indefiniteness
    test on the eigenvalues of the symmetric part clipped to zero."""
    sym = (x + x.T) / 2.0
    w = np.linalg.eigvalsh(sym)
    wmax = max(w.max(initial=0.0), 0.0)
    floor = 1e-10 * wmax + 64.0 * np.finfo(float).eps * max(np.linalg.norm(sym), 1.0)
    lowest = float(w.min(initial=0.0))
    if lowest < -floor:
        raise SolverError(
            f"{name} is indefinite beyond tolerance: min eigenvalue {lowest:.3e}",
            min_eigenvalue=lowest,
        )
    c, piv, rank, _ = matfun.sla.lapack.dpstrf(sym, lower=1)  # info > 0: rank deficient
    factor = np.empty((len(sym), rank))
    factor[piv - 1] = np.tril(c[:, :rank])
    return factor, max(0.0, -lowest)


def balancing(system, interval):
    """:func:`hankel_singular_values` of the :func:`gramian_pair` of
    ``system`` on ``interval``, kept in its memo beside P and Q and evicted
    with them."""
    p, q = gramian_pair(system, interval)
    return _kept(system, system, interval, "balancing", lambda: hankel_singular_values(p, q))


def hankel_singular_values(p, q):
    """Read-only :class:`Balancing` of P and Q: the time-limited Hankel
    spectrum ``sigma_i = sqrt(eig_i(P Q))`` that ``bt`` and ``tlbt`` balance
    with, and its bases, from the thin SVD of ``Lq^T Lp`` for the
    :func:`_psd_factor` of each, with exact zeros beyond the factors' rank.
    Two factorizations of the same rounded P and Q agree on sigma_i only to
    about ``N eps (sigma_1 / sigma_i)^2`` relative.  Negative eigenvalues of
    P or Q of magnitude at most ``1e-10`` times the largest are clipped to
    zero (the largest clip is recorded in the result); larger ones raise.
    """
    p = matfun._as_matrix(p, "P", "square")
    q = matfun._as_matrix(q, "Q", p.shape)
    lp, clip_p = _psd_factor(p, "P")
    lq, clip_q = _psd_factor(q, "Q")
    u, sigma, vt = matfun.sla.svd(lq.T @ lp, full_matrices=False)
    sigma = np.concatenate((sigma, np.zeros(len(p) - len(sigma))))
    w, v = lq @ u, lp @ vt.T
    for a in (sigma, w, v):
        a.flags.writeable = False
    return Balancing(sigma, max(clip_p, clip_q), w, v)
