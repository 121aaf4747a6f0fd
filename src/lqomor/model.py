"""State-space model of a linear system with quadratic outputs.

The system is

    x'(t) = A x(t) + B u(t)
    y_i(t) = (C x(t))_i + x(t)^T M_i x(t),   i = 1..p

with ``A`` of order N, ``B`` mapping m inputs, ``C`` producing p linear
output rows and one quadratic form matrix ``M_i`` per output channel.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimensionError, NonFiniteError, NumericalError, ValidationError
from .signals import SignalExpr

#: Sentinel for an unbounded right endpoint of a :class:`TimeInterval`.
INFINITE = math.inf

#: Most floats one sampled array may hold, 1 GiB: the state samples of a
#: :func:`time_grid`; the quadrature norm also caps its kernel samples by it.
MAX_SAMPLE_FLOATS = 2**27


@dataclass(frozen=True)
class TimeInterval:
    """Time horizon ``[t_start, t_end]`` in seconds; ``t_end`` may be infinite.

    Its hash is computed once, on construction: every memo lookup of a
    horizon's facts hashes it."""

    t_start: float = 0.0
    t_end: float = INFINITE

    def __post_init__(self):
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not math.isfinite(self.t_start) or self.t_start < 0.0:
            raise ValidationError(
                f"t_start must be finite and nonnegative, got {self.t_start}"
            )
        if math.isnan(self.t_end) or self.t_end <= self.t_start:
            raise ValidationError(
                f"t_end must exceed t_start={self.t_start}, got {self.t_end}"
            )
        object.__setattr__(self, "_hash", hash((self.t_start, self.t_end)))

    def __hash__(self):
        return self._hash

    @property
    def is_infinite(self):
        return math.isinf(self.t_end)

    def __str__(self):
        end = "inf" if self.is_infinite else f"{self.t_end:g}"
        return f"[{self.t_start:g}, {end}]"


class LqoSystem:
    """Realization ``(A, B, C, M_1..M_p)`` of a quadratic-output system.

    Every matrix is checked on construction by the one matrix check of the
    library (:func:`lqomor.matfun._as_matrix`): ``A`` N x N with N >= 1,
    ``B`` N x m, ``C`` p x N for the p matrices ``M_i``, each N x N, all
    finite.  A ragged, non-numeric, complex, empty or misshapen matrix
    raises :class:`~lqomor.errors.DimensionError`, a NaN or inf
    :class:`~lqomor.errors.NonFiniteError`, each naming the matrix in
    ``context["name"]`` (``"A"``, ``"B"``, ``"C"`` or ``"M[i]"``); an ``M``
    that is neither one N x N array nor a sequence of them is a
    ``DimensionError`` naming ``"M"``.  The
    stability requirement (``A`` Hurwitz) is enforced by default; file
    loads and the reduction algorithms, which legitimately read unstable
    systems or pass through unstable iterates, construct instances with
    ``check_hurwitz=False``, and the stability flag is then reported, and
    tested only by a quantity on an infinite horizon
    (:func:`lqomor.gramians.require_pair`).

    Only the symmetric part of each ``M_i`` reaches the output, so an
    ``M_i`` with ``||M_i - M_i^T|| > 1e-12 ||M_i||`` is stored as
    ``(M_i + M_i^T) / 2``; any other ``M_i`` is kept as given.  The bar is
    relative, so it does not depend on the units of the output.

    A system owns its matrices: ``A``, ``B``, ``C`` and each ``M_i`` are
    read-only, C-ordered copies of the arrays given, so every fact cached
    about them holds for the system's life, and a system gives the same
    bits as a parse of its file, whatever the memory order of its inputs.
    The real Schur form of ``A`` (``schur``) is factored at most once, on
    first use; the form of ``A^T`` is its view ``schur.transposed``, made
    per solve, which holds ``schur`` and shares its factors.  Every fact
    of a pair with this system on the right is computed at most once per
    horizon and kept in ``gramian_memo`` for the
    :data:`~lqomor.gramians.GRAMIAN_MEMO` most recently used horizons,
    read-only (see :mod:`lqomor.gramians`): its own Gramians P and Q, their
    balancing, ``||H||^2`` and ``e^(A t0)``, ``e^(A t1)``, and the blocks
    Pt, Gt, Xt and ``<H, Hr>`` of its pair with one partner.
    """

    def __init__(self, a, b, c, m, check_hurwitz=True):
        if isinstance(m, np.ndarray) and m.ndim == 2:
            m = [m]
        try:
            m = list(m)
        except TypeError:
            raise DimensionError(
                f"M must be a sequence of N x N matrices, one per output, got "
                f"{type(m).__name__}", name="M",
            ) from None
        # C-ordered copies, the order a parse gives: the rounding of BLAS
        # products depends on it
        a = matfun._as_matrix(a, "A", "square")
        n = len(a)
        b = matfun._as_matrix(b, "B", (n, None))
        m = tuple(
            _symmetrized(matfun._as_matrix(mi, f"M[{i}]", (n, n))) for i, mi in enumerate(m)
        )
        c = matfun._as_matrix(c, "C", (len(m), n))
        for mat in (a, b, c, *m):
            mat.flags.writeable = False

        self.A = a
        self.B = b
        self.C = c
        self.M = m
        #: Real Schur form of A, factored on first use and shared by every
        #: solve and Hurwitz test of this system.
        self.schur = matfun.SchurForm(a)
        #: ``{TimeInterval: {"P": P, "Q": Q, "balancing": Balancing,
        #: "energy": float, "expm_t0": e^(A t0), "expm_t1": e^(A t1),
        #: "G": G, "X": X, "pair": (weakref to partner, {"P": Pt, "G": Gt,
        #: "X": Xt, "energy": <H, Hr>})}}``, least recently used first: the
        #: facts of the pairs with this system on the right, [0, inf) also
        #: holding the P and Pt that a finite horizon weights.  A fixed-point
        #: iterate keeps the Pt, Gt and Xt of the sweep that read it.
        self.gramian_memo = {}
        if check_hurwitz:
            matfun.require_hurwitz(self.schur, "A")

    @property
    def order(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def is_hurwitz(self):
        return matfun.is_hurwitz(self.schur)

    def poles(self):
        """Eigenvalues of A from its Schur form, sorted by (real, imaginary) part."""
        return np.sort_complex(self.schur.eigvals)

    def __repr__(self):
        return (
            f"LqoSystem(order={self.order}, n_inputs={self.n_inputs}, "
            f"n_outputs={self.n_outputs})"
        )


def _symmetrized(mi):
    """``(M_i + M_i^T) / 2`` if ``||M_i - M_i^T|| > 1e-12 ||M_i||``, else
    ``M_i``, returned before any norm is taken if it is exactly symmetric;
    formed from the exact halves, so that no sum overflows."""
    if (mi == mi.T).all():
        return mi
    # the bar spares the rounding-level asymmetry of projected models:
    # symmetrizing it too changes the path of the fixed-point reductors
    half = 0.5 * mi
    skew = matfun.fro_norm(half - half.T)
    return half + half.T if skew > 1e-12 * matfun.fro_norm(half) else mi


@dataclass(frozen=True)
class Trajectory:
    """Sampled state and output response on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray


#: Floats per block of quadratic samples (outputs along a trajectory, the
#: kernel samples of the quadrature norm), so each temporary stays near
#: 128 KiB.
BLOCK_FLOATS = 1 << 14


def _output_trajectory(system, states):
    out = states @ system.C.T
    rows = max(1, BLOCK_FLOATS // max(system.order, 1))
    for lo in range(0, states.shape[0], rows):
        blk = states[lo:lo + rows]
        for i, mi in enumerate(system.M):
            out[lo:lo + rows, i] += np.einsum("kn,kn->k", blk @ mi, blk)
    return out


def _rk4_step_matrices(a, b, h):
    """``(Phi - I, [Gamma_0, Gamma_half, Gamma_1])`` of one RK4 step of length h.

    With ``H = hA`` one classical RK4 step of ``x' = A x + B u`` is exactly

        x+ = Phi x + Gamma_0 u(t) + Gamma_half u(t + h/2) + Gamma_1 u(t + h),
        Phi        = I + H + H^2/2 + H^3/6 + H^4/24,
        Gamma_0    = h/6 (I + H + H^2/2 + H^3/4) B,
        Gamma_half = h/6 (4I + 2H + H^2/2) B,
        Gamma_1    = h/6 B.

    ``Phi - I = H (I + H/2 (I + H/3 (I + H/4)))`` is built by Horner's rule
    in three N x N products, in place to keep few N x N temporaries, and
    kept without the identity, so a step adds a small increment to ``x`` as
    the stage form does.
    """
    diag = slice(None, None, a.shape[0] + 1)
    psi = (h / 4.0) * a
    for k in (3.0, 2.0, 1.0):
        psi.flat[diag] += 1.0
        psi = a @ psi
        psi *= h / k
    hb = h * (a @ b)
    h2b = h * (a @ hb)
    h3b = h * (a @ h2b)
    gamma = (h / 6.0) * np.hstack(
        [b + hb + h2b / 2.0 + h3b / 4.0, 4.0 * b + 2.0 * hb + h2b / 2.0, b]
    )
    return psi, gamma


def _block_jump(psi, n_steps):
    """Block length L and the jump ``Phi^L - I`` for ``Phi = I + psi``.

    L is the largest power of two with ``L^2 <= n_steps`` whose jump is
    finite; at L = 1 the jump is ``psi`` itself.  Each squaring is taken in
    increment form, ``(I + J)^2 - I = 2 J + J^2``, so the identity never
    enters a sum and the small increments of short steps keep their digits.
    """
    block, jump = 1, psi
    with np.errstate(over="ignore", invalid="ignore"):
        while (2 * block) ** 2 <= n_steps:
            square = jump @ jump
            square += jump
            square += jump
            if not np.isfinite(square).all():
                break
            block, jump = 2 * block, square
    return block, jump


def _krylov_blocks(psi, gamma, block):
    """``[K_(L-1)^T, ..., K_1^T, K_0^T]`` for ``K_i = Phi^i gamma`` and ``Phi
    = I + psi``: an L x q x N array, q the columns of ``gamma``.

    L is ``block`` or, if a ``K_i`` with ``i < block`` is not finite, the
    largest power of two ``<= i`` (1 if ``gamma`` is not finite).  Each
    block is taken in increment form, ``K_(i+1) = K_i + psi K_i``, so the
    identity never enters a sum and the small increments of short steps
    keep their digits.
    """
    kry = np.empty((block, gamma.shape[1], gamma.shape[0]))
    kry[-1] = gamma.T
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(block - 2, -1, -1):
            np.matmul(kry[i + 1], psi.T, out=kry[i])
            kry[i] += kry[i + 1]
    finite = np.isfinite(kry).all(axis=(1, 2))[::-1]
    if finite.all():
        return kry
    kept = max(int(np.argmin(finite)), 1)
    return kry[block - (1 << (kept.bit_length() - 1)):]


def _run_steps(psi, gamma, stages, rows):
    """Run ``x+ = x + psi x + gamma s`` over the stage samples ``stages``.

    On entry ``rows[0]`` holds the start; on return ``rows[j + 1]`` holds
    the state after step j, whose forcing ``gamma stages[j]`` has rank at
    most q, the columns of ``gamma``.  The S steps are cut into ``S // L``
    blocks of L steps, ``sqrt(S) / 2 < L <= sqrt(S)``, and a tail of fewer
    than L: a two-level scan of the linear recurrence (Blelloch, "Prefix
    sums and their applications", 1990).  Pass 1 finds the end of every
    block run from a zero start, ``sum_k Phi^(L-1-k) gamma s_k``, at the
    input's rank: one product of the stage samples, L q of them per block,
    with the stacked blocks ``Phi^i gamma`` (:func:`_krylov_blocks`),
    O(L N^2 q + S q N) flops instead of the O(S N^2) of stepping every
    block.  Pass 2 walks the block starts with the jump ``Phi^L - I``
    (:func:`_block_jump`); pass 3 reruns all blocks from their true starts
    as the rows of one contiguous array, copying each step out, and the
    tail follows step by step: O(sqrt(S)) array operations, not S.  L is
    halved while the jump or a block ``Phi^i gamma`` overflows, so that
    ``inf * 0`` never enters a state that the step-by-step recurrence
    keeps finite.
    """
    n_steps = rows.shape[0] - 1
    np.matmul(stages, gamma.T, out=rows[1:])
    # the largest power of two whose square is at most S
    kry = _krylov_blocks(psi, gamma, 1 << (math.isqrt(n_steps).bit_length() - 1))
    block, jump = _block_jump(psi, len(kry) ** 2)
    n_blocks = n_steps // block
    n = rows.shape[1]
    # pass 1 leaves the local end of block b in starts[b + 1], the L q
    # stage samples of the block times the last L blocks Phi^i gamma; the
    # last block's end is not needed
    starts = np.empty((n_blocks, n))
    kry = kry[len(kry) - block:].reshape(-1, n)
    samples = stages[:(n_blocks - 1) * block].reshape(n_blocks - 1, len(kry))
    np.matmul(samples, kry, out=starts[1:])
    # pass 2 turns them into the true starts in place
    starts[0] = rows[0]
    for b in range(1, n_blocks):
        starts[b] += jump @ starts[b - 1]
        starts[b] += starts[b - 1]
    del jump  # free its N x N floats before pass 3 allocates
    # pass 3, (f + x psi^T) + x as the step-by-step recurrence adds, then
    # the tail from the end of the last block
    blocks = rows[1:1 + n_blocks * block].reshape(n_blocks, block, n)
    x, nxt = starts, np.empty_like(starts)
    for k in range(block):
        np.matmul(x, psi.T, out=nxt)
        nxt += blocks[:, k]
        nxt += x
        blocks[:, k] = nxt
        x, nxt = nxt, x
    x = rows[n_blocks * block]
    for nxt in rows[n_blocks * block + 1:]:
        nxt += psi @ x
        nxt += x
        x = nxt


def _sample_input(u, times, m):
    """Input values at ``times`` as a ``(times.size, m)`` array.

    A :class:`SignalExpr` is evaluated on all times in one call; any other
    callable point by point.  A scalar value drives every input.
    """
    values = np.empty((times.size, m))
    if isinstance(u, SignalExpr):
        values[:] = u(times)[:, None]
    else:
        for k, tk in enumerate(times):
            val = np.asarray(u(tk), dtype=float).reshape(-1)
            if val.size not in (1, m):
                raise DimensionError(
                    f"input signal returned {val.size} values, expected {m}"
                )
            values[k] = val
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        tk = times[np.argmin(finite)]
        raise NonFiniteError(f"input signal non-finite at t={tk:g}")
    return values


def time_grid(t0, t1, step, states):
    """Grid ``t0 + k step``, ``k = 0..S``, ``S = (t1 - t0) / step``, on which
    ``states`` states are simulated; ``ValidationError`` unless the bounds
    and step are finite, the step positive, S a whole number (to 1e-9
    relative) of at least one, and the ``(S + 1) * states`` samples within
    :data:`MAX_SAMPLE_FLOATS`."""
    for name, value in (("t0", t0), ("t1", t1), ("step", step)):
        if not math.isfinite(value):
            raise ValidationError(f"the time grid requires a finite {name}, got {value}")
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    span = (t1 - t0) / step
    if not math.isfinite(span):
        raise ValidationError(f"step {step} too small for the time span")
    n_steps = int(round(span))
    if n_steps < 1:
        raise ValidationError("time span shorter than one step")
    if abs(span - n_steps) > 1e-9 * span:
        raise ValidationError(
            f"step {step} does not divide the span [{t0}, {t1}]: it gives {span} steps"
        )
    if (n_steps + 1) * states > MAX_SAMPLE_FLOATS:
        raise ValidationError(
            f"step {step} gives {n_steps} steps; {n_steps + 1} samples of "
            f"{states} states exceed the budget of {MAX_SAMPLE_FLOATS} floats",
            steps=n_steps,
            max_floats=MAX_SAMPLE_FLOATS,
        )
    return t0 + step * np.arange(n_steps + 1)


def simulate(system, u, grid, x0=None):
    """Integrate the forced response with the classical fixed-step RK4 scheme.

    For a step of length ``h`` RK4 is the linear recurrence

        x+ = Phi x + Gamma_0 u(t) + Gamma_half u(t + h/2) + Gamma_1 u(t + h)

    with ``Phi = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24`` and ``Gamma_*``
    polynomials in ``hA`` times ``B`` (see :func:`_rk4_step_matrices`).
    Every step has the length ``h = (t_S - t_0) / S`` of the uniform grid,
    so building ``(Phi, Gamma)`` costs three N x N matrix products once.
    The input is sampled once on all stage times and the forcing terms of
    all steps are one matrix product.  The S steps advance in blocks of
    about ``sqrt(S)`` steps (see :func:`_run_steps`): O(sqrt(S)) array
    operations, two N x N matrices and ``O(sqrt(S) q N)`` floats beside the
    states, within a few units of rounding of the step-by-step recurrence.
    The block ends are found at the input's rank q = 3m, from the L blocks
    ``Phi^i Gamma`` and the stage samples, in O(L N^2 q + S q N) flops.

    Parameters
    ----------
    system : LqoSystem
    u : callable
        Input signal ``t -> float`` (single input, or driving every input)
        or ``t -> (m,) array``.  A :class:`~lqomor.signals.SignalExpr` is
        sampled on all stage times in one call, any other callable point
        by point.
    grid : array_like
        Uniform output times, as :func:`time_grid` builds them: increasing
        steps within ``4 eps max(|t_0|, |t_S|)`` of each other, one RK4 step
        each, so a finer grid is how to take smaller steps.
    x0 : array_like, optional
        Initial state, zero by default: N numbers in one row, a 1-d array
        or a 1 x N matrix.

    Returns
    -------
    Trajectory

    Raises
    ------
    DimensionError, NonFiniteError
        If ``x0`` is not N finite numbers in one row; ``context.name`` is
        ``"x0"``.
    ValidationError
        If the grid is empty, not finite, not increasing or not uniform;
        the message of a grid that is not uniform names its shortest and
        longest step.
    NumericalError
        If an output is not finite (the response overflowed); ``context.t``
        is the first grid time with such an output.
    """
    t = np.asarray(grid, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValidationError("empty time grid")
    if not np.isfinite(t).all():
        raise ValidationError("time grid must be finite and strictly increasing")
    steps = np.diff(t)
    n_steps = steps.size
    if not (steps > 0).all():
        raise ValidationError("time grid must be strictly increasing")
    tol = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if n_steps and np.ptp(steps) > tol:
        raise ValidationError(
            f"time grid not uniform: its steps run from {steps.min()} to {steps.max()}"
        )
    n = system.order
    m = system.n_inputs
    x = np.zeros(n) if x0 is None else matfun._as_matrix(x0, "x0", (1, n))[0]

    # step j runs from t[j] to t[j + 1]; its stages sample u at times[2j],
    # times[2j + 1] (midpoint) and times[2j + 2]
    times = np.empty(2 * n_steps + 1)
    times[0::2] = t
    times[1::2] = t[:-1] + 0.5 * steps
    samples = _sample_input(u, times, m)
    stages = np.hstack([samples[0:-1:2], samples[1::2], samples[2::2]])

    states = np.empty((n_steps + 1, n))
    states[0] = x
    if n_steps:
        psi, gamma = _rk4_step_matrices(system.A, system.B, (t[-1] - t[0]) / n_steps)
        _run_steps(psi, gamma, stages, states)
    outputs = _output_trajectory(system, states)
    finite = np.isfinite(outputs).all(axis=1)
    if not finite.all():
        tk = float(t[np.argmin(finite)])
        raise NumericalError(f"output not finite at t={tk:g}: the response overflowed", t=tk)
    return Trajectory(times=t, states=states, outputs=outputs)


def require_same_io(system, rom):
    """Raise :class:`DimensionError` unless the input/output counts agree."""
    if system.n_inputs != rom.n_inputs or system.n_outputs != rom.n_outputs:
        raise DimensionError(
            "input/output dimensions differ: "
            f"({system.n_inputs}, {system.n_outputs}) vs ({rom.n_inputs}, {rom.n_outputs})"
        )


def error_system(system, rom):
    """Block realization of the output difference of two systems.

    For ``H`` of order N and ``Hr`` of order n the result has order N + n with

        A_e = blkdiag(A, Ar),  B_e = [B; Br],
        C_e = [C, -Cr],        M_{e,i} = blkdiag(M_i, -Mr_i),

    so that, driven by the same input from zero state, its output equals
    ``y(t) - y_r(t)``.
    """
    require_same_io(system, rom)
    n1, n2 = system.order, rom.order
    a_e = np.zeros((n1 + n2, n1 + n2))
    a_e[:n1, :n1] = system.A
    a_e[n1:, n1:] = rom.A
    b_e = np.vstack([system.B, rom.B])
    c_e = np.hstack([system.C, -rom.C])
    m_e = []
    for mi, mri in zip(system.M, rom.M):
        blk = np.zeros((n1 + n2, n1 + n2))
        blk[:n1, :n1] = mi
        blk[n1:, n1:] = -mri
        m_e.append(blk)
    return LqoSystem(a_e, b_e, c_e, m_e, check_hurwitz=False)
