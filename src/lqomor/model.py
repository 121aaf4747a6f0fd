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

    Dimensions and finiteness are always validated on construction.  The
    stability requirement (``A`` Hurwitz) is enforced by default; reduction
    algorithms that legitimately produce or pass through unstable iterates
    construct instances with ``check_hurwitz=False`` and the stability flag
    is then reported rather than enforced.

    Only the symmetric part of each ``M_i`` reaches the output, so an
    ``M_i`` with ``||M_i - M_i^T|| > 1e-12 ||M_i||`` is stored as
    ``(M_i + M_i^T) / 2``; any other ``M_i`` is kept as given.  The bar is
    relative, so it does not depend on the units of the output.

    A system owns its matrices: ``A``, ``B``, ``C`` and each ``M_i`` are
    read-only copies of the arrays given, so every fact cached about them
    holds for the system's life.  The real Schur form of ``A`` (``schur``)
    is factored at most once, on first use, and the form of ``A^T``
    (``schur_t``) is a view of the same factors.  The system's own Gramians
    P and Q, their balancing, ``||H||^2`` and ``e^(A t0)``, ``e^(A t1)`` are
    likewise computed at most once per horizon and kept in ``gramian_memo``
    for the :data:`~lqomor.gramians.GRAMIAN_MEMO` most recently used
    horizons, read-only: 4 N^2 + N + 1 floats, plus N^2 per nonzero finite
    end.  So are the blocks Pt, Gt and Xt of one pair with a system of
    order N >= its own order r (see :mod:`lqomor.gramians`): 3 N r floats
    per horizon, 36 KB at N = 150, r = 10.
    """

    def __init__(self, a, b, c, m, check_hurwitz=True):
        # copies that keep the memory order of the arrays given, on which
        # the rounding of BLAS products depends
        a = np.array(a, dtype=float, ndmin=2)
        b = np.array(b, dtype=float, ndmin=2)
        c = np.array(c, dtype=float, ndmin=2)
        if isinstance(m, np.ndarray) and m.ndim == 2:
            m = [m]
        m = tuple(np.array(mi, dtype=float, ndmin=2) for mi in m)

        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got shape {b.shape}")
        if c.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got shape {c.shape}")
        p = c.shape[0]
        if len(m) != p:
            raise DimensionError(
                f"M length {len(m)} != p {p}", m_length=len(m), n_outputs=p
            )
        for i, mi in enumerate(m):
            if mi.shape != (n, n):
                raise DimensionError(
                    f"M[{i}] must have shape {(n, n)}, got {mi.shape}", index=i
                )
        for name, mat in (("A", a), ("B", b), ("C", c)) + tuple(
            (f"M[{i}]", mi) for i, mi in enumerate(m)
        ):
            if not np.isfinite(mat).all():
                raise NonFiniteError(f"{name} contains non-finite entries", name=name)

        m = tuple(_symmetrized(mi) for mi in m)
        for mat in (a, b, c, *m):
            mat.flags.writeable = False

        self.A = a
        self.B = b
        self.C = c
        self.M = m
        #: Real Schur form of A, factored on first use and shared by every
        #: solve and Hurwitz test of this system.
        self.schur = matfun.SchurForm(a)
        #: Real Schur form of A^T: the view of ``schur`` that shares its
        #: factors, held for the system's life so that every solve reads the
        #: same view (a form holds its view only weakly).
        self.schur_t = self.schur.transposed
        #: ``{TimeInterval: {"P": P, "Q": Q, "balancing": Balancing,
        #: "energy": float, "expm_t0": e^(A t0), "expm_t1": e^(A t1),
        #: ("G", horizon): G, "pair": (partner, {"P": Pt, ("G", horizon):
        #: Gt})}}``, least recently used first: what gramians and norms kept
        #: of this system and of its pair with one partner.
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
    ``M_i``; formed from the exact halves, so that no sum overflows."""
    # the bar spares the rounding-level asymmetry of projected models:
    # symmetrizing it too changes the path of the fixed-point reductors
    half = 0.5 * mi
    skew = matfun.fro_norm(half - half.T)
    return half + half.T if skew > 1e-12 * matfun.fro_norm(half) else mi


@dataclass(frozen=True)
class Trajectory:
    """Sampled state and output response on a strictly increasing time grid."""

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


def _step_lengths(steps, tol):
    """Group step lengths that agree to within ``tol``.

    Returns the group label of every step and one length per group: the
    mean of its members, so the grouped steps still sum to the grid's span.
    """
    values, inverse = np.unique(steps, return_inverse=True)
    group = np.empty(values.size, dtype=np.intp)
    anchors = []
    for i, v in enumerate(values):
        if not anchors or v - anchors[-1] > tol:
            anchors.append(v)
        group[i] = len(anchors) - 1
    labels = group[inverse]
    lengths = np.bincount(labels, weights=steps) / np.bincount(labels)
    return labels, lengths


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


def _run_steps(psi, rows):
    """Run ``x+ = x + psi x + f`` over ``rows`` in place.

    On entry ``rows[0]`` holds the start and ``rows[j + 1]`` the forcing
    ``f`` of step j; on return ``rows[j + 1]`` holds the state after step j.
    The S steps are cut into ``S // L`` blocks of L steps, ``sqrt(S) / 2 <
    L <= sqrt(S)`` (see :func:`_block_jump`), and a tail of fewer than L.
    Pass 1 runs every block from a zero start, all blocks as rows of one
    array; pass 2 walks the block starts with the jump ``Phi^L - I``; pass 3
    reruns every block from its true start, and the tail follows step by
    step: ``2 L + S / L`` batched steps and block jumps plus a tail of
    fewer than L steps, O(sqrt(S)) array operations, not S.  L is halved
    while the jump overflows, so that ``inf * 0`` never enters a state that
    the step-by-step recurrence keeps finite.
    """
    n_steps = rows.shape[0] - 1
    block, jump = _block_jump(psi, n_steps)
    n_blocks = n_steps // block
    blocks = rows[1:1 + n_blocks * block].reshape(n_blocks, block, -1)
    # pass 1 leaves the local end of block b in starts[b + 1]; the last
    # block's end is not needed
    starts = np.zeros((n_blocks, rows.shape[1]))
    ends = starts[1:]
    for k in range(block):
        ends += ends @ psi.T
        ends += blocks[:-1, k]
    # pass 2 turns them into the true starts in place
    starts[0] = rows[0]
    for b in range(1, n_blocks):
        starts[b] += jump @ starts[b - 1]
        starts[b] += starts[b - 1]
    del jump  # free its N x N floats before pass 3 allocates
    # pass 3, then the tail from the end of the last block
    x = starts
    for k in range(block):
        nxt = blocks[:, k]
        nxt += x @ psi.T
        nxt += x
        x = nxt
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
    """Grid ``t0 + k step``, ``k = 0..round((t1 - t0) / step)``, on which
    ``states`` states are simulated; ``ValidationError`` unless the bounds
    and step are finite, the step positive, the span at least one step and
    the ``(steps + 1) * states`` samples within :data:`MAX_SAMPLE_FLOATS`."""
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
    The input is sampled once on all stage times and the forcing terms of
    all steps are one matrix product.  Building ``(Phi, Gamma)`` costs three
    N x N matrix products once per run of consecutive steps of one length;
    lengths that agree to within the rounding of the grid count as one, so
    uniform grids need a single set.

    A run of S steps is cut into blocks of L steps, L the largest power of
    two not above ``sqrt(S)`` (see :func:`_run_steps`): all blocks step
    together as rows of one array, and the block starts follow from each
    other by the jump ``Phi^L - I``.  A run then costs O(sqrt(S)) array
    operations (about ``3 sqrt(S)`` steps and jumps), two N x N matrices
    and ``O(sqrt(S) N)`` floats beside the states, not S operations.  The
    jump comes from repeated squaring in increment form, which keeps the
    states within a few units of rounding of the step-by-step recurrence.
    Where the jump overflows (a model that grows by more than the float
    range over one block), L is halved until it does not, so a zero
    response stays exactly zero.

    Parameters
    ----------
    system : LqoSystem
    u : callable
        Input signal ``t -> float`` (single input, or driving every input)
        or ``t -> (m,) array``.  A :class:`~lqomor.signals.SignalExpr` is
        sampled on all stage times in one call, any other callable point
        by point.
    grid : array_like
        Strictly increasing output times; integration takes one RK4 step
        between consecutive grid points, so a finer grid is how to take
        smaller steps.
    x0 : array_like, optional
        Initial state, zero by default.

    Returns
    -------
    Trajectory

    Raises
    ------
    NumericalError
        If an output is not finite (the response overflowed); ``context.t``
        is the first grid time with such an output.
    """
    t = np.asarray(grid, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValidationError("empty time grid")
    if t.size > 1 and not (np.diff(t) > 0).all():
        raise ValidationError("time grid must be strictly increasing")
    n = system.order
    m = system.n_inputs
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise DimensionError(f"x0 length {x.size} != system order {n}")

    # step j runs from t[j] to t[j + 1]; its stages sample u at times[2j],
    # times[2j + 1] (midpoint) and times[2j + 2]
    steps = np.diff(t)
    n_steps = steps.size
    times = np.empty(2 * n_steps + 1)
    times[0::2] = t
    times[1::2] = t[:-1] + 0.5 * steps
    samples = _sample_input(u, times, m)
    stages = np.hstack([samples[0:-1:2], samples[1::2], samples[2::2]])

    states = np.empty((n_steps + 1, n))
    states[0] = x
    tol = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    labels, lengths = _step_lengths(steps, tol)
    # one set per run of equal lengths: a non-uniform grid then holds one
    # N x N matrix at a time, not one per distinct length
    edges = np.flatnonzero(np.diff(labels, prepend=-1, append=-1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        psi, gamma = _rk4_step_matrices(system.A, system.B, lengths[labels[lo]])
        np.matmul(stages[lo:hi], gamma.T, out=states[lo + 1:hi + 1])
        _run_steps(psi, states[lo:hi + 1])
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
