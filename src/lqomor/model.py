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
from .errors import DimensionError, NonFiniteError, ValidationError
from .signals import SignalExpr

#: Sentinel for an unbounded right endpoint of a :class:`TimeInterval`.
INFINITE = math.inf


@dataclass(frozen=True)
class TimeInterval:
    """Time horizon ``[t_start, t_end]`` in seconds; ``t_end`` may be infinite."""

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
    ``M_i`` with ``||M_i - M_i^T|| > 1e-12 max(||M_i||, 1)`` is stored as
    ``(M_i + M_i^T) / 2``; any other ``M_i`` is kept as given.

    The real Schur form of ``A`` (``schur``) is factored at most once, on
    first use, and the form of ``A^T`` (``schur_t``) is a view of the same
    factors, so the matrices must not be modified after construction.
    """

    def __init__(self, a, b, c, m, check_hurwitz=True):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        c = np.atleast_2d(np.asarray(c, dtype=float))
        if isinstance(m, np.ndarray) and m.ndim == 2:
            m = [m]
        m = tuple(np.atleast_2d(np.asarray(mi, dtype=float)) for mi in m)

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

        # the bar spares the rounding-level asymmetry of projected models:
        # symmetrizing it too changes the path of the fixed-point reductors
        m = tuple(
            (mi + mi.T) / 2.0
            if np.linalg.norm(mi - mi.T) > 1e-12 * max(np.linalg.norm(mi), 1.0)
            else mi
            for mi in m
        )

        self.A = a
        self.B = b
        self.C = c
        self.M = m
        #: Real Schur form of A, factored on first use and shared by every
        #: solve, Hurwitz test and boundary exponential of this system.
        self.schur = matfun.SchurForm(a)
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
    def schur_t(self):
        """Real Schur form of A^T: a view of ``schur`` that shares its factors."""
        return self.schur.transposed

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


def validate(system):
    """Re-run all construction checks, including the Hurwitz requirement.

    Returns the validated system; raises on dimension mismatch, non-finite
    entries or a non-Hurwitz A.
    """
    if not isinstance(system, LqoSystem):
        raise ValidationError(f"expected LqoSystem, got {type(system).__name__}")
    return LqoSystem(system.A, system.B, system.C, system.M, check_hurwitz=True)


@dataclass(frozen=True)
class Trajectory:
    """Sampled state and output response on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray


def eval_output(system, x):
    """Output vector ``C x + [x^T M_i x]_i`` for a single state ``x``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != system.order:
        raise DimensionError(
            f"state length {x.size} != system order {system.order}"
        )
    quad = np.array([x @ mi @ x for mi in system.M])
    return system.C @ x + quad


#: Rows per block when evaluating quadratic outputs along a trajectory, so
#: the temporary ``states @ M_i`` stays near 128 KiB.
_OUTPUT_BLOCK_FLOATS = 1 << 14


def _output_trajectory(system, states):
    out = states @ system.C.T
    rows = max(1, _OUTPUT_BLOCK_FLOATS // max(system.order, 1))
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


def simulate(system, u, grid, x0=None, substeps=1):
    """Integrate the forced response with the classical fixed-step RK4 scheme.

    For a step of length ``h`` RK4 is the linear recurrence

        x+ = Phi x + Gamma_0 u(t) + Gamma_half u(t + h/2) + Gamma_1 u(t + h)

    with ``Phi = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24`` and ``Gamma_*``
    polynomials in ``hA`` times ``B`` (see :func:`_rk4_step_matrices`).
    The input is sampled once on all stage times, the forcing terms of all
    steps are one matrix product, and each step is then one matrix-vector
    product.  Building ``(Phi, Gamma)`` costs three N x N matrix products
    once per run of consecutive steps of one length; lengths that agree to
    within the rounding of the grid count as one, so uniform grids need a
    single set.

    Parameters
    ----------
    system : LqoSystem
    u : callable
        Input signal ``t -> float`` (single input, or driving every input)
        or ``t -> (m,) array``.  A :class:`~lqomor.signals.SignalExpr` is
        sampled on all stage times in one call, any other callable point
        by point.
    grid : array_like
        Strictly increasing output times; integration takes ``substeps``
        RK4 steps between consecutive grid points.
    x0 : array_like, optional
        Initial state, zero by default.
    substeps : int
        Number of RK4 substeps per grid interval (default 1).

    Returns
    -------
    Trajectory
    """
    t = np.asarray(grid, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValidationError("empty time grid")
    if t.size > 1 and not (np.diff(t) > 0).all():
        raise ValidationError("time grid must be strictly increasing")
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    n = system.order
    m = system.n_inputs
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n:
        raise DimensionError(f"x0 length {x.size} != system order {n}")

    # step j starts at starts[j] and has length steps[j]; its stages sample
    # u at times[2j], times[2j + 1] (midpoint) and times[2j + 2]
    steps = np.repeat(np.diff(t) / substeps, substeps)
    starts = np.repeat(t[:-1], substeps) + np.tile(np.arange(substeps), t.size - 1) * steps
    n_steps = steps.size
    times = np.empty(2 * n_steps + 1)
    times[0:-1:2] = starts
    times[1::2] = starts + 0.5 * steps
    times[-1] = t[-1]
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
        x = states[lo]
        for nxt in states[lo + 1:hi + 1]:
            nxt += psi @ x
            nxt += x
            x = nxt
    if substeps > 1:
        states = states[::substeps].copy()

    return Trajectory(times=t, states=states, outputs=_output_trajectory(system, states))


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
