"""Dense matrix-function and matrix-equation kernels.

All solvers operate on plain ``numpy`` arrays and are pure functions of
their inputs.  The Lyapunov and Sylvester backends are the real-Schur
(Bartels-Stewart) solvers from ``scipy.linalg``; the matrix exponential
uses scaling and squaring with a fixed-order Pade approximant.
"""

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, HurwitzError, NonFiniteError, SolverError

#: Relative tolerance of the Hurwitz test: max Re(eig(A)) must be below
#: ``-HURWITZ_RTOL * ||A||_F``.
HURWITZ_RTOL = 1e-12


def _as_matrix(a, name):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={a.ndim}", name=name)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite entries", name=name)
    return a


def _as_square(a, name):
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(
            f"{name} must be square, got shape {a.shape}", name=name, shape=a.shape
        )
    return a


def _rightmost(a):
    """Eigenvalue of ``a`` with the largest real part, and whether it meets
    the Hurwitz test ``max Re(eig(a)) < -HURWITZ_RTOL * ||a||_F``."""
    lam = sla.eigvals(a)
    top = lam[int(np.argmax(lam.real))]
    return top, bool(top.real < -HURWITZ_RTOL * sla.norm(a, "fro"))


def is_hurwitz(a):
    """Whether all eigenvalues of ``a`` lie strictly in the open left half plane.

    The test requires ``max Re(eig(a)) < -1e-12 * ||a||_F`` so that matrices
    with eigenvalues on (or numerically indistinguishable from) the imaginary
    axis are rejected.
    """
    return _rightmost(_as_square(a, "a"))[1]


def require_hurwitz(a, name="A"):
    """Raise :class:`HurwitzError` (with the offending eigenvalue) if not Hurwitz."""
    a = _as_square(a, name)
    top, ok = _rightmost(a)
    if not ok:
        raise HurwitzError(
            f"{name} is not Hurwitz: eigenvalue {top:.6g} has nonnegative real part",
            name=name,
            eigenvalue=[top.real, top.imag],
        )
    return a


def expm(a, t=1.0):
    """Matrix exponential ``e^(a*t)``.

    Parameters
    ----------
    a : (n, n) array_like
        Square matrix with finite entries.
    t : float
        Nonnegative time in seconds.  ``t = 0`` returns the identity exactly.

    Returns
    -------
    (n, n) ndarray
    """
    a = _as_square(a, "A")
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return np.eye(a.shape[0])
    return sla.expm(a * t)


def expm_frechet(a, v, t=1.0):
    """Frechet derivative of ``e^(a*t)`` with respect to ``a`` in direction ``v``.

    Returns the matrix ``L`` such that ``e^((a + h*v)*t) = e^(a*t) + h*L + o(h)``.
    Computed exactly (to rounding) through the block method: ``L`` is the
    upper-right block of ``expm([[a, v], [0, a]] * t)``.

    Parameters
    ----------
    a, v : (n, n) array_like
        Square matrices of equal dimension.
    t : float
        Nonnegative time in seconds.  ``t = 0`` returns the zero matrix.

    Returns
    -------
    (n, n) ndarray
    """
    a = _as_square(a, "A")
    v = _as_square(v, "V")
    if a.shape != v.shape:
        raise DimensionError(
            f"A and V must have equal shapes, got {a.shape} and {v.shape}",
            a_shape=a.shape,
            v_shape=v.shape,
        )
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return np.zeros_like(a)
    return sla.expm_frechet(a * t, v * t, compute_expm=False)


def _require_unique_solution(a, b, message, **context):
    # A X + X B + C = 0 has a unique solution iff no eig(A) + eig(B) is zero;
    # a Lyapunov equation passes its one matrix twice and pays for one eigvals.
    la = sla.eigvals(a)
    lb = la if b is a else sla.eigvals(b)
    s = np.abs(la[:, None] + lb[None, :]).min()
    if s <= 1e-13 * max(np.abs(la).max(), np.abs(lb).max(), 1.0):
        raise SolverError(message, min_eig_sum=float(s), **context)


def solve_lyapunov(a, q, side="controllability", require_stable=True):
    """Solve a continuous-time Lyapunov equation.

    ``side="controllability"`` returns ``X`` with ``A X + X A^T + Q = 0``;
    ``side="observability"`` returns ``X`` with ``A^T X + X A + Q = 0``.

    Parameters
    ----------
    a : (n, n) array_like
        Coefficient matrix, Hurwitz when ``require_stable`` is true.
    q : (n, n) array_like
        Right-hand side.  Symmetry is not required; if ``q`` is symmetric
        the returned solution is symmetrized to counter rounding drift.
    side : {"controllability", "observability"}
    require_stable : bool
        When true (the default, and the documented contract) a non-Hurwitz
        ``a`` raises :class:`HurwitzError`.  Internal finite-horizon callers
        disable the check; the equation stays uniquely solvable as long as
        no two eigenvalues of ``a`` sum to zero.

    Returns
    -------
    (n, n) ndarray
        Solution with residual norm at most ``1e-10 * (||A|| ||X|| + ||Q||)``
        for well-conditioned inputs.
    """
    a = _as_square(a, "A")
    q = _as_square(q, "Q")
    if a.shape != q.shape:
        raise DimensionError(
            f"A and Q must have equal shapes, got {a.shape} and {q.shape}",
            a_shape=a.shape,
            q_shape=q.shape,
        )
    if side not in ("controllability", "observability"):
        raise ValueError(f"unknown side {side!r}")
    if require_stable:
        require_hurwitz(a, "A")
    else:
        _require_unique_solution(
            a, a,
            "Lyapunov equation with A is singular: eigenvalue pair sums to zero",
            name="A",
        )
    coeff = a if side == "controllability" else a.T
    x = sla.solve_continuous_lyapunov(coeff, -q)
    if not np.isfinite(x).all():
        raise SolverError("Lyapunov solve produced non-finite entries")
    qnorm = sla.norm(q, "fro")
    if qnorm == 0.0 or sla.norm(q - q.T, "fro") <= 1e-12 * qnorm:
        x = (x + x.T) / 2.0
    return x


def solve_sylvester(a, b, c):
    """Solve the Sylvester equation ``A X + X B + C = 0``.

    Parameters
    ----------
    a : (N, N) array_like
    b : (n, n) array_like
    c : (N, n) array_like
        Right-hand side.

    Returns
    -------
    (N, n) ndarray
        Solution with residual norm at most ``1e-10 * scale``.

    Raises
    ------
    SolverError
        If the spectra of ``a`` and ``-b`` overlap (no unique solution).
    """
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    c = _as_matrix(c, "C")
    if c.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(
            f"C must have shape {(a.shape[0], b.shape[0])}, got {c.shape}",
            c_shape=c.shape,
        )
    _require_unique_solution(
        a, b, "Sylvester equation is singular: spectra of A and -B overlap",
    )
    x = sla.solve_sylvester(a, b, -c)
    if not np.isfinite(x).all():
        raise SolverError("Sylvester solve produced non-finite entries")
    return x
