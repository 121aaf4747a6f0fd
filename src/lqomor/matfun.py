"""Dense matrix-function and matrix-equation kernels.

The Lyapunov and Sylvester solvers are Bartels-Stewart: a real Schur form
``A = U T U^T`` of each coefficient, LAPACK ``trsyl`` on the
quasi-triangular factors, and a back-transform.  A coefficient is either a
plain array, factored on the spot, or a :class:`SchurForm` that keeps its
factorization, so a matrix used in many equations is factored once.  The
form of ``A^T`` is a view of A's form, ``A^T = U T^T U^T``, so one
factorization serves both sides of every equation: ``trsyl`` applies the
transpose to T.  The Hurwitz and solvability tests read their eigenvalues
from the same form.  The matrix exponential uses scaling and squaring with a
fixed-order Pade approximant.
"""

import functools

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


class SchurForm:
    """Real Schur form ``a = U T U^T`` of one square matrix, factored on first use.

    Holds the spectral facts the solvers need about ``a``: the factors, the
    eigenvalues read from T's 1x1 and 2x2 diagonal blocks, the rightmost
    eigenvalue of the Hurwitz test, and a memo of ``e^(a t)``.
    ``transposed`` is the form of ``a^T``: a view that shares all of these
    (``a^T = U T^T U^T``, flagged by ``trans``), so one factorization serves
    both sides of every Lyapunov and Sylvester equation in ``a``.  ``a``
    must be a finite square float array that does not change after the form
    is built.
    """

    def __init__(self, a, transposed=None):
        self.a = a
        #: Whether this is the view of another form's transpose, so that
        #: ``a = U T^T U^T`` with that form's factors.
        self.trans = transposed is not None
        self.transposed = transposed if self.trans else SchurForm(a.T, self)
        self._expm = {}

    @functools.cached_property
    def factors(self):
        """``(T, U)``: quasi-upper-triangular T and orthogonal U, shared with
        ``transposed``; ``a = U T U^T``, or ``a = U T^T U^T`` if ``trans``."""
        if self.trans:
            return self.transposed.factors
        return sla.schur(self.a, output="real")

    @functools.cached_property
    def eigvals(self):
        """Eigenvalues of ``a``, in the order of T's diagonal blocks."""
        if self.trans:
            return self.transposed.eigvals
        # a standardized 2x2 block [[x, b], [c, x]] holds x +- i sqrt(|b|) sqrt(|c|)
        t = self.factors[0]
        lam = np.diag(t).astype(complex)
        k = np.flatnonzero(np.diag(t, -1))
        w = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
        lam[k] += 1j * w
        lam[k + 1] -= 1j * w
        return lam

    @functools.cached_property
    def rightmost(self):
        """Eigenvalue with the largest real part, and whether it meets the
        Hurwitz test ``max Re(eig(a)) < -HURWITZ_RTOL * ||a||_F``."""
        if self.trans:
            return self.transposed.rightmost
        top = self.eigvals[int(np.argmax(self.eigvals.real))]
        return top, bool(top.real < -HURWITZ_RTOL * sla.norm(self.a, "fro"))

    def expm(self, t):
        """``e^(a t)`` as :func:`expm` returns it, computed once per ``t``;
        the transposed view returns the transpose of the same memo entry."""
        if self.trans:
            return self.transposed.expm(t).T
        t = float(t)
        if t not in self._expm:
            x = expm(self.a, t)
            x.flags.writeable = False
            self._expm[t] = x
        return self._expm[t]


def _form(a, name):
    """``a`` itself if it is a :class:`SchurForm`, else a form of the checked array."""
    return a if isinstance(a, SchurForm) else SchurForm(_as_square(a, name))


def is_hurwitz(a):
    """Whether all eigenvalues of ``a`` lie strictly in the open left half plane.

    ``a`` is an array or a :class:`SchurForm`.  The test requires
    ``max Re(eig(a)) < -1e-12 * ||a||_F`` so that matrices with eigenvalues
    on (or numerically indistinguishable from) the imaginary axis are
    rejected.
    """
    return _form(a, "a").rightmost[1]


def require_hurwitz(a, name="A"):
    """Raise :class:`HurwitzError` (with the offending eigenvalue) if not Hurwitz.

    ``a`` is an array or a :class:`SchurForm`; returns the checked matrix.
    """
    form = _form(a, name)
    top, ok = form.rightmost
    if not ok:
        raise HurwitzError(
            f"{name} is not Hurwitz: eigenvalue {top:.6g} has nonnegative real part",
            name=name,
            eigenvalue=[top.real, top.imag],
        )
    return form.a


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
    n = a.shape[0]
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = big[n:, n:] = a * t
    big[:n, n:] = v * t
    return sla.expm(big)[:n, n:]


def _require_unique_solution(fa, fb, message, **context):
    # A X + X B + C = 0 has a unique solution iff no eig(A) + eig(B) is zero
    la, lb = fa.eigvals, fb.eigvals
    s = np.abs(la[:, None] + lb[None, :]).min()
    if s <= 1e-13 * max(np.abs(la).max(), np.abs(lb).max(), 1.0):
        raise SolverError(message, min_eig_sum=float(s), **context)


def _trsyl(fa, fb, q):
    """Solve ``A X + X B = Q`` from the forms ``fa`` of A and ``fb`` of B.

    With ``A = U op(R) U^T`` and ``B = V op(S) V^T``, where ``op`` transposes
    the factor of a ``trans`` view, ``trsyl`` solves
    ``op(R) Y + Y op(S) = U^T Q V`` and ``X = U Y V^T``.  ``fb is
    fa.transposed`` is the Lyapunov equation, which reads one factor pair in
    the operation order of ``scipy.linalg.solve_continuous_lyapunov``, so
    the controllability solve is bit-identical to scipy's.
    """
    r, u = fa.factors
    s, v = fb.factors
    lyapunov = fb is fa.transposed
    f = u.T.dot(q.dot(u)) if lyapunov else np.dot(np.dot(u.T, q), v)
    y, scale, info = sla.lapack.dtrsyl(
        r, s, f, trana="T" if fa.trans else "N", tranb="T" if fb.trans else "N"
    )
    if info < 0:
        raise SolverError(f"trsyl rejected argument {-info}")
    x = np.dot(np.dot(u, scale * y), v.T)
    if not np.isfinite(x).all():
        kind = "Lyapunov" if lyapunov else "Sylvester"
        raise SolverError(f"{kind} solve produced non-finite entries")
    return x


def solve_lyapunov(a, q, side="controllability", require_stable=True):
    """Solve a continuous-time Lyapunov equation.

    ``side="controllability"`` returns ``X`` with ``A X + X A^T + Q = 0``;
    ``side="observability"`` returns ``X`` with ``A^T X + X A + Q = 0``.

    Parameters
    ----------
    a : (n, n) array_like or SchurForm
        Coefficient matrix, Hurwitz when ``require_stable`` is true.  Both
        sides solve from the one real Schur form of ``a``; the observability
        side applies its factor transposed.
    q : (n, n) array_like
        Right-hand side.  Symmetry is not required; if ``q`` is symmetric
        the returned solution is symmetrized to counter rounding drift.
    side : {"controllability", "observability"}
    require_stable : bool
        When true (the default, and the documented contract) a non-Hurwitz
        ``a`` raises :class:`HurwitzError`.  The Gramian builders disable
        the check; the equation stays uniquely solvable as long as no two
        eigenvalues of ``a`` sum to zero.

    Returns
    -------
    (n, n) ndarray
        Solution with residual norm at most ``1e-10 * (||A|| ||X|| + ||Q||)``
        for well-conditioned inputs.
    """
    form = _form(a, "A")
    q = _as_square(q, "Q")
    if form.a.shape != q.shape:
        raise DimensionError(
            f"A and Q must have equal shapes, got {form.a.shape} and {q.shape}",
            a_shape=form.a.shape,
            q_shape=q.shape,
        )
    if side not in ("controllability", "observability"):
        raise ValueError(f"unknown side {side!r}")
    if side == "observability":
        form = form.transposed
    if require_stable:
        require_hurwitz(form, "A")
    else:
        _require_unique_solution(
            form, form,
            "Lyapunov equation with A is singular: eigenvalue pair sums to zero",
            name="A",
        )
    x = _trsyl(form, form.transposed, -q)
    qnorm = sla.norm(q, "fro")
    if qnorm == 0.0 or sla.norm(q - q.T, "fro") <= 1e-12 * qnorm:
        x = (x + x.T) / 2.0
    return x


def solve_sylvester(a, b, c):
    """Solve the Sylvester equation ``A X + X B + C = 0``.

    Parameters
    ----------
    a : (N, N) array_like or SchurForm
    b : (n, n) array_like or SchurForm
        A form of ``B^T`` passed as ``form.transposed`` shares the factors of
        that form, so an equation in ``A^T`` or ``B^T`` factors no more than
        one in A and B.
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
    fa = _form(a, "A")
    fb = _form(b, "B")
    c = _as_matrix(c, "C")
    if c.shape != (fa.a.shape[0], fb.a.shape[0]):
        raise DimensionError(
            f"C must have shape {(fa.a.shape[0], fb.a.shape[0])}, got {c.shape}",
            c_shape=c.shape,
        )
    _require_unique_solution(
        fa, fb, "Sylvester equation is singular: spectra of A and -B overlap",
    )
    return _trsyl(fa, fb, -c)
