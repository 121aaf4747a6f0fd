"""Dense matrix-function and matrix-equation kernels.

The Lyapunov and Sylvester solvers are Bartels-Stewart: a real Schur form
``A = U T U^T`` of each coefficient, a solve of the quasi-triangular
equation in the factors, and a back-transform.  A right-hand side is an
array or, when it has low rank, a factor pair ``(L, R)`` with ``C = L R^T``,
which enters the factors' coordinates as two thin products and is never
formed at full size.  A coefficient is either a plain array, factored on
the spot, or a :class:`SchurForm` that keeps its factorization, so a
matrix used in many equations is factored once.  The
form of ``A^T`` is a view of A's form, ``A^T = U T^T U^T``, so one
factorization serves both sides of every equation: the solve applies the
transpose to T.  The Hurwitz and solvability tests read their eigenvalues
from the same form.  The matrix exponential uses scaling and squaring with a
fixed-order Pade approximant.

The quasi-triangular solve is recursive and blocked (Jonsson and Kagstrom,
ACM TOMS 2002).  It splits the factors at a 1x1/2x2 block boundary and
joins the halves with matrix products, down to leaves of at most
:data:`LEAF` rows and columns, each one unblocked LAPACK ``trsyl`` call; an
equation that small is exactly one such call.  A Lyapunov equation with a
symmetric right-hand side takes a symmetric recursion: three block solves
per split instead of four.  Every leaf divides its solution by the scale
``trsyl`` applied to avoid overflow, so a solution that overflows is a
:class:`SolverError`, not a finite wrong answer.

A form is one LAPACK ``dgees`` call, made with the workspace that
``scipy.linalg.schur`` queries, so its factors are bit-identical to that
function's.  The same call returns the eigenvalues: bit for bit those read
from T's diagonal blocks, except for a matrix that ``dgees`` scales (one
whose largest entry lies outside about [6.7e-139, 1.5e138]), whose
eigenvalues agree with T's to rounding.
"""

import functools
import math
import weakref

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, HurwitzError, NonFiniteError, SolverError

#: Relative tolerance of the Hurwitz test: max Re(eig(A)) must be below
#: ``-HURWITZ_RTOL * ||A||_F``.
HURWITZ_RTOL = 1e-12

#: Exponentials ``e^(a t)`` a :class:`SchurForm` keeps: the two most recently
#: used ``t``, one horizon's start and end.  A form held across many
#: horizons (a loaded system reused by several commands) stays this size.
EXPM_MEMO = 2

#: Horizons whose Gramians P and Q and their balancing (sigma, W, V) a
#: :class:`~lqomor.model.LqoSystem` keeps (see :mod:`lqomor.gramians`): the
#: two most recently used, one finite horizon and [0, inf), which is what a
#: ``bt``/``tlbt`` comparison reads.  That is 4 N^2 + N floats per horizon:
#: at N = 150, about 1.4 MiB per system for the two.
GRAMIAN_MEMO = 2

#: Largest number of rows or columns of a quasi-triangular Sylvester block
#: that one unblocked LAPACK ``trsyl`` call solves; larger blocks are split
#: recursively (see ``_trsyl``).  48 is the fastest measured at N = 150 and
#: within 5% of the fastest at N = 300.
LEAF = 48


def _as_matrix(a, name):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={a.ndim}", name=name)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite entries", name=name)
    return a


def fro_norm(a):
    """Frobenius norm of the float array ``a``: the square root of the sum of
    squares in memory order, which is what ``np.linalg.norm(a)`` and
    ``scipy.linalg.norm(a, "fro")`` compute, to the last bit."""
    x = a.ravel(order="K")
    return math.sqrt(x.dot(x))


def _as_square(a, name):
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(
            f"{name} must be square, got shape {a.shape}", name=name, shape=a.shape
        )
    return a


def _unsorted(*_):
    """``dgees`` selector of an unsorted form; LAPACK never calls it."""


class SchurForm:
    """Real Schur form ``a = U T U^T`` of one square matrix, factored on first use.

    Holds the spectral facts the solvers need about ``a``: the factors and
    the eigenvalues of one ``dgees`` call, the spectral radius and the
    eigenvalue sums with other forms that the solvability test reads, the
    rightmost eigenvalue of the Hurwitz test, and a memo of ``e^(a t)`` for
    the last :data:`EXPM_MEMO` values of ``t``.
    The eigenvalues are ``dgees``'s ``wr + i wi``, in the order of T's
    diagonal blocks: bit for bit the ``x +- i sqrt(|b|) sqrt(|c|)`` of T's
    standardized 1x1 and 2x2 blocks ``[[x, b], [c, x]]``,
    unless the largest entry of ``a`` lies outside about [6.7e-139,
    1.5e138], where ``dgees`` scales ``a`` and scales the imaginary parts
    back apart from T, so the two agree to rounding.
    ``transposed`` is the form of ``a^T``: a view that shares all of these
    (``a^T = U T^T U^T``, flagged by ``trans``), so one factorization serves
    both sides of every Lyapunov and Sylvester equation in ``a``.  ``a``
    must be a finite square float array.
    """

    def __init__(self, a, transposed=None):
        self.a = a
        #: Whether this is the view of another form's transpose, so that
        #: ``a = U T^T U^T`` with that form's factors.
        self.trans = transposed is not None
        # The view holds its form and the form holds its view weakly, so a
        # form is freed by reference counting, not by the cycle collector.
        self._form = transposed
        self._view = None
        self._expm = {}

    @property
    def transposed(self):
        """Form of ``a^T``: the form a view was made from, or the view of a
        form, the same object for as long as anything holds it."""
        if self.trans:
            return self._form
        view = self._view and self._view()
        if view is None:
            view = SchurForm(self.a.T, self)
            self._view = weakref.ref(view)
        return view

    @functools.cached_property
    def _schur(self):
        """``((T, U), eigenvalues)`` of one ``dgees`` call on the form's
        matrix, with the workspace ``scipy.linalg.schur`` would use."""
        if self.trans:
            return self._form._schur
        if not self.a.size:
            raise DimensionError("a Schur form needs a matrix of order 1 or more")
        gees = sla.lapack.dgees
        lwork = int(gees(_unsorted, self.a, lwork=-1)[-2][0])
        t, _, wr, wi, u, _, info = gees(_unsorted, self.a, lwork=lwork)
        if info < 0:
            raise SolverError(f"gees rejected argument {-info}")
        if info > 0:
            raise SolverError(
                "Schur form not found: the QR iteration did not converge",
                info=int(info),
            )
        # a real eigenvalue is T's diagonal entry as it stands, a zero's sign
        # included, which adding ``1j * 0.0`` would drop
        return (t, u), np.where(wi == 0.0, wr, wr + 1j * wi)

    @property
    def factors(self):
        """``(T, U)``: quasi-upper-triangular T and orthogonal U, shared with
        ``transposed``; ``a = U T U^T``, or ``a = U T^T U^T`` if ``trans``."""
        return self._schur[0]

    @property
    def eigvals(self):
        """Eigenvalues of ``a``, in the order of T's diagonal blocks."""
        return self._schur[1]

    @functools.cached_property
    def radius(self):
        """Spectral radius of ``a``, shared with ``transposed``."""
        if self.trans:
            return self._form.radius
        return np.abs(self.eigvals).max()

    @functools.cached_property
    def _eig_sums(self):
        """``min_eig_sum`` of this form with each form it has met, keyed
        weakly, so the entry of a freed form goes with it."""
        return weakref.WeakKeyDictionary()

    def min_eig_sum(self, other):
        """``min |lambda + mu|`` over the eigenvalues lambda of ``a`` and mu
        of ``other.a``: computed once per pair of forms, a view counting as
        the form it was made from, since a matrix and its transpose share
        their eigenvalues."""
        root = self._form if self.trans else self
        key = other._form if other.trans else other
        s = root._eig_sums.get(key)
        if s is None:
            s = root._eig_sums[key] = np.abs(self.eigvals[:, None] + other.eigvals[None, :]).min()
        return s

    @functools.cached_property
    def rightmost(self):
        """Eigenvalue with the largest real part, and whether it meets the
        Hurwitz test ``max Re(eig(a)) < -HURWITZ_RTOL * ||a||_F``."""
        if self.trans:
            return self._form.rightmost
        top = self.eigvals[self.eigvals.real.argmax()]
        return top, bool(top.real < -HURWITZ_RTOL * fro_norm(self.a))

    def expm(self, t):
        """``e^(a t)`` as :func:`expm` returns it, read-only.  The memo keeps
        the :data:`EXPM_MEMO` most recently used ``t`` and recomputes any
        other; the transposed view returns the transpose of the same entry."""
        if self.trans:
            return self.transposed.expm(t).T
        t = float(t)

        def make():
            x = expm(self.a, t)
            x.flags.writeable = False
            return x

        return recall(self._expm, t, EXPM_MEMO, make)


def recall(memo, key, bound, make):
    """``memo[key]``, or ``make()`` kept there if ``key`` is missing: the one
    policy of every bounded memo.  ``memo`` is a dict in the order of last
    use; ``key`` becomes its most recently used entry, and the least
    recently used beyond ``bound`` goes."""
    value = memo.pop(key) if key in memo else make()
    memo[key] = value
    if len(memo) > bound:
        del memo[next(iter(memo))]
    return value


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
    s = fa.min_eig_sum(fb)
    if s <= 1e-13 * max(fa.radius, fb.radius, 1.0):
        raise SolverError(message, min_eig_sum=float(s), **context)


def _leaf(r, s, f, trana, tranb):
    """``Y`` with ``op(R) Y + Y op(S) = F`` from one unblocked ``dtrsyl`` call."""
    y, scale, info = sla.lapack.dtrsyl(r, s, f, trana=trana, tranb=tranb)
    if info < 0:
        raise SolverError(f"trsyl rejected argument {-info}")
    # trsyl solves for scale * F, scale <= 1 chosen to avoid overflow; an
    # overflowing solution becomes non-finite here and fails the caller's check
    return y / scale


def _split(t):
    """Index near the middle of quasi-triangular ``t`` that no 2x2 block straddles."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def _sylvester_blocked(r, s, f, trana, tranb):
    """``Y`` with ``op(R) Y + Y op(S) = F``, ``op`` the transpose where ``trana``
    or ``tranb`` is ``"T"``: split the longer side of ``F`` in two, solve the
    half that does not couple to the other first, and subtract its share
    from the other half's right-hand side with one matrix product."""
    m, n = f.shape
    if m <= LEAF and n <= LEAF:
        return _leaf(r, s, f, trana, tranb)
    y = np.empty_like(f)
    if m >= n:
        k = _split(r)
        r11, r12, r22 = r[:k, :k], r[:k, k:], r[k:, k:]
        if trana == "N":
            y[k:] = _sylvester_blocked(r22, s, f[k:], trana, tranb)
            y[:k] = _sylvester_blocked(r11, s, f[:k] - r12.dot(y[k:]), trana, tranb)
        else:
            y[:k] = _sylvester_blocked(r11, s, f[:k], trana, tranb)
            y[k:] = _sylvester_blocked(r22, s, f[k:] - r12.T.dot(y[:k]), trana, tranb)
    else:
        k = _split(s)
        s11, s12, s22 = s[:k, :k], s[:k, k:], s[k:, k:]
        if tranb == "N":
            y[:, :k] = _sylvester_blocked(r, s11, f[:, :k], trana, tranb)
            y[:, k:] = _sylvester_blocked(r, s22, f[:, k:] - y[:, :k].dot(s12), trana, tranb)
        else:
            y[:, k:] = _sylvester_blocked(r, s22, f[:, k:], trana, tranb)
            y[:, :k] = _sylvester_blocked(r, s11, f[:, :k] - y[:, k:].dot(s12.T), trana, tranb)
    return y


def _lyapunov_blocked(t, f, trans):
    """Symmetric ``Y`` with ``T Y + Y T^T = F``, or ``T^T Y + Y T = F`` if
    ``trans``, for symmetric F: with T split in two, one Lyapunov half, the
    off-diagonal block as a Sylvester equation, then the other Lyapunov half
    with ``G + G^T`` of the off-diagonal block subtracted."""
    n = f.shape[0]
    if n <= LEAF:
        return _leaf(t, t, f, *("TN" if trans else "NT"))
    k = _split(t)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    y = np.empty_like(f)
    if trans:
        y[:k, :k] = _lyapunov_blocked(t11, f[:k, :k], trans)
        y12 = _sylvester_blocked(t11, t22, f[:k, k:] - y[:k, :k].dot(t12), "T", "N")
        g = t12.T.dot(y12)
        y[k:, k:] = _lyapunov_blocked(t22, f[k:, k:] - g - g.T, trans)
    else:
        y[k:, k:] = _lyapunov_blocked(t22, f[k:, k:], trans)
        y12 = _sylvester_blocked(t11, t22, f[:k, k:] - t12.dot(y[k:, k:]), "N", "T")
        g = t12.dot(y12.T)
        y[:k, :k] = _lyapunov_blocked(t11, f[:k, :k] - g - g.T, trans)
    y[:k, k:] = y12
    y[k:, :k] = y12.T
    return y


def _trsyl(fa, fb, q):
    """Solve ``A X + X B = Q`` from the forms ``fa`` of A and ``fb`` of B.

    With ``A = U op(R) U^T`` and ``B = V op(S) V^T``, where ``op`` transposes
    the factor of a ``trans`` view, this solves the quasi-triangular
    equation ``op(R) Y + Y op(S) = F`` for ``F = U^T Q V`` and returns
    ``X = U Y V^T``.  ``q`` is an array or a factor pair ``(L, R)`` with
    ``Q = L R^T``; a pair gives ``F = (U^T L)(V^T R)^T``, two thin products
    and one of rank ``k`` for k columns, and a non-finite F raises
    :class:`NonFiniteError`, as a non-finite Q does.  An array in a
    Lyapunov equation (``fb is fa.transposed``) is transformed in the
    operation order of ``scipy.linalg.solve_continuous_lyapunov``.

    An F with both sides at most :data:`LEAF` is one LAPACK ``trsyl`` call,
    so an array Q in such a Lyapunov equation gives scipy's solution bit
    for bit.  A larger F is solved by recursive blocking (Jonsson and
    Kagstrom, ACM TOMS 28, 2002): the factors are split at a 1x1/2x2 block boundary, each half is
    solved in turn, and the coupling is a matrix product, down to ``trsyl``
    leaves of at most ``LEAF`` rows and columns.  A Lyapunov equation with
    a symmetric F (to ``1e-12`` relative, the test of
    :func:`solve_lyapunov`) takes the symmetric recursion: three block
    solves per split, not four.  ``trsyl`` returns the solution of
    ``scale * F``, scaled down to avoid overflow, and every leaf divides
    by that scale, so a solution that overflows is non-finite and raises
    :class:`SolverError`, never a finite wrong answer.
    """
    r, u = fa.factors
    s, v = fb.factors
    lyapunov = fb is fa.transposed
    if isinstance(q, tuple):
        f = np.dot(u.T.dot(q[0]), v.T.dot(q[1]).T)
        if not np.isfinite(f).all():
            raise NonFiniteError("C = L R^T overflowed", name="C")
    else:
        f = u.T.dot(q.dot(u)) if lyapunov else np.dot(np.dot(u.T, q), v)
    if lyapunov and len(f) > LEAF and fro_norm(f - f.T) <= 1e-12 * fro_norm(f):
        y = _lyapunov_blocked(r, (f + f.T) / 2.0, fa.trans)
    else:
        y = _sylvester_blocked(r, s, f, "T" if fa.trans else "N", "T" if fb.trans else "N")
    x = np.dot(np.dot(u, y), v.T)
    if not np.isfinite(x).all():
        kind = "Lyapunov" if lyapunov else "Sylvester"
        raise SolverError(f"{kind} solve produced non-finite entries")
    return x


def solve_lyapunov(a, q, side="controllability"):
    """Solve a continuous-time Lyapunov equation with a Hurwitz coefficient.

    ``side="controllability"`` returns ``X`` with ``A X + X A^T + Q = 0``;
    ``side="observability"`` returns ``X`` with ``A^T X + X A + Q = 0``.
    This is :func:`solve_sylvester` of the form of A (or of ``A^T``) and
    its transposed view, behind the Hurwitz test.

    Parameters
    ----------
    a : (n, n) array_like or SchurForm
        Hurwitz coefficient matrix, else :class:`HurwitzError`.  Both
        sides solve from the one real Schur form of ``a``; the observability
        side applies its factor transposed.
    q : (n, n) array_like
        Right-hand side.  Symmetry is not required; if ``q`` is symmetric
        the returned solution is symmetrized to counter rounding drift.
    side : {"controllability", "observability"}

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
    require_hurwitz(form, "A")
    x = solve_sylvester(form, form.transposed, q)
    qnorm = fro_norm(q)
    if qnorm == 0.0 or fro_norm(q - q.T) <= 1e-12 * qnorm:
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
    c : (N, n) array_like, or a pair ``(L, R)`` of (N, k) and (n, k) arrays
        Right-hand side, or its factors ``C = L R^T``: a pair of low rank k
        is never formed as an (N, n) matrix, so it costs O((N + n)^2 k)
        on the way into the quasi-triangular solve, not ``N^2 n + N n^2``.

    Returns
    -------
    (N, n) ndarray
        Solution with residual norm at most ``1e-10 * scale``.

    Raises
    ------
    NonFiniteError
        If ``c``, a factor, or ``L R^T`` in the Schur coordinates is not
        finite.
    SolverError
        If the spectra of ``a`` and ``-b`` overlap (no unique solution).
    """
    fa = _form(a, "A")
    fb = _form(b, "B")
    shape = (fa.a.shape[0], fb.a.shape[0])
    if isinstance(c, tuple):
        left, right = (np.asarray(x, dtype=float) for x in c)
        if (left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]
                or (left.shape[0], right.shape[0]) != shape):
            raise DimensionError(
                f"L and R must be 2-d with {shape[0]} and {shape[1]} rows and "
                f"equal columns, got {left.shape} and {right.shape}",
                l_shape=left.shape, r_shape=right.shape,
            )
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise NonFiniteError("L or R contains non-finite entries", name="C")
        q = (left, -right)
    else:
        c = _as_matrix(c, "C")
        if c.shape != shape:
            raise DimensionError(
                f"C must have shape {shape}, got {c.shape}", c_shape=c.shape,
            )
        q = -c
    _require_unique_solution(
        fa, fb, "Sylvester equation is singular: spectra of A and -B overlap",
    )
    return _trsyl(fa, fb, q)
