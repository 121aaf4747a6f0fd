"""Dense matrix-function and matrix-equation kernels.

The Lyapunov and Sylvester solvers are Bartels-Stewart: a real Schur form
``A = U T U^T`` of each coefficient, a solve of the quasi-triangular
equation in the factors, and a back-transform.  A right-hand side is an
array.  A coefficient is either a plain array, factored on the spot, or a
:class:`SchurForm` that keeps its factorization, so a matrix used in many
equations is factored once.  The form of ``A^T`` is a view of A's form,
``A^T = U T^T U^T``, so one factorization serves both sides of every
equation: the solve applies the transpose to T.  The Hurwitz and
solvability tests read their eigenvalues from the same form.  The matrix
exponential is ``scipy.linalg.expm`` of the matrix itself, read from no
form and kept by no memo here.

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
``scipy.linalg.schur`` queries (asked once per matrix order, as LAPACK sizes
it from the order alone), so its factors are bit-identical to that
function's.  The same call returns the eigenvalues: bit for bit those read
from T's diagonal blocks, except for a matrix that ``dgees`` scales (one
whose largest entry lies outside about [6.7e-139, 1.5e138]), whose
eigenvalues agree with T's to rounding.

:data:`sla` is the library's one binding of ``scipy.linalg``, imported at its
first attribute read, so a command that solves nothing runs on numpy alone.
"""

import functools
import types

import numpy as np

from .errors import DimensionError, HurwitzError, NonFiniteError, SolverError


class _SciPyLinalg(types.ModuleType):
    """``scipy.linalg`` before its first attribute read, which imports it and
    binds it as :data:`sla`, unless :data:`sla` was rebound meanwhile."""

    def __getattr__(self, name):
        global sla
        import scipy.linalg
        if sla is self:
            sla = scipy.linalg
        return getattr(scipy.linalg, name)


sla = _SciPyLinalg("scipy.linalg")

#: Relative tolerance of the Hurwitz test: max Re(eig(A)) must be below
#: ``-HURWITZ_RTOL * ||A||_F``.
HURWITZ_RTOL = 1e-12

#: Largest number of rows or columns of a quasi-triangular Sylvester block
#: that one unblocked LAPACK ``trsyl`` call solves; larger blocks are split
#: recursively (see ``_trsyl``).  48 is the fastest measured at N = 150 and
#: within 5% of the fastest at N = 300.
LEAF = 48


def _as_matrix(a, name, shape=(None, None)):
    """Nonempty, finite, C-ordered float copy of the matrix ``a``, a 1-d
    ``a`` read as one row: the one check of every matrix that a library
    function takes from its caller.

    ``shape`` is the expected ``(rows, columns)``, None for any count, or
    ``"square"`` for equal counts.  A ragged, non-numeric, complex, 3-d,
    empty or misshapen ``a`` raises :class:`DimensionError`, a NaN or inf
    :class:`NonFiniteError`; both name ``a`` in ``context["name"]``.
    """
    try:
        # a complex array would convert with its imaginary part dropped; an
        # ndarray tells by its dtype
        if (a.dtype.kind == "c") if isinstance(a, np.ndarray) else np.iscomplexobj(a):
            raise TypeError(f"{name} is complex")
        # converted once: the copy is what is checked and returned
        a = np.array(a, dtype=float, order="C", ndmin=2)
    except (TypeError, ValueError):
        # numpy's error for ragged rows or entries that are not real numbers
        raise DimensionError(
            f"{name} must be a 2-d matrix of real numbers with rows of equal length",
            name=name,
        ) from None
    square = shape == "square"
    rows, cols = (len(a),) * 2 if square else shape
    if a.ndim != 2 or not a.size or rows not in (None, len(a)) or cols not in (None, a.shape[1]):
        want = "n x n" if square else " x ".join("*" if w is None else str(w) for w in shape)
        raise DimensionError(
            f"{name} must be a nonempty {want} matrix, got shape {a.shape}",
            name=name, shape=a.shape,
        )
    if not finite(a):
        raise NonFiniteError(f"{name} contains non-finite entries", name=name)
    return a


def finite(a):
    """Whether every entry of the float array ``a`` is finite: one
    ``isfinite`` and one count, the finiteness test of the matrix check and
    of the Gramian solves."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def fro_norm(a):
    """Frobenius norm of the float array ``a`` from BLAS ``dnrm2`` in memory
    order, which scales as it sums and so is finite whenever the norm is;
    it may differ from ``np.linalg.norm(a)`` in the last bits, so it serves
    threshold tests only, never a value that reaches an output."""
    x = a.ravel(order="K")
    return sla.blas.dnrm2(x) if x.size else 0.0


#: ``dgees`` workspace by matrix order, queried at the first factorization
#: of each order: LAPACK sizes it from the order alone, so every form gets
#: the workspace that ``scipy.linalg.schur`` would query for its matrix.
_GEES_LWORK = {}


def _unsorted(*_):
    """``dgees`` selector of an unsorted form; LAPACK never calls it."""


class SchurForm:
    """Real Schur form ``a = U T U^T`` of one square matrix, factored on first use.

    Holds the spectral facts the solvers need about ``a`` alone, all found
    with one ``dgees`` call: the factors, the eigenvalues, the spectral
    radius that the solvability test reads, and the rightmost eigenvalue of
    the Hurwitz test.
    The eigenvalues are ``dgees``'s ``wr + i wi``, in the order of T's
    diagonal blocks: bit for bit the ``x +- i sqrt(|b|) sqrt(|c|)`` of T's
    standardized 1x1 and 2x2 blocks ``[[x, b], [c, x]]``,
    unless the largest entry of ``a`` lies outside about [6.7e-139,
    1.5e138], where ``dgees`` scales ``a`` and scales the imaginary parts
    back apart from T, so the two agree to rounding.
    ``transposed`` is the form of ``a^T``: a view that holds this form and
    reads all of these from it (``a^T = U T^T U^T``, flagged by
    ``trans``), so one factorization serves both sides of every Lyapunov
    and Sylvester equation in ``a``.  A form keeps no reference to its
    views, so each read of ``transposed`` makes a new one, and the factors
    go with the form's last holder.  ``a`` is checked as a square matrix
    (:func:`_as_matrix`) when it is factored.
    """

    def __init__(self, a, transposed=None):
        self.a = a
        #: Whether this is the view of another form's transpose, so that
        #: ``a = U T^T U^T`` with that form's factors.
        self.trans = transposed is not None
        self._form = transposed

    @property
    def base(self):
        """The form that owns the factors: this form, or the form a view
        was made from."""
        return self._form if self.trans else self

    @property
    def transposed(self):
        """Form of ``a^T``: the form a view was made from, or a new view of
        a form."""
        return self._form if self.trans else SchurForm(self.a.T, self)

    @functools.cached_property
    def _schur(self):
        """``((T, U), eigenvalues, radius, rightmost)`` of one ``dgees`` call
        on the form's matrix, with the workspace ``scipy.linalg.schur``
        would use; a view reads its form's."""
        a = _as_matrix(self.a, "a", "square")
        gees = sla.lapack.dgees
        lwork = _GEES_LWORK.get(len(a))
        if lwork is None:
            lwork = _GEES_LWORK[len(a)] = int(gees(_unsorted, a, lwork=-1)[-2][0])
        t, _, wr, wi, u, _, info = gees(_unsorted, a, lwork=lwork)
        if info < 0:
            raise SolverError(f"gees rejected argument {-info}")
        if info > 0:
            raise SolverError(
                "Schur form not found: the QR iteration did not converge",
                info=int(info),
            )
        # a real eigenvalue is T's diagonal entry as it stands, a zero's sign
        # included, which adding ``1j * 0.0`` would drop
        lam = np.where(wi == 0.0, wr, wr + 1j * wi)
        top = lam[lam.real.argmax()]
        hurwitz = bool(top.real < -HURWITZ_RTOL * fro_norm(a))
        return (t, u), lam, np.abs(lam).max(), (top, hurwitz)

    @property
    def factors(self):
        """``(T, U)``: quasi-upper-triangular T and orthogonal U, shared with
        ``transposed``; ``a = U T U^T``, or ``a = U T^T U^T`` if ``trans``."""
        return self.base._schur[0]

    @property
    def eigvals(self):
        """Eigenvalues of ``a``, in the order of T's diagonal blocks."""
        return self.base._schur[1]

    @property
    def radius(self):
        """Spectral radius of ``a``, shared with ``transposed``."""
        return self.base._schur[2]

    @property
    def rightmost(self):
        """Eigenvalue with the largest real part, and whether it meets the
        Hurwitz test ``max Re(eig(a)) < -HURWITZ_RTOL * ||a||_F``."""
        return self.base._schur[3]


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
    return a if isinstance(a, SchurForm) else SchurForm(_as_matrix(a, name, "square"))


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
    a = _as_matrix(a, "A", "square")
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
    a = _as_matrix(a, "A", "square")
    v = _as_matrix(v, "V", a.shape)
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


def _require_unique_solution(fa, fb):
    """The solvability test of ``A X + X B + C = 0`` for the forms ``fa`` of
    A and ``fb`` of B: a unique solution needs no ``eig(A) + eig(B)`` near
    zero, else :class:`SolverError` with the smallest such sum."""
    s = np.abs(fa.eigvals[:, None] + fb.eigvals[None, :]).min()
    if s <= 1e-13 * max(fa.radius, fb.radius):
        raise SolverError(
            "Sylvester equation is singular: spectra of A and -B overlap",
            min_eig_sum=float(s),
        )


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
    ``X = U Y V^T``.  In a Lyapunov equation (one form and a view of it,
    in either order) Q is transformed in the operation order of
    ``scipy.linalg.solve_continuous_lyapunov``.

    An F with both sides at most :data:`LEAF` is one LAPACK ``trsyl`` call,
    so such a Lyapunov equation gives scipy's solution bit for bit.  A
    larger F is solved by recursive blocking (Jonsson and Kagstrom, ACM
    TOMS 28, 2002): the factors are split at a 1x1/2x2 block boundary,
    each half is solved in turn, and the coupling is a matrix product, down
    to ``trsyl`` leaves of at most ``LEAF`` rows and columns.  A Lyapunov
    equation whose transformed right-hand side F is symmetric
    (``||F - F^T|| <= 1e-12 ||F||``, tested on F itself, not on Q) takes the
    symmetric recursion: three block solves per split, not four.  ``trsyl``
    returns the solution of ``scale * F``, scaled down to avoid overflow,
    and every leaf divides by that scale, so a solution that overflows is non-finite and raises
    :class:`SolverError`, never a finite wrong answer.
    """
    r, u = fa.factors
    s, v = fb.factors
    lyapunov = fa.trans != fb.trans and fa.base is fb.base
    f = u.T.dot(q.dot(u)) if lyapunov else np.dot(np.dot(u.T, q), v)
    if lyapunov and len(f) > LEAF and fro_norm(f - f.T) <= 1e-12 * fro_norm(f):
        y = _lyapunov_blocked(r, (f + f.T) / 2.0, fa.trans)
    else:
        y = _sylvester_blocked(r, s, f, "T" if fa.trans else "N", "T" if fb.trans else "N")
    x = np.dot(np.dot(u, y), v.T)
    if not finite(x):
        kind = "Lyapunov" if lyapunov else "Sylvester"
        raise SolverError(f"{kind} solve produced non-finite entries")
    return x


def solve_lyapunov(a, q, side="controllability"):
    """Solve a continuous-time Lyapunov equation with a Hurwitz coefficient.

    ``side="controllability"`` returns ``X`` with ``A X + X A^T + Q = 0``;
    ``side="observability"`` returns ``X`` with ``A^T X + X A + Q = 0``.
    This is the Sylvester solve of the form of A (or of ``A^T``) and its
    transposed view, behind the Hurwitz test; ``q`` is checked here once
    and not again by :func:`solve_sylvester`.

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
    q = _as_matrix(q, "Q", form.a.shape)
    if side not in ("controllability", "observability"):
        raise ValueError(f"unknown side {side!r}")
    if side == "observability":
        form = form.transposed
    require_hurwitz(form, "A")
    _require_unique_solution(form, form.transposed)
    x = _trsyl(form, form.transposed, -q)
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
    c : (N, n) array_like

    Returns
    -------
    (N, n) ndarray
        Solution with residual norm at most ``1e-10 * scale``.

    Raises
    ------
    DimensionError
        If ``c`` is not an (N, n) matrix.
    NonFiniteError
        If ``c`` is not finite.
    SolverError
        If the spectra of ``a`` and ``-b`` overlap (no unique solution).

    This public entry point makes the matrix check of ``c``
    (:func:`_as_matrix`) and of an array ``a`` or ``b`` (when factored),
    then the solvability test and the kernel solve :func:`_trsyl`.  The
    library's own Gramian solves (:func:`lqomor.gramians._solve`) skip it:
    they call the solvability test and ``_trsyl`` on kernels they built
    themselves and test only that a kernel is finite.
    """
    fa = _form(a, "A")
    fb = _form(b, "B")
    c = _as_matrix(c, "C", (fa.a.shape[0], fb.a.shape[0]))
    _require_unique_solution(fa, fb)
    return _trsyl(fa, fb, -c)
