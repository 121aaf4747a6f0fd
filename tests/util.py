"""Shared random-system generators for the test suite."""

import numpy as np
import scipy.linalg as sla

from lqomor import matfun
from lqomor.gramians import (
    adjoint_block,
    controllability_block,
    cross_gramians,
    gramian_blocks,
    observability_block,
    quadratic_kernel,
    timelimited_gramians,
)
from lqomor.model import LqoSystem, TimeInterval
from lqomor.reductors import ProjectionPair, pole_change
from lqomor.sysio import residual_norms_document, system_document


def stable_matrix(rng, n, margin=1.0):
    """Random dense matrix shifted to put all eigenvalues left of -margin/2."""
    g = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(g).real.max() + margin
    return g - shift * np.eye(n)


def rand_system(rng, n, m=1, p=1, mscale=0.4, margin=1.0):
    """Random Hurwitz quadratic-output system with symmetric form matrices."""
    a = stable_matrix(rng, n, margin)
    b = rng.normal(size=(n, m))
    c = rng.normal(size=(p, n))
    mats = []
    for _ in range(p):
        s = rng.normal(size=(n, n)) * mscale
        mats.append((s + s.T) / 2.0)
    return LqoSystem(a, b, c, mats)


def rand_lti(rng, n, m=1, p=1, margin=1.0):
    """Random Hurwitz system with zero quadratic part."""
    a = stable_matrix(rng, n, margin)
    return LqoSystem(
        a, rng.normal(size=(n, m)), rng.normal(size=(p, n)),
        [np.zeros((n, n)) for _ in range(p)],
    )


def q_route_norm_squared(system, interval):
    """``||H||^2 = trace(B^T Q B)`` from the full Gramian set: the
    observability-Gramian route, an oracle for the P-only norms."""
    g = timelimited_gramians(system, interval)
    return float(np.trace(system.B.T @ g.Q @ system.B))


def q_route_error_triple(system, rom, interval):
    """``(||H||^2, <H, Hr>, ||Hr||^2)`` as ``trace(B^T Q B)``,
    ``trace(B^T Qt Br)`` and ``trace(Br^T Qh Br)``."""
    cg = cross_gramians(system, rom, interval)
    return (
        q_route_norm_squared(system, interval),
        float(np.trace(system.B.T @ cg.Qt @ rom.B)),
        float(np.trace(rom.B.T @ cg.Qh @ rom.B)),
    )


def dense_controllability_block(left, right, interval):
    """Controllability block from the dense N x n kernel: ``B_l B_r^T``
    weighted by ``e^(A_l t) K e^(A_r^T t)`` at both horizon ends as a
    matrix, then one ``solve_sylvester``, symmetrized for a system with
    itself.

    Oracle for the factor-pair right-hand side of
    ``gramians.controllability_block``.
    """
    kern = left.B @ right.B.T
    t0, t1 = interval.t_start, interval.t_end
    rhs = kern if t0 == 0.0 else (
        matfun.expm(left.A, t0) @ kern @ matfun.expm(right.A, t0).T
    )
    if not interval.is_infinite:
        rhs = rhs - matfun.expm(left.A, t1) @ kern @ matfun.expm(right.A, t1).T
    x = matfun.solve_sylvester(left.schur, right.schur_t, rhs)
    return (x + x.T) / 2.0 if left is right else x


def einsum_quadrature_squared(system, interval, resolution):
    """Squared Simpson quadrature norm with the quadratic kernel contracted
    sample pair by sample pair; reference for the GEMM form in
    ``h2tau_norm_quadrature``.  ``resolution`` is rounded up to even."""
    r = resolution + resolution % 2
    t0, t1 = interval.t_start, interval.t_end
    h = (t1 - t0) / r
    prop = matfun.expm(system.A, h)
    ub = np.empty((r + 1, system.order, system.n_inputs))
    ub[0] = matfun.expm(system.A, t0) @ system.B
    for j in range(r):
        ub[j + 1] = prop @ ub[j]
    w = np.ones(r + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    k1 = np.einsum("pn,jnm->jpm", system.C, ub)
    total = (h / 3.0) * float(w @ np.einsum("jpm,jpm->j", k1, k1))
    for mi in system.M:
        mb = np.einsum("nq,jqm->jnm", mi, ub)
        # gram[j, k] = ||(e^(A t_j) B)^T M_i (e^(A t_k) B)||_F^2
        cross = np.einsum("jna,knb->jkab", ub, mb)
        gram = np.einsum("jkab,jkab->jk", cross, cross)
        total += (h / 3.0) ** 2 * float(w @ gram @ w)
    return total


def reference_fixed_point(system, rom0, interval, tol, max_iter):
    """Fixed-point sweep with V an orthonormal basis of span(Pt) and
    ``W = Gt (V^T Gt)^{-1}``, where ``Gt = Yt + 2 Zt`` from
    ``gramian_blocks``, and no Hurwitz test.

    Oracle for the shared Petrov-Galerkin loop, which projects onto the same
    two spans.  Unlike ``V = Pt``, whose scale drifts from sweep to sweep,
    the orthonormal V keeps the reduced coordinates well scaled.  Returns
    the last model and whether its poles stagnated.
    """
    rom = rom0
    for _ in range(max_iter):
        pt, yt, zt = gramian_blocks(system, rom, interval)
        gt = yt + 2.0 * zt
        v = np.linalg.qr(pt)[0]
        w = np.linalg.solve((v.T @ gt).T, gt.T).T
        new = LqoSystem(
            w.T @ system.A @ v, w.T @ system.B, system.C @ v,
            [v.T @ mi @ v for mi in system.M], check_hurwitz=False,
        )
        stagnated = pole_change(rom.poles(), new.poles()) <= tol
        rom = new
        if stagnated:
            return rom, True
    return rom, False


def reference_op1(system, rom, interval):
    """``(op1, L)`` on a finite horizon from the infinite-minus-limited
    splits: ``P12 = Pt(inf) - Pt``, ``Pn = Ph(inf) - Ph``, the differences
    ``Z12``, ``Zn`` of the quadratic parts with kernels ``sum_i M_i Pt Mr_i``
    and ``sum_i Mr_i Ph Mr_i`` on [0, inf) and on the horizon, and a
    boundary Frechet direction built from all four [0, inf) blocks.

    Oracle for the two-adjoint assembly in ``optimality._stationarity``.
    """
    inf = TimeInterval(0.0, np.inf)
    pt = controllability_block(system, rom, interval)
    ph = controllability_block(rom, rom, interval)
    gt = adjoint_block(system, rom, interval)
    gh = adjoint_block(rom, rom, interval)
    kt = quadratic_kernel(system, rom, pt)
    kh = quadratic_kernel(rom, rom, ph)
    zt = observability_block(system, rom, interval, kt)
    zh = observability_block(rom, rom, interval, kh)
    pti = controllability_block(system, rom, inf)
    phi = controllability_block(rom, rom, inf)
    zb = observability_block(system, rom, inf, kt)
    zbn = observability_block(rom, rom, inf, kh)
    qt_kern = system.C.T @ rom.C + kt
    qh_kern = rom.C.T @ rom.C + kh
    b, bh = system.B, rom.B
    w = np.zeros_like(rom.A)
    for sign, t in ((-1.0, interval.t_start), (1.0, interval.t_end)):
        if t == 0.0:
            continue
        s, sh = matfun.expm(system.A, t), matfun.expm(rom.A, t)
        v = (
            pti.T @ s.T @ qt_kern
            - phi @ sh.T @ qh_kern
            + bh @ (b.T @ s.T @ zb - bh.T @ sh.T @ zbn)
        )
        w = w + sign * matfun.expm_frechet(rom.A, v, t)
    l_mat = (
        -(gt - zt).T @ (pti - pt) + (gh - zh) @ (phi - ph)
        - (zb - zt).T @ pt + (zbn - zh) @ ph + w.T
    )
    return -gt.T @ pt + gh @ ph + l_mat, l_mat


def shifted_to(system, rightmost):
    """``system`` with A shifted so that its rightmost eigenvalue has real
    part ``rightmost``; no Hurwitz check."""
    shift = rightmost - np.linalg.eigvals(system.A).real.max()
    return LqoSystem(
        system.A + shift * np.eye(system.order), system.B, system.C, system.M,
        check_hurwitz=False,
    )


def lyap_residual(a, x, q, side="controllability"):
    if side == "controllability":
        return np.linalg.norm(a @ x + x @ a.T + q)
    return np.linalg.norm(a.T @ x + x @ a + q)


def sylv_residual(a, b, x, c):
    return np.linalg.norm(a @ x + x @ b + c)


def residual_budget(x, rhs, *coefficients):
    """Criterion 9's residual budget ``1e-10 (||A|| ||X|| + ||Q||)``, with
    ``||A||`` the largest coefficient norm: a Sylvester equation and its
    transpose, which swaps the coefficients, get the same budget."""
    norm_a = max(np.linalg.norm(a) for a in coefficients)
    return 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(rhs))


def rk4_reference(system, u, grid, x0=None):
    """Stage-by-stage classical RK4, sampling ``u`` at every stage time.

    Reference for ``simulate``: returns the states on ``grid``.
    """
    t = np.asarray(grid, dtype=float)
    a, b, m = system.A, system.B, system.n_inputs
    x = np.zeros(system.order) if x0 is None else np.asarray(x0, dtype=float)

    def forcing(tk):
        val = np.asarray(u(tk), dtype=float).reshape(-1)
        return b @ (np.full(m, val[0]) if val.size == 1 else val)

    states = np.empty((t.size, system.order))
    states[0] = x
    for k in range(t.size - 1):
        h, tk = t[k + 1] - t[k], t[k]
        f1 = a @ x + forcing(tk)
        f2 = a @ (x + 0.5 * h * f1) + forcing(tk + 0.5 * h)
        f3 = a @ (x + 0.5 * h * f2) + forcing(tk + 0.5 * h)
        f4 = a @ (x + h * f3) + forcing(tk + h)
        x = x + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        states[k + 1] = x
    return states


def reference_csv(comment, header, columns):
    """CSV text written row by row, each value as ``repr(float(x))``.

    Reference for the column-wise writer ``lqomor.cli._write_csv``.
    """
    lines = ["# " + comment] if comment else []
    lines.append(",".join(header))
    for row in zip(*columns):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def block_eigvals(a):
    """Eigenvalues of ``a`` read from the diagonal blocks of
    ``scipy.linalg.schur(a)``: a standardized 2x2 block ``[[x, b], [c, x]]``
    holds ``x +- i sqrt(|b|) sqrt(|c|)``.

    Reference for the eigenvalues of ``matfun.SchurForm``.
    """
    t = sla.schur(a, output="real")[0]
    lam = np.diag(t).astype(complex)
    k = np.flatnonzero(np.diag(t, -1))
    w = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    lam[k] += 1j * w
    lam[k + 1] -= 1j * w
    return lam


def reference_biorthogonalize(v, w):
    """Bi-orthogonal Gram-Schmidt sweep with ``np.linalg.norm`` norms and
    ``@`` products, without the input checks.

    Reference for ``lqomor.reductors.biorthogonalize``.
    """
    v = np.array(v, dtype=float)
    w = np.array(w, dtype=float)
    for col in range(v.shape[1]):
        vc = v[:, col].copy()
        wc = w[:, col].copy()
        for j in range(col):
            vc -= v[:, j] * (w[:, j] @ vc)
            wc -= w[:, j] * (v[:, j] @ wc)
        vc /= np.linalg.norm(vc)
        wc /= np.linalg.norm(wc)
        v[:, col] = vc / (wc @ vc)
        w[:, col] = wc
    return ProjectionPair(V=v, W=w)


def reference_report_document(report):
    """Report document with the poles converted one number at a time.

    Reference for ``lqomor.sysio.report_document``.
    """
    return {
        "method": report.method,
        "converged": report.converged,
        "iterations": report.iterations,
        "rom_hurwitz": report.rom.is_hurwitz,
        "pole_history": [
            [[float(z.real), float(z.imag)] for z in np.asarray(p, dtype=complex)]
            for p in report.pole_history
        ],
        "convergence_metric": [float(x) for x in report.convergence_metric],
        "residual_norms": residual_norms_document(report.residuals),
        "warnings": list(report.warnings),
        "rom": system_document(report.rom),
    }
