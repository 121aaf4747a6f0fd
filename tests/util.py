"""Shared random-system generators for the test suite."""

import numpy as np

from lqomor import matfun
from lqomor.gramians import cross_gramians, gramian_blocks, timelimited_gramians
from lqomor.model import LqoSystem
from lqomor.reductors import pole_change


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


def rk4_reference(system, u, grid, x0=None, substeps=1):
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
        h = (t[k + 1] - t[k]) / substeps
        tk = t[k]
        for _ in range(substeps):
            f1 = a @ x + forcing(tk)
            f2 = a @ (x + 0.5 * h * f1) + forcing(tk + 0.5 * h)
            f3 = a @ (x + 0.5 * h * f2) + forcing(tk + 0.5 * h)
            f4 = a @ (x + h * f3) + forcing(tk + h)
            x = x + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            tk += h
        states[k + 1] = x
    return states
