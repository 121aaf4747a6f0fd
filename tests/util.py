"""Shared random-system generators for the test suite."""

import numpy as np

from lqomor.model import LqoSystem


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


def lyap_residual(a, x, q, side="controllability"):
    if side == "controllability":
        return np.linalg.norm(a @ x + x @ a.T + q)
    return np.linalg.norm(a.T @ x + x @ a + q)


def sylv_residual(a, b, x, c):
    return np.linalg.norm(a @ x + x @ b + c)


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
