"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one PASS line on success; the conftest summary hook repeats
the per-criterion outcome at the end of the run.
"""

import json
import math
import time

import numpy as np
import pytest

from lqomor.cli import run_command
from lqomor.gramians import cross_gramians, timelimited_gramians
from lqomor.matfun import expm, expm_frechet, solve_lyapunov, solve_sylvester
from lqomor.model import INFINITE, LqoSystem, TimeInterval, error_system
from lqomor.norms import h2tau_error, h2tau_norm, h2tau_norm_quadrature
from lqomor.optimality import gradients, h2_residuals, objective_J, tl_residuals
from lqomor.reductors import bt, homora, tlbt, tlhnoia

from util import lyap_residual, q_route_error_triple, rand_system, stable_matrix, sylv_residual


@pytest.fixture(scope="module")
def demo_result(tmp_path_factory):
    """Run the actual `demo` command once and parse its artifacts."""
    outdir = tmp_path_factory.mktemp("demo")
    csv_path = outdir / "errors.csv"
    report_path = outdir / "report.json"
    start = time.perf_counter()
    code = run_command(
        ["demo", "--out", str(csv_path), "--report", str(report_path)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(report_path.read_text())
    rows = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=2)
    header = csv_path.read_text().splitlines()[1].split(",")
    mean_errors = {
        name.removeprefix("rel_err_"): float(rows[:, k].mean())
        for k, name in enumerate(header)
        if name.startswith("rel_err_")
    }
    return {"report": report, "mean_errors": mean_errors, "elapsed": elapsed}


def test_criterion_1_benchmark_reproduction(demo_result):
    """Bundled benchmark: the horizon-limited iteration converges and its
    stationarity residuals land at the expected magnitudes."""
    doc = demo_result["report"]["tlhnoia"]
    assert doc["converged"] is True
    assert doc["iterations"] <= 200
    norms = doc["residual_norms"]
    assert norms["op2"] <= 1e-6
    assert norms["op3"] <= 1e-3
    assert norms["op4"] <= 1e-3
    assert demo_result["elapsed"] <= 10.0
    print(
        f"\nACCEPTANCE 1 (benchmark reproduction): PASS "
        f"[iters={doc['iterations']}, op2={norms['op2']:.3e}, "
        f"op3={norms['op3']:.3e}, op4={norms['op4']:.3e}, "
        f"t={demo_result['elapsed']:.2f}s]"
    )


def test_criterion_2_error_ordering(demo_result):
    """Horizon-limited methods beat the infinite-horizon ones on the horizon."""
    mean = demo_result["mean_errors"]
    assert mean["tlbt"] < mean["bt"]
    assert mean["tlbt"] < mean["homora"]
    assert mean["tlhnoia"] < mean["bt"]
    assert mean["tlhnoia"] < mean["homora"]
    assert demo_result["elapsed"] <= 30.0
    print(
        f"\nACCEPTANCE 2 (output error ordering): PASS "
        f"[bt={mean['bt']:.3e}, tlbt={mean['tlbt']:.3e}, "
        f"homora={mean['homora']:.3e}, tlhnoia={mean['tlhnoia']:.3e}]"
    )


def test_criterion_3_norm_oracle_equivalence():
    """Gramian norm equals the Simpson quadrature oracle on random systems."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        system = rand_system(rng, n, m, p)
        decay = abs(np.linalg.eigvals(system.A).real.max())
        tau = float(rng.uniform(0.3, 3.0)) / decay
        interval = TimeInterval(0.0, tau)
        g = h2tau_norm(system, interval).value
        q = h2tau_norm_quadrature(system, interval, resolution=400).value
        worst = max(worst, abs(g - q) / g)
        assert abs(g - q) <= 1e-5 * g
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(
        f"\nACCEPTANCE 3 (norm oracle equivalence): PASS "
        f"[20 systems, worst rel diff {worst:.3e}, t={elapsed:.2f}s]"
    )


def test_criterion_4_gradient_oracle():
    """All four analytic gradient blocks match central finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        full = rand_system(rng, n, m, p)
        rom = rand_system(rng, r, m, p)
        interval = TimeInterval(0.0, float(rng.uniform(0.5, 1.5)))
        rep = gradients(full, rom, interval)

        def obj(a=None, b=None, c=None, mats=None):
            return objective_J(
                full,
                LqoSystem(
                    rom.A if a is None else a,
                    rom.B if b is None else b,
                    rom.C if c is None else c,
                    rom.M if mats is None else mats,
                    check_hurwitz=False,
                ),
                interval,
            )

        def fd(fun, base):
            step = 1e-6 * max(np.linalg.norm(base), 1.0)
            g = np.zeros_like(base)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    up = base.copy()
                    up[i, j] += step
                    dn = base.copy()
                    dn[i, j] -= step
                    g[i, j] = (fun(up) - fun(dn)) / (2.0 * step)
            return g

        blocks = [
            (rep.grad_A, rom.A, lambda x: obj(a=x)),
            (rep.grad_B, rom.B, lambda x: obj(b=x)),
            (rep.grad_C, rom.C, lambda x: obj(c=x)),
        ]
        for i in range(p):
            def with_m(x, i=i):
                mats = list(rom.M)
                mats[i] = x
                return obj(mats=mats)

            blocks.append((rep.grad_M[i], rom.M[i], with_m))
        for analytic, base, fun in blocks:
            numeric = fd(fun, np.array(base, dtype=float))
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(numeric), 1e-12
            )
            worst = max(worst, rel)
            assert rel <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    print(
        f"\nACCEPTANCE 4 (gradient oracle): PASS "
        f"[10 pairs, worst rel err {worst:.3e}, t={elapsed:.2f}s]"
    )


def test_criterion_5_limit_consistency():
    """With a very long horizon every limited quantity matches its
    infinite-horizon counterpart and the deviation term L vanishes."""
    rng = np.random.default_rng(55)
    full = rand_system(rng, 5, 2, 2)
    rom = rand_system(rng, 2, 2, 2)
    tau = 100.0 / abs(np.linalg.eigvals(full.A).real.max())
    limited = TimeInterval(0.0, tau)
    infinite = TimeInterval(0.0, INFINITE)

    g_lim = timelimited_gramians(full, limited)
    g_inf = timelimited_gramians(full, infinite)
    for name in ("P", "Y", "Z", "Q"):
        a, b = getattr(g_lim, name), getattr(g_inf, name)
        assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1e-30)

    cg_lim = cross_gramians(full, rom, limited)
    cg_inf = cross_gramians(full, rom, infinite)
    for name in ("Pt", "Ph", "Yt", "Yh", "Zt", "Zh", "Qt", "Qh"):
        a, b = getattr(cg_lim, name), getattr(cg_inf, name)
        assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1e-30)

    n_lim = h2tau_norm(full, limited).value
    n_inf = h2tau_norm(full, infinite).value
    assert abs(n_lim - n_inf) <= 1e-6 * n_inf
    e_lim = h2tau_error(full, rom, limited).value
    e_inf = h2tau_error(full, rom, infinite).value
    assert abs(e_lim - e_inf) <= 1e-6 * e_inf

    rep_lim = tl_residuals(full, rom, limited)
    rep_inf = h2_residuals(full, rom)
    pairs = [
        (rep_lim.op1_residual, rep_inf.op1_residual),
        (rep_lim.op3_residual, rep_inf.op3_residual),
        (rep_lim.op4_residual, rep_inf.op4_residual),
    ] + list(zip(rep_lim.op2_residuals, rep_inf.op2_residuals))
    for a, b in pairs:
        assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1e-30)
    gt = cg_lim.Yt + 2.0 * cg_lim.Zt
    op1_scale = np.linalg.norm(gt.T @ cg_lim.Pt, 2)
    assert np.linalg.norm(rep_lim.L) <= 1e-6 * op1_scale
    print(
        f"\nACCEPTANCE 5 (infinite-horizon limit): PASS "
        f"[||L|| = {np.linalg.norm(rep_lim.L):.3e} vs scale {op1_scale:.3e}]"
    )


def test_criterion_6_homora_stationarity():
    """Converged infinite-horizon iterations satisfy all four conditions."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(5):
        full = rand_system(rng, 6, 1, 1)
        rom0 = rand_system(rng, 2, 1, 1)
        report = homora(full, rom0, tol=1e-9, max_iter=500)
        assert report.converged
        res = report.residuals
        cg = cross_gramians(full, report.rom, TimeInterval(0.0, INFINITE))
        gt = cg.Yt + 2.0 * cg.Zt
        scales = [
            np.linalg.norm(gt.T @ cg.Pt, 2),
            np.linalg.norm(cg.Pt.T @ full.M[0] @ cg.Pt, 2),
            np.linalg.norm(gt.T @ full.B, 2),
            np.linalg.norm(full.C @ cg.Pt, 2),
        ]
        values = [res.op1_norm, max(res.op2_norms), res.op3_norm, res.op4_norm]
        for value, scale in zip(values, scales):
            worst = max(worst, value / scale)
            assert value <= 1e-6 * scale
    print(
        f"\nACCEPTANCE 6 (infinite-horizon stationarity): PASS "
        f"[5 systems, worst residual/scale {worst:.3e}]"
    )


def test_criterion_7_balancing_identities():
    """Both truncation methods produce exactly balanced reduced Gramians."""
    rng = np.random.default_rng(707)
    system = rand_system(rng, 6, 2, 2)
    cases = [
        (bt(system, 3), TimeInterval(0.0, INFINITE)),
        (tlbt(system, 3, TimeInterval(0.0, 1.0)), TimeInterval(0.0, 1.0)),
    ]
    for report, interval in cases:
        gset = timelimited_gramians(system, interval)
        v, w = report.projection.V, report.projection.W
        diag = np.diag(report.sigma[:3])
        scale = report.sigma[0]
        assert np.linalg.norm(w.T @ gset.P @ w - diag) <= 1e-8 * scale
        assert np.linalg.norm(v.T @ gset.Q @ v - diag) <= 1e-8 * scale
        assert (np.diff(report.sigma) <= 1e-12 * scale).all()
    print("\nACCEPTANCE 7 (balancing identities): PASS")


def test_criterion_8_inner_product_identity():
    """The error norm decomposes through the inner product, which equals
    ``trace(B^T Qt Br)``, and equals the stacked-realization evaluation."""
    rng = np.random.default_rng(808)
    for _ in range(5):
        full = rand_system(rng, 5, 2, 2)
        rom = rand_system(rng, 2, 2, 2)
        interval = TimeInterval(0.0, float(rng.uniform(0.5, 2.0)))
        rep = h2tau_error(full, rom, interval)
        first, second, third = rep.decomposition
        assert rep.value**2 == pytest.approx(first - 2 * second + third, rel=1e-12)
        assert second == pytest.approx(
            q_route_error_triple(full, rom, interval)[1], rel=1e-12
        )
        stacked = h2tau_norm(error_system(full, rom), interval).value
        assert rep.value == pytest.approx(stacked, rel=1e-10)
    print("\nACCEPTANCE 8 (inner product identity): PASS")


def test_criterion_9_solver_residual_suite():
    """Every matrix-equation solution re-substitutes below the residual
    budget; the exponential derivative matches finite differences."""
    rng = np.random.default_rng(909)
    for _ in range(10):
        a = stable_matrix(rng, int(rng.integers(2, 8)))
        n = a.shape[0]
        q0 = rng.normal(size=(n, n))
        q = q0 @ q0.T
        x = solve_lyapunov(a, q)
        scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q)
        assert lyap_residual(a, x, q) <= 1e-10 * scale
        x = solve_lyapunov(a, q, side="observability")
        assert lyap_residual(a, x, q, "observability") <= 1e-10 * scale

        b = stable_matrix(rng, int(rng.integers(1, 4)))
        c = rng.normal(size=(n, b.shape[0]))
        x = solve_sylvester(a, b, c)
        scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(c)
        assert sylv_residual(a, b, x, c) <= 1e-10 * scale

    for _ in range(5):
        a = stable_matrix(rng, 4)
        v = rng.normal(size=(4, 4))
        t = float(rng.uniform(0.2, 1.5))
        h = 1e-6 * np.linalg.norm(a)
        fd = (expm(a + h * v, t) - expm(a - h * v, t)) / (2.0 * h)
        an = expm_frechet(a, v, t)
        assert np.linalg.norm(an - fd) <= 1e-5 * np.linalg.norm(fd)
    print("\nACCEPTANCE 9 (solver residual suite): PASS")
