"""The benchmark's workloads: seeded inputs and the CLI commands run on them.

Every workload runs the same command suite, because every end-to-end
metric is reported on every workload; what differs is the systems, and so
which layer does the work:

``bench6``
    The paper's reproduction path on the bundled sixth-order benchmark,
    rotated by a fresh orthogonal state transform in each pass.  Time goes
    to the Python RK4 loop, signal evaluation and per-call overhead in
    ``homora``'s many small sweeps; LAPACK does almost nothing.
``dense150``
    One seeded dense system of order 150 reused by every pass with a new
    horizon end and reduced order.  Time goes to dense eigen, Lyapunov and
    Sylvester solves on the same ``A``, and to loading the 150-state file.

``demo`` takes no input system; outside ``bench6`` it runs at a coarser
step as a control that the dense layers barely touch.
A workload writes all its inputs in ``setup`` and records every drawn
parameter in ``plan.json`` beside the system files.
"""

import os
import shutil

import numpy as np

import checks
from inputs import rand_system, read_system, rotate, write_json, write_system


class WindowClosed(Exception):
    """The measuring window ended before the next operation could start."""


def _horizon(t0, t1):
    return ["--t0", repr(t0), "--t1", repr(t1)]


#: End of the demo's fixed horizon [0, 0.5] s.
DEMO_T1 = 0.5


def _demo(session, steps, out):
    """One ``demo`` run with ``steps`` RK4 steps over the demo horizon."""
    report, csv = os.path.join(out, "demo.json"), os.path.join(out, "demo.csv")
    session.op(
        "demo_s",
        ["demo", "--step", repr(DEMO_T1 / steps), "--out", csv, "--report", report],
        checks.check_demo(report, csv),
    )


def run_suite(session, case, inputs, out):
    """Run every reduce/error/residuals/simulate/norm/hsv command on one system.

    ``case`` holds the system file and its order, the horizon, the reduced
    order, the initial guess (a file, or None to start both iterations from
    the ``bt`` model), the fixed sweep counts (None: iterate to
    convergence, or for ``homora`` to its own stop on the file
    ``homora_system``), the quadrature resolution and the input signal of
    the simulation.  File names are relative to ``inputs``.
    """
    system, r = os.path.join(inputs, case["system"]), case["order"]
    t0, t1 = case["t0"], case["t1"]
    horizon = _horizon(t0, t1)
    converge = case["sweeps"] is None
    roms = {m: os.path.join(out, f"{m}.json") for m in checks.METHODS}

    def reduce(method, extra, check, source=system):
        argv = ["reduce", "--method", method, "--system", source,
                "--out", roms[method]] + extra
        return session.op(f"reduce_{method}_s", argv, check)

    reduce("bt", ["--order", str(r)], checks.check_reduce(roms["bt"], r))
    reduce("tlbt", ["--order", str(r)] + horizon, checks.check_reduce(roms["tlbt"], r))
    # Without an initial guess both iterations start from the bt model,
    # which is Hurwitz.  tlbt models need not be, and a sweep from a tlbt
    # model costs a fifth more than one from a bt model, so starting from
    # whichever is Hurwitz would mix two costs in one median.
    init = os.path.join(inputs, case["init"]) if case["init"] else roms["bt"]
    for method in ("homora", "tlhnoia"):
        extra = ["--init", init] + (horizon if method == "tlhnoia" else [])
        source = system
        if not converge:
            sweeps = case["sweeps"][method]
            extra += ["--tol", "0", "--max-iter", str(sweeps)]
            check = checks.check_reduce(roms[method], r, iterations=sweeps)
        elif method == "tlhnoia":
            check = checks.check_reduce(roms[method], r, converged=True, criterion_1=True)
        else:
            # homora does not converge on the benchmark: it stops when a
            # normalization factor turns singular and returns its last
            # Hurwitz iterate.  Its path is sensitive to rounding, so it runs
            # on the bundled file itself to keep the paper's sweep count.
            source = os.path.join(inputs, case["homora_system"])
            check = checks.check_reduce(roms[method], r, hurwitz=True)
        reduce(method, extra, check, source)

    # A fixed number of sweeps can stop on a non-Hurwitz model, and on one
    # whose poles mirror poles of A the Gramian error norm is inaccurate
    # (by 1.6% on one order-200 case); without convergence the checked
    # commands run on the bt model instead.
    rom = roms["tlhnoia"] if converge else roms["bt"]
    session.op("error_s", ["error", "--system", system, "--rom", rom] + horizon,
               checks.check_error(system, rom, t0, t1))
    session.op("residuals_s", ["residuals", "--system", system, "--rom", rom] + horizon,
               checks.check_residuals(criterion_1=converge))
    csv = os.path.join(out, "response.csv")
    amp, omega, step = case["amplitude"], case["omega"], case["step"]
    session.op(
        "simulate_s",
        ["simulate", "--system", system, "--rom", rom,
         "--input", f"{amp!r}*cos({omega!r}*t)", "--step", repr(step),
         "--out", csv] + horizon,
        checks.check_simulate(system, rom, amp, omega, t0, t1, step, csv),
    )
    norm = session.op("norm_s", ["norm", "--system", system] + horizon, checks.check_norm)
    session.op(
        "norm_quadrature_s",
        ["norm", "--system", system, "--quadrature", str(case["quadrature"])] + horizon,
        checks.check_norm_pair(norm),
    )
    session.op("hsv_s", ["hsv", "--system", system] + horizon,
               checks.check_hsv(case["n"]))


class Bench6:
    """The bundled sixth-order benchmark, as in the paper's reproduction."""

    name = "bench6"

    def __init__(self, data_dir, max_passes=48, sim_step=1e-4, demo_steps=(4950, 5050)):
        self.data_dir = data_dir
        self.max_passes = max_passes
        self.sim_step = sim_step
        self.demo_steps = demo_steps

    def setup(self, seed, directory):
        rng = np.random.default_rng(seed)
        base = read_system(os.path.join(self.data_dir, "benchmark6.json"))
        for name in ("benchmark6.json", "benchmark6_init.json"):
            shutil.copyfile(os.path.join(self.data_dir, name), os.path.join(directory, name))
        passes = []
        for k in range(self.max_passes):
            name = f"system{k}.json"
            write_system(rotate(rng, base), os.path.join(directory, name))
            passes.append({
                "case": {
                    "system": name, "n": 6, "order": 3, "t0": 0.0, "t1": 0.5,
                    "init": "benchmark6_init.json", "sweeps": None,
                    "homora_system": "benchmark6.json",
                    "quadrature": 400, "step": self.sim_step,
                    "amplitude": float(rng.uniform(0.005, 0.02)),
                    "omega": float(rng.uniform(1.0, 4.0)),
                },
                "demo_steps": int(rng.integers(*self.demo_steps, endpoint=True)),
            })
        return {"workload": self.name, "seed": seed, "passes": passes}

    def run_pass(self, session, plan, k, out):
        p = plan["passes"][k]
        _demo(session, p["demo_steps"], out)
        run_suite(session, p["case"], plan["dir"], out)


class Dense:
    """One dense system; each pass draws a horizon and an order.

    Order 150 keeps a pass of the whole suite near four seconds, so that a
    run takes a dozen or more samples of every command; single commands
    vary by about 10% from one to the next on a shared host, so a median
    needs them.  At order 400 a pass takes over 20 seconds, and one sample
    per command per run spread by more than 25% between runs.

    The system is one fixed draw of the recipe, rotated by a seeded
    orthogonal state transform, as ``bench6`` rotates its system: every
    seed gives new matrices with the same spectrum and norms, so the dense
    solves cost the same from seed to seed, and the spread between runs
    is the machine's, not the inputs'.  In five runs on independent draws
    of order 200, one draw's norm, error, residuals and homora ran 10 to
    18% below the median of the five.
    """

    name = "dense150"

    #: Seed of the recipe's draw that every run rotates.  One sweep of
    #: tlhnoia from the bt model succeeds on it for every order and horizon
    #: the passes draw.  It does not on every draw: on draw 2408 at order
    #: 200 the sweep overflows and the command exits 3 at r = 8, t1 = 0.32.
    BASE_SEED = 0
    #: Reduced orders by pass: 10, then its neighbours, so that the
    #: infinite-horizon commands (bt, homora) also change from pass to pass.
    ORDERS = (10, 11, 9, 12, 8)
    QUADRATURE = 120
    #: One sweep each: a second tlhnoia sweep finds Ph or Gh numerically
    #: singular on about one draw in two hundred of this recipe.
    SWEEPS = {"homora": 1, "tlhnoia": 1}

    def __init__(self, n=150, max_passes=32, demo_steps=(990, 1010)):
        self.n = n
        self.max_passes = max_passes
        self.demo_steps = demo_steps

    def setup(self, seed, directory):
        rng = np.random.default_rng(seed)
        base = rand_system(np.random.default_rng(self.BASE_SEED), self.n, 2, 2)
        system = rotate(rng, base)
        write_system(system, os.path.join(directory, "system.json"))
        radius = np.abs(np.linalg.eigvals(system[0])).max()
        passes = []
        for k in range(self.max_passes):
            # The cap keeps the quadrature oracle at h*|lambda_max| <= 0.12
            # (|lambda_max| is near 24 at order 150).
            t1 = float(min(rng.uniform(0.28, 0.32), 0.12 * self.QUADRATURE / radius))
            passes.append({
                "case": {
                    "system": "system.json", "n": self.n,
                    "order": min(self.ORDERS[k % len(self.ORDERS)], self.n - 1),
                    "t0": 0.0, "t1": t1, "init": None, "sweeps": self.SWEEPS,
                    "quadrature": self.QUADRATURE, "step": t1 / 2000,
                    "amplitude": float(rng.uniform(0.1, 1.0)),
                    "omega": float(rng.uniform(1.0, 10.0)),
                },
                "demo_steps": int(rng.integers(*self.demo_steps, endpoint=True)),
            })
        return {"workload": self.name, "seed": seed, "passes": passes}

    def run_pass(self, session, plan, k, out):
        p = plan["passes"][k]
        run_suite(session, p["case"], plan["dir"], out)
        _demo(session, p["demo_steps"], out)


def make(name, root):
    data = os.path.join(root, "data")
    return {
        "bench6": lambda: Bench6(data),
        "dense150": Dense,
    }[name]()


NAMES = ("bench6", "dense150")


def set_up(workload, seed, directory):
    """Write the inputs of one run into ``directory``; returns the plan.

    ``plan.json`` records every drawn parameter beside the system files, so
    the fingerprint of the directory covers all inputs.  The returned plan
    also knows its directory, which ``plan.json`` leaves out so that the
    fingerprint does not depend on where the inputs were written.
    """
    os.makedirs(directory)
    plan = workload.setup(seed, directory)
    write_json(plan, os.path.join(directory, "plan.json"))
    return dict(plan, dir=directory)
