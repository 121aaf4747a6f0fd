"""Smoke test of the benchmark itself on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at tiny sizes and
checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
with their units, that no operation fails, and that an operation whose
result is deliberately wrong is counted as failed.  Exits 0 on success.
"""

import contextlib
import io
import json
import os
import sys

import run  # pins BLAS threads before numpy loads
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

TINY = {
    "bench6": lambda: workloads.Bench6(
        os.path.join(run.ROOT, "data"), max_passes=1, sim_step=1e-3,
        demo_steps=(500, 500)),
    "dense150": lambda: workloads.Dense(n=12, max_passes=1, demo_steps=(500, 500)),
}


def invoke(name, trace):
    """Run the benchmark's main on a tiny workload; returns its result line."""
    out = io.StringIO()
    original = workloads.make
    workloads.make = lambda workload, root: TINY[workload]()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "7", "--seconds", "60",
                             "--trace", str(trace)])
    finally:
        workloads.make = original
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def expected_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def emitted(result):
    return {name: doc["unit"] for name, doc in result["metrics"].items()}


def main():
    end_to_end, per_layer = expected_metrics()
    for name in workloads.NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = invoke(name, trace)
            if emitted(result) != expected:
                raise AssertionError(
                    f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(emitted(result)) ^ set(expected))}")
            if not (result["correct"] and result["failed"] == 0):
                raise AssertionError(f"{name} trace={trace}: {result['failed']} failed")
            print(f"ok {name} trace={trace}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")

    # A norm that is 0.1% off must be caught by its quadrature check.
    import lqomor.cli

    honest = lqomor.cli.h2tau_norm

    def wrong(system, interval):
        report = honest(system, interval)
        return type(report)(report.value * 1.001, report.method, report.interval)

    lqomor.cli.h2tau_norm = wrong
    try:
        result = invoke("bench6", 0)
    finally:
        lqomor.cli.h2tau_norm = honest
    if result["correct"] or result["failed"] == 0:
        raise AssertionError("a wrong norm was not counted as a failed operation")
    print(f"ok wrong result detected: {result['failed']} of {result['attempted']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
