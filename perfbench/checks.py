"""Correctness checks on the outputs of CLI operations.

Each check takes the finished operation (exit code, captured streams) plus
what it needs to know about the inputs, and returns ``None`` when the
output is right or a one-line description of what is wrong.  Checks run
after the measuring window, so their work is never timed.
"""

import json
import math

import numpy as np
from scipy.sparse.linalg import expm_multiply

from inputs import read_system

#: Relative tolerance between ``norm`` and ``norm --quadrature`` (acceptance
#: criterion 3).
NORM_ORACLE_RTOL = 1e-5
#: Tolerance between ``error`` and the block error-system norm, as in the
#: test suite's comparison of the two, applied to the squared error relative
#: to the size of its three terms: both routes subtract those terms, so a
#: good reduced model leaves a small difference of large numbers.
ERROR_BLOCKWISE_RTOL = 1e-10
#: Simulated outputs against the closed-form response, relative to the
#: largest output magnitude checked.  At the workloads' RK4 steps the
#: deviation stays below 1e-10 of that scale.
SIMULATE_RTOL = 1e-8
#: Acceptance criterion 1 levels for a converged ``tlhnoia`` model.
CRITERION_1 = {"op2": 1e-6, "op3": 1e-3, "op4": 1e-3}

METHODS = ("bt", "tlbt", "homora", "tlhnoia")


def error_object(stderr):
    """The first JSON error object ``{"code", "message", ...}`` on stderr."""
    for line in stderr.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "code" in doc and "message" in doc:
            return doc
    return None


def problem_of(outcome, check):
    """Why an operation counts as failed, or None if it succeeded."""
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stderr.strip()[:300]}"
    err = error_object(outcome.stderr)
    if err is not None:
        return f"error object on stderr: {err}"
    if check is None:
        return None
    try:
        return check(outcome)
    except Exception as exc:  # a crashing check is a failed operation
        return f"check raised {type(exc).__name__}: {exc}"


def _library_system(path):
    from lqomor.model import LqoSystem

    a, b, c, mats = read_system(path)
    return LqoSystem(a, b, c, mats, check_hurwitz=False)


def _finite(values):
    return all(v is not None and math.isfinite(v) for v in values)


def check_reduce(rom_path, order, iterations=None, converged=None,
                 criterion_1=False, hurwitz=None):
    """Reduced model file and reduce report are consistent with the request."""

    def check(outcome):
        doc = json.loads(outcome.stdout)
        a, b, c, mats = read_system(rom_path)
        if a.shape[0] != order:
            return f"reduced order {a.shape[0]} != {order}"
        if not all(np.isfinite(x).all() for x in (a, b, c, *mats)):
            return "reduced model has non-finite entries"
        if iterations is not None and doc["iterations"] != iterations:
            return f"{doc['iterations']} iterations, expected {iterations}"
        if converged is not None and doc["converged"] is not converged:
            return f"converged={doc['converged']}, expected {converged}"
        if hurwitz is not None and doc["rom_hurwitz"] is not hurwitz:
            return f"rom_hurwitz={doc['rom_hurwitz']}, expected {hurwitz}"
        if criterion_1:
            return _criterion_1(doc["residual_norms"])
        return None

    return check


def _criterion_1(norms):
    for key, limit in CRITERION_1.items():
        if not norms[key] <= limit:
            return f"{key} = {norms[key]:.3e} exceeds {limit:g}"
    return None


def check_residuals(criterion_1=False):
    def check(outcome):
        norms = json.loads(outcome.stdout)["residual_norms"]
        if not _finite(norms[k] for k in ("op2", "op3", "op4")):
            return f"non-finite residual norms {norms}"
        if norms["op1"] is not None and not math.isfinite(norms["op1"]):
            return f"non-finite op1 {norms['op1']}"
        return _criterion_1(norms) if criterion_1 else None

    return check


def check_error(system_path, rom_path, t0, t1):
    """``error`` value equals the norm of the stacked error system."""

    def check(outcome):
        from lqomor.model import TimeInterval
        from lqomor.norms import h2tau_error_blockwise

        doc = json.loads(outcome.stdout)
        ref = float(h2tau_error_blockwise(
            _library_system(system_path), _library_system(rom_path),
            TimeInterval(t0, t1),
        ).value)
        value = doc["value"]
        first, second, third = (
            doc["decomposition"][k]
            for k in ("norm_full_squared", "inner_product", "norm_rom_squared")
        )
        scale = first + 2.0 * abs(second) + third
        if not abs(value**2 - ref**2) <= ERROR_BLOCKWISE_RTOL * scale:
            return f"error {value!r} != blockwise {ref!r} (terms of size {scale:.3e})"
        radicand = max(first - 2.0 * second + third, 0.0)
        if not math.isclose(math.sqrt(radicand), value, rel_tol=1e-12, abs_tol=1e-300):
            return "decomposition does not reproduce the value"
        return None

    return check


def check_norm_pair(norm_outcome):
    """``norm --quadrature`` agrees with the Gramian ``norm`` of the same pass."""

    def check(outcome):
        if norm_outcome.code != 0:
            return "the Gramian norm it is compared with failed"
        gramian = json.loads(norm_outcome.stdout)["value"]
        quad = json.loads(outcome.stdout)["value"]
        if not abs(gramian - quad) <= NORM_ORACLE_RTOL * gramian:
            return f"norm {gramian!r} vs quadrature {quad!r}"
        return None

    return check


def check_norm(outcome):
    value = json.loads(outcome.stdout)["value"]
    if not (math.isfinite(value) and value > 0.0):
        return f"norm {value!r} is not finite and positive"
    return None


def check_hsv(order):
    def check(outcome):
        sigma = json.loads(outcome.stdout)["sigma"]
        if len(sigma) != order:
            return f"{len(sigma)} Hankel values for order {order}"
        if not _finite(sigma) or min(sigma) < 0.0:
            return "Hankel values are not finite and nonnegative"
        if any(x < y for x, y in zip(sigma, sigma[1:])):
            return "Hankel values are not nonincreasing"
        return None

    return check


def _csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    return header, np.array([[float(x) for x in line.split(",")] for line in body[1:]])


def forced_response(system, amplitude, omega, times):
    """Exact outputs for ``u(t) = amplitude*cos(omega*t)`` from zero state.

    The scalar signal drives every input.  With ``z = (i omega I - A)^-1 b``
    the state is ``Re(z e^(i omega t)) - e^(A t) Re(z)``; the matrix
    exponential acts on one vector per time.
    """
    a, b, c, mats = system
    n = a.shape[0]
    z = np.linalg.solve(1j * omega * np.eye(n) - a, amplitude * b.sum(axis=1))
    out = []
    for t in times:
        x = (z * np.exp(1j * omega * t)).real - expm_multiply(a * t, z.real)
        out.append(c @ x + np.array([x @ mi @ x for mi in mats]))
    return np.array(out)


def check_simulate(system_path, rom_path, amplitude, omega, t0, t1, step,
                   csv_path, rows_checked=6):
    """Row count, finiteness and agreement with the closed-form response."""

    def check(outcome):
        header, data = _csv(csv_path)
        expected = int(round((t1 - t0) / step)) + 1
        if data.shape[0] != expected:
            return f"{data.shape[0]} rows, expected {expected}"
        if not np.isfinite(data).all():
            return "non-finite values in the response"
        full, rom = read_system(system_path), read_system(rom_path)
        p = full[2].shape[0]
        if len(header) != 2 + 2 * p:
            return f"unexpected header {header}"
        rows = np.unique(np.linspace(0, expected - 1, rows_checked).round().astype(int))
        times = data[rows, 0]
        if not np.allclose(times, t0 + step * rows, rtol=0.0, atol=1e-12 * max(t1, 1.0)):
            return "time column does not follow the grid"
        for label, sysm, cols in (
            ("full", full, slice(1, 1 + p)),
            ("rom", rom, slice(1 + p, 1 + 2 * p)),
        ):
            ref = forced_response(sysm, amplitude, omega, times)
            got = data[rows, cols]
            scale = max(np.abs(ref).max(), 1e-300)
            dev = np.abs(got - ref).max() / scale
            if not dev <= SIMULATE_RTOL:
                return f"{label} outputs deviate by {dev:.3e} from the exact response"
        y, yr = data[:, 1:1 + p], data[:, 1 + p:1 + 2 * p]
        rel = np.linalg.norm(y - yr, axis=1) / np.maximum(np.linalg.norm(y, axis=1), 1e-12)
        if not np.allclose(data[:, -1], rel, rtol=1e-12, atol=1e-15):
            return "rel_err column does not match the output columns"
        return None

    return check


def check_demo(report_path, csv_path):
    """Acceptance criteria 1 and 2 on the demo's report and error CSV."""

    def check(outcome):
        with open(report_path) as fh:
            report = json.load(fh)
        tl = report["tlhnoia"]
        if tl["converged"] is not True:
            return "tlhnoia did not converge"
        problem = _criterion_1(tl["residual_norms"])
        if problem:
            return problem
        header, data = _csv(csv_path)
        mean = {
            name.removeprefix("rel_err_"): float(data[:, k].mean())
            for k, name in enumerate(header) if name.startswith("rel_err_")
        }
        for good in ("tlhnoia", "tlbt"):
            for bad in ("bt", "homora"):
                if not mean[good] < mean[bad]:
                    return f"mean error of {good} {mean[good]:.3e} >= {bad} {mean[bad]:.3e}"
        return None

    return check
