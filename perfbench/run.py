"""Benchmark of the lqomor command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {bench6,dense150} \
        --seed N --seconds S --trace {0,1}

Every operation is one ``lqomor`` command, run in this process through
``lqomor.cli.run_command`` with its standard streams captured, and checked
for correctness after the measuring window closes.

``--trace 0`` runs passes of the workload, each on new seeded inputs,
until ``--seconds`` have passed (or the inputs generated in set-up run
out), and reports the median latency of each command at reference speed.
A latency is the operation's CPU time, which leaves out time the process
waited for a CPU; a fixed calibration job, timed before and after every
operation, tracks how fast the (shared) machine runs at that moment, and
each latency is scaled to the speed at which that job takes
``CALIBRATION_REFERENCE_S``.  The wall-clock median is printed beside it.
The whole run is pinned to one CPU, so that the calibration job times the
CPU the work runs on.

``--trace 1`` runs the first pass four times, untraced, traced, traced
and untraced, and reports per-layer calls and self times from the first
traced pass, the tracing overhead, and an error if the exact counts of
the two traced passes differ.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the input fingerprint and every metric with its sample
count.  Spans of traced passes are written to ``perfbench/_work/traces``.
"""

import os
import sys
import time

# One BLAS thread, set before numpy is first imported; all load comes from
# this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inputs import fingerprint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

#: Set-ups per run; set-up time is their median.  A set-up is a fresh
#: interpreter importing the CLI module plus the generation of all inputs.
SETUP_REPEATS = 5
#: Time of one calibration job at reference speed: near its median on the
#: 2-vCPU Xeon VM the benchmark was tuned on, where it took 0.6 ms while
#: the host was quiet and 1.2 ms while it was busy.
CALIBRATION_REFERENCE_S = 0.001
#: A calibration younger than this serves as the next operation's "before".
CALIBRATION_REUSE_S = 0.05
#: Percentiles considered beside the median; the report shows the highest
#: one with at least ten samples above it.
PERCENTILES = (50, 75, 90, 95, 99)

#: End-to-end metrics reported with ``--trace 0``, with their units.
END_TO_END = (
    ("setup_s", "s"), ("demo_s", "s"),
    ("reduce_bt_s", "s"), ("reduce_tlbt_s", "s"),
    ("reduce_homora_s", "s"), ("reduce_tlhnoia_s", "s"),
    ("error_s", "s"), ("residuals_s", "s"), ("norm_s", "s"),
    ("norm_quadrature_s", "s"), ("hsv_s", "s"), ("simulate_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Outcome:
    """One finished CLI command."""

    metric: str
    argv: list
    code: int
    stdout: str
    stderr: str
    seconds: float

    def json(self):
        return json.loads(self.stdout)


class Speed:
    """The machine's momentary speed, from a fixed calibration job.

    On a shared host the same work takes up to 1.8 times as long from one
    second to the next, and a slowdown often lasts for seconds, so a job
    timed right before and right after an operation ran at the operation's
    speed.  The job is an interpreter loop and ``eigvals`` of a fixed 60x60
    matrix (one BLAS thread), timed in CPU seconds.  Of the parts tried
    (also a Python RK4 loop over small arrays, order-6 scipy calls, JSON
    and a Sylvester solve), these two slowed most nearly in step with the
    commands, small and dense alike; the others slowed more.  It uses numpy
    and the standard library only, so a change to the library cannot
    change it.  The geometric mean of the two parts' times, relative to
    ``CALIBRATION_REFERENCE_S``, is the slowdown factor.
    """

    #: Timed rounds of the job per calibration, after one untimed.
    REPEATS = 3

    def __init__(self):
        import numpy as np

        matrix = np.random.default_rng(0).standard_normal((60, 60))

        def loop():
            total = 0
            for i in range(10000):
                total += i & 7

        self._parts = (loop, lambda: np.linalg.eigvals(matrix))
        self._last = None
        self.calibrate()  # warm-up: first calls load code and fill caches

    def calibrate(self):
        """Time the job now, in CPU seconds.

        The untimed round refills the caches the operation before it
        evicted; the fastest of the timed rounds, per part, drops
        interrupts.  Both parts weigh the same in the geometric mean,
        whichever of them contention slows more.
        """
        clock = time.process_time
        best = [float("inf")] * len(self._parts)
        for round_ in range(self.REPEATS + 1):
            for i, part in enumerate(self._parts):
                start = clock()
                part()
                if round_:
                    best[i] = min(best[i], clock() - start)
        seconds = math.prod(best) ** (1.0 / len(best))
        self._last = (time.perf_counter(), seconds)
        return seconds

    def recent(self):
        """A calibration from just now, reusing the last one if fresh."""
        if time.perf_counter() - self._last[0] < CALIBRATION_REUSE_S:
            return self._last[1]
        return self.calibrate()

    def at_reference(self, seconds, before, after):
        return seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + after))


class Session:
    """Runs operations, keeps their latencies and defers their checks.

    A latency is the CPU time of the operation (one thread does all its
    work), which leaves out time the process waited for a CPU.  With a
    ``speed`` tracker, ``samples`` hold latencies at reference speed;
    ``raw`` holds the wall-clock ones.
    """

    def __init__(self, cli, deadline=None, speed=None):
        self.cli = cli
        self.deadline = deadline
        self.speed = speed
        self.samples = {}
        self.raw = {}
        self.pending = []

    def op(self, metric, argv, check=None):
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise workloads.WindowClosed
        before = self.speed.recent() if self.speed else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                code = self.cli.run_command(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                code = None
                traceback.print_exc()
            seconds = time.process_time() - start_cpu
            wall = time.perf_counter() - start
        outcome = Outcome(metric, argv, code, out.getvalue(), err.getvalue(), seconds)
        self.raw.setdefault(metric, []).append(wall)
        if self.speed:
            seconds = self.speed.at_reference(seconds, before, self.speed.calibrate())
        self.samples.setdefault(metric, []).append(seconds)
        self.pending.append((outcome, check))
        return outcome

    def busy_seconds(self):
        return sum(sum(latencies) for latencies in self.samples.values())

    def verify(self):
        """Run the deferred checks; returns (attempted, list of failures)."""
        failures = []
        for outcome, check in self.pending:
            problem = checks.problem_of(outcome, check)
            if problem is not None:
                failures.append(f"{' '.join(outcome.argv[:3])}: {problem}")
        return len(self.pending), failures


def blas_threads():
    """Thread count reported by the OpenBLAS libraries bundled with numpy and scipy."""
    import numpy
    import scipy

    paths = []
    for module in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            f"{module.__name__}.libs")
        if os.path.isdir(libs):
            paths += [os.path.join(libs, name) for name in sorted(os.listdir(libs))
                      if "openblas" in name]
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def current_cpu():
    """The CPU this process runs on now, where the scheduler placed it."""
    try:
        return ctypes.CDLL(None, use_errno=True).sched_getcpu()
    except (OSError, AttributeError):
        return max(os.sched_getaffinity(0))


def machine_facts():
    import numpy
    import scipy

    def blas_name(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_name(numpy),
        "scipy_blas": blas_name(scipy),
        "blas_threads": blas_threads(),
        "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def summary(samples):
    """Median, sample count and the highest percentile with >= 10 samples above."""
    import numpy

    doc = {"median": statistics.median(samples), "n": len(samples)}
    for q in PERCENTILES:
        value = float(numpy.percentile(samples, q))
        if sum(s > value for s in samples) >= 10:
            doc["percentile"], doc["value"] = q, value
    return doc


def cpu_seconds():
    """CPU time of this process and of its finished child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_cli():
    """Start a fresh interpreter that imports the CLI module, and wait for it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import lqomor.cli"], cwd=ROOT, env=env,
                   check=True)


def set_up(workload, seed, run_dir, speed):
    """Set up SETUP_REPEATS times and keep the last set of inputs.

    Returns the plan, the median set-up CPU time (the child interpreter's
    included) at reference speed, the median wall-clock set-up time, and
    the set of input fingerprints, which holds one value when every set-up
    wrote the same.
    """
    times, raw, prints = [], [], set()
    for i in range(SETUP_REPEATS):
        directory = os.path.join(run_dir, f"inputs{i}")
        before = speed.recent()
        start, start_cpu = time.perf_counter(), cpu_seconds()
        import_cli()
        plan = workloads.set_up(workload, seed, directory)
        seconds = cpu_seconds() - start_cpu
        raw.append(time.perf_counter() - start)
        times.append(speed.at_reference(seconds, before, speed.calibrate()))
        prints.add(fingerprint(directory))
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return plan, statistics.median(times), statistics.median(raw), prints


def measure(workload, plan, cli, seconds, run_dir, speed):
    """Passes on new inputs until the window closes; returns the session."""
    session = Session(cli, deadline=time.perf_counter() + seconds, speed=speed)
    for k in range(len(plan["passes"])):
        out = os.path.join(run_dir, f"pass{k}")
        os.makedirs(out)
        try:
            workload.run_pass(session, plan, k, out)
        except workloads.WindowClosed:
            break
    return session


def trace_passes(workload, plan, cli, run_dir, trace_path, speed):
    """Pass 0 untraced, traced, traced, untraced; returns session and metrics.

    The overhead ratio compares latencies at reference speed, so that the
    machine slowing down between passes does not read as tracing overhead.
    """
    session = Session(cli, speed=speed)
    busy, tracers = {"untraced": 0.0, "traced": 0.0}, []
    for i, traced in enumerate((False, True, True, False)):
        out = os.path.join(run_dir, f"trace{i}")
        os.makedirs(out)
        before = session.busy_seconds()
        if traced:
            tracer = tracing.Tracer()
            with tracer:
                workload.run_pass(session, plan, 0, out)
            tracers.append(tracer)
        else:
            workload.run_pass(session, plan, 0, out)
        busy["traced" if traced else "untraced"] += session.busy_seconds() - before

    first, second = (t.layer_metrics() for t in tracers)
    mismatches = [f"{k}: {first[k]} then {second[k]}" for k in tracing.EXACT_COUNTS
                  if first[k] != second[k]]
    first["trace.overhead_ratio"] = busy["traced"] / busy["untraced"]
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        for label, tracer in zip(("traced1", "traced2"), tracers):
            tracer.write(fh, label)
    return session, first, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/lqomor/cli.py", "data/benchmark6.json", "data/benchmark6_init.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lqomor.cli as cli

    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    # One CPU for the whole run, the set-up's child processes included: the
    # vCPUs of a shared host change speed independently, and a calibration
    # tracks the work only on the CPU that runs it.  The CPU is the one the
    # scheduler started the process on, so that runs started side by side
    # stay apart; latencies are CPU times, so another process sharing that
    # CPU does not lengthen them either.
    facts["pinned_cpu"] = current_cpu()
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    speed = Speed()

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        workload = workloads.make(args.workload, ROOT)
        plan, setup_once, setup_raw, prints = set_up(workload, args.seed, run_dir, speed)
        problems = []
        if len(prints) != 1:
            problems.append(f"set-ups of one seed wrote different inputs: {sorted(prints)}")
        if args.trace:
            trace_path = os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            session, layer, mismatches = trace_passes(
                workload, plan, cli, run_dir, trace_path, speed)
            problems += [f"exact count changed between traced passes: {m}"
                         for m in mismatches]
        else:
            session = measure(workload, plan, cli, args.seconds, run_dir, speed)
        attempted, failures = session.verify()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()

    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"inputs workload={args.workload} seed={args.seed} "
          f"sha256={prints.pop()} passes={len(plan['passes'])}")
    metrics = {}
    if args.trace:
        for name, unit in tracing.PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"layer {name} {layer[name]} {unit}")
        print(f"trace spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        samples = dict(session.samples)
        samples["setup_s"] = [setup_once]
        raw_samples = dict(session.raw, setup_s=[setup_raw])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                metrics[name] = {"value": peak, "unit": unit}
                print(f"metric {name} {peak:.1f} {unit}")
                continue
            if name not in samples:
                problems.append(f"no sample of {name} within the window")
                continue
            doc = summary(samples[name])
            metrics[name] = {"value": doc["median"], "unit": unit}
            tail = (f" p{doc['percentile']}={doc['value']:.6g}" if "percentile" in doc
                    else " (fewer than 20 samples: no percentile beyond the median)")
            raw = statistics.median(raw_samples[name])
            print(f"metric {name} median={doc['median']:.6g} {unit} (wall clock {raw:.6g}) "
                  f"n={doc['n']}{tail}")
    failed = len(failures) + len(problems)
    attempted += len(problems)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
