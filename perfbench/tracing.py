"""Outside-in layer tracing of the library's public functions.

The tracer records spans (id, parent id, name, start, end) around calls
into each layer without editing the library: it replaces each public
function at every name through which the library's modules reach it, and
puts the scipy/numpy entry points that ``matfun`` and ``model`` call behind
traced stand-ins of the modules they bind.  ``uninstall`` restores every
binding, so untraced passes run the library exactly as shipped.
"""

import functools
import hashlib
import itertools
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "sysio", "demo", "reductors", "optimality", "norms",
          "gramians", "matfun", "model", "signals", "linalg")

#: Span name, defining module and attribute of each traced function.
FUNCTIONS = (
    ("cli.run_command", "lqomor.cli", "run_command"),
    ("sysio.load_system", "lqomor.sysio", "load_system"),
    ("sysio.save", "lqomor.sysio", "save_system"),
    ("sysio.save", "lqomor.sysio", "save_report"),
    ("demo.run_demo", "lqomor.demo", "run_demo"),
    ("reductors.bt", "lqomor.reductors", "bt"),
    ("reductors.tlbt", "lqomor.reductors", "tlbt"),
    ("reductors.homora", "lqomor.reductors", "homora"),
    ("reductors.tlhnoia", "lqomor.reductors", "tlhnoia"),
    ("reductors.biorthogonalize", "lqomor.reductors", "biorthogonalize"),
    ("optimality.tl_residuals", "lqomor.optimality", "tl_residuals"),
    ("optimality.h2_residuals", "lqomor.optimality", "h2_residuals"),
    ("norms.h2tau_norm", "lqomor.norms", "h2tau_norm"),
    ("norms.h2tau_norm_quadrature", "lqomor.norms", "h2tau_norm_quadrature"),
    ("norms.h2tau_error", "lqomor.norms", "h2tau_error"),
    ("gramians.cross_gramians", "lqomor.gramians", "cross_gramians"),
    ("gramians.timelimited_gramians", "lqomor.gramians", "timelimited_gramians"),
    ("gramians.hankel_singular_values", "lqomor.gramians", "hankel_singular_values"),
    ("matfun.solve_sylvester", "lqomor.matfun", "solve_sylvester"),
    ("matfun.solve_lyapunov", "lqomor.matfun", "solve_lyapunov"),
    ("matfun.expm", "lqomor.matfun", "expm"),
    ("matfun.expm_frechet", "lqomor.matfun", "expm_frechet"),
    ("matfun.hurwitz", "lqomor.matfun", "require_hurwitz"),
    ("matfun.hurwitz", "lqomor.matfun", "is_hurwitz"),
    ("model.simulate", "lqomor.model", "simulate"),
)

#: Span name and scipy.linalg attribute of each traced dense kernel.
LINALG = (
    ("linalg.eig", "eigvals"),
    ("linalg.sylvester", "solve_sylvester"),
    ("linalg.lyapunov", "solve_continuous_lyapunov"),
    ("linalg.expm", "expm"),
)

#: Counts that must repeat exactly when the same inputs are traced twice.
EXACT_COUNTS = ("reductors.sweeps", "linalg.eig.calls", "signals.eval.calls",
                "model.rk4_steps")

def _timed(name, *kinds):
    return [(f"{name}.{kind}", "count" if kind == "calls" else "s") for kind in kinds]


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = tuple(
    _timed("cli.run_command", "self_s")
    + _timed("sysio.load_system", "calls", "self_s")
    + _timed("sysio.save", "self_s")
    + _timed("demo.run_demo", "self_s")
    + [m for f in ("bt", "tlbt", "homora", "tlhnoia", "biorthogonalize")
       for m in _timed(f"reductors.{f}", "self_s")]
    + _timed("optimality.tl_residuals", "self_s")
    + _timed("optimality.h2_residuals", "self_s")
    + [m for f in ("h2tau_norm", "h2tau_norm_quadrature", "h2tau_error")
       for m in _timed(f"norms.{f}", "self_s")]
    + _timed("gramians.cross_gramians", "calls", "self_s")
    + _timed("gramians.timelimited_gramians", "calls", "self_s")
    + _timed("gramians.hankel_singular_values", "self_s")
    + [m for f in ("solve_sylvester", "solve_lyapunov", "expm", "expm_frechet", "hurwitz")
       for m in _timed(f"matfun.{f}", "calls", "self_s")]
    + _timed("model.simulate", "calls", "self_s")
    + _timed("signals.eval", "calls", "self_s")
    + _timed("linalg.eig", "calls", "self_s")
    + [m for f in ("sylvester", "lyapunov", "expm") for m in _timed(f"linalg.{f}", "self_s")]
    + [("linalg.eig.distinct_ratio", "ratio"),
       ("reductors.sweeps", "count"),
       ("model.rk4_steps", "count")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio")]
)


def _stand_in(module, overrides):
    """A module object that serves ``overrides`` and forwards everything else."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(vars(module))
    proxy.__dict__.update(overrides)
    proxy.__getattr__ = lambda name: getattr(module, name)
    return proxy


class Tracer:
    """Spans and counts of one traced pass, held in memory."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.counts = Counter()
        self._eig_inputs = set()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []

    def _wrap(self, fn, name, after=None):
        layer = name.split(".", 1)[0]
        spans, stack, ids, errors = self.spans, self._stack, self._ids, self.errors
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_sweeps(self, args, kwargs, report):
        self.counts["reductors.sweeps"] += report.iterations

    def _count_steps(self, args, kwargs, trajectory):
        substeps = kwargs.get("substeps", args[4] if len(args) > 4 else 1)
        self.counts["model.rk4_steps"] += (len(trajectory.times) - 1) * substeps

    def _note_eig_input(self, args, kwargs, result):
        a = np.asarray(args[0] if args else kwargs["a"])
        key = hashlib.sha1(a.tobytes())
        key.update(repr((a.shape, a.dtype.str)).encode())
        self._eig_inputs.add(key.digest())

    def install(self):
        """Route every traced function through a span-recording wrapper."""
        import lqomor.cli  # noqa: F401  (loads every layer)
        from lqomor import matfun, model, signals

        modules = [m for name, m in list(sys.modules.items())
                   if name == "lqomor" or name.startswith("lqomor.")]
        after = {
            "reductors.homora": self._count_sweeps,
            "reductors.tlhnoia": self._count_sweeps,
            "model.simulate": self._count_steps,
        }
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, after.get(name))
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, traced)
        self._patch(signals.SignalExpr, "__call__",
                    self._wrap(signals.SignalExpr.__call__, "signals.eval"))

        sla = matfun.sla
        kernels = {
            attr: self._wrap(getattr(sla, attr), name,
                             self._note_eig_input if name == "linalg.eig" else None)
            for name, attr in LINALG
        }
        self._patch(matfun, "sla", _stand_in(sla, kernels))
        eig = self._wrap(np.linalg.eigvals, "linalg.eig", self._note_eig_input)
        self._patch(model, "np",
                    _stand_in(np, {"linalg": _stand_in(np.linalg, {"eigvals": eig})}))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self):
        """Calls and self time per span name, plus the derived counts."""
        children = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            children[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - children[sid]
        values = {}
        for metric, unit in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[name]
            elif kind == "self_s":
                values[metric] = self_ns[name] / 1e9
            elif kind == "errors":
                values[metric] = self.errors[name]
        values["linalg.eig.distinct_ratio"] = (
            len(self._eig_inputs) / calls["linalg.eig"] if calls["linalg.eig"] else 0.0
        )
        values.update({k: self.counts[k] for k in ("reductors.sweeps", "model.rk4_steps")})
        return values

    def write(self, fh, label):
        """Write the spans as JSON lines ``[label, id, parent, name, start_ns, end_ns]``."""
        origin = min((span[3] for span in self.spans), default=0)
        for sid, parent, name, start, end in sorted(self.spans):
            fh.write(json.dumps([label, sid, parent, name, start - origin, end - origin]))
            fh.write("\n")
