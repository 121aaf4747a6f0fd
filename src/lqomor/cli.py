"""Command line front end.

Exit codes: 0 success, 2 usage error, 3 input validation failure,
4 numerical failure.  Failures print one JSON object
``{"code", "message", "context"}`` on stderr.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import demo as demo_mod
from .errors import HurwitzError, LqoError, ValidationError
from .gramians import balancing
from .model import TimeInterval, simulate, time_grid
from .norms import h2tau_error, h2tau_norm, h2tau_norm_quadrature
from .optimality import h2_residuals, tl_residuals
from .reductors import bt, homora, tlbt, tlhnoia
from .signals import parse_signal
from .sysio import (
    json_text,
    load_system,
    report_document,
    residual_norms_document,
    save_report,
    save_system,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit_error(code, message, context=None):
    doc = {"code": code, "message": message, "context": context or {}}
    print(json.dumps(doc), file=sys.stderr)


def _json_out(doc):
    sys.stdout.write(json_text(doc))


def _parse_t1(text):
    """``--t1`` value: a number, or ``inf``/``infinite`` for no end."""
    if text.strip().lower() in ("inf", "infinite"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'inf', got {text!r}"
        ) from None


def _interval(args):
    return TimeInterval(args.t0, args.t1)


def _interval_fields(interval):
    return {
        "t0": interval.t_start,
        "t1": "inf" if interval.is_infinite else interval.t_end,
    }


def _add_interval_flags(p, t1_default="inf"):
    p.add_argument("--t0", type=float, default=0.0, help="horizon start in seconds")
    p.add_argument(
        "--t1", type=_parse_t1, default=t1_default,
        help="horizon end in seconds, or 'inf'",
    )


def _write_csv(path, comment, header, columns):
    """Write the columns as CSV rows, each value as the ``repr`` of its float."""
    cols = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = ["# " + comment] if comment else []
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cols)))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


#: Fields of the report document that ``reduce`` prints, in order.
_REDUCE_SUMMARY = (
    "method", "converged", "iterations", "rom_hurwitz", "residual_norms", "warnings",
)


def _cmd_reduce(args):
    system = load_system(args.system)
    if args.method in ("bt", "tlbt"):
        if args.order is None:
            raise _UsageError(f"--order is required for method {args.method}")
        if args.method == "bt":
            report = bt(system, args.order)
        else:
            report = tlbt(system, args.order, _interval(args))
    else:
        if args.init is None:
            raise _UsageError(f"--init is required for method {args.method}")
        rom0 = load_system(args.init, name="initial reduced A (--init)")
        if args.order is not None and args.order != rom0.order:
            raise ValidationError(
                f"--order {args.order} contradicts initial guess order {rom0.order}"
            )
        if args.method == "homora":
            report = homora(system, rom0, tol=args.tol, max_iter=args.max_iter)
        else:
            report = tlhnoia(
                system, rom0, _interval(args), tol=args.tol, max_iter=args.max_iter
            )
    if args.out:
        save_system(report.rom, args.out)
    if args.report:
        save_report(report, args.report)
    _json_out(report_document(report, _REDUCE_SUMMARY))
    return EXIT_OK


def _cmd_norm(args):
    system = load_system(args.system)
    interval = _interval(args)
    if args.quadrature is not None:
        rep = h2tau_norm_quadrature(system, interval, resolution=args.quadrature)
    else:
        rep = h2tau_norm(system, interval)
    _json_out(
        {
            "value": rep.value,
            "method": rep.method,
            **_interval_fields(interval),
        }
    )
    return EXIT_OK


def _cmd_error(args):
    interval = _interval(args)
    system = load_system(args.system)
    rom = load_system(args.rom, require_hurwitz=interval.is_infinite, name="reduced A (--rom)")
    rep = h2tau_error(system, rom, interval)
    first, second, third = rep.decomposition
    _json_out(
        {
            "value": rep.value,
            "decomposition": {
                "norm_full_squared": first,
                "inner_product": second,
                "norm_rom_squared": third,
            },
            **_interval_fields(interval),
        }
    )
    return EXIT_OK


def _cmd_residuals(args):
    system = load_system(args.system)
    rom = load_system(
        args.rom, require_hurwitz=args.horizon == "infinite", name="reduced A (--rom)"
    )
    if args.horizon == "infinite":
        rep = h2_residuals(system, rom)
    else:
        rep = tl_residuals(system, rom, _interval(args))
    _json_out(
        {
            "horizon": rep.horizon,
            "residual_norms": residual_norms_document(rep),
        }
    )
    return EXIT_OK


def _cmd_hsv(args):
    system = load_system(args.system)
    spectrum = balancing(system, _interval(args))
    _json_out(
        {
            "sigma": [float(s) for s in spectrum.sigma],
            "clamp_magnitude": spectrum.clamp_magnitude,
        }
    )
    return EXIT_OK


def _cmd_simulate(args):
    system = load_system(args.system)
    rom = load_system(args.rom, require_hurwitz=False) if args.rom else None
    states = system.order + (rom.order if rom is not None else 0)
    grid = time_grid(args.t0, args.t1, args.step, states)
    u = parse_signal(args.input)
    full = simulate(system, u, grid)
    header = ["t"] + [f"y_full_{i + 1}" for i in range(system.n_outputs)]
    columns = [full.times] + list(full.outputs.T)
    comment = None
    if rom is not None:
        if rom.n_outputs != system.n_outputs:
            raise ValidationError(
                f"rom has {rom.n_outputs} outputs, system has {system.n_outputs}"
            )
        rtraj = simulate(rom, u, grid)
        rel = demo_mod.relative_output_error(full, rtraj)
        header += [f"y_rom_{i + 1}" for i in range(rom.n_outputs)] + ["rel_err"]
        columns += list(rtraj.outputs.T) + [rel]
        comment = "rel_err = ||y - y_rom||_2 / max(||y||_2, 1e-12)"
    _write_csv(args.out, comment, header, columns)
    return EXIT_OK


def _cmd_demo(args):
    result = demo_mod.run_demo(tol=args.tol, max_iter=args.max_iter, step=args.step)
    reports = result["reports"]
    res = reports["tlhnoia"].residuals
    norms_doc = residual_norms_document(res)
    print("reduction of the bundled sixth-order benchmark to order 3 "
          "over [0, 0.5] s")
    print(f"tlhnoia converged: {reports['tlhnoia'].converged} "
          f"after {reports['tlhnoia'].iterations} iterations")
    print("stationarity residual norms of the tlhnoia reduced model:")
    print(f"  op2 = {norms_doc['op2']:.4e}")
    print(f"  op3 = {norms_doc['op3']:.4e}")
    print(f"  op4 = {norms_doc['op4']:.4e}")
    print("time-averaged relative output errors, u(t) = 0.01*cos(2*t):")
    for name in ("bt", "tlbt", "homora", "tlhnoia"):
        print(f"  {name:8s} {result['mean_errors'][name]:.6e}")
    _write_csv(
        args.out,
        "rel_err = ||y - y_rom||_2 / max(||y||_2, 1e-12)",
        ["t"] + [f"rel_err_{name}" for name in ("bt", "tlbt", "homora", "tlhnoia")],
        [result["grid"]]
        + [result["errors"][name] for name in ("bt", "tlbt", "homora", "tlhnoia")],
    )
    if args.report:
        docs = {name: report_document(rep) for name, rep in reports.items()}
        write_json(docs, args.report)
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="lqomor",
        description="Horizon-limited model reduction of quadratic-output systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a system with one of four methods")
    p.add_argument("--method", required=True, choices=["bt", "tlbt", "homora", "tlhnoia"])
    p.add_argument("--order", type=int, default=None, help="reduced order")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--init", default=None, help="initial reduced model (iterative methods)")
    _add_interval_flags(p)
    p.add_argument("--tol", type=float, default=1e-6, help="pole stagnation tolerance")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", default=None, help="write the reduced model JSON here")
    p.add_argument("--report", default=None, help="write the full report JSON here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("norm", help="horizon-limited norm of a system")
    p.add_argument("--system", required=True)
    _add_interval_flags(p)
    p.add_argument(
        "--quadrature", type=int, default=None, metavar="N",
        help="use the Simpson quadrature oracle with N subintervals",
    )
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("error", help="horizon-limited error norm between two systems")
    p.add_argument("--system", required=True)
    p.add_argument("--rom", required=True)
    _add_interval_flags(p)
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("residuals", help="stationarity-condition residual norms")
    p.add_argument("--system", required=True)
    p.add_argument("--rom", required=True)
    _add_interval_flags(p, t1_default="1.0")
    p.add_argument("--horizon", choices=["limited", "infinite"], default="limited")
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("hsv", help="horizon-limited Hankel singular values")
    p.add_argument("--system", required=True)
    _add_interval_flags(p)
    p.set_defaults(func=_cmd_hsv)

    p = sub.add_parser("simulate", help="time-domain response to a signal, as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--rom", default=None)
    p.add_argument("--input", required=True, help="signal expression in t")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=_parse_t1, required=True)
    p.add_argument("--step", type=float, required=True, help="grid step in seconds")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="run the bundled benchmark end to end")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--step", type=float, default=demo_mod.DEMO_STEP)
    p.add_argument("--out", default="demo_errors.csv", help="error CSV path")
    p.add_argument("--report", default="demo_report.json", help="report JSON path")
    p.set_defaults(func=_cmd_demo)

    return parser


_PARSER = build_parser()


def run_command(argv):
    """Dispatch one command line; returns the process exit code.

    Floating-point warnings stay off stderr: a result that overflowed is
    reported as a numerical failure (exit 4) by the check that finds it.
    """
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except (ValidationError, HurwitzError) as exc:
        # a Hurwitz error is a file's A failing the test of its load, where
        # the command needs a Hurwitz A: invalid input
        _emit_error(exc.code, str(exc), exc.context)
        return EXIT_VALIDATION
    except LqoError as exc:
        _emit_error(exc.code, str(exc), exc.context)
        return EXIT_NUMERICAL
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_VALIDATION


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
