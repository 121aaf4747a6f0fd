import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from lqomor import cli
from lqomor.cli import run_command
from lqomor.errors import SolverError
from lqomor.gramians import gramian_pair, hankel_singular_values
from lqomor.model import LqoSystem, TimeInterval, error_system
from lqomor.norms import h2tau_norm_quadrature
from lqomor.optimality import tl_residuals
from lqomor.sysio import load_system, system_document, write_json

from util import rand_system, reference_csv

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
BENCH = str(DATA / "benchmark6.json")
INIT = str(DATA / "benchmark6_init.json")
SCALAR = str(DATA / "scalar.json")
SCALAR_QUAD = str(DATA / "scalar_quadratic.json")


def run(capsys, *argv, fresh=False):
    """``(exit code, stdout, stderr)`` of one command line, run through
    :func:`run_command` in this process or, if ``fresh``, through ``main()``
    in a new interpreter with every warning an error."""
    if fresh:
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lqomor.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        return proc.returncode, proc.stdout, proc.stderr
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_benchmark(tmp_path, edit):
    """The bundled benchmark and its initial guess, each document changed
    in place by ``edit``, written under ``tmp_path``."""
    paths = []
    for path in (BENCH, INIT):
        doc = json.loads(Path(path).read_text())
        edit(doc)
        paths.append(tmp_path / Path(path).name)
        paths[-1].write_text(json.dumps(doc))
    return [str(p) for p in paths]


def scaled_b(tmp_path, factor):
    """:func:`edited_benchmark` with every entry of B scaled by ``factor``."""
    return edited_benchmark(
        tmp_path, lambda doc: doc.update(B=[[factor * v for v in row] for row in doc["B"]])
    )


def shifted_a(tmp_path, shift):
    """:func:`edited_benchmark` with ``shift * I`` added to A."""
    def edit(doc):
        a = np.array(doc["A"])
        doc["A"] = (a + shift * np.eye(len(a))).tolist()

    return edited_benchmark(tmp_path, edit)


class TestNormCommand:
    def test_scalar_closed_form(self, capsys):
        code, out, err = run(capsys, "norm", "--system", SCALAR, "--t0", "0", "--t1", "1")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 0.657524) <= 1e-5
        assert doc["method"] == "gramian"

    def test_quadrature_flag(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--system", SCALAR, "--t0", "0", "--t1", "1",
            "--quadrature", "400",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "quadrature"
        assert abs(doc["value"] - math.sqrt((1 - math.exp(-2)) / 2)) <= 1e-6

    def test_infinite_horizon(self, capsys):
        code, out, _ = run(capsys, "norm", "--system", SCALAR, "--t1", "inf")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_pure_quadratic_output(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--system", SCALAR_QUAD, "--t0", "0", "--t1", "1"
        )
        assert code == 0
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    def test_huge_stable_a(self, capsys, tmp_path, fresh):
        # A = -1e200 I: ||A||_F^2 overflows, so only an overflow-safe norm
        # lets the Hurwitz test of [0, inf) pass; the norm is
        # sqrt((C B)^2 / 2e200) on [0, 1] and on [0, inf) alike
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "version": 1, "n_states": 2, "n_inputs": 1, "n_outputs": 1,
            "A": [[-1e200, 0.0], [0.0, -1e200]], "B": [[1.0], [1.0]],
            "C": [[1.0, 1.0]], "M": [[[1.0, 0.0], [0.0, 1.0]]],
        }))
        for t1 in ("1", "inf"):
            code, out, err = run(capsys, "norm", "--system", str(path), "--t1", t1, fresh=fresh)
            assert (code, err) == (0, "")
            assert json.loads(out)["value"] == pytest.approx(math.sqrt(2e-200), rel=1e-12, abs=0)

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    def test_unstable_scalar_on_a_finite_horizon(self, capsys, tmp_path, fresh):
        # A = 1: y = e^t on [0, 1], so the norm is sqrt((e^2 - 1) / 2); on
        # [0, inf) the same file exits 3 (test_validation_error_non_hurwitz_input)
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "M": [[[0.0]]],
        }))
        code, out, err = run(capsys, "norm", "--system", str(path), "--t1", "1", fresh=fresh)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == math.sqrt((math.e ** 2 - 1) / 2)

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    def test_unstable_scalar_on_a_long_horizon_is_solver_error(self, capsys, tmp_path, fresh):
        # A = 1 on [0, 400]: P = (e^800 - 1) / 2 overflows
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "M": [[[0.0]]],
        }))
        code, out, err = run(capsys, "norm", "--system", str(path), "--t1", "400", fresh=fresh)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "code": "solver",
            "message": "controllability Gramian right-hand side overflowed",
            "context": {"side": "controllability"},
        }


class TestReduceCommand:
    def test_tlhnoia_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "rom.json"
        rep_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "reduce", "--method", "tlhnoia", "--order", "3",
            "--t0", "0", "--t1", "0.5", "--system", BENCH, "--init", INIT,
            "--out", str(out_path), "--report", str(rep_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        report = json.loads(rep_path.read_text())
        assert len(report["pole_history"]) == report["iterations"] + 1
        rom = load_system(out_path)
        assert rom.order == 3

    @pytest.mark.parametrize(
        "argv",
        [["--method", "tlbt", "--order", "3"], ["--method", "tlhnoia", "--init", INIT]],
        ids=["tlbt", "tlhnoia"],
    )
    def test_summary_is_subset_of_report(self, capsys, tmp_path, argv):
        rep_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "reduce", *argv, "--t1", "0.5", "--system", BENCH,
            "--report", str(rep_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert list(summary) == [
            "method", "converged", "iterations", "rom_hurwitz", "residual_norms",
            "warnings",
        ]
        report = json.loads(rep_path.read_text())
        assert summary == {key: report[key] for key in summary}

    def test_homora_on_benchmark_keeps_a_hurwitz_iterate(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--method", "homora", "--system", BENCH, "--init", INIT,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["rom_hurwitz"] is True
        assert summary["converged"] is True
        assert summary["iterations"] < 200
        assert summary["warnings"] == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 22: tlhnoia from bench6's order-3 tlbt model on "
        "[0, 10] breaks down in sweep 3 (column 1 collapsed during deflation), "
        "exits 0 and writes sweep 2's iterate, whose error is 3.358e46 against "
        "0.5909 for its start",
    )
    def test_tlhnoia_returns_no_model_worse_than_its_start(self, capsys, tmp_path):
        start, returned = str(tmp_path / "tlbt.json"), str(tmp_path / "tlhnoia.json")
        code, _, _ = run(capsys, "reduce", "--method", "tlbt", "--order", "3", "--t1", "10",
                         "--system", BENCH, "--out", start)
        assert code == 0
        code, _, _ = run(capsys, "reduce", "--method", "tlhnoia", "--t1", "10",
                         "--system", BENCH, "--init", start, "--out", returned)
        assert code == 0
        errors = []
        for rom in (start, returned):
            code, out, _ = run(capsys, "error", "--system", BENCH, "--rom", rom, "--t1", "10")
            assert code == 0
            errors.append(json.loads(out)["value"])
        assert errors[1] <= errors[0]

    def test_homora_in_a_fresh_process(self, capsys):
        # the whole CLI path through main(), with every warning an error
        code, out, err = run(
            capsys, "reduce", "--method", "homora", "--system", BENCH, "--init", INIT,
            fresh=True,
        )
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["converged"] is True and summary["rom_hurwitz"] is True

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    def test_tlhnoia_converges_on_a_small_b(self, capsys, tmp_path, fresh):
        # the stop test does not depend on the units of the input
        system, init = scaled_b(tmp_path, 1e-6)
        code, out, err = run(
            capsys, "reduce", "--method", "tlhnoia", "--t1", "0.5", "--system", system,
            "--init", init, fresh=fresh,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["converged"] is True

    def test_bt_requires_order(self, capsys):
        code, _, err = run(capsys, "reduce", "--method", "bt", "--system", BENCH)
        assert code == 2
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.parametrize(
        "method, horizon, limited, fresh",
        [
            pytest.param("bt", ["--t1", "0.5"], "tlbt", False, id="bt-horizon0-tlbt"),
            pytest.param("bt", ["--t0", "0.1"], "tlbt", False, id="bt-horizon1-tlbt"),
            pytest.param("homora", ["--t0", "0.1", "--t1", "0.5"], "tlhnoia", False,
                         id="homora-horizon2-tlhnoia"),
            pytest.param("bt", ["--t1", "0.5"], "tlbt", True, id="bt-horizon0-tlbt-fresh"),
        ],
    )
    def test_infinite_horizon_method_rejects_a_horizon(
        self, capsys, tmp_path, method, horizon, limited, fresh
    ):
        out_path = tmp_path / "rom.json"
        code, out, err = run(
            capsys, "reduce", "--method", method, "--order", "3", "--system", BENCH,
            "--init", INIT, *horizon, "--out", str(out_path), fresh=fresh,
        )
        assert code == 2 and out == "" and not out_path.exists()
        doc = json.loads(err)
        assert doc["code"] == "usage" and f"--method {limited}" in doc["message"]

    @pytest.mark.parametrize("method", ["bt", "homora"])
    def test_infinite_horizon_method_accepts_zero_to_inf(self, capsys, method):
        argv = ["reduce", "--method", method, "--order", "3", "--system", BENCH,
                "--init", INIT, "--tol", "0", "--max-iter", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        explicit = run(capsys, *argv, "--t0", "0", "--t1", "inf")
        assert explicit == (0, out, "")

    def test_tlhnoia_on_zero_to_inf_writes_the_homora_model(self, capsys, tmp_path):
        paths = {}
        for method in ("homora", "tlhnoia"):
            paths[method] = tmp_path / f"{method}.json"
            code, out, err = run(
                capsys, "reduce", "--method", method, "--t1", "inf", "--system", BENCH,
                "--init", INIT, "--out", str(paths[method]),
            )
            assert (code, err) == (0, "")
            assert json.loads(out)["iterations"] == 19
        assert paths["tlhnoia"].read_bytes() == paths["homora"].read_bytes()

    @pytest.mark.parametrize(
        "option", [["--max-iter", "-3"], ["--tol", "nan"], ["--tol=-1e-6"]], ids=str
    )
    def test_invalid_loop_option_is_a_validation_error(self, capsys, tmp_path, option):
        out_path = tmp_path / "rom.json"
        code, out, err = run(
            capsys, "reduce", "--method", "tlhnoia", "--t1", "0.5", "--system", BENCH,
            "--init", INIT, *option, "--out", str(out_path),
        )
        assert code == 3 and out == "" and not out_path.exists()
        assert json.loads(err)["code"] == "validation"

    def test_iterative_requires_init(self, capsys):
        code, _, err = run(
            capsys, "reduce", "--method", "homora", "--system", BENCH
        )
        assert code == 2

    def test_tlbt(self, capsys, tmp_path):
        out_path = tmp_path / "rom.json"
        code, out, _ = run(
            capsys, "reduce", "--method", "tlbt", "--order", "3",
            "--t0", "0", "--t1", "0.5", "--system", BENCH, "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()


class TestErrorAndResiduals:
    @pytest.fixture()
    def rom_file(self, capsys, tmp_path):
        path = tmp_path / "rom.json"
        code, _, _ = run(
            capsys, "reduce", "--method", "tlhnoia", "--t0", "0", "--t1", "0.5",
            "--system", BENCH, "--init", INIT, "--out", str(path),
        )
        assert code == 0
        return str(path)

    def test_error_command(self, capsys, rom_file):
        code, out, _ = run(
            capsys, "error", "--system", BENCH, "--rom", rom_file,
            "--t0", "0", "--t1", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        first, second, third = (
            doc["decomposition"]["norm_full_squared"],
            doc["decomposition"]["inner_product"],
            doc["decomposition"]["norm_rom_squared"],
        )
        assert doc["value"] ** 2 == pytest.approx(first - 2 * second + third, rel=1e-9, abs=0)

    def test_same_file_as_system_and_rom(self, capsys):
        """Both names load one object, so the inner product takes the
        symmetric Lyapunov path of the full-order norm."""
        code, out, _ = run(
            capsys, "error", "--system", BENCH, "--rom", BENCH, "--t0", "0", "--t1", "0.3",
        )
        assert code == 0
        doc = json.loads(out)
        terms = doc["decomposition"]
        assert terms["inner_product"] == terms["norm_full_squared"] == terms["norm_rom_squared"]
        assert doc["value"] == 0.0

    def test_residuals_limited(self, capsys, rom_file):
        code, out, _ = run(
            capsys, "residuals", "--system", BENCH, "--rom", rom_file,
            "--t0", "0", "--t1", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["horizon"] == "limited"
        assert list(doc) == ["horizon", "t0", "t1", "residual_norms"]
        assert (doc["t0"], doc["t1"]) == (0.0, 0.5)
        assert doc["residual_norms"]["op2"] <= 1e-6
        # the tlhnoia model is not Hurwitz, yet op1 is reported
        rom = load_system(rom_file)
        assert not rom.is_hurwitz
        expected = tl_residuals(load_system(BENCH), rom, TimeInterval(0.0, 0.5))
        assert math.isfinite(doc["residual_norms"]["op1"])
        assert doc["residual_norms"]["op1"] == expected.op1_norm

    def test_residuals_infinite(self, capsys):
        code, out, _ = run(
            capsys, "residuals", "--system", BENCH, "--rom", INIT, "--t1", "inf",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["horizon"], doc["t0"], doc["t1"]) == ("infinite", 0.0, "inf")

    def test_residuals_infinite_from_t0(self, capsys, tmp_path):
        # [0.3, inf) is an infinite horizon with a boundary term at t0, so
        # its op1 differs from that of [0, inf)
        bt = str(tmp_path / "bt.json")
        assert run(capsys, "reduce", "--method", "bt", "--order", "3", "--system", BENCH,
                   "--out", bt)[0] == 0
        docs = {}
        for t0 in (0.0, 0.3):
            code, out, err = run(
                capsys, "residuals", "--system", BENCH, "--rom", bt, "--t0", str(t0),
                "--t1", "inf",
            )
            assert (code, err) == (0, "")
            docs[t0] = json.loads(out)
            assert (docs[t0]["horizon"], docs[t0]["t0"], docs[t0]["t1"]) == (
                "infinite", t0, "inf")
            expected = tl_residuals(load_system(BENCH), load_system(bt),
                                    TimeInterval(t0, math.inf))
            assert docs[t0]["residual_norms"]["op1"] == expected.op1_norm
        assert docs[0.0]["residual_norms"]["op1"] == pytest.approx(1.04696, abs=1e-5)
        assert docs[0.3]["residual_norms"]["op1"] == pytest.approx(1.04781, abs=1e-5)

    @pytest.mark.parametrize(
        "flags",
        [["--horizon", "infinite"], ["--t1", "infinite"]],
        ids=["no-horizon-flag", "t1-not-a-float"],
    )
    def test_residuals_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "residuals", "--system", BENCH, "--rom", INIT, *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "usage"


class TestHsvCommand:
    def test_sigma_nonincreasing(self, capsys):
        code, out, _ = run(capsys, "hsv", "--system", BENCH, "--t0", "0", "--t1", "0.5")
        assert code == 0
        sigma = json.loads(out)["sigma"]
        assert len(sigma) == 6
        assert all(b <= a + 1e-15 for a, b in zip(sigma, sigma[1:]))


class TestFactorRank:
    """The balancing factors P and Q by pivoted Cholesky, so the Hankel
    values beyond the lower rank of the two factors are exactly 0.0.  A
    dense N = 150 system's P on [0, 0.3] has about 20 pivots above
    rounding."""

    HORIZON = ("--t0", "0", "--t1", "0.3")

    @pytest.fixture()
    def dense150(self, tmp_path):
        path = tmp_path / "dense150.json"
        write_json(system_document(rand_system(np.random.default_rng(0), 150, 2, 2)), path)
        return str(path)

    def test_hsv_prints_zeros_beyond_the_factor_rank(self, capsys, dense150):
        code, out, _ = run(capsys, "hsv", "--system", dense150, *self.HORIZON)
        assert code == 0
        sigma = np.array(json.loads(out)["sigma"])
        p, q = gramian_pair(load_system(dense150), TimeInterval(0.0, 0.3))
        rank = min(sla.lapack.dpstrf(x, lower=1)[2] for x in (p, q))
        assert len(sigma) == 150 and 0 < rank < 30
        assert (np.diff(sigma) <= 0.0).all()
        assert (sigma[:rank] > 0.0).all() and (sigma[rank:] == 0.0).all()

    def test_tlbt_beyond_the_factor_rank_is_a_rank_error(self, capsys, dense150):
        code, out, err = run(
            capsys, "reduce", "--method", "tlbt", "--order", "30", "--system", dense150,
            *self.HORIZON,
        )
        assert code == 4 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "rank" and doc["context"]["order"] == 30

    def test_clamp_and_indefinite_gramians_are_unchanged(self, capsys):
        # the eigenvalues of P and Q still give both: the clamp equals the
        # eigendecomposition balancing's to rounding
        code, out, _ = run(capsys, "hsv", "--system", BENCH, "--t0", "0", "--t1", "1e-5")
        assert code == 0
        clamp = json.loads(out)["clamp_magnitude"]
        assert clamp == pytest.approx(2.951098742385853e-14, rel=1e-10, abs=0)
        with pytest.raises(SolverError, match="Q is indefinite beyond tolerance") as err:
            hankel_singular_values(np.eye(2), np.diag([1.0, -1e-3]))
        assert err.value.context == {"min_eigenvalue": -1e-3}


class TestSimulateCommand:
    def test_benchmark_with_rom_in_a_fresh_process(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "simulate", "--system", BENCH, "--rom", INIT, "--input", "0.01*cos(2*t)",
            "--t1", "0.5", "--step", "1e-4", "--out", str(path), fresh=True,
        )
        assert (code, out, err) == (0, "", "")
        lines = path.read_text().splitlines()
        assert lines[1] == "t,y_full_1,y_rom_1,rel_err" and len(lines) == 5003
        assert float(lines[-1].split(",")[0]) == pytest.approx(0.5)

    def test_csv_shape_and_values(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "simulate", "--system", SCALAR, "--input", "1",
            "--t0", "0", "--t1", "1", "--step", "0.001", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y_full_1"
        assert len(lines) == 1002
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(1.0)
        assert last[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    def test_csv_with_rom_has_rel_err(self, capsys, tmp_path):
        rom_path = tmp_path / "rom.json"
        run(
            capsys, "reduce", "--method", "tlbt", "--order", "3",
            "--t0", "0", "--t1", "0.5", "--system", BENCH, "--out", str(rom_path),
        )
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "simulate", "--system", BENCH, "--rom", str(rom_path),
            "--input", "0.01*cos(2*t)", "--t0", "0", "--t1", "0.5",
            "--step", "0.001", "--out", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# rel_err")
        assert lines[1] == "t,y_full_1,y_rom_1,rel_err"

    def test_output_count_is_checked_before_simulating(self, capsys, tmp_path, monkeypatch):
        doc = json.loads(Path(SCALAR).read_text())
        doc.update(n_outputs=2, C=[[1.0], [2.0]], M=[[[1.0]], [[0.5]]])
        rom = tmp_path / "rom.json"
        rom.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
        code, out, err = run(
            capsys, "simulate", "--system", SCALAR, "--rom", str(rom), "--input", "1",
            "--t1", "1", "--step", "0.1",
        )
        assert code == 3 and out == "" and calls == []
        doc = json.loads(err)
        assert doc["code"] == "dimension"
        assert doc["message"] == "input/output dimensions differ: (1, 1) vs (1, 2)"
        # a second input would be driven by the one signal
        doc = json.loads(Path(SCALAR).read_text())
        doc.update(n_inputs=2, B=[[1.0, 2.0]])
        rom.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "simulate", "--system", SCALAR, "--rom", str(rom), "--input", "1",
            "--t1", "1", "--step", "0.1",
        )
        assert code == 3 and out == "" and calls == []
        doc = json.loads(err)
        assert doc["code"] == "dimension"
        assert doc["message"] == "input/output dimensions differ: (1, 1) vs (2, 1)"

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "simulate", "--system", SCALAR, "--input", "sin(t)",
                "--t0", "0", "--t1", "0.5", "--step", "0.01", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    @pytest.mark.parametrize(
        "argv, span, count",
        [
            (["simulate", "--system", BENCH, "--input", "1", "--t1", "1", "--step", "0.6"],
             "[0.0, 1.0]", "1.6666666666666667"),
            (["simulate", "--system", BENCH, "--input", "1", "--t1", "1", "--step", "0.3"],
             "[0.0, 1.0]", "3.3333333333333335"),
            (["simulate", "--system", BENCH, "--input", "1", "--t1", "1", "--step", "1.4"],
             "[0.0, 1.0]", "0.7142857142857143"),
            (["demo", "--step", "0.3"], "[0.0, 0.5]", "1.6666666666666667"),
        ],
        ids=["simulate-0.6", "simulate-0.3", "simulate-1.4", "demo-0.3"],
    )
    def test_step_that_does_not_divide_the_span_is_validation(
        self, capsys, tmp_path, argv, span, count, fresh
    ):
        # a step count rounded to a whole number would simulate past t1 or
        # stop short of it
        outputs = ["--out", str(tmp_path / "out.csv")]
        if argv[0] == "demo":
            outputs += ["--report", str(tmp_path / "report.json")]
        code, out, err = run(capsys, *argv, *outputs, fresh=fresh)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert f"does not divide the span {span}: it gives {count} steps" in doc["message"]
        assert list(tmp_path.iterdir()) == []


class TestCsvWriter:
    """The column-wise CSV writer against the row-wise oracle, byte for byte."""

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []
        write = cli._write_csv

        def spy(path, comment, header, columns):
            recorded.append((path, comment, header, columns))
            write(path, comment, header, columns)

        monkeypatch.setattr(cli, "_write_csv", spy)
        return recorded

    @pytest.mark.parametrize("with_rom", [False, True])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_simulate_matches_row_writer(self, capsys, tmp_path, calls, with_rom, to_file):
        argv = ["simulate", "--system", BENCH, "--input", "0.01*cos(2*t)",
                "--t1", "0.5", "--step", "1e-3"]
        if with_rom:
            argv += ["--rom", INIT]
        path = tmp_path / "out.csv"
        if to_file:
            argv += ["--out", str(path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        [(_, comment, header, columns)] = calls
        assert len(header) == (4 if with_rom else 2)
        text = path.read_text() if to_file else out
        assert text == reference_csv(comment, header, columns)

    def test_demo_matches_row_writer(self, capsys, tmp_path, calls):
        path = tmp_path / "demo.csv"
        code, _, _ = run(
            capsys, "demo", "--step", "0.005", "--out", str(path),
            "--report", str(tmp_path / "demo.json"),
        )
        assert code == 0
        [(_, comment, header, columns)] = calls
        assert path.read_text() == reference_csv(comment, header, columns)

    def test_extreme_values(self, capsys, tmp_path):
        special = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, math.inf, math.nan]
        columns = [np.arange(7.0), special]
        expected = reference_csv("note", ["t", "v"], columns)
        assert "-0.0" in expected and "5e-324" in expected and "nan" in expected
        cli._write_csv(None, "note", ["t", "v"], columns)
        assert capsys.readouterr().out == expected
        path = tmp_path / "v.csv"
        cli._write_csv(str(path), "note", ["t", "v"], columns)
        assert path.read_text() == expected


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "--no-such-flag")
        assert code == 2
        assert json.loads(err)["code"] == "usage"

    def test_validation_error_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "norm", "--system", str(bad), "--t1", "1")
        assert code == 3
        assert json.loads(err)["code"] == "schema"

    @pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
    def test_validation_error_non_hurwitz_input(self, capsys, tmp_path, fresh):
        # a norm on [0, inf) needs a Hurwitz A
        doc = {
            "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "M": [[[0.0]]],
        }
        bad = tmp_path / "unstable.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "norm", "--system", str(bad), "--t1", "inf", fresh=fresh)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "not_hurwitz"
        assert json.loads(err)["context"]["name"] == "A"

    @pytest.fixture()
    def unstable_rom(self, capsys, tmp_path):
        """The tlbt model of order 3 on [0, 0.5] of the bundled benchmark,
        which has a pole at +1.26."""
        path = tmp_path / "tlbt.json"
        code, _, _ = run(
            capsys, "reduce", "--method", "tlbt", "--order", "3", "--system", BENCH,
            "--t1", "0.5", "--out", str(path),
        )
        assert code == 0 and not load_system(path).is_hurwitz
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["error", "--t1", "inf"], ["residuals", "--t1", "inf"]],
        ids=["error", "residuals"],
    )
    def test_validation_error_non_hurwitz_rom_on_infinite_horizon(
        self, capsys, unstable_rom, argv
    ):
        # the same exit as a non-Hurwitz system file: invalid input
        code, out, err = run(capsys, *argv, "--system", BENCH, "--rom", unstable_rom)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "not_hurwitz"
        assert doc["context"]["eigenvalue"][0] > 0.0
        assert doc["context"]["name"] == "reduced A"
        assert doc["message"].startswith("reduced A is not Hurwitz")

    @pytest.mark.parametrize("method", ["homora", "tlhnoia"])
    def test_validation_error_non_hurwitz_initial_guess(
        self, capsys, unstable_rom, method
    ):
        # the message names the --init file's A by its role, not the system's
        code, out, err = run(
            capsys, "reduce", "--method", method, "--system", BENCH, "--init", unstable_rom,
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "not_hurwitz"
        assert doc["context"]["eigenvalue"][0] > 0.0
        assert doc["context"]["name"] == "reduced A"
        assert doc["message"].startswith("reduced A is not Hurwitz")

    @pytest.mark.parametrize(
        "argv",
        [["error", "--t1", "0.5"], ["residuals", "--t1", "0.5"]],
        ids=["error", "residuals"],
    )
    def test_non_hurwitz_rom_on_finite_horizon(self, capsys, unstable_rom, argv):
        code, out, err = run(capsys, *argv, "--system", BENCH, "--rom", unstable_rom)
        assert code == 0 and err == ""
        assert json.loads(out)

    def test_validation_error_infinite_quadrature(self, capsys):
        code, _, err = run(
            capsys, "norm", "--system", SCALAR, "--t1", "inf", "--quadrature", "100"
        )
        assert code == 3

    def test_signal_syntax_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--system", SCALAR, "--input", "2*",
            "--t1", "1", "--step", "0.1",
        )
        assert code == 3
        assert json.loads(err)["code"] == "signal_syntax"

    def test_numerical_error_signal_eval(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--system", SCALAR, "--input", "1/(t-0.5)",
            "--t1", "1", "--step", "0.25",
        )
        assert code == 4
        assert json.loads(err)["code"] == "signal_eval"

    @pytest.mark.parametrize(
        "to_file, fresh", [(False, False), (True, False), (False, True)],
        ids=["stdout", "out", "stdout-fresh"],
    )
    def test_simulate_overflow_is_numerical_failure(self, capsys, tmp_path, to_file, fresh):
        # x' = 40 x + 1 grows by e^40 per second: the reduced model's output
        # overflows at t = 17.84, where every later row would read inf or nan
        doc = json.loads(Path(SCALAR).read_text())
        doc["A"] = [[40.0]]
        rom, csv = tmp_path / "rom.json", tmp_path / "sim.csv"
        rom.write_text(json.dumps(doc))
        out_flag = ["--out", str(csv)] if to_file else []
        code, out, err = run(
            capsys, "simulate", "--system", SCALAR, "--rom", str(rom), "--input", "1",
            "--t1", "20", "--step", "0.01", *out_flag, fresh=fresh,
        )
        assert code == 4 and out == ""
        assert not csv.exists()
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["code"] == "numerical"
        assert error["context"] == {"t": 17.84}

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--system", SCALAR],
            ["error", "--system", SCALAR, "--rom", SCALAR],
            ["residuals", "--system", SCALAR, "--rom", SCALAR],
            ["hsv", "--system", SCALAR],
            ["reduce", "--method", "tlbt", "--order", "1", "--system", SCALAR],
            ["simulate", "--system", SCALAR, "--input", "1", "--step", "0.1"],
        ],
    )
    def test_non_numeric_t1_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--t1", "abc")
        assert code == 2
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t0", "nan", "--t1", "1", "--step", "0.1"],
            ["--t1", "nan", "--step", "0.1"],
            ["--t1", "1", "--step", "nan"],
            ["--t0", "inf", "--t1", "1", "--step", "0.1"],
            ["--t1", "1", "--step", "1e-320"],
        ],
    )
    def test_simulate_nonfinite_grid_is_validation(self, capsys, flags):
        code, _, err = run(capsys, "simulate", "--system", SCALAR, "--input", "1", *flags)
        assert code == 3
        assert json.loads(err)["code"] == "validation"

    def test_simulate_span_shorter_than_one_step_is_validation(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "simulate", "--system", SCALAR, "--input", "1",
            "--t1", "0.1", "--step", "1", "--out", str(out_path),
        )
        assert code == 3 and out == "" and not out_path.exists()
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert doc["message"] == "time span shorter than one step"

    def test_order_that_contradicts_the_initial_guess_is_validation(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--method", "tlhnoia", "--order", "2",
            "--system", BENCH, "--init", INIT, "--t1", "0.5",
        )
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert doc["message"] == "--order 2 contradicts initial guess order 3"

    @pytest.mark.parametrize(
        "signal",
        [
            "(" * 400 + "t" + ")" * 400,
            "-" * 5000 + "t",
            "2^" * 3000 + "t",
            "+".join(["t"] * 3000),
        ],
        ids=["parentheses", "unary-minus", "power-chain", "flat-sum"],
    )
    def test_deep_signal_is_syntax_error(self, capsys, signal):
        code, out, err = run(
            capsys, "simulate", "--system", SCALAR, f"--input={signal}",
            "--t1", "1", "--step", "0.5",
        )
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "signal_syntax"
        assert 0 < doc["context"]["offset"] < len(signal)

    @pytest.mark.parametrize(
        "flags, steps",
        [
            (["--t1", "1", "--step", "1e-12"], 10**12),
            # one float over the budget: 2**27 + 1 samples of the 1 state
            (["--t1", str(2**27), "--step", "1"], 2**27),
        ],
        ids=["tiny-step", "just-over"],
    )
    def test_simulate_step_budget(self, capsys, flags, steps):
        code, out, err = run(capsys, "simulate", "--system", SCALAR, "--input", "1", *flags)
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert doc["context"]["steps"] == steps
        assert f"{steps} steps" in doc["message"]

    @pytest.fixture()
    def overflow_pair(self, tmp_path):
        # e^(700 * 0.32) squared twice overflows the reduced-model blocks
        paths = []
        for name, a in (("sys", -1.0), ("rom", 700.0)):
            doc = {
                "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
                "A": [[a]], "B": [[1.0]], "C": [[1.0]], "M": [[[1.0]]],
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("command", ["error", "residuals", "norm"])
    def test_overflow_is_numerical_failure(self, capsys, overflow_pair, command):
        system, rom = overflow_pair
        if command == "norm":
            argv = [command, "--system", BENCH, "--t0", "1e300", "--t1", "inf"]
        else:
            argv = [command, "--system", system, "--rom", rom, "--t0", "0", "--t1", "0.32"]
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "solver"

    def test_overflowing_residuals_keep_the_model(self, capsys, tmp_path):
        # the iterate after two sweeps on [0.2, 2] has a pole at +21.4, so the
        # boundary Frechet term of op1 overflows; both sweeps succeeded, so
        # the model is written and its residuals are reported missing
        rom_path, rep_path = tmp_path / "m.json", tmp_path / "r.json"
        code, out, err = run(
            capsys, "reduce", "--method", "tlhnoia", "--order", "3", "--system", BENCH,
            "--init", INIT, "--t0", "0.2", "--t1", "2", "--max-iter", "2",
            "--out", str(rom_path), "--report", str(rep_path),
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["residual_norms"] is None and doc["iterations"] == 2
        assert doc["warnings"][-1] == (
            "residuals of the returned model broke down "
            "(first stationarity residual overflowed)"
        )
        report = json.loads(rep_path.read_text())
        assert report["residual_norms"] is None
        rom = load_system(rom_path)
        assert rom.order == 3 and not rom.is_hurwitz
        assert report["rom"]["A"] == rom.A.tolist()

    @pytest.mark.parametrize(
        "t1, fresh", [("inf", False), ("0.5", False), ("inf", True)],
        ids=["inf", "0.5", "inf-fresh"],
    )
    def test_overflowing_stationarity_residual_is_solver_error(
        self, capsys, tmp_path, t1, fresh
    ):
        # B scaled by 1e80: the quadratic outputs overflow
        system, rom = scaled_b(tmp_path, 1e80)
        code, out, err = run(
            capsys, "residuals", "--system", system, "--rom", rom, "--t1", t1, fresh=fresh
        )
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "code": "solver",
            "message": "first stationarity residual overflowed",
            "context": {},
        }

    @pytest.mark.parametrize(
        "method", [["homora"], ["tlhnoia", "--t1", "0.5"]], ids=["homora", "tlhnoia"]
    )
    def test_overflowing_residuals_of_the_start_keep_it(self, capsys, tmp_path, method):
        system, init = scaled_b(tmp_path, 1e80)
        code, out, err = run(
            capsys, "reduce", "--method", *method, "--max-iter", "3",
            "--system", system, "--init", init,
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["residual_norms"] is None and doc["iterations"] == 0
        assert doc["warnings"][-1] == (
            "residuals of the returned model broke down "
            "(first stationarity residual overflowed)"
        )

    @pytest.mark.parametrize(
        "horizon, fresh, resolution",
        [
            (["--t1", "1e40"], False, "4"), (["--t1", "1e200"], False, "4"),
            (["--t0", "1e307", "--t1", "1.7e308"], False, "4"),
            (["--t1", "1e40"], True, "4"), (["--t1", "1e200"], True, "4"),
            # a step propagator e^(A h) that underflows to zero
            (["--t1", "1e40"], False, "400"),
        ],
        ids=["1e40", "1e200", "1.7e308", "1e40-fresh", "1e200-fresh", "1e40-400"],
    )
    def test_quadrature_on_a_long_horizon_is_solver_error(
        self, capsys, horizon, fresh, resolution
    ):
        code, out, err = run(
            capsys, "norm", "--system", BENCH, "--quadrature", resolution, *horizon,
            fresh=fresh,
        )
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "solver"

    NEGATIVE_TOL = ["reduce", "--method", "tlhnoia", "--t1", "0.5", "--init", INIT,
                    "--tol", "-1e-6"]

    @pytest.mark.parametrize(
        "argv, fresh",
        [
            (NEGATIVE_TOL, False),
            (["norm", "--t0", "-1e-3"], False),
            (["norm", "--t0", "-inf"], False),
            (NEGATIVE_TOL, True),
        ],
        ids=["tol", "t0", "t0-inf", "tol-fresh"],
    )
    def test_negative_scientific_value_reaches_validation(self, capsys, argv, fresh):
        # a dash and a float literal is a value, not a flag
        code, out, err = run(capsys, *argv, "--system", BENCH, fresh=fresh)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "validation"

    @pytest.mark.parametrize(
        "doc",
        [
            # e^(A t) B overflows at t = 0.5 and 1, and B B^T does too
            {"n_states": 2, "A": [[-1.0, 1e11], [0.0, -1.0]], "B": [[0.0], [1e298]],
             "C": [[1.0, 0.0]], "M": [[[0.0, 0.0], [0.0, 0.0]]]},
            # finite factors whose product B B^T overflows
            {"n_states": 1, "A": [[-1.0]], "B": [[1e200]], "C": [[1.0]], "M": [[[0.0]]]},
        ],
        ids=["transient", "large-input"],
    )
    @pytest.mark.parametrize("horizon", [["--t1", "1"], ["--t0", "0.5", "--t1", "1"], []])
    def test_overflowing_gramian_factor_is_numerical_failure(
        self, capsys, tmp_path, doc, horizon
    ):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"version": 1, "n_inputs": 1, "n_outputs": 1, **doc}))
        code, out, err = run(capsys, "norm", "--system", str(path), *horizon)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "code": "solver",
            "message": "controllability Gramian right-hand side overflowed",
            "context": {"side": "controllability"},
        }

    def test_overflowing_gramian_is_numerical_failure(self, capsys, tmp_path):
        # P = B B^T / (2 * 1e-10) = 5e309 overflows inside trsyl, which scales
        # the right-hand side down; a finite scaled answer would read 0.0
        doc = {
            "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
            "A": [[-1e-10]], "B": [[1e150]], "C": [[1e-160]], "M": [[[0.0]]],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "norm", "--system", str(path), "--t1", "inf")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "solver"

    def test_quadrature_budget(self, capsys, monkeypatch):
        # 20001 x 20001 kernel samples: rejected before anything is allocated
        def allocating(*args, **kwargs):
            raise AssertionError("the quadrature ran")

        monkeypatch.setattr("lqomor.matfun.expm", allocating)
        code, out, err = run(
            capsys, "norm", "--system", SCALAR, "--t1", "1", "--quadrature", "20000"
        )
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert doc["context"]["rows"] == 20001

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr("lqomor.cli.build_parser", rebuilt)
        code, out, _ = run(capsys, "norm", "--system", SCALAR, "--t1", "1")
        assert code == 0
        assert json.loads(out)["method"] == "gramian"

    @pytest.mark.parametrize("layout", ["array", "coordinate"])
    def test_complex_matrix_market_is_schema_error(self, capsys, tmp_path, layout):
        body = {
            "array": "2 1\n1.0 2.0\n3.0 0.5\n",
            "coordinate": "2 1 2\n1 1 1.0 2.0\n2 1 3.0 0.5\n",
        }[layout]
        (tmp_path / "b.mtx").write_text(f"%%MatrixMarket matrix {layout} complex general\n{body}")
        doc = {
            "n_states": 2, "n_inputs": 1, "n_outputs": 1,
            "A": [[-1.0, 0.5], [0.0, -2.0]], "B": "b.mtx", "C": [[1.0, 0.0]],
            "M": [[[1.0, 0.0], [0.0, 1.0]]],
        }
        (tmp_path / "sys.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "norm", "--system", str(tmp_path / "sys.json"))
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["code"] == "schema"
        assert error["context"]["field"] == "B"
        assert "complex" in error["message"]

    def test_schema_error_names_its_file(self, capsys, tmp_path):
        paths = {flag: tmp_path / f"{flag[2:]}.json" for flag in ("--system", "--rom")}
        for flag, path in paths.items():
            path.write_text(json.dumps({"version": 1}))
            files = {"--system": BENCH, "--rom": BENCH, flag: str(path)}
            code, out, err = run(capsys, "error", *[x for kv in files.items() for x in kv])
            assert code == 3 and out == ""
            assert json.loads(err) == {
                "code": "schema", "message": "n_states: missing required field",
                "context": {"field": "n_states", "path": str(path)},
            }

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(capsys, "norm", "--system", "no/such/file.json", "--t1", "1")
        assert code == 3


class TestUnstableSystem:
    """The bundled benchmark with A + 0.5 I, every pole in the right
    half-plane: every finite horizon takes it, [0, inf) refuses it."""

    def test_finite_horizon_matches_quadrature(self, capsys, tmp_path):
        system, init = shifted_a(tmp_path, 0.5)
        horizon = ["--system", system, "--t1", "1"]

        def value(*argv):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            return json.loads(out)["value"]

        simpson = value("norm", *horizon, "--quadrature", "4000")
        assert value("norm", *horizon) == pytest.approx(simpson, rel=1e-10)
        for method, flags in (("tlbt", ["--order", "3"]), ("tlhnoia", ["--init", init])):
            rom = str(tmp_path / f"{method}.json")
            code, out, err = run(capsys, "reduce", "--method", method, *flags, *horizon, "--out", rom)
            assert (code, err) == (0, "") and json.loads(out)["converged"]
            error = error_system(load_system(system), load_system(rom))
            simpson = h2tau_norm_quadrature(error, TimeInterval(0.0, 1.0), 4000).value
            assert value("error", "--rom", rom, *horizon) == pytest.approx(simpson, rel=1e-10)

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm"], ["hsv"], ["error", "--rom", INIT], ["residuals", "--rom", INIT],
            ["reduce", "--method", "bt", "--order", "3"],
            ["reduce", "--method", "homora", "--init", INIT],
            ["reduce", "--method", "tlhnoia", "--init", INIT],
        ],
        ids=["norm", "hsv", "error", "residuals", "bt", "homora", "tlhnoia"],
    )
    def test_infinite_horizon_is_not_hurwitz(self, capsys, tmp_path, argv):
        system, _ = shifted_a(tmp_path, 0.5)
        code, out, err = run(capsys, *argv, "--system", system, "--t1", "inf")
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "not_hurwitz" and doc["context"]["name"] == "A"

    def test_imaginary_axis_pole(self, capsys, tmp_path):
        # the rightmost pole pair on the imaginary axis makes the Lyapunov
        # equation singular, a numerical failure; quadrature still integrates
        a = np.array(json.loads(Path(BENCH).read_text())["A"])
        system, _ = shifted_a(tmp_path, -np.linalg.eigvals(a).real.max())
        code, out, err = run(capsys, "norm", "--system", system, "--t1", "1")
        assert code == 4 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "solver"
        code, out, err = run(capsys, "norm", "--system", system, "--t1", "1", "--quadrature", "4000")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(0.27735885733, abs=1e-10)


class TestDemoCommand:
    def test_demo_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "demo.csv"
        rep_path = tmp_path / "demo.json"
        code, out, _ = run(
            capsys, "demo", "--out", str(csv_path), "--report", str(rep_path),
        )
        assert code == 0
        assert "op2" in out and "op3" in out and "op4" in out
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "t,rel_err_bt,rel_err_tlbt,rel_err_homora,rel_err_tlhnoia"
        doc = json.loads(rep_path.read_text())
        assert set(doc) == {"bt", "tlbt", "homora", "tlhnoia"}
        norms = doc["tlhnoia"]["residual_norms"]
        assert norms["op2"] <= 1e-6
        assert norms["op3"] <= 1e-3
        assert norms["op4"] <= 1e-3

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_bad_step_is_validation(self, capsys, tmp_path, step):
        csv_path = tmp_path / "demo.csv"
        code, out, err = run(
            capsys, "demo", f"--step={step}", "--out", str(csv_path),
            "--report", str(tmp_path / "demo.json"),
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "validation"
        assert not csv_path.exists()


def warm_equals_fresh(capsys, commands):
    """Run the command lines ``commands`` in turn, each in a fresh process,
    then twice in this process (cold, then warm on what the cold pass
    kept); assert that every run exits 0 with nothing on stderr and that
    the three passes print the same and write the same ``--out`` bytes.
    Returns what each command printed."""
    passes = []
    for fresh in (True, False, False):
        outputs = []
        for argv in commands:
            code, out, err = run(capsys, *argv, fresh=fresh)
            assert (code, err) == (0, ""), argv
            written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None
            outputs.append((out, written))
        passes.append(outputs)
    fresh, cold, warm = passes
    assert fresh == cold == warm
    return [out for out, _ in fresh]


class TestWarmEqualsFresh:
    """Commands that reuse what an earlier command in the process kept (a
    loaded system, its Gramians, balancing and exponentials, a saved model
    and the blocks Pt, Gt and Xt of its pair) print what a fresh process
    prints."""

    def test_dense_order_200(self, capsys, tmp_path):
        rng = np.random.default_rng(200)
        n = 200
        a = rng.normal(size=(n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
        m = rng.normal(size=(n, n)) / n
        b, c = rng.normal(size=(n, 2)), rng.normal(size=(2, n))
        sysf = tmp_path / "dense200.json"
        write_json(system_document(LqoSystem(a, b, c, [m + m.T, m @ m.T])), sysf)
        horizon = ["--system", str(sysf), "--t1", "0.5"]
        tlbt, bt8, bt10 = (str(tmp_path / f"{name}.json") for name in ("tlbt", "bt8", "bt10"))
        norm = ["norm", *horizon]
        outputs = warm_equals_fresh(capsys, [
            norm,
            ["hsv", *horizon, "--t0", "0.1"],
            ["reduce", "--method", "tlbt", "--order", "10", *horizon, "--out", tlbt],
            ["error", "--rom", tlbt, *horizon],
            ["residuals", "--rom", tlbt, *horizon],
            ["hsv", *horizon],
            ["reduce", "--method", "bt", "--order", "8", "--system", str(sysf), "--out", bt8],
            ["reduce", "--method", "bt", "--order", "10", "--system", str(sysf), "--out", bt10],
            ["residuals", "--system", str(sysf), "--rom", bt8, "--t1", "inf"],
        ])
        # a rewrite in place of one digit of the last entry, with the size
        # and time stamps kept, is parsed again
        stat = os.stat(sysf)
        data = sysf.read_bytes()
        last = re.findall(rb"-?[0-9][0-9.e+-]*", data)[-1]
        at = data.rindex(last) + re.search(rb"[1-9]", last).start()
        sysf.write_bytes(data[:at] + b"%d" % ((data[at] - ord("0")) % 9 + 1) + data[at + 1:])
        os.utime(sysf, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        kept = os.stat(sysf)
        assert (kept.st_size, kept.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        code, out, _ = run(capsys, *norm)
        assert code == 0 and out != outputs[0]
        assert (code, out, "") == run(capsys, *norm, fresh=True)

    def test_bench6_tlhnoia_error_and_residuals(self, capsys, tmp_path):
        rom, bt = str(tmp_path / "tlhnoia.json"), str(tmp_path / "bt.json")
        horizon = ["--system", BENCH, "--t1", "0.5"]
        # the error of the bt model twice each way round, the swapped pair
        # (the model as --system) first
        errors = [
            ["error", "--system", bt, "--rom", BENCH, "--t1", "0.5"],
            ["error", "--rom", bt, *horizon],
        ]
        warm_equals_fresh(capsys, [
            ["reduce", "--method", "tlhnoia", "--init", INIT, "--out", rom, *horizon],
            ["error", "--rom", rom, *horizon],
            ["residuals", "--rom", rom, *horizon],
            ["reduce", "--method", "bt", "--order", "3", "--system", BENCH, "--out", bt],
            *errors, *errors,
        ])


    def test_bench6_shifted_to_the_right(self, capsys, tmp_path):
        # A + 0.5 I has no [0, inf) norm; every command here reads [0, 1]
        system, init = shifted_a(tmp_path, 0.5)
        horizon = ["--system", system, "--t1", "1"]
        tlbt, rom, csv = (str(tmp_path / name) for name in ("tlbt.json", "tlhnoia.json", "y.csv"))
        warm_equals_fresh(capsys, [
            ["norm", *horizon],
            ["reduce", "--method", "tlbt", "--order", "3", *horizon, "--out", tlbt],
            ["reduce", "--method", "tlhnoia", "--init", init, *horizon, "--out", rom],
            ["error", "--rom", rom, *horizon],
            ["residuals", "--rom", rom, *horizon],
            ["hsv", *horizon],
            ["simulate", "--system", system, "--rom", tlbt, "--input", "0.01*cos(2*t)",
             "--t1", "1", "--step", "0.01", "--out", csv],
        ])


def test_workflow_runs_no_inline_scripts():
    """The CLI contract lives in these tests: CI steps run commands, not
    heredoc or ``python -c`` scripts."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    inline = [line for line in text.splitlines()
              if "<<" in line or re.search(r"\bpython3?\b[^|;&]*\s-c\b", line)]
    assert inline == []


#: Run as ``python -W error -c STARTUP OUT MODULE [ARG ...]``: imports
#: MODULE, runs ``lqomor.cli.main()`` on the ARGs if there are any, and at
#: exit writes the names of the loaded modules to the file OUT.
STARTUP = """\
import atexit, importlib, sys
out, module, *argv = sys.argv[1:]

@atexit.register
def report():
    with open(out, "w") as fh:
        fh.write(" ".join(sys.modules))

importlib.import_module(module)
if argv:
    sys.argv[1:] = argv
    sys.modules["lqomor.cli"].main()
"""

#: scipy subpackages no command needs: a top-level ``scipy.optimize`` alone
#: adds about 270 ms.  ``scipy.io`` stays inside the Matrix Market reader.
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.integrate", "scipy.io", "scipy.special")


def startup(tmp_path, module, *argv):
    """``(exit code, stderr, names of the loaded modules)`` of
    :data:`STARTUP` in a new interpreter with every warning an error."""
    out = tmp_path / "modules.txt"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", STARTUP, str(out), module, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stderr, set(out.read_text().split())


def heavy(loaded):
    return [m for m in loaded if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))]


@pytest.mark.parametrize("module", ["lqomor", "lqomor.cli"])
def test_cli_import_loads_no_scipy_linalg(tmp_path, module):
    """Importing the library or the CLI loads numpy alone: ``matfun.sla``
    imports ``scipy.linalg`` at the first solve, and no other module
    imports scipy at all."""
    code, err, loaded = startup(tmp_path, module)
    assert (code, err) == (0, "")
    assert "numpy" in loaded and "scipy.linalg" not in loaded
    assert heavy(loaded) == []
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("argv, exit_code, error", [
    (["simulate", "--system", BENCH, "--rom", INIT, "--input", "0.01*cos(2*t)",
      "--t1", "0.5", "--step", "1e-3", "--out", "{tmp}/y.csv"], 0, None),
    (["norm", "--system", "{tmp}/schema.json", "--t1", "1"], 3, "schema"),
    (["norm", "--no-such-flag"], 2, "usage"),
], ids=["simulate", "schema", "usage"])
def test_commands_that_solve_nothing_load_no_scipy_linalg(tmp_path, argv, exit_code, error):
    """``simulate`` and the refusals that solve no matrix equation run on
    numpy alone."""
    (tmp_path / "schema.json").write_text(json.dumps({"version": 1}))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, err, loaded = startup(tmp_path, "lqomor.cli", *argv)
    assert (code, json.loads(err)["code"] if err else None) == (exit_code, error)
    assert "scipy.linalg" not in loaded


def test_norm_loads_scipy_linalg_at_its_first_solve(tmp_path):
    """A command that solves loads ``scipy.linalg``, and only that
    subpackage, on its first LAPACK call."""
    code, err, loaded = startup(tmp_path, "lqomor.cli", "norm", "--system", BENCH, "--t1", "1")
    assert (code, err) == (0, "")
    assert "scipy.linalg" in loaded
    assert heavy(loaded) == []


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    """Every command of README's shell block of ``lqomor`` lines runs, in
    order, with its ``\\`` continuations joined and comments dropped, from
    a directory holding the bundled ``data/``, and exits 0 with nothing on
    stderr."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    block = next(b for b in blocks if re.search(r"^lqomor ", b, re.M))
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    assert commands and all(argv[0] == "lqomor" for argv in commands)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
