import json
import math

import numpy as np
import pytest

from lqomor.cli import run_command
from lqomor.model import TimeInterval
from lqomor.optimality import tl_residuals
from lqomor.sysio import load_system, save_system

from util import rand_system

from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"
BENCH = str(DATA / "benchmark6.json")
INIT = str(DATA / "benchmark6_init.json")
SCALAR = str(DATA / "scalar.json")
SCALAR_QUAD = str(DATA / "scalar_quadratic.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        rom = load_system(out_path, require_hurwitz=False)
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
        assert summary["converged"] is False
        assert summary["iterations"] == 200
        assert len(summary["warnings"]) <= 2

    def test_bt_requires_order(self, capsys):
        code, _, err = run(capsys, "reduce", "--method", "bt", "--system", BENCH)
        assert code == 2
        assert json.loads(err)["code"] == "usage"

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
        assert doc["value"] ** 2 == pytest.approx(first - 2 * second + third, rel=1e-9)

    def test_residuals_limited(self, capsys, rom_file):
        code, out, _ = run(
            capsys, "residuals", "--system", BENCH, "--rom", rom_file,
            "--t0", "0", "--t1", "0.5", "--horizon", "limited",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["horizon"] == "limited"
        assert set(doc) == {"horizon", "residual_norms"}
        assert doc["residual_norms"]["op2"] <= 1e-6
        # the tlhnoia model is not Hurwitz, yet op1 is reported
        rom = load_system(rom_file, require_hurwitz=False)
        assert not rom.is_hurwitz
        expected = tl_residuals(load_system(BENCH), rom, TimeInterval(0.0, 0.5))
        assert math.isfinite(doc["residual_norms"]["op1"])
        assert doc["residual_norms"]["op1"] == expected.op1_norm

    def test_residuals_infinite(self, capsys):
        code, out, _ = run(
            capsys, "residuals", "--system", BENCH, "--rom", INIT,
            "--horizon", "infinite",
        )
        assert code == 0
        assert json.loads(out)["horizon"] == "infinite"


class TestHsvCommand:
    def test_sigma_nonincreasing(self, capsys):
        code, out, _ = run(capsys, "hsv", "--system", BENCH, "--t0", "0", "--t1", "0.5")
        assert code == 0
        sigma = json.loads(out)["sigma"]
        assert len(sigma) == 6
        assert all(b <= a + 1e-15 for a, b in zip(sigma, sigma[1:]))


class TestSimulateCommand:
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

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "simulate", "--system", SCALAR, "--input", "sin(t)",
                "--t0", "0", "--t1", "0.5", "--step", "0.01", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


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

    def test_validation_error_non_hurwitz_input(self, capsys, tmp_path):
        doc = {
            "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "M": [[[0.0]]],
        }
        bad = tmp_path / "unstable.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "norm", "--system", str(bad), "--t1", "1")
        assert code == 3
        assert json.loads(err)["code"] == "not_hurwitz"

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

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(capsys, "norm", "--system", "no/such/file.json", "--t1", "1")
        assert code == 3


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
