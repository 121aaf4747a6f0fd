import json

import numpy as np
import pytest

from lqomor.errors import HurwitzError, SchemaError
from lqomor.model import LqoSystem, TimeInterval
from lqomor.reductors import bt, homora, tlhnoia
from lqomor.sysio import (
    json_text,
    load_system,
    parse_system,
    report_document,
    save_system,
    serialize_report,
    serialize_system,
)
from lqomor.demo import demo_initial_guess, demo_system

from util import rand_system, reference_report_document


def doc_of(system):
    return json.loads(serialize_system(system).decode())


class TestParseSystem:
    def test_bundled_benchmark_file(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "data" / "benchmark6.json"
        sys6 = load_system(path)
        assert (sys6.order, sys6.n_inputs, sys6.n_outputs) == (6, 1, 1)
        assert np.array_equal(sys6.A, demo_system().A)

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(100)
        sys1 = rand_system(rng, 5, 2, 2)
        again = parse_system(serialize_system(sys1))
        assert np.array_equal(again.A, sys1.A)
        assert np.array_equal(again.B, sys1.B)
        assert np.array_equal(again.C, sys1.C)
        for a, b in zip(again.M, sys1.M):
            assert np.array_equal(a, b)
        assert serialize_system(again) == serialize_system(sys1)

    def test_m_length_error_message(self):
        doc = doc_of(demo_system())
        doc["M"] = []
        with pytest.raises(SchemaError, match="M length 0 != p 1"):
            parse_system(json.dumps(doc))

    def test_non_hurwitz_rejected(self):
        doc = {
            "version": 1,
            "n_states": 2, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0], [1.0]],
            "C": [[1.0, 0.0]],
            "M": [[[0.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(HurwitzError):
            parse_system(json.dumps(doc))
        rom = parse_system(json.dumps(doc), require_hurwitz=False)
        assert not rom.is_hurwitz

    def test_ragged_rows_rejected_with_path(self):
        doc = doc_of(demo_system())
        doc["A"][2] = doc["A"][2][:-1]
        with pytest.raises(SchemaError) as err:
            parse_system(json.dumps(doc))
        assert err.value.context["field"] == "A[2]"

    def test_non_numeric_entry_path(self):
        doc = doc_of(demo_system())
        doc["M"][0][1][3] = "x"
        with pytest.raises(SchemaError) as err:
            parse_system(json.dumps(doc))
        assert err.value.context["field"] == "M[0][1][3]"

    def test_missing_field(self):
        doc = doc_of(demo_system())
        del doc["n_states"]
        with pytest.raises(SchemaError, match="n_states"):
            parse_system(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_system(b"{not json")

    def test_matrix_market_reference(self, tmp_path):
        from scipy.io import mmwrite

        rng = np.random.default_rng(101)
        sys1 = rand_system(rng, 3, 1, 1)
        mmwrite(tmp_path / "a.mtx", sys1.A)
        doc = doc_of(sys1)
        doc["A"] = "a.mtx"
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        loaded = load_system(path)
        assert np.allclose(loaded.A, sys1.A, rtol=1e-12)

    def test_matrix_market_missing_file(self, tmp_path):
        doc = doc_of(rand_system(np.random.default_rng(102), 2, 1, 1))
        doc["B"] = "missing.mtx"
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="not found"):
            load_system(path)


class TestSerializeReport:
    def test_report_fields(self):
        report = tlhnoia(
            demo_system(), demo_initial_guess(), TimeInterval(0.0, 0.5)
        )
        doc = json.loads(serialize_report(report).decode())
        assert doc["method"] == "tlhnoia"
        assert doc["iterations"] == report.iterations
        assert len(doc["pole_history"]) == report.iterations + 1
        assert set(doc["residual_norms"]) == {"op1", "op2", "op3", "op4"}
        assert not report.rom.is_hurwitz
        assert np.isfinite(doc["residual_norms"]["op1"])
        assert doc["residual_norms"]["op1"] == report.residuals.op1_norm
        assert doc["residual_norms"]["op2"] == max(report.residuals.op2_norms)

    @pytest.mark.parametrize("method", ["bt", "homora", "tlhnoia"])
    def test_document_equals_the_reference_serializer(self, method):
        system, rom0 = demo_system(), demo_initial_guess()
        report = {
            "bt": lambda: bt(system, 3),
            "homora": lambda: homora(system, rom0),
            "tlhnoia": lambda: tlhnoia(system, rom0, TimeInterval(0.0, 0.5)),
        }[method]()
        ref = reference_report_document(report)
        assert json_text(report_document(report)) == json_text(ref)
        fields = ("method", "converged", "iterations", "rom_hurwitz",
                  "residual_norms", "warnings")
        assert json_text(report_document(report, fields)) == json_text(
            {key: ref[key] for key in fields}
        )

    def test_rom_round_trips_from_report(self):
        report = tlhnoia(
            demo_system(), demo_initial_guess(), TimeInterval(0.0, 0.5)
        )
        doc = report_document(report)
        rom = parse_system(json.dumps(doc["rom"]), require_hurwitz=False)
        assert np.array_equal(rom.A, report.rom.A)

    def test_save_and_load(self, tmp_path):
        rng = np.random.default_rng(103)
        sys1 = rand_system(rng, 4, 1, 1)
        path = tmp_path / "sys.json"
        save_system(sys1, path)
        assert np.array_equal(load_system(path).A, sys1.A)
