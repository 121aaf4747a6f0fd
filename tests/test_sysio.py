import json
import math
import os

import numpy as np
import pytest

from lqomor import matfun, sysio
from lqomor.cli import run_command
from lqomor.errors import HurwitzError, SchemaError
from lqomor.model import LqoSystem, TimeInterval
from lqomor.norms import h2tau_norm
from lqomor.reductors import bt, homora, tlhnoia
from lqomor.sysio import (
    json_text,
    load_system,
    parse_system,
    report_document,
    save_system,
    system_document,
    write_json,
)
from lqomor.demo import demo_initial_guess, demo_system

from util import rand_system, reference_report_document


def text_of(system):
    return json_text(system_document(system))


def doc_of(system):
    return json.loads(text_of(system))


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
        again = parse_system(text_of(sys1).encode())
        assert np.array_equal(again.A, sys1.A)
        assert np.array_equal(again.B, sys1.B)
        assert np.array_equal(again.C, sys1.C)
        for a, b in zip(again.M, sys1.M):
            assert np.array_equal(a, b)
        assert text_of(again) == text_of(sys1)

    def test_m_length_error_message(self):
        doc = doc_of(demo_system())
        doc["M"] = []
        with pytest.raises(SchemaError, match="M length 0 != p 1"):
            parse_system(json.dumps(doc))

    def test_non_hurwitz_rejected(self):
        # the parse takes any A; a norm on [0, inf) rejects this one
        doc = {
            "version": 1,
            "n_states": 2, "n_inputs": 1, "n_outputs": 1,
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0], [1.0]],
            "C": [[1.0, 0.0]],
            "M": [[[0.0, 0.0], [0.0, 0.0]]],
        }
        system = parse_system(json.dumps(doc))
        assert not system.is_hurwitz
        with pytest.raises(HurwitzError, match="^A is not Hurwitz"):
            h2tau_norm(system, TimeInterval(0.0, np.inf))

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

    @staticmethod
    def schema_error(capsys, tmp_path, edit):
        """``(exit code, stdout, error document)`` of ``norm`` on a 2-state
        system document changed in place by ``edit(doc, tmp_path)``."""
        doc = doc_of(rand_system(np.random.default_rng(103), 2, 1, 1))
        edit(doc, tmp_path)
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        code = run_command(["norm", "--system", str(path), "--t1", "1"])
        captured = capsys.readouterr()
        return code, captured.out, json.loads(captured.err)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("hello world\n1 2 3\n", "Line 1: Not a Matrix Market file. Missing banner."),
            ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
             "Truncated file. Expected another 1 lines."),
        ],
        ids=["not-matrix-market", "truncated"],
    )
    def test_unreadable_matrix_market_file_is_schema(self, capsys, tmp_path, text, reason):
        def edit(doc, where):
            (where / "a.mtx").write_text(text)
            doc["A"] = "a.mtx"

        code, out, err = self.schema_error(capsys, tmp_path, edit)
        assert code == 3 and out == ""
        assert err["code"] == "schema" and err["context"]["field"] == "A"
        assert err["message"] == (
            f"A: not a readable Matrix Market file: {tmp_path / 'a.mtx'}: {reason}"
        )

    def test_matrix_market_file_of_the_wrong_shape_is_schema(self, capsys, tmp_path):
        from scipy.io import mmwrite

        def edit(doc, where):
            mmwrite(where / "a.mtx", np.ones((2, 3)))
            doc["A"] = "a.mtx"

        code, out, err = self.schema_error(capsys, tmp_path, edit)
        assert code == 3 and out == ""
        assert err["code"] == "schema" and err["context"]["field"] == "A"
        assert err["message"] == "A: expected shape (2, 2), file has (2, 3)"

    def test_m_that_is_not_a_list_is_schema(self, capsys, tmp_path):
        code, out, err = self.schema_error(
            capsys, tmp_path, lambda doc, where: doc.update(M={})
        )
        assert code == 3 and out == ""
        assert err["code"] == "schema" and err["context"]["field"] == "M"
        assert err["message"] == "M: expected a list of matrices"


class TestSerializeReport:
    def test_report_fields(self):
        report = tlhnoia(
            demo_system(), demo_initial_guess(), TimeInterval(0.0, 0.5)
        )
        doc = json.loads(json_text(report_document(report)))
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
        rom = parse_system(json.dumps(doc["rom"]))
        assert np.array_equal(rom.A, report.rom.A)

    def test_save_and_load(self, tmp_path):
        rng = np.random.default_rng(103)
        sys1 = rand_system(rng, 4, 1, 1)
        path = tmp_path / "sys.json"
        save_system(sys1, path)
        assert np.array_equal(load_system(path).A, sys1.A)


def scalar_document(a, b):
    """A first-order system file with fixed-width entries, so documents of
    different numbers have the same size."""
    return json.dumps({
        "version": 1, "n_states": 1, "n_inputs": 1, "n_outputs": 1,
        "A": [[a]], "B": [[b]], "C": [[1.0]], "M": [[[0.0]]],
    })


class TestLoadCache:
    @pytest.fixture()
    def parses(self, monkeypatch):
        """Every system document the library parses from here on."""
        calls = []
        parse = sysio._parse

        def recording(text, base_dir):
            calls.append(text)
            return parse(text, base_dir)

        monkeypatch.setattr(sysio, "_parse", recording)
        return calls

    def norm(self, capsys, path, t1="0.7"):
        code = run_command(["norm", "--system", str(path), "--t1", t1])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_second_command_neither_parses_nor_factors(
        self, capsys, tmp_path, lapack_calls, parses
    ):
        n = 20
        path = tmp_path / "system.json"
        write_json(system_document(rand_system(np.random.default_rng(110), n, 2, 2)), path)
        lapack_calls.schur.clear()
        first = self.norm(capsys, path)
        assert first[0] == 0 and len(parses) == 1
        assert [a.shape for a in lapack_calls.schur].count((n, n)) == 1
        parses.clear()
        lapack_calls.schur.clear()
        assert self.norm(capsys, path) == first
        assert parses == []
        assert not any(a.shape == (n, n) for a in lapack_calls.schur)

    def test_same_bytes_give_the_same_system(self, tmp_path):
        text = scalar_document(-1.0, 1.0)
        (tmp_path / "one.json").write_text(text)
        (tmp_path / "two.json").write_text(text)
        system = load_system(tmp_path / "one.json")
        assert load_system(tmp_path / "two.json") is system

    def test_file_rewritten_in_place_is_parsed_again(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(scalar_document(-1.0, 1.0))
        stat = os.stat(path)
        code, before, _ = self.norm(capsys, path)
        path.write_text(scalar_document(-1.0, 2.0))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after_stat = os.stat(path)
        assert (after_stat.st_size, after_stat.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        code2, after, _ = self.norm(capsys, path)
        assert code == code2 == 0
        assert json.loads(after)["value"] == pytest.approx(
            2.0 * json.loads(before)["value"], rel=1e-14
        )

    def test_rewrite_of_the_last_bytes_is_parsed_again(self, tmp_path, parses):
        # same size and time stamps, and the bytes agree up to the last entry
        path = tmp_path / "system.json"
        write_json(system_document(rand_system(np.random.default_rng(114), 5, 1, 2)), path)
        stat = os.stat(path)
        system = load_system(path)
        data = path.read_bytes()
        last = max(data.rfind(str(d).encode()) for d in range(10))
        digit = b"1" if data[last:last + 1] == b"0" else b"0"
        path.write_bytes(data[:last] + digit + data[last + 1:])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (
            stat.st_size, stat.st_mtime_ns
        )
        rewritten = load_system(path)
        assert rewritten is not system and len(parses) == 2
        assert rewritten.M[-1][-1, -1] != system.M[-1][-1, -1]
        assert np.array_equal(rewritten.A, system.A)

    def test_extended_document_is_parsed_again(self, tmp_path, parses):
        # the kept bytes are a prefix of the new ones
        text = scalar_document(-1.0, 1.0)
        (tmp_path / "kept.json").write_text(text)
        (tmp_path / "longer.json").write_text(text + "  \n")
        system = load_system(tmp_path / "kept.json")
        longer = load_system(tmp_path / "longer.json")
        assert longer is not system and len(parses) == 2
        assert load_system(tmp_path / "longer.json") is longer
        assert load_system(tmp_path / "kept.json") is system and len(parses) == 2

    def test_non_hurwitz_file_fails_on_every_load(self, capsys, tmp_path):
        # a norm on [0, inf) of a loaded, kept system tests its A each time
        path = tmp_path / "unstable.json"
        path.write_text(scalar_document(1.0, 1.0))
        first = self.norm(capsys, path, "inf")
        assert first[0] == 3 and json.loads(first[2])["code"] == "not_hurwitz"
        assert self.norm(capsys, path, "inf") == first
        # the horizon of the others takes it
        code, out, err = self.norm(capsys, path)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(math.expm1(1.4) / 2), rel=1e-14)
        assert not load_system(path).is_hurwitz
        assert self.norm(capsys, path, "inf") == first

    def test_failed_parse_leaves_nothing(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert self.norm(capsys, path)[0] == 3
        assert sysio._loaded == {}

    def test_failed_factorization_is_tried_again(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "system.json"
        write_json(system_document(rand_system(np.random.default_rng(113), 4, 1, 1)), path)
        gees = matfun.sla.lapack.dgees

        def fail(*args, **kwargs):
            out = gees(*args, **kwargs)
            return out if kwargs.get("lwork") == -1 else out[:-1] + (1,)

        monkeypatch.setattr(matfun.sla.lapack, "dgees", fail)
        code, _, err = self.norm(capsys, path)
        assert code == 4 and json.loads(err)["code"] == "solver"
        monkeypatch.undo()
        assert self.norm(capsys, path)[0] == 0

    def test_saved_system_is_loaded_as_itself(self, tmp_path, parses, lapack_calls):
        system = rand_system(np.random.default_rng(115), 20, 2, 2)
        iv = TimeInterval(0.0, 0.7)
        value = h2tau_norm(system, iv).value
        path = tmp_path / "system.json"
        save_system(system, path)
        lapack_calls.schur.clear()
        lapack_calls.trsyl.clear()
        assert load_system(path) is system
        assert h2tau_norm(load_system(path), iv).value == value
        assert parses == [] and lapack_calls.schur == [] and lapack_calls.trsyl == []
        # a parse of the same bytes gives the same facts
        parsed = parse_system(path.read_bytes())
        assert parsed is not system
        assert h2tau_norm(parsed, iv).value.hex() == value.hex()

    def test_saved_file_rewritten_by_one_byte_is_parsed_again(self, tmp_path, parses):
        system = rand_system(np.random.default_rng(116), 5, 1, 2)
        path = tmp_path / "system.json"
        save_system(system, path)
        assert load_system(path) is system and parses == []
        data = path.read_bytes()
        last = max(data.rfind(str(d).encode()) for d in range(10))
        digit = b"1" if data[last:last + 1] == b"0" else b"0"
        path.write_bytes(data[:last] + digit + data[last + 1:])
        rewritten = load_system(path)
        assert rewritten is not system and len(parses) == 1
        assert rewritten.M[-1][-1, -1] != system.M[-1][-1, -1]
        path.write_bytes(data)
        assert load_system(path) is system and len(parses) == 1

    def test_every_saved_system_is_kept(self, tmp_path, parses):
        base = rand_system(np.random.default_rng(117), 5, 2, 2)
        f_ordered = LqoSystem(
            np.asfortranarray(base.A), np.asfortranarray(base.B),
            np.asfortranarray(base.C), [np.asfortranarray(mi) for mi in base.M],
        )
        # stored C-ordered, the order a parse gives
        for x in (f_ordered.A, f_ordered.B, f_ordered.C, *f_ordered.M):
            assert x.flags.c_contiguous and not x.flags.writeable
        c_ordered = LqoSystem(base.A, base.B, base.C, base.M)
        paths = [tmp_path / "f.json", tmp_path / "c.json"]
        save_system(f_ordered, paths[0])
        assert load_system(paths[0]) is f_ordered and parses == []
        sysio._loaded.clear()
        save_system(c_ordered, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert load_system(paths[1]) is c_ordered and parses == []
        iv = TimeInterval(0.1, 0.7)
        assert (h2tau_norm(f_ordered, iv).value.hex()
                == h2tau_norm(c_ordered, iv).value.hex())

    def test_loaded_matrices_are_read_only(self, tmp_path):
        path = tmp_path / "system.json"
        save_system(rand_system(np.random.default_rng(111), 3, 1, 2), path)
        system = load_system(path)
        for mat in (system.A, system.schur.transposed.a, system.B, system.C, *system.M):
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_matrix_market_documents_are_not_kept(self, capsys, tmp_path, parses):
        from scipy.io import mmwrite

        rng = np.random.default_rng(112)
        sys1, sys2 = rand_system(rng, 3, 1, 1), rand_system(rng, 3, 1, 1)
        doc = doc_of(sys1)
        doc["A"] = "a.mtx"
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        values = []
        for a in (sys1.A, sys2.A):
            mmwrite(tmp_path / "a.mtx", a)
            code, out, _ = self.norm(capsys, path)
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[0] != values[1] and len(parses) == 2
        assert sysio._loaded == {}
        direct = LqoSystem(sys2.A, sys1.B, sys1.C, sys1.M)
        assert values[1] == pytest.approx(
            h2tau_norm(direct, TimeInterval(0.0, 0.7)).value, rel=1e-12
        )

    def test_least_recently_loaded_goes_first(self, tmp_path, parses):
        paths = []
        for k in range(sysio.LOADED_SYSTEMS + 1):
            paths.append(tmp_path / f"s{k}.json")
            paths[-1].write_text(scalar_document(-1.0 - k, 1.0))
        systems = [load_system(path) for path in paths[:-1]]
        assert load_system(paths[0]) is systems[0]
        load_system(paths[-1])
        assert len(sysio._loaded) == sysio.LOADED_SYSTEMS
        parses.clear()
        assert load_system(paths[0]) is systems[0]
        assert parses == []
        assert load_system(paths[1]) is not systems[1]
        assert len(parses) == 1 and len(sysio._loaded) == sysio.LOADED_SYSTEMS
