import json

import numpy as np
import pytest

from ginv.algebra import AlgebraElement
from ginv import cli
from ginv.cli import main
from ginv.serialization import serialize_element


@pytest.fixture
def element_file(tmp_path):
    e12 = AlgebraElement.from_blocks([np.array([[0, 1], [0, 0]], dtype=complex)])
    path = tmp_path / "e12.json"
    path.write_text(serialize_element(e12))
    return path


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


class TestPinv:
    def test_reports_residuals_and_payload(self, element_file, capsys):
        code, out = run(["pinv", "--in", str(element_file), "--no-timestamp"], capsys)
        assert code == 0
        doc = json.loads(out)
        payload = [r for r in doc["records"] if "payload" in r][0]["payload"]
        assert payload["blocks"][0][1][0] == [1.0, 0.0]  # the adjoint shift
        residuals = [r["value"] for r in doc["records"] if r["name"].startswith("residual")]
        assert all(v <= 1e-8 for v in residuals)

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, out = run(["pinv", "--in", str(tmp_path / "nope.json"), "--no-timestamp"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["records"][0]["passed"] is False

    def test_malformed_document_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for doc in ('{"shape":[2],"blocks":[[[[1,0]]]]}',
                    '{"shape":[true],"blocks":[[[[1,0]]]]}',
                    '{"shape":[1],"blocks":[[[[true,false]]]]}'):
            bad.write_text(doc)
            code, out = run(["pinv", "--in", str(bad), "--no-timestamp"], capsys)
            assert code == 2, doc
            record = json.loads(out)["records"][0]
            assert record["name"] == "error" and record["value"] == "WireFormatError"

    def test_unexpected_exception_is_error_record(self, element_file, capsys, monkeypatch):
        def singular(args, tol, seed):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._HANDLERS, "pinv", singular)
        code = main(["pinv", "--in", str(element_file), "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        record = json.loads(captured.out)["records"][0]
        assert record["name"] == "error" and record["value"] == "LinAlgError"
        assert record["details"].startswith("SVD did not converge")


class TestCheckGroupoid:
    def test_nonfinite_tolerance_is_input_error(self, capsys):
        code, out = run(
            ["check-groupoid", "--kind", "ginv", "--samples", "2", "--tol-residual", "inf",
             "--no-timestamp"],
            capsys,
        )
        assert code == 2

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        record = json.loads(out, parse_constant=reject)["records"][0]
        assert record["name"] == "error" and record["value"] == "InputError"

    def test_pair_kind_passes(self, capsys):
        code, out = run(
            ["check-groupoid", "--kind", "pair", "--points", "5", "--seed", "1",
             "--no-timestamp"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0

    def test_ginv_kind(self, capsys):
        code, _ = run(
            ["check-groupoid", "--kind", "ginv", "--shape", "2", "--samples", "20",
             "--no-timestamp"],
            capsys,
        )
        assert code == 0

    def test_csv_format(self, capsys):
        code, out = run(
            ["check-groupoid", "--kind", "pair", "--samples", "5", "--format", "csv",
             "--no-timestamp"],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "suite,check,anchor,verdict,value"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ["check-groupoid", "--kind", "ginv", "--samples", "10", "--seed", "4",
                "--no-timestamp"]
        _, first = run(args, capsys)
        _, second = run(args, capsys)
        assert first == second

    def test_timestamp_breaks_none_when_suppressed(self, capsys):
        _, out = run(["orbits", "--kind", "pair", "--count", "3", "--no-timestamp"], capsys)
        assert "timestamp" not in json.loads(out)

    def test_timestamp_present_by_default(self, capsys):
        _, out = run(["orbits", "--kind", "pair", "--count", "3"], capsys)
        assert "timestamp" in json.loads(out)

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GINV_SEED", "77")
        _, out = run(["orbits", "--kind", "pair", "--count", "3", "--no-timestamp"], capsys)
        assert json.loads(out)["config"]["seed"] == 77
        # an explicit flag wins over the environment
        _, out = run(
            ["orbits", "--kind", "pair", "--count", "3", "--seed", "5", "--no-timestamp"],
            capsys,
        )
        assert json.loads(out)["config"]["seed"] == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GINV_SEED", "not-a-number")
        code, _ = run(["orbits", "--kind", "pair", "--count", "3", "--no-timestamp"], capsys)
        assert code == 2


class TestOtherCommands:
    def test_orbits(self, capsys):
        code, out = run(
            ["orbits", "--kind", "partial_isometry", "--shape", "2", "--count", "12",
             "--seed", "3", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert any(r["name"].startswith("class") for r in doc["records"])

    def test_geometry(self, capsys):
        code, out = run(
            ["geometry", "--kind", "partial_isometry", "--shape", "2", "--count", "2",
             "--no-timestamp"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0

    def test_path(self, capsys):
        code, out = run(
            ["path", "--shape", "2", "--seed", "2", "--steps", "8", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        names = {r["name"] for r in doc["records"]}
        assert {"endpoint", "lift residual", "reparametrized residual"} <= names

    def test_continuity(self, capsys):
        code, out = run(
            ["continuity", "--shape", "2", "--count", "2", "--no-timestamp"], capsys
        )
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_write_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, printed = run(
            ["orbits", "--kind", "pair", "--count", "3", "--no-timestamp",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0 and printed == ""
        assert json.loads(out_file.read_text())["suite"] == "orbit-decompose-pair"

    def test_unwritable_out_is_error_record_on_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "x.json"
        code = main(["orbits", "--seed", "0", "--no-timestamp", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        record = json.loads(captured.out)["records"][0]
        assert record["name"] == "error" and record["value"] == "FileNotFoundError"
        assert not out_file.exists()
