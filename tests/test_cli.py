import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ginv.algebra import AlgebraElement
from ginv import cli, suite
from ginv.cli import main
from ginv.linalg import ToleranceConfig
from ginv.serialization import serialize_element
from test_serialization import wire_texts


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
                    '{"shape":[1],"blocks":[[[[true,false]]]]}',
                    '{"shape":[1],"blocks":null}',
                    '{"shape":[1],"blocks":[[[[1' + "0" * 400 + ',0]]]]}'):
            bad.write_text(doc)
            code, out = run(["pinv", "--in", str(bad), "--no-timestamp"], capsys)
            assert code == 2, doc
            record = json.loads(out)["records"][0]
            assert record["name"] == "error" and record["value"] == "WireFormatError"

    @pytest.mark.parametrize("flag, value", [("--in", "InputError"), ("--out", "InputError")])
    def test_path_with_a_nul_is_error_record_on_stdout(self, element_file, capsys, flag, value):
        code = main(["pinv", "--in", str(element_file), "--no-timestamp", flag, "a\x00b"])
        assert code == 2
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["name"] == "error" and record["value"] == value

    def test_empty_out_path_is_input_error(self, element_file, capsys):
        code = main(["pinv", "--in", str(element_file), "--no-timestamp", "--out", ""])
        assert code == 2
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["name"] == "error" and record["value"] == "InputError"
        assert record["details"].startswith("cannot write ") and "raised at" not in record["details"]

    def test_document_not_in_utf8_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"shape":[1],"blocks":[[[[1,0]]]]}\xff')
        code, out = run(["pinv", "--in", str(bad), "--no-timestamp"], capsys)
        assert code == 2
        assert json.loads(out)["records"][0]["value"] == "InputError"

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
        assert record["name"] == "error" and record["value"] == "InputError"
        assert record["details"].startswith("cannot write ") and "raised at" not in record["details"]
        assert not out_file.exists()


class TestToleranceEcho:
    """Every report's config holds each field of ``ToleranceConfig``, at the
    value the command line gave or else at its default."""

    FLAGS = [
        pytest.param([], {}, id="defaults"),
        pytest.param(["--tol-residual", "3e-7"], {"residual_tol": 3e-7}, id="tol-residual"),
        pytest.param(["--tol-rank-factor", "2e-11"], {"rank_cutoff_factor": 2e-11},
                     id="tol-rank-factor"),
    ]

    @staticmethod
    def tolerance_items(config):
        return {f.name: config[f.name] for f in dataclasses.fields(ToleranceConfig)}

    @staticmethod
    def one_criterion(monkeypatch):
        """The battery cut to one criterion that passes: the config does not
        depend on the criteria."""
        monkeypatch.setattr(suite, "ALL_CRITERIA", (
            lambda tol, seed: suite._record("stand-in", "a criterion that passes", True, 0.0),))

    @pytest.mark.parametrize("command", [
        pytest.param(["suite"], id="suite"),
        pytest.param(["geometry", "--kind", "ginv", "--count", "1"], id="geometry"),
        pytest.param(["check-groupoid", "--samples", "2"], id="check-groupoid"),
    ])
    @pytest.mark.parametrize("flags, given", FLAGS)
    def test_command_reports(self, command, flags, given, capsys, monkeypatch):
        self.one_criterion(monkeypatch)
        code, out = run([*command, *flags, "--no-timestamp"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert self.tolerance_items(config) == dataclasses.asdict(ToleranceConfig(**given))

    @pytest.mark.parametrize("given", [{}, {"residual_tol": 3e-7}, {"rank_cutoff_factor": 2e-11}])
    def test_run_acceptance(self, given, monkeypatch):
        self.one_criterion(monkeypatch)
        tol = ToleranceConfig(**given)
        config = suite.run_acceptance(tol, 0).config
        assert self.tolerance_items(config) == dataclasses.asdict(tol)


class TestConfigEcho:
    """Every command's config echoes its own arguments as given, so that two
    reports from different arguments never share a config."""

    @pytest.mark.parametrize("command, own", [
        pytest.param(["check-groupoid", "--kind", "pair", "--samples", "2"],
                     {"kind": "pair", "shape": "2", "dim": 2, "points": None, "samples": 2},
                     id="check-groupoid"),
        pytest.param(["orbits", "--kind", "pair", "--dim", "3", "--count", "2"],
                     {"kind": "pair", "shape": "3", "dim": 3, "count": 2}, id="orbits"),
        pytest.param(["geometry", "--kind", "ginv", "--shape", "1,2", "--count", "1"],
                     {"kind": "ginv", "shape": "1,2", "dim": 2, "count": 1}, id="geometry"),
        pytest.param(["path", "--shape", "2", "--steps", "8"],
                     {"p_file": None, "q_file": None, "shape": "2", "steps": 8}, id="path"),
        pytest.param(["continuity", "--count", "1", "--horizon", "16"],
                     {"shape": "2", "count": 1, "horizon": 16}, id="continuity"),
    ])
    def test_own_arguments(self, command, own, capsys):
        code, out = run([*command, "--no-timestamp"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert {name: config[name] for name in own} == own

    @pytest.mark.parametrize("command, echoed, dropped", [
        (["check-groupoid", "--kind", "pair", "--samples", "3"], "samples", "n_samples"),
        (["orbits", "--kind", "pair", "--count", "2"], "count", "n_points"),
    ])
    def test_one_key_per_count(self, command, echoed, dropped, capsys):
        """The library's own count key is dropped for the echoed argument."""
        code, out = run([*command, "--no-timestamp"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert config[echoed] == int(command[-1]) and dropped not in config

    def test_two_shapes_give_two_configs(self, capsys):
        configs = []
        for shape in ("2", "3"):
            code, out = run(["geometry", "--kind", "ginv", "--shape", shape, "--count", "1",
                             "--no-timestamp"], capsys)
            assert code == 0
            configs.append(json.loads(out)["config"])
        assert {k for k in configs[0] if configs[0][k] != configs[1][k]} == {"shape"}

    def test_input_files_as_given(self, element_file, tmp_path, capsys):
        code, out = run(["pinv", "--in", str(element_file), "--no-timestamp"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["infile"] == str(element_file)
        p = AlgebraElement.from_blocks([np.diag([1.0, 0.0])])
        p_file, q_file = tmp_path / "p.json", tmp_path / "q.json"
        p_file.write_text(serialize_element(p))
        q_file.write_text(serialize_element(p))
        code, out = run(["path", "--p", str(p_file), "--q", str(q_file), "--no-timestamp"],
                        capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["p_file"], config["q_file"]) == (str(p_file), str(q_file))

    def test_csv_echoes_the_same_keys(self, capsys):
        code, out = run(["continuity", "--count", "1", "--horizon", "16", "--format", "csv",
                         "--no-timestamp"], capsys)
        assert code == 0
        rows = {row[1]: row[4] for row in csv.reader(io.StringIO(out)) if row[0] == "#config"}
        assert (rows["shape"], rows["count"], rows["horizon"]) == ("'2'", "1", "16")

    def test_suite_config_is_unchanged(self, capsys, monkeypatch):
        TestToleranceEcho.one_criterion(monkeypatch)
        code, out = run(["suite", "--no-timestamp"], capsys)
        assert code == 0
        tolerances = {f.name for f in dataclasses.fields(ToleranceConfig)}
        assert set(json.loads(out)["config"]) == {"command", "seed", "format", *tolerances}


class TestScaleLimits:
    """Each limit is tested by its rejection message; no oversized case runs."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["check-groupoid", "--kind", "action", "--dim", "9"], "--dim 9 is past the limit of 8"),
            (["check-groupoid", "--samples", "10001"], "--samples 10001 is past the limit of 10000"),
            (["orbits", "--count", "1001"], "--count 1001 is past the limit of 1000"),
            (["geometry", "--count", "1001"], "--count 1001 is past the limit of 1000"),
            (["path", "--steps", "1025"], "--steps 1025 is past the limit of 1024"),
            (["continuity", "--horizon", "1025"], "--horizon 1025 is past the limit of 1024"),
            (["check-groupoid", "--kind", "pair", "--points", "10001"],
             "--points 10001 is past the limit of 10000"),
        ],
    )
    def test_size_flag_past_its_limit(self, args, message, capsys, monkeypatch):
        def never(*_):
            raise AssertionError("an oversized command started")

        monkeypatch.setitem(cli._HANDLERS, args[0], never)
        code, out = run([*args, "--no-timestamp"], capsys)
        assert code == 2
        record = json.loads(out)["records"][0]
        assert record["value"] == "InputError" and record["details"] == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (["check-groupoid", "--kind", "ginv", "--shape", "9", "--samples", "1"],
             "block size 9 is past the limit of 8"),
            (["geometry", "--shape", "2,9", "--count", "1"], "block size 9 is past the limit of 8"),
            (["continuity", "--shape", ",".join(["1"] * 9), "--count", "1"],
             "9 blocks are past the limit of 8"),
        ],
    )
    def test_shape_past_its_limit(self, args, message, capsys):
        code, out = run([*args, "--no-timestamp"], capsys)
        assert code == 2
        assert json.loads(out)["records"][0]["details"] == message

    def test_element_file_past_the_block_limit(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(serialize_element(AlgebraElement.identity((9,))))
        code, out = run(["pinv", "--in", str(path), "--no-timestamp"], capsys)
        assert code == 2
        assert json.loads(out)["records"][0]["details"] == "block size 9 is past the limit of 8"

    def test_limits_admit_the_upper_end(self, capsys):
        code, _ = run(["check-groupoid", "--kind", "pair", "--dim", "8", "--samples", "2",
                       "--no-timestamp"], capsys)
        assert code == 0


class TestCountLowerLimit:
    """A count of points or families below 1 would pass with nothing checked."""

    @pytest.mark.parametrize("command", ["geometry", "continuity", "orbits"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_input_error(self, command, count, capsys, monkeypatch):
        def never(*_):
            raise AssertionError("a command with nothing to check started")

        monkeypatch.setitem(cli._HANDLERS, command, never)
        code, out = run([command, "--count", count, "--no-timestamp"], capsys)
        assert code == 2
        record = json.loads(out)["records"][0]
        assert record["value"] == "InputError"
        assert record["details"] == f"--count {count} is below the lower limit of 1"

    def test_count_of_one_runs(self, capsys):
        code, out = run(["orbits", "--kind", "pair", "--count", "1", "--no-timestamp"], capsys)
        assert code == 0 and json.loads(out)["summary"]["total"] == 2


class TestArgumentErrors:
    """A malformed command line leaves as an error record, not usage text."""

    @pytest.mark.parametrize(
        "args, details",
        [
            (["--bogus"], "ginv: the following arguments are required: command"),
            (["orbits", "--bogus"], "ginv: unrecognized arguments: --bogus"),
            (["suite", "--seed", "abc"], "ginv suite: argument --seed: invalid int value: 'abc'"),
            (["pinv"], "ginv pinv: the following arguments are required: --in"),
            (["geometry", "--kind", "spiral"],
             "ginv geometry: argument --kind: invalid choice: 'spiral' "
             "(choose from 'ginv', 'partial_isometry', 'action', 'pair')"),
        ],
    )
    def test_parser_error_is_error_record(self, args, details, capsys):
        code = main([*args, "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["suite"] == "usage-error" and "timestamp" not in doc
        record = doc["records"][0]
        assert record["name"] == "error" and record["value"] == "InputError"
        assert record["details"] == details

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: ginv" in capsys.readouterr().out


#: extra command-line tokens: the pinv flags and values, or any text without a
#: "/", so that an --out path stays in the working directory; help requests
#: leave through argparse's SystemExit(0) by design
argv_tokens = st.sampled_from(
    ["--in", "--out", "--format", "csv", "--seed", "-1", "--tol-residual", "nan", "1e-300",
     "--tol-rank-factor", "--no-timestamp", "pinv", "--"]
) | st.text(st.characters(blacklist_characters="/"), max_size=8).filter(
    lambda token: not token.startswith(("-h", "--h")))


@given(doc=wire_texts, extra=st.lists(argv_tokens, max_size=3))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pinv_on_any_document_exits_0_1_or_2(doc, extra, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert cli.main(["pinv", "--in", str(path), "--no-timestamp", *extra]) in (0, 1, 2)
    capsys.readouterr()


#: tokens for the other subcommands: their flags, good and bad values, both
#: formats, and any text without a "/", so that an --out path stays in the
#: working directory; no help request
command_tokens = st.sampled_from(
    ["--kind", "ginv", "partial_isometry", "action", "pair", "spiral", "--shape", "2,3", "9",
     "1,,2", "--dim", "--points", "--samples", "--count", "--steps", "--horizon", "--p", "--q",
     "--seed", "--tol-residual", "--tol-rank-factor", "nan", "inf", "1e-300", "0", "-1",
     "10001", "--format", "json", "csv", "xml", "--out", "--no-timestamp", "--"]
) | st.text(st.characters(blacklist_characters="/"), max_size=8).filter(
    lambda token: not token.startswith(("-h", "--h")))

#: command lines of those tokens (none in about half of them, so that most
#: lines parse), then the csv format or not, then an output file, the working
#: directory (which cannot be written as a file) or neither
command_argvs = st.tuples(
    st.just(()) | st.lists(command_tokens, max_size=4),
    st.sampled_from([(), ("--format", "csv")]),
    st.sampled_from([(), ("--out", "report.out"), ("--out", ".")]),
).map(lambda parts: [token for part in parts for token in part])

def refuse_constant(token):
    raise ValueError(f"bare {token} token")


STUBBED = ["check-groupoid", "continuity", "geometry", "orbits", "path", "suite"]


def stub(args, tol, seed):
    """A handler that checks the shape flag, as the real ones do first, and
    computes nothing."""
    if hasattr(args, "shape"):
        cli._parse_shape(args.shape)
    report = cli.ExperimentReport(suite=f"{args.command}-stub",
                                  config=cli._config_echo(args, tol, seed))
    report.add(cli.CheckRecord(name="stub", anchor="no computation", passed=True))
    return report


def record_names(text: str, fmt: str) -> list:
    """The record names of ``text``, which must be exactly one report
    document in the format ``fmt``."""
    if fmt == "json":
        doc = json.loads(text, parse_constant=refuse_constant)  # one strict JSON document
        return [record["name"] for record in doc["records"]]
    rows = list(csv.reader(io.StringIO(text)))
    header = ["suite", "check", "anchor", "verdict", "value"]
    assert rows and rows[0] == header
    assert all(len(row) == 5 and row != header for row in rows[1:])  # one header, one table
    return [row[1] for row in rows[1:] if not row[0].startswith("#")]


@pytest.mark.parametrize("command", STUBBED)
@given(extra=command_argvs)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_other_commands_on_any_argv_exit_0_1_or_2(command, extra, monkeypatch, capsys, tmp_path):
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # the examples share tmp_path
    monkeypatch.chdir(work)
    monkeypatch.delenv("GINV_SEED", raising=False)
    for name in STUBBED:
        monkeypatch.setitem(cli._HANDLERS, name, stub)
    code = cli.main([command, *extra])
    captured = capsys.readouterr()
    assert code in (0, 1, 2) and captured.err == ""
    try:
        args = cli._build_parser().parse_args([command, *extra])
        fmt, out = args.format, args.out
    except cli.InputError:  # a malformed command line leaves as JSON on stdout
        fmt, out = "json", None
    written = os.listdir(work)
    if out is not None and written:  # the report went to the chosen file, and only there
        assert written == [str(out)] and captured.out == ""
        text = (work / out).read_text()
    else:  # to stdout: asked for, or the file could not be written
        assert written == [] and (out is None or code == 2)
        text = captured.out
    assert record_names(text, fmt) == ["error" if code == 2 else "stub"]


_LAUNCH = """
import json, os, sys
import ginv_launcher

numpy_before_main = "numpy" in sys.modules
sys.argv = ["ginv", "orbits", "--kind", "pair", "--count", "2", "--no-timestamp"]
code = ginv_launcher.main()
print(json.dumps([code, numpy_before_main, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


class TestLauncher:
    """The console script pins OpenBLAS to one thread before numpy loads,
    unless the user chose a thread count."""

    @pytest.mark.parametrize("user_value, seen", [(None, "1"), ("2", "2"), ("", "")])
    def test_blas_threads(self, user_value, seen):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        proc = subprocess.run([sys.executable, "-c", _LAUNCH], capture_output=True, text=True,
                              env=env)
        assert proc.stderr == "", proc.stderr
        code, numpy_before_main, value = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and not numpy_before_main
        assert value == seen

    def test_console_script_is_the_launcher(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert config["project"]["scripts"]["ginv"] == "ginv_launcher:main"
        assert "ginv_launcher" in config["tool"]["setuptools"]["py-modules"]
