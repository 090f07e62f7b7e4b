"""The benchmark's workloads (``perfbench/workloads.py``) run on this library.

The workloads call library names and read library fields directly; if the
library drops or renames one, every benchmark round fails.  These tests run
one round of the ``battery``, ``geometry`` and ``cli`` workloads in process
and check that every operation succeeds.
"""

from pathlib import Path

import pytest

from ginv import suite


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``workloads`` module."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def test_battery_round_runs(workloads):
    # the round's report config reads the tolerance fields by name
    rnd = workloads.Battery(0, criteria=[suite.check_report_determinism]).run_round()
    assert len(rnd.ops) == 1
    assert all(op.ok for op in rnd.ops), [op.detail for op in rnd.ops]


def test_geometry_round_gets_every_dimension_right(workloads):
    rnd = workloads.Geometry(0).run_round()
    assert len(rnd.ops) == 60
    assert all(op.ok for op in rnd.ops), [op.detail for op in rnd.ops if not op.ok]
    assert sum(op.wrong_dims for op in rnd.ops) == 0


def test_cli_round_passes_its_output_checks(workloads, monkeypatch, tmp_path):
    # each invocation's exit code agrees with its failed count, and each
    # reported pseudo-inverse passes the four Penrose equations
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    rnd = workloads.Cli(0, in_process=True).run_round()
    assert [op.label for op in rnd.ops] == ["pinv"] * 4 + [
        "check-groupoid", "path", "geometry", "continuity", "orbits"]
    assert all(op.ok for op in rnd.ops), [op.detail for op in rnd.ops if not op.ok]
