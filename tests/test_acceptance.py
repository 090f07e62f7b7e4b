"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``PASS``/``FAIL`` line; run with ``pytest -s`` (or
``-v``) to see them.  The battery itself lives in ``ginv.suite`` so the CLI
``suite`` subcommand and this module can never disagree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ginv.linalg import DEFAULT_TOL
from ginv.suite import ALL_CRITERIA

SEED = 0
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(criterion, k):
    record = criterion(DEFAULT_TOL, SEED * 1000 + k)
    print(("PASS " if record.passed else "FAIL ") + record.name)
    return record


@pytest.mark.parametrize(
    "k,criterion",
    list(enumerate(ALL_CRITERIA, start=1)),
    ids=[c.__name__.removeprefix("check_") for c in ALL_CRITERIA],
)
def test_criterion(k, criterion):
    record = _run(criterion, k)
    assert record.passed, f"{record.name}: {record.details} (value {record.value})"


def child_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on
    ``PYTHONPATH`` and OpenBLAS at one thread unless the caller chose."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def test_cli_suite_determinism(tmp_path):
    """Two CLI runs of the full battery: exit code 0, byte-identical reports."""
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ginv.cli", "suite", "--seed", "0",
             "--no-timestamp", "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
        outs.append(out.read_bytes())
    print("PASS 13 report determinism (CLI, two processes)")
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["summary"]["total"] == len(ALL_CRITERIA)
