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

import numpy as np
import pytest

from ginv import sampling
from ginv.linalg import DEFAULT_TOL
from ginv.serialization import serialize_element
from ginv.suite import ALL_CRITERIA

SEED = 0
SRC = Path(__file__).resolve().parents[1] / "src"
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo):
    """Each narrative script in ``demos/`` exits 0 and writes nothing to stderr."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


_COLD_PATH = """
import json, os, sys
import ginv, ginv.cli

def loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

after_import = loaded()
rc = [ginv.cli.main(["pinv", "--in", sys.argv[1], "--no-timestamp"])]
after_pinv = loaded()
for kind in ("ginv", "partial_isometry", "action", "pair"):
    out = os.path.join(sys.argv[2], kind + ".json")
    rc.append(ginv.cli.main(["check-groupoid", "--kind", kind, "--no-timestamp", "--out", out]))
after_check = loaded()
import ginv.suite
suite = [m for m in ("scipy.linalg", "scipy.interpolate", "scipy.integrate") if m in sys.modules]
print(json.dumps([rc, after_import, after_pinv, after_check, suite]))
"""


def test_cold_path_loads_no_scipy(tmp_path):
    """Importing ``ginv`` and running ``pinv`` and ``check-groupoid`` (every
    kind; their arrows take numpy's matrix exponential) load no scipy module,
    and importing ``ginv.suite`` loads the two the battery calls, so the
    battery pays for them at set-up rather than in a criterion."""
    doc = tmp_path / "a.json"
    rng = np.random.default_rng(0)
    doc.write_text(serialize_element(sampling.well_conditioned_element(rng, (2, 3), ranks=(1, 2))))
    proc = subprocess.run([sys.executable, "-c", _COLD_PATH, str(doc), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.stderr == "", proc.stderr
    rc, after_import, after_pinv, after_check, after_suite = json.loads(
        proc.stdout.splitlines()[-1])
    assert rc == [0, 0, 0, 0, 0]
    assert after_import == [] and after_pinv == [] and after_check == []
    assert after_suite == ["scipy.linalg", "scipy.interpolate"]
