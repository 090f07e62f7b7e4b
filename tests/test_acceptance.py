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

def run(*argv):
    out = os.path.join(sys.argv[2], argv[0] + ".json")
    rc.append(ginv.cli.main([*argv, "--no-timestamp", "--out", out]))

rc = []
after = {"import": loaded()}
rc.append(ginv.cli.main(["pinv", "--in", sys.argv[1], "--no-timestamp"]))
after["pinv"] = loaded()
for kind in ("ginv", "partial_isometry", "action", "pair"):
    run("check-groupoid", "--kind", kind)
after["check-groupoid"] = loaded()
import ginv.suite
after["import ginv.suite"] = loaded()
run("path", "--seed", "0")
after["path"] = loaded()
run("suite", "--seed", "0")
after["suite"] = loaded()
print(json.dumps([rc, after]))
"""


def test_cold_path_loads_no_scipy(tmp_path):
    """Importing ``ginv`` and ``ginv.suite`` and running ``pinv``,
    ``check-groupoid`` (every kind; their arrows take numpy's matrix
    exponential), ``path`` and ``suite`` (paths take numpy splines and the
    Cayley logarithm) load no scipy module."""
    doc = tmp_path / "a.json"
    rng = np.random.default_rng(0)
    doc.write_text(serialize_element(sampling.well_conditioned_element(rng, (2, 3), ranks=(1, 2))))
    proc = subprocess.run([sys.executable, "-c", _COLD_PATH, str(doc), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.stderr == "", proc.stderr
    rc, after = json.loads(proc.stdout.splitlines()[-1])
    assert rc == [0] * 7
    assert after == {step: [] for step in (
        "import", "pinv", "check-groupoid", "import ginv.suite", "path", "suite")}


_NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused in this process")
        return None

sys.meta_path.insert(0, RefuseScipy())
import ginv.cli
sys.exit(ginv.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["suite", "path"])
def test_runs_where_scipy_cannot_be_imported(command):
    """With every scipy import refused, ``ginv suite`` and ``ginv path`` at
    seed 0 exit 0 with reports that pass: the runtime needs numpy alone."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, command, "--seed", "0", "--no-timestamp"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr or proc.stdout
    report = json.loads(proc.stdout)
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == report["summary"]["total"] > 0
