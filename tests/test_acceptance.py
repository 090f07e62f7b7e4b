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
import ginv

def record(step):
    after[step] = {
        "ginv": sorted(m for m in sys.modules if m.startswith("ginv")),
        "scipy": [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")],
    }

def run(*argv):
    out = os.path.join(sys.argv[2], argv[0] + ".json")
    rc.append(ginv.cli.main([*argv, "--no-timestamp", "--out", out]))

def alone(step, *runs):
    # run, record, then unload the ginv modules the runs loaded, so that the
    # next step starts where this one did
    before = set(sys.modules)
    for argv in runs:
        run(*argv)
    record(step)
    for name in set(sys.modules) - before:
        if name.startswith("ginv."):
            del sys.modules[name]
            delattr(ginv, name.removeprefix("ginv."))

rc, after = [], {}
record("import ginv")
import ginv.cli
record("import ginv.cli")
rc.append(ginv.cli.main(["pinv", "--in", sys.argv[1], "--no-timestamp"]))
record("pinv")
alone("path", ["path", "--seed", "0"])
alone("continuity", ["continuity", "--count", "1"])
run("check-groupoid", "--kind", "ginv")
for kind in ("partial_isometry", "action", "pair"):
    run("check-groupoid", "--kind", kind)
record("check-groupoid")
alone("orbits", ["orbits", "--count", "2"])
alone("geometry", ["geometry", "--count", "1"])
import ginv.suite
record("import ginv.suite")
run("suite", "--seed", "0")
record("suite")
print(json.dumps([rc, after]))
"""

#: The ``ginv`` modules loaded after each step of the child: every command
#: runs with those of ``pinv`` already loaded.
_LOADED = {"import ginv": {"ginv"}, "import ginv.cli": {"ginv", "cli", "errors", "linalg", "reports"}}
_LOADED["pinv"] = _LOADED["import ginv.cli"] | {"algebra", "geninv", "serialization"}
_LOADED["path"] = _LOADED["pinv"] | {"paths", "sampling"}
_LOADED["continuity"] = _LOADED["pinv"] | {"continuity", "sampling"}
_LOADED["check-groupoid"] = _LOADED["pinv"] | {"groupoid", "sampling"}
_LOADED["orbits"] = _LOADED["geometry"] = _LOADED["check-groupoid"] | {"geometry"}
_LOADED["import ginv.suite"] = _LOADED["suite"] = (
    _LOADED["geometry"] | {"continuity", "paths", "suite"})


@pytest.fixture(scope="module")
def cold_path(tmp_path_factory):
    """Return codes and, after each step, the ``ginv`` and scipy modules
    loaded, from one child that imports ``ginv`` and runs every command."""
    tmp_path = tmp_path_factory.mktemp("cold")
    doc = tmp_path / "a.json"
    rng = np.random.default_rng(0)
    doc.write_text(serialize_element(sampling.well_conditioned_element(rng, (2, 3), ranks=(1, 2))))
    proc = subprocess.run([sys.executable, "-c", _COLD_PATH, str(doc), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.stderr == "", proc.stderr
    rc, after = json.loads(proc.stdout.splitlines()[-1])
    assert rc == [0] * 10
    return after


def test_cold_path_loads_no_scipy(cold_path):
    """Importing ``ginv`` and ``ginv.suite`` and running each command,
    ``check-groupoid`` for every kind (their arrows take numpy's matrix
    exponential), ``path`` and ``suite`` (paths take numpy splines and the
    Cayley logarithm) among them, load no scipy module."""
    assert {step: loaded["scipy"] for step, loaded in cold_path.items()} == {
        step: [] for step in _LOADED}


def test_each_command_loads_only_the_modules_it_runs(cold_path):
    """``import ginv`` loads no submodule; ``pinv`` loads no groupoid,
    geometry, paths, continuity or sampling, and ``path`` no suite."""
    assert {step: loaded["ginv"] for step, loaded in cold_path.items()} == {
        step: sorted("ginv" if m == "ginv" else f"ginv.{m}" for m in modules)
        for step, modules in _LOADED.items()}


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
