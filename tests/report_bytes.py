"""Write the bytes of a fixed list of reports, or check them against a directory.

    python tests/report_bytes.py OUTDIR
    python tests/report_bytes.py --check DIR

runs each command below from the checkout this script lives in, with
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPATH`` at its ``src``.  The first
form writes the command's stdout, followed by a line with its exit code,
to ``OUTDIR/<name>.out``.  To check that a change leaves every report as it
was, run it in both checkouts (copy it into one that predates it) and
compare the two directories with ``diff -r``.  The CLI commands pass
``--no-timestamp``, so equal sources give equal bytes.

The second form runs only the commands whose outputs ``DIR`` holds,
compares each with its file, names those that differ and exits 1 if any
does.  ``tests/golden`` holds the :func:`golden_names` outputs, with the
:func:`environment` that made them in ``manifest.json``; Tier-1 makes the
same reports in process (``tests/test_golden_reports.py``).  A change that
moves a report on purpose writes the outputs into a new directory, copies
the golden names over ``tests/golden``, and says in its change notes why
they moved.  Bytes depend on numpy and its LAPACK, so on another
environment than the manifest's a difference is expected.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("ginv", "partial_isometry", "action", "pair")
DEMOS = ("anchor_and_isotropy", "groupoid_laws", "projection_paths", "pseudoinverse_two_routes")


def cli_commands() -> dict:
    """Per output name of a CLI command, its arguments after ``ginv.cli``."""
    runs = {f"suite-seed-{s}": ["suite", "--seed", str(s)] for s in range(21)}
    for kind in KINDS:
        for seed in (0, 1):
            for name, *extra in (("check-groupoid", "--samples", "300"), ("orbits",),
                                 ("geometry", "--count", "4")):
                runs[f"{name}-{kind}-seed-{seed}"] = [name, "--kind", kind,
                                                      "--seed", str(seed), *extra]
    runs["check-groupoid-ginv-shape-2,3"] = ["check-groupoid", "--kind", "ginv",
                                             "--shape", "2,3"]
    for seed in (0, 3):
        runs[f"path-seed-{seed}"] = ["path", "--seed", str(seed)]
    runs["continuity-seed-3"] = ["continuity", "--seed", "3", "--shape", "2", "--count", "40"]
    for args in runs.values():
        args.append("--no-timestamp")
    return runs


def golden_names() -> list:
    """The outputs ``tests/golden`` holds: every CLI command but the suite,
    and the suite at seed 0."""
    return [name for name in cli_commands()
            if not name.startswith("suite-seed-") or name == "suite-seed-0"]


def commands() -> dict:
    """Per output name, the arguments after ``python``."""
    runs = {name: [sys.executable, "-m", "ginv.cli", *args]
            for name, args in cli_commands().items()}
    for demo in DEMOS:
        runs[f"demo-{demo}"] = [sys.executable, str(ROOT / "demos" / f"{demo}.py")]
    return runs


def environment() -> dict:
    """What report bytes depend on besides the sources: the Python, numpy
    and BLAS/LAPACK builds."""
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__,
            **{lib: f"{deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")}}


def output(args) -> bytes:
    """The stdout of one command, followed by a line with its exit code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    return run.stdout + f"\nexit {run.returncode}\n".encode()


def check(directory: Path) -> int:
    runs = commands()
    names = sorted(p.stem for p in directory.glob("*.out"))
    unknown = [name for name in names if name not in runs]
    if not names or unknown:
        print(f"{directory} holds no outputs, or unknown ones: {unknown}", file=sys.stderr)
        return 2
    differ = [name for name in names if output(runs[name]) != (directory / f"{name}.out").read_bytes()]
    for name in differ:
        print(f"differs: {name}")
    manifest = directory / "manifest.json"
    if differ and manifest.exists():
        print(f"made with {json.loads(manifest.read_text())}, checked with {environment()}")
    print(f"{len(names) - len(differ)} of {len(names)} outputs equal")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--check":
        return check(Path(argv[1]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, args in commands().items():
        (out / f"{name}.out").write_bytes(output(args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
