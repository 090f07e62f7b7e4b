"""Write the bytes of a fixed list of reports, to compare two checkouts.

    python tests/report_bytes.py OUTDIR

runs each command below from the checkout this script lives in, with
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPATH`` at its ``src``, and writes
the command's stdout, followed by a line with its exit code, to
``OUTDIR/<name>.out``.  To check that a change leaves every report as it
was, run the script in both checkouts (copy it into one that predates it)
and compare the two directories with ``diff -r``.  The CLI commands pass
``--no-timestamp``, so equal sources give equal bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("ginv", "partial_isometry", "action", "pair")
DEMOS = ("anchor_and_isotropy", "groupoid_laws", "projection_paths", "pseudoinverse_two_routes")


def commands() -> dict:
    """Per output name, the arguments after ``python``."""
    cli = [sys.executable, "-m", "ginv.cli"]
    runs = {f"suite-seed-{s}": [*cli, "suite", "--seed", str(s)] for s in range(21)}
    for kind in KINDS:
        for seed in (0, 1):
            for name, *extra in (("check-groupoid", "--samples", "300"), ("orbits",),
                                 ("geometry", "--count", "4")):
                runs[f"{name}-{kind}-seed-{seed}"] = [*cli, name, "--kind", kind,
                                                      "--seed", str(seed), *extra]
    runs["check-groupoid-ginv-shape-2,3"] = [*cli, "check-groupoid", "--kind", "ginv",
                                             "--shape", "2,3"]
    for seed in (0, 3):
        runs[f"path-seed-{seed}"] = [*cli, "path", "--seed", str(seed)]
    runs["continuity-seed-3"] = [*cli, "continuity", "--seed", "3", "--shape", "2",
                                 "--count", "40"]
    for name, args in runs.items():
        args.append("--no-timestamp")
    for demo in DEMOS:
        runs[f"demo-{demo}"] = [sys.executable, str(ROOT / "demos" / f"{demo}.py")]
    return runs


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    for name, args in commands().items():
        run = subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        (out / f"{name}.out").write_bytes(run.stdout + f"\nexit {run.returncode}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
