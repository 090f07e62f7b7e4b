"""Measures the known baseline failures that the workloads must count.

    python3 perfbench/facts.py

1. Criterion 03 (closure) at battery seeds 0-11: passes, fails or raises.
2. ``verify_axioms`` on 8x8 ``ginv`` with one sample, seeds 0-39: how many
   raise instead of reporting a violation.
3. The conditioned slice of ``known_defects`` (ginv idempotents in M3, nine
   per seed) at condition numbers 1e3 and 1e4, seeds 0-3: how many points
   get a wrong dimension answer.

Takes about half a minute; prints one line per fact.
"""

from __future__ import annotations

import os
import sys

import harness

sys.path.insert(0, str(harness.SRC))
harness.pin_blas(os.environ)  # before numpy loads

import workloads  # noqa: E402
from ginv import suite  # noqa: E402
from ginv.groupoid import GInvGroupoid, verify_axioms  # noqa: E402
from ginv.linalg import DEFAULT_TOL  # noqa: E402


def closure_by_seed() -> dict:
    out = {}
    for seed in range(12):
        try:
            out[seed] = "pass" if suite.check_closure(DEFAULT_TOL, seed * 1000 + 3).passed else "fail"
        except Exception as exc:  # the fact being measured is which seeds raise
            out[seed] = f"raises {type(exc).__name__}"
    return out


def axioms_8x8_raises() -> list:
    raised = []
    for seed in range(40):
        try:
            verify_axioms(GInvGroupoid((8,), DEFAULT_TOL), seed=seed, n_samples=1)
        except Exception:  # a law violation that escapes as an exception
            raised.append(seed)
    return raised


def conditioned_wrong(cond: float):
    points = [p for seed in range(4) for p in workloads.conditioned_points(seed, cond)]
    wrong = sum(bool(workloads.wrong_dims(p, workloads.analyse_point(p, DEFAULT_TOL)))
                for p in points)
    return wrong, len(points)


def main() -> int:
    closure = closure_by_seed()
    failing = {s: v for s, v in closure.items() if v != "pass"}
    print(f"closure (criterion 03), battery seeds 0-11: not passing at {failing}")
    raised = axioms_8x8_raises()
    print(f"verify_axioms on 8x8 ginv, 1 sample: raises at {len(raised)} of 40 seeds {raised}")
    for cond in (1e3, 1e4):
        wrong, total = conditioned_wrong(cond)
        print(f"conditioned slice at {cond:.0e}: {wrong} of {total} points get a wrong dimension")
    return 0


if __name__ == "__main__":
    sys.exit(main())
