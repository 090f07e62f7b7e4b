"""Self-tests of the benchmark: negative controls and consistency checks.

    python3 perfbench/selftest.py

Checks that a raising criterion, an off-by-one geometry answer and each kind
of bad CLI output are counted as failed operations, that the known defects
still fail, that reference seconds follow the probe speed, that the tracer's
self time, drift detection and bindings behave, and that BENCHMARK.json
names the metrics the code prints.  Exits 0 when every check holds; takes a
few seconds.
"""

from __future__ import annotations

import json
import sys
import traceback

import harness

sys.path.insert(0, str(harness.SRC))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_raising_criterion_is_counted_and_the_battery_goes_on():
    from ginv.reports import CheckRecord

    def check_closure(tol, seed):
        raise RuntimeError("injected")

    def check_axioms(tol, seed):
        return CheckRecord(name="04 stand-in", anchor="always holds", passed=True, value=0)

    rnd = workloads.Battery(0, criteria=(check_closure, check_axioms)).run_round()
    assert [(op.label, op.ok) for op in rnd.ops] == [("03_closure", False), ("04_axioms", True)]
    assert "RuntimeError: injected" in rnd.ops[0].detail
    summary = json.loads(rnd.fingerprint)["summary"]
    assert (summary["total"], summary["failed"]) == (2, 1), summary


def test_timed_battery_leaves_out_closure_but_keeps_the_criterion_seeds():
    assert [k for k, _ in workloads.Battery(0).criteria] == [1, 2] + list(range(4, 14))


def test_known_defects_are_reproduced_as_failures():
    closure = workloads.known_defects("battery", 1)  # criterion 03 raises at battery seed 1
    assert [(op.label, op.ok) for op in closure] == [("03_closure", False)], closure
    assert "InputError" in closure[0].detail
    points = workloads.known_defects("geometry", 0)
    assert len(points) == 9 and sum(op.wrong_dims > 0 for op in points) >= 5, points
    assert workloads.known_defects("cli", 0) == []


def test_reference_seconds_follow_the_probe_speed():
    s = speed.Sampler()
    ref = speed.REF_PROBE_S
    s.samples = [(0.1 * i, 2 * ref) for i in range(10)]  # the machine runs at half speed
    assert abs(s.scaled(0.0, 1.0) - 0.5 * (1.0 - 20 * ref)) < 1e-12
    assert abs(s.scaled(0.31, 0.32) - 0.005) < 1e-12  # no probe inside: the nearest ones
    assert abs(s.speed() - 0.5) < 1e-12


def test_off_by_one_geometry_answer_is_counted():
    wl = workloads.Geometry(0)
    target = wl.points[5]

    def off_by_one(p, tol):
        dims = workloads.expected_dims(p)
        if p is target:
            dims["anchor"] += 1
        return dims

    wl.analyse = off_by_one
    rnd = wl.run_round()
    failed = [op for op in rnd.ops if not op.ok]
    assert len(failed) == 1 and failed[0].label.startswith(target.kind), failed
    assert failed[0].wrong_dims == 2, failed[0]  # anchor, and fiber = anchor + isotropy


def test_closed_forms_match_the_library_at_a_benign_point():
    from ginv.linalg import DEFAULT_TOL

    p = workloads.Geometry(0).points[1]  # ginv, M2, rank 1
    assert workloads.wrong_dims(p, workloads.analyse_point(p, DEFAULT_TOL)) == []


def _report(failed=0, records=(), config=None):
    return json.dumps({"summary": {"failed": failed}, "records": list(records),
                       "config": config or {}}).encode()


def test_cli_output_checks():
    check = workloads.check_cli
    assert check("orbits", 0, _report()) == ""
    assert check("orbits", 2, _report()) == "exit code 2"
    assert check("orbits", None, b"") == "exit code None"
    assert check("orbits", 1, b"Traceback (most recent call last):") == "output is not a JSON report"
    assert "disagrees" in check("orbits", 0, _report(failed=1))
    assert "disagrees" in check("orbits", 1, _report())
    bad = _report(failed=1, records=[{"name": "zz class count", "passed": False}])
    assert check("orbits", 1, bad).startswith("1 checks failed")


def test_pinv_residual_check():
    import numpy as np
    from ginv import sampling
    from ginv.geninv import moore_penrose
    from ginv.serialization import element_to_dict, serialize_element

    a = sampling.well_conditioned_element(np.random.default_rng(0), (3,), ranks=(2,))
    config = {"residual_tol": 1e-8}

    def report(b):
        return _report(records=[{"name": "zz pseudo-inverse", "payload": element_to_dict(b)}],
                       config=config)

    doc = serialize_element(a)
    assert workloads.check_cli("pinv", 0, report(moore_penrose(a)), doc) == ""
    assert "Penrose residual" in workloads.check_cli("pinv", 0, report(a.adjoint()), doc)
    assert workloads.check_cli("pinv", 0, _report(), doc) == "no pseudo-inverse in the report"


def test_self_time_and_count_drift():
    spans = [
        ["geometry.fiber_and_anchor", 0.0, 10.0, -1, None],
        ["linalg.fd_jacobian", 1.0, 4.0, 0, None],
        ["linalg.fd_jacobian", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans) == {"geometry": 6.0, "linalg": 4.0}
    assert tracing.count_drifts({"algebra.elements": 5, "linalg.fd_jacobian_s": 1.0},
                                {"algebra.elements": 6, "linalg.fd_jacobian_s": 2.0}) == [
        "algebra.elements"]


def test_tracer_counts_spans_and_restores_bindings():
    from ginv import geometry, suite
    from ginv.algebra import AlgebraElement
    from ginv.linalg import DEFAULT_TOL

    before = (suite.orbit_path, geometry.finite_diff_jacobian, AlgebraElement.__matmul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        one = AlgebraElement.identity((2,))
        (one @ one).norm()
        geometry.isotropy_tangent_dim(geometry.GInvGroupoid((2,), DEFAULT_TOL), one, DEFAULT_TOL)
        spans, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["algebra.matmul_calls"] >= 1 and counts["algebra.norm_calls"] >= 1
    assert counts["linalg.fd_jacobian_calls"] == 1 and counts["linalg.fd_evals"] == 2 * 16
    names = [s[0] for s in spans]
    assert names[0] == "geometry.isotropy" and "linalg.fd_jacobian" in names, names
    after = (suite.orbit_path, geometry.finite_diff_jacobian, AlgebraElement.__matmul__)
    assert all(x is y for x, y in zip(before, after))


def test_benchmark_json_matches_the_code():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracing.UNITS[name]) for name in tracing.JSON_METRICS]


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
