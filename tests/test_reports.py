import json

from ginv.reports import CheckRecord, ExperimentReport


def refuse(token):
    raise ValueError(f"bare {token} token")


def test_non_finite_floats_are_named_strings_at_any_depth():
    report = ExperimentReport(suite="s", config={"tol": float("inf")})
    report.add(CheckRecord(name="a", anchor="x", passed=False, value=float("nan"),
                           payload={"trace": [1.5, float("-inf"), (float("inf"),)]}))
    doc = json.loads(report.to_json_bytes(), parse_constant=refuse)
    record = doc["records"][0]
    assert record["value"] == "NaN" and doc["config"]["tol"] == "Infinity"
    assert record["payload"]["trace"] == [1.5, "-Infinity", ["Infinity"]]


def test_finite_reports_keep_their_bytes():
    report = ExperimentReport(suite="s", config={"seed": 3, "tol": 1e-8})
    report.add(CheckRecord(name="a", anchor="x", passed=True, value=0.1 + 0.2, details="d"))
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2, separators=(",", ": "))
    assert report.to_json_bytes() == (expected + "\n").encode()
