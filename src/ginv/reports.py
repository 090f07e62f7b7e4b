"""Structured experiment reports with canonical, byte-stable serialization."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field


def _strict(value):
    """``value`` with every non-finite float, at any depth, as the string
    that names it, so the JSON holds no bare ``NaN`` or ``Infinity`` token."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


@dataclass
class CheckRecord:
    """One verified statement: a named check, the law it certifies, a verdict.

    ``anchor`` names the algebraic identity or property the check pins down
    (for example ``"a*b*a = a"`` or ``"anchor rank = dim T(base)"``), so a
    report is readable without the surrounding code.
    """

    name: str
    anchor: str
    passed: bool
    value: float | int | str | None = None
    details: str = ""
    payload: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "anchor": self.anchor,
            "passed": bool(self.passed),
            "value": self.value,
            "details": self.details,
        }
        if self.payload is not None:
            d["payload"] = self.payload
        return d


@dataclass
class ExperimentReport:
    """A suite of check records plus the configuration that produced them."""

    suite: str
    records: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    timestamp: str | None = None

    def add(self, record: CheckRecord):
        self.records.append(record)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def max_residual(self) -> float:
        vals = [r.value for r in self.records if isinstance(r.value, float)]
        return max(vals) if vals else 0.0

    def stamp(self):
        from datetime import datetime, timezone

        self.timestamp = datetime.now(timezone.utc).isoformat()

    def sorted_records(self) -> list:
        return sorted(self.records, key=lambda r: (self.suite, r.name))

    def to_dict(self) -> dict:
        d = {
            "suite": self.suite,
            "config": self.config,
            "summary": {
                "total": len(self.records),
                "passed": self.n_passed,
                "failed": self.n_failed,
            },
            "records": [r.to_dict() for r in self.sorted_records()],
        }
        if self.timestamp is not None:
            d["timestamp"] = self.timestamp
        return d

    def to_json_bytes(self) -> bytes:
        """Canonical strict JSON: sorted keys, fixed separators, trailing
        newline, and each non-finite float written as the string ``"NaN"``,
        ``"Infinity"`` or ``"-Infinity"``."""
        return (
            json.dumps(_strict(self.to_dict()), sort_keys=True, indent=2,
                       separators=(",", ": "), allow_nan=False)
            + "\n"
        ).encode()

    def to_csv_text(self) -> str:
        """Flat report: one check per row (suite, check, anchor, verdict, value)."""
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "check", "anchor", "verdict", "value"])
        for r in self.sorted_records():
            writer.writerow(
                [
                    self.suite,
                    r.name,
                    r.anchor,
                    "pass" if r.passed else "FAIL",
                    "" if r.value is None else repr(r.value),
                ]
            )
        for key in sorted(self.config):
            writer.writerow(["#config", key, "", "", repr(self.config[key])])
        if self.timestamp is not None:
            writer.writerow(["#timestamp", self.timestamp, "", "", ""])
        return buf.getvalue()
