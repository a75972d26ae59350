"""Machine-readable verification reports (CSV rows + JSON mirror)."""

from __future__ import annotations

import csv
import json
from typing import NamedTuple

__all__ = ["CaseResult", "Report"]

CSV_COLUMNS = ["case", "inputs", "lhs", "rhs", "gap", "tolerance", "pass"]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


class CaseResult(NamedTuple):
    case: str
    inputs: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance

    def csv_row(self) -> list[str]:
        return [
            self.case,
            self.inputs,
            _fmt(self.lhs),
            _fmt(self.rhs),
            _fmt(self.gap),
            _fmt(self.tolerance),
            "pass" if self.passed else "fail",
        ]


class Report:
    def __init__(self, suite: str, cases: list | None = None, timing: float = 0.0, metadata: dict | None = None):
        self.suite = suite
        self.cases = [] if cases is None else cases
        self.timing = timing
        self.metadata = {} if metadata is None else metadata

    def add(self, case, inputs, lhs, rhs, gap, tolerance) -> CaseResult:
        result = CaseResult(case, json.dumps(inputs, sort_keys=True), float(lhs), float(rhs), float(gap), float(tolerance))
        self.cases.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failing(self) -> list:
        return [c for c in self.cases if not c.passed]

    def sorted_cases(self) -> list:
        return sorted(self.cases, key=lambda c: c.case)

    def write_csv(self, path) -> None:
        """Byte-stable CSV: fixed columns, cases sorted by key, no timing."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for case in self.sorted_cases():
                writer.writerow(case.csv_row())

    def write_json(self, path) -> None:
        payload = {
            "suite": self.suite,
            "cases": [dict(zip(CSV_COLUMNS, c.csv_row())) for c in self.sorted_cases()],
            "timing_seconds": round(self.timing, 3),
            "metadata": {key: value._asdict() if hasattr(value, "_asdict") else value for key, value in self.metadata.items()},
            "passed": self.passed,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
