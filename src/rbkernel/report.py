"""Tabular scan reports and their CSV / JSON serialization.

Every scan-style result in the package (p(r) scans, singular-value sweeps,
identity checks) is a :class:`ScanReport`: named columns plus numeric rows.
CSV output prints floats with 17 significant digits so files are
byte-identical across runs and round-trip to the same doubles; JSON output
uses the shortest round-trip representation.  ``read_report`` parses both
formats back, which the test suite uses to guarantee the round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ScanReport", "fmt_float", "read_report"]


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


@dataclass
class ScanReport:
    """Named numeric columns; ``None`` cells mean "not computed".

    ``failures`` records per-point errors (point, message) without aborting
    the scan that produced the report.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    failures: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row!r} does not match columns {self.columns!r}"
                )

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join("" if x is None else fmt_float(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        objects = [
            {name: value for name, value in zip(self.columns, row)}
            for row in self.rows
        ]
        return json.dumps(objects, separators=(",", ":"), allow_nan=False) + "\n"

    def write(self, path, fmt: str = "csv") -> None:
        text = self.to_csv_text() if fmt == "csv" else self.to_json_text()
        Path(path).write_text(text)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _parse_csv(text: str) -> ScanReport:
    # every line after the header is a row: an empty one is a one-column
    # row whose cell is None
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("empty CSV report")
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"CSV row {line!r} does not match header {columns!r}")
        rows.append(tuple(None if c == "" else float(c) for c in cells))
    return ScanReport(columns=columns, rows=rows)


def _parse_json(text: str) -> ScanReport:
    objects = json.loads(text)
    if not isinstance(objects, list) or not objects:
        raise ValueError("JSON report must be a nonempty array of row objects")
    columns = tuple(objects[0].keys())
    rows = []
    for obj in objects:
        if tuple(obj.keys()) != columns:
            raise ValueError("JSON report rows have inconsistent keys")
        rows.append(
            tuple(None if obj[c] is None else float(obj[c]) for c in columns)
        )
    return ScanReport(columns=columns, rows=rows)


def read_report(path) -> ScanReport:
    """Parse a report written by :meth:`ScanReport.write` (either format)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return _parse_json(text)
    return _parse_csv(text)
