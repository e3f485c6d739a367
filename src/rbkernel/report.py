"""Tabular scan reports and their CSV / JSON serialization.

Every scan-style result in the package (p(r) scans, singular-value sweeps,
identity checks) is a :class:`ScanReport`: named columns plus numeric rows.
CSV output prints floats with 17 significant digits so files are
byte-identical across runs and round-trip to the same doubles; JSON output
uses the shortest round-trip representation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["ScanReport", "fmt_float"]


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
