"""Every result of the package as text: tables as CSV or JSON, objects as JSON.

Every scan-style result in the package (p(r) scans, singular-value sweeps,
identity checks) is a :class:`ScanReport`: named columns plus numeric rows.
CSV output prints floats with 17 significant digits so files are
byte-identical across runs and round-trip to the same doubles; JSON output
is one compact line with the shortest round-trip representation, and never
holds NaN or Infinity.  :func:`csv_text` and :func:`json_text` are the two
writers; the tables, the verification report, the CLI's scalar objects and
the matrix dump all go through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["ScanReport", "csv_text", "fmt_float", "json_text"]


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def csv_text(rows, columns=None) -> str:
    """The rows as CSV lines, after a header of ``columns`` if given.

    Each number is :func:`fmt_float`'s, and each None an empty cell.
    """
    lines = [] if columns is None else [",".join(columns)]
    lines += [",".join("" if x is None else fmt_float(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(value) -> str:
    """``value`` as one compact line of JSON; ValueError if it holds NaN or Infinity."""
    return json.dumps(value, separators=(",", ":"), allow_nan=False) + "\n"


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
        return csv_text(self.rows, self.columns)

    def to_json_text(self) -> str:
        return json_text([dict(zip(self.columns, row)) for row in self.rows])
