"""Workloads of the rbkernel benchmark: seeded inputs, the op runner and output checks.

Each workload stresses a different layer (see NOTES.md for the predictions):

* ``certify``  -- ``verify`` on the default 128x12 grid (N = 1536): dense SVD.
* ``scan``     -- ``sweep --refine`` at N = 96 and 192: small assemblies and SVDs.
* ``identity`` -- ``identity-check``: adaptive quadrature over scalar Riccati calls.

Inputs are argv lists for ``rbkernel.cli.main``.  A seed picks one radius in
each of ``STRATA`` equal slices of the workload's range, in slice order, so
every run covers the whole range evenly and its median does not depend on
where the draws fell.  The warm-up op of set-up takes the middle slice, so
that the set-up time does not depend on the seed either.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "WORKLOADS",
    "CERTIFY_REPORT",
    "STRATA",
    "TRACE_INVARIANTS",
    "OpResult",
    "argv_digest",
    "check",
    "import_program",
    "invariant_violations",
    "make_inputs",
    "run_op",
    "warm_up_input",
]

WORKLOADS = ("certify", "scan", "identity")

# Relative to the checkout root, which is the benchmark's working directory.
CERTIFY_REPORT = ".bench_results/certify_report.json"

STRATA = 16

REFERENCE_R = 2.4431401944938766
SCAN_STEPS = 21
IDENTITY_POINTS = 20

# Per-layer counts a traced run must show: a workload that bypasses a layer.
TRACE_INVARIANTS = {
    "identity": {"operator.svd.calls": 0},
    "scan": {"operator.apply.calls": 0},
}


def invariant_violations(workload: str, totals: dict) -> list[str]:
    """The TRACE_INVARIANTS one traced op's layer totals break."""
    problems = []
    for metric, expected in TRACE_INVARIANTS.get(workload, {}).items():
        layer, field = metric.rsplit(".", 1)
        found = totals.get(layer, {}).get(field, 0)
        if found != expected:
            problems.append(f"{metric} = {found}, expected {expected}")
    return problems


def import_program(root: Path):
    """Import ``rbkernel.cli`` from ``root/src`` and nowhere else."""
    package = (Path(root) / "src" / "rbkernel").resolve()
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no rbkernel sources under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import rbkernel.cli

    found = Path(rbkernel.__file__).resolve().parent
    if found != package:
        raise ImportError(f"imported rbkernel from {found}, expected {package}")
    return rbkernel.cli


def _stratified(rng: random.Random, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / STRATA
    return [lo + width * (i + rng.random()) for i in range(STRATA)]


def make_inputs(workload: str, seed: int) -> list[list[str]]:
    """The argv lists one run cycles through; the same seed gives the same lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        # the certificate has no free input; the seed is unused
        return [["verify", "--output", CERTIFY_REPORT]]
    if workload == "scan":
        return [
            ["sweep", "--s", "0,4,8", "--t", "2,6,10",
             "--r-min", f"{a:.6f}", "--r-max", f"{a + 0.5:.6f}",
             "--steps", str(SCAN_STEPS), "--refine"]
            for a in _stratified(rng, 0.5, 5.5)
        ]
    if workload == "identity":
        return [
            ["identity-check", "--r", f"{r:.6f}",
             "--points", str(IDENTITY_POINTS), "--tol", "1e-10"]
            for r in _stratified(rng, 0.5, 4.0)
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warm_up_input(inputs: list[list[str]]) -> list[str]:
    """The input of set-up's warm-up op: the middle slice, whatever the seed."""
    return inputs[len(inputs) // 2]


def argv_digest(inputs: list[list[str]]) -> str:
    """SHA-256 of the argv lists, to show two runs measured the same inputs."""
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()


@dataclass
class OpResult:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None


def run_op(main, argv: list[str]) -> OpResult:
    """Call the CLI entry point in-process, capturing its output streams.

    A raised exception is caught here, where the benchmark must keep running,
    and turned into a failed op.
    """
    if "--output" in argv:  # a stale report must not pass the next check
        Path(argv[argv.index("--output") + 1]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return OpResult(code, out.getvalue(), err.getvalue(), error)


def _csv_rows(text: str, columns: tuple[str, ...]) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    return [[float(cell) if cell else math.nan for cell in line.split(",")]
            for line in lines[1:]]


def _check_certify(argv, result: OpResult) -> str | None:
    report = json.loads(Path(argv[argv.index("--output") + 1]).read_text())
    if report.get("pass") is not True:
        return "report does not pass"
    if not abs(report["R"] - REFERENCE_R) <= 1e-12:
        return f"R = {report['R']!r} is not {REFERENCE_R!r}"
    if not report["sigma_min_at_R"] <= 1e-6:
        return f"sigma_min_at_R = {report['sigma_min_at_R']!r} > 1e-6"
    return None


def _check_scan(argv, result: OpResult) -> str | None:
    if "warning" in result.stderr:
        return f"per-point failure: {result.stderr.strip()}"
    rows = _csv_rows(result.stdout, ("r", "sigma_min", "refinement_delta"))
    if len(rows) != SCAN_STEPS:
        return f"{len(rows)} rows, expected {SCAN_STEPS}"
    if not all(math.isfinite(x) for row in rows for x in row[1:]):
        return "non-finite sigma_min or refinement_delta"
    return None


def _check_identity(argv, result: OpResult) -> str | None:
    rows = _csv_rows(result.stdout, ("s", "J", "identity_rhs", "residual"))
    if len(rows) != IDENTITY_POINTS:
        return f"{len(rows)} rows, expected {IDENTITY_POINTS}"
    worst = max(row[3] for row in rows)
    if not worst <= 1e-8:
        return f"max residual {worst!r} > 1e-8"
    return None


_CHECKS = {"certify": _check_certify, "scan": _check_scan, "identity": _check_identity}


def check(workload: str, argv: list[str], result: OpResult) -> str | None:
    """None when the op succeeded, else why it counts as failed."""
    if result.error is not None:
        return f"raised {result.error}"
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[:200]}"
    try:
        return _CHECKS[workload](argv, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
