"""Command-line interface.

Every capability of the library is exposed as a subcommand with
machine-readable output so the whole verification is reproducible from a
shell.  Tabular subcommands (p-scan, sweep, identity-check) default to CSV
with a fixed header; scalar subcommands (gamma, kernel-eval, find-root)
default to compact JSON.  Each command builds one ``ScanReport``, plus a
JSON object for the scalar ones, and ``_emit`` writes it through
:mod:`rbkernel.report`, the package's one writer: CSV from the table, JSON
from the object if there is one, else from the table's rows.  Identical
invocations produce byte-identical output.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or domain error, or an output file that cannot be written.  A stdout
closed early loses the rest of the output, not the files or the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

from . import counterexample as cx
from .kernel import eval_kernel, solve_gamma, validate_sets
from .operator import (
    DEFAULT_QUAD_TOL,
    NUMERIC_ERRORS,
    apply_operator,
    dump_matrix,
    radius_range,
    sweep,
)
from .report import ScanReport, json_text
from .riccati import eval_regular  # noqa: F401  perfbench's tracer test reads cli.eval_regular

__all__ = ["main", "build_parser"]


def _parse_set(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed set {text!r}; expected comma-separated numerals")


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout; if its reader has gone, discard the rest."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # fd 1 to os.devnull, as the Python docs' note on SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, report: ScanReport, payload=None) -> None:
    """Write the report as CSV, or as JSON: ``payload`` if given, else the
    report's rows; then warn of each of the report's failures."""
    if args.format == "csv":
        text = report.to_csv_text()
    else:
        text = report.to_json_text() if payload is None else json_text(payload)
    if args.output is None:
        _write_stdout(text)
    else:
        Path(args.output).write_text(text)
    for point, message in report.failures:
        print(f"warning: point {point!r} failed: {message}", file=sys.stderr)


def _add_io(parser, default_format: str) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default_format,
                        help=f"output format (default {default_format})")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")


def _add_sets(parser) -> None:
    parser.add_argument("--s", type=_parse_set, default=[0.0], metavar="LIST",
                        help="index set S, comma-separated (default 0)")
    parser.add_argument("--t", type=_parse_set, default=[2.0], metavar="LIST",
                        help="index set T, comma-separated (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbkernel",
        description="Degenerate Riccati-Bessel kernel toolkit: coefficients, "
                    "operator spectra, and the nontrivial-solution verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="solve the coefficient equation for gamma")
    p.set_defaults(run=_cmd_gamma)
    _add_sets(p)
    _add_io(p, "json")

    p = sub.add_parser("kernel-eval", help="evaluate the kernel g(s, t)")
    p.set_defaults(run=_cmd_kernel_eval)
    _add_sets(p)
    p.add_argument("--eval-s", type=float, required=True, metavar="S")
    p.add_argument("--eval-t", type=float, required=True, metavar="T")
    _add_io(p, "json")

    p = sub.add_parser("p-scan", help="tabulate p(r) over a radius range")
    p.set_defaults(run=_cmd_p_scan)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--route", choices=tuple(cx.P_ROUTES), default="explicit",
                   help="evaluation route (explicit has a small-radius series guard)")
    _add_io(p, "csv")

    p = sub.add_parser("find-root", help="locate a root of p in a bracket")
    p.set_defaults(run=_cmd_find_root)
    p.add_argument("--lo", type=float, default=cx.DEFAULT_BRACKET[0])
    p.add_argument("--hi", type=float, default=cx.DEFAULT_BRACKET[1])
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--route", choices=tuple(cx.P_ROUTES), default="explicit")
    _add_io(p, "json")

    p = sub.add_parser("identity-check",
                       help="tabulate the integration-by-parts identity residual")
    p.set_defaults(run=_cmd_identity_check)
    p.add_argument("--r", type=float, default=None,
                   help="radius (default: the root R of p)")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_QUAD_TOL,
                   help="quadrature tolerance per integral")
    _add_io(p, "csv")

    p = sub.add_parser("sweep", help="tabulate min |1 - lambda| of the Nystrom matrix over radii")
    p.set_defaults(run=_cmd_sweep)
    _add_sets(p)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--panels", type=int, default=8)
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--grading", type=float, default=2.0)
    p.add_argument("--refine", action="store_true",
                   help="redo each radius at doubled panels and record the change")
    _add_io(p, "csv")

    p = sub.add_parser("verify",
                       help="run the full nontrivial-solution verification")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--force-r", type=float, default=None,
                   help="use this radius instead of the root R (for exploring "
                   "how the verification fails away from the root)")
    p.add_argument("--output", "-o", default=None, metavar="PATH",
                   help="also write the full JSON report to PATH")
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="debug: dump the symmetric form S = D A D^-1 of the "
                   "certificate's kink-exact matrix, whose eigenvalues it reads, as CSV")

    return parser


def _cmd_gamma(args) -> int:
    gamma = solve_gamma(validate_sets(args.s, args.t)).gamma
    _emit(args, ScanReport(("gamma",), [(g,) for g in gamma]), {"gamma": list(gamma)})
    return 0


def _cmd_kernel_eval(args) -> int:
    spec = solve_gamma(validate_sets(args.s, args.t))
    columns = ("s", "t", "value")
    row = (args.eval_s, args.eval_t, eval_kernel(spec, args.eval_s, args.eval_t))
    _emit(args, ScanReport(columns, [row]), dict(zip(columns, row)))
    return 0


def _cmd_p_scan(args) -> int:
    radii = radius_range(args.r_min, args.r_max, args.steps)
    if args.route == "wronskian":  # one array pass, the bits of per-point calls
        values = cx.p_wronskian(radii).tolist()
    else:
        values = [cx.P_ROUTES[args.route](r) for r in radii.tolist()]
    _emit(args, ScanReport(("r", "p"), list(zip(radii.tolist(), values))))
    return 0


def _cmd_find_root(args) -> int:
    result = cx.find_root(args.lo, args.hi, tol=args.tol, route=args.route)
    lo, hi = result.bracket
    table = ScanReport(("R", "residual", "iterations", "bracket_lo", "bracket_hi"),
                       [(result.root, result.residual, result.iterations, lo, hi)])
    _emit(args, table, {"R": result.root, "bracket": [lo, hi],
                        "residual": result.residual, "iterations": result.iterations})
    return 0


def _cmd_identity_check(args) -> int:
    if args.points < 1:
        raise ValueError("points must be >= 1")
    r = args.r if args.r is not None else cx.find_root(*cx.DEFAULT_BRACKET).root
    spec = cx.reference_spec()
    points = cx._default_points(r, args.points)
    # one call per point: perfbench's traced identity test expects one
    # operator.apply entry per row
    k_u2 = [apply_operator(spec, r, cx._u2, s, tol=args.tol) for s in points.tolist()]
    rhs, residual = cx._identity_terms(r, points, k_u2)
    rows = list(zip(points.tolist(), k_u2, rhs.tolist(), residual.tolist()))
    _emit(args, ScanReport(("s", "J", "identity_rhs", "residual"), rows))
    return 0


def _cmd_sweep(args) -> int:
    spec = solve_gamma(validate_sets(args.s, args.t))
    report = sweep(
        spec, args.r_min, args.r_max, args.steps,
        panels_count=args.panels, nodes_per_panel=args.nodes,
        grading=args.grading, refine=args.refine,
    )
    _emit(args, report)
    return 0


def _cmd_verify(args) -> int:
    report = cx.verify_counterexample(r_override=args.force_r)
    _write_stdout(report.summary_text())
    if args.output is not None:
        Path(args.output).write_text(report.to_json_text())
    if args.dump_matrix is not None:
        if report.spectral is None:
            raise ValueError("no matrix to dump: the spectral step failed")
        dump_matrix(report.spectral.operator, args.dump_matrix)
    return 0 if report.passed else 1


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (*NUMERIC_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
