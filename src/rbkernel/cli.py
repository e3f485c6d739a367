"""Command-line interface.

Every capability of the library is exposed as a subcommand with
machine-readable output so the whole verification is reproducible from a
shell.  Tabular subcommands (p-scan, sweep, identity-check) default to CSV
with a fixed header; scalar subcommands (gamma, kernel-eval, find-root)
default to compact JSON.  Identical invocations produce byte-identical
output.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
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
from .report import ScanReport, fmt_float
from .riccati import eval_regular

__all__ = ["main", "build_parser"]


def _parse_set(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed set {text!r}; expected comma-separated numerals")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_scalars(pairs: list[tuple[str, object]], args) -> None:
    """Write name/value pairs as one JSON object or a one-row CSV."""
    if args.format == "json":
        _emit(json.dumps(dict(pairs), separators=(",", ":")) + "\n", args.output)
    else:
        names = ",".join(name for name, _ in pairs)
        cells = ",".join(
            fmt_float(v) if isinstance(v, float) else str(v) for _, v in pairs
        )
        _emit(names + "\n" + cells + "\n", args.output)


def _emit_report(report: ScanReport, args) -> None:
    text = report.to_csv_text() if args.format == "csv" else report.to_json_text()
    _emit(text, args.output)
    for point, message in report.failures:
        print(f"warning: point {point:g} failed: {message}", file=sys.stderr)


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
    _add_sets(p)
    _add_io(p, "json")

    p = sub.add_parser("kernel-eval", help="evaluate the kernel g(s, t)")
    _add_sets(p)
    p.add_argument("--eval-s", type=float, required=True, metavar="S")
    p.add_argument("--eval-t", type=float, required=True, metavar="T")
    _add_io(p, "json")

    p = sub.add_parser("p-scan", help="tabulate p(r) over a radius range")
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--route", choices=("auto", *cx.P_ROUTES),
                   default="auto", help="evaluation route (auto = explicit with "
                   "its small-radius series guard)")
    _add_io(p, "csv")

    p = sub.add_parser("find-root", help="locate a root of p in a bracket")
    p.add_argument("--lo", type=float, default=cx.DEFAULT_BRACKET[0])
    p.add_argument("--hi", type=float, default=cx.DEFAULT_BRACKET[1])
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--route", choices=("explicit", "wronskian"), default="explicit")
    _add_io(p, "json")

    p = sub.add_parser("identity-check",
                       help="tabulate the integration-by-parts identity residual")
    p.add_argument("--r", type=float, default=None,
                   help="radius (default: the root R of p)")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_QUAD_TOL,
                   help="quadrature tolerance per integral")
    _add_io(p, "csv")

    p = sub.add_parser("sweep", help="tabulate sigma_min(I - A) over radii")
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
    p.add_argument("--force-r", type=float, default=None,
                   help="use this radius instead of the root R (for exploring "
                   "how the verification fails away from the root)")
    p.add_argument("--output", "-o", default=None, metavar="PATH",
                   help="also write the full JSON report to PATH")
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="debug: dump the certificate's kink-exact matrix as CSV")

    return parser


def _cmd_gamma(args) -> int:
    spec = solve_gamma(validate_sets(args.s, args.t))
    if args.format == "json":
        _emit(json.dumps({"gamma": list(spec.gamma)}, separators=(",", ":")) + "\n",
              args.output)
    else:
        lines = ["gamma"] + [fmt_float(g) for g in spec.gamma]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_kernel_eval(args) -> int:
    spec = solve_gamma(validate_sets(args.s, args.t))
    value = eval_kernel(spec, args.eval_s, args.eval_t)
    _emit_scalars([("s", args.eval_s), ("t", args.eval_t), ("value", value)], args)
    return 0


def _cmd_p_scan(args) -> int:
    route = cx.P_ROUTES["explicit" if args.route == "auto" else args.route]
    radii = radius_range(args.r_min, args.r_max, args.steps)
    if args.route == "wronskian":  # one array pass, the bits of per-point calls
        values = cx.p_wronskian(radii).tolist()
    else:
        values = [route(r) for r in radii.tolist()]
    rows = list(zip(radii.tolist(), values))
    _emit_report(ScanReport(columns=("r", "p"), rows=rows), args)
    return 0


def _cmd_find_root(args) -> int:
    result = cx.find_root(args.lo, args.hi, tol=args.tol, route=args.route)
    if args.format == "json":
        payload = {
            "R": result.root,
            "bracket": list(result.bracket),
            "residual": result.residual,
            "iterations": result.iterations,
        }
        _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.output)
    else:
        _emit_scalars(
            [("R", result.root), ("residual", result.residual),
             ("iterations", result.iterations),
             ("bracket_lo", result.bracket[0]), ("bracket_hi", result.bracket[1])],
            args,
        )
    return 0


def _cmd_identity_check(args) -> int:
    r = args.r if args.r is not None else cx.find_root(*cx.DEFAULT_BRACKET).root
    if args.points < 1:
        raise ValueError("points must be >= 1")
    spec = cx.reference_spec()
    p_r = cx.p_explicit(r)
    points = cx._default_points(r, args.points)
    rhs = eval_regular(2, points).value + p_r * eval_regular(0, points).value
    rows = []
    for s, rhs_s in zip(points.tolist(), rhs.tolist()):
        # one call per point: perfbench's traced identity test expects one
        # operator.apply entry per row
        j = apply_operator(spec, r, cx._u2, s, tol=args.tol)
        rows.append((s, j, rhs_s, abs(j - rhs_s)))
    _emit_report(
        ScanReport(columns=("s", "J", "identity_rhs", "residual"), rows=rows), args
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = solve_gamma(validate_sets(args.s, args.t))
    report = sweep(
        spec, args.r_min, args.r_max, args.steps,
        panels_count=args.panels, nodes_per_panel=args.nodes,
        grading=args.grading, refine=args.refine,
    )
    _emit_report(report, args)
    return 0


def _cmd_verify(args) -> int:
    report = cx.verify_counterexample(r_override=args.force_r)
    sys.stdout.write(report.summary_text())
    if args.output is not None:
        Path(args.output).write_text(report.to_json_text())
    if args.dump_matrix is not None:
        if report.spectral is None:
            raise ValueError("no matrix to dump: the spectral step failed")
        dump_matrix(report.spectral.operator, args.dump_matrix)
    return 0 if report.passed else 1


_COMMANDS = {
    "gamma": _cmd_gamma,
    "kernel-eval": _cmd_kernel_eval,
    "p-scan": _cmd_p_scan,
    "find-root": _cmd_find_root,
    "identity-check": _cmd_identity_check,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
