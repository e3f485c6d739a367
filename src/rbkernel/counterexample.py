"""Nontriviality certificate for the homogeneous kernel equation.

For the single-pair kernel with S = {0}, T = {2} (coefficient gamma_0 = -6)
the function

    p(r) = v_0(r) u'_2(r) - v'_0(r) u_2(r)

controls whether u_2 solves the homogeneous equation h = K h on (0, r]:
integrating the operator against u_2 by parts twice gives, for every r,

    (K u_2)(s) = u_2(s) + p(r) u_0(s),

so u_2 is an exact nontrivial solution precisely when p(r) = 0.  p has the
closed form 1 - (3 + 3 cos^2 r)/r^2 + 3 sin(2r)/r^3, starts off as -r^2/5
near the origin, tends to 1 at infinity, and crosses zero for the first
time at R = 2.4431401944938766 (the default bracket (2.0, 2.5) pins it).

This module evaluates p by three independent routes, locates R by bisection,
checks the integration-by-parts identity numerically,
and bundles everything into a single pass/fail verification report backed
by the self-adjoint certificate of :mod:`rbkernel.operator`: the kink-exact
matrix of K on 8 uniform panels x 16 nodes, whose eigenvalue nearest 1
reaches it to rounding level at R and stays a grid-independent distance
away at r = 1 and r = 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .kernel import KernelSpec, solve_gamma, validate_sets
from .operator import (
    DEFAULT_CERTIFICATE_GRADING,
    DEFAULT_CERTIFICATE_NODES,
    DEFAULT_CERTIFICATE_PANELS,
    NUMERIC_ERRORS,
    SelfAdjointCertificate,
    apply_operator,
    build_grid,
    kink_exact_matrix,
    min_singular_value,
    self_adjoint_certificate,
)
from .riccati import check_radius, eval_irregular, eval_regular

__all__ = [
    "RootResult",
    "VerificationReport",
    "EXPLICIT_CROSSOVER",
    "SERIES_RADIUS",
    "DEFAULT_BRACKET",
    "GATES",
    "P_ROUTES",
    "reference_spec",
    "p_explicit",
    "p_wronskian",
    "p_series",
    "find_root",
    "check_identity",
    "verify_counterexample",
]

# Below this radius the closed form of p cancels catastrophically
# (absolute terms ~3/r^2 against a value ~r^2/5) and the series takes over.
EXPLICIT_CROSSOVER = 0.2

# Validity radius accepted by the series route.
SERIES_RADIUS = 0.5

# Default sign-change bracket for the first positive root of p.
DEFAULT_BRACKET = (2.0, 2.5)

# The certificate: each gated step of verify_counterexample and the largest
# value that passes it.  The last four are calibrated on the certificate's
# DEFAULT_CERTIFICATE_* grid.
GATES = {
    "gamma0_matches_-6": 1e-14,
    "root_residual": 1e-12,
    "identity_residual": 1e-8,
    "equation_residual": 1e-8,
    "sigma_min_at_R": 1e-12,
    "null_vector_deviation": 1e-10,
    "collapse_ratio": 1e-10,
    "off_root_grid_delta": 1e-4,
}


@dataclass(frozen=True)
class RootResult:
    """Converged root of p with its originating bracket."""

    root: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass
class VerificationReport:
    """Outcome of the full verification chain.

    ``steps`` holds one (name, value, threshold, ok) entry per sub-step;
    a sub-step that raised a numeric error is recorded with value None and
    ok False.  ``passed`` (every step ok) and the residuals are read from
    the steps.  ``spectral`` keeps the self-adjoint certificate at the
    radius used, with its kink-exact operator (None if that step failed);
    the JSON gives its grid, ``next_sigma`` and ``asymmetry`` (over the
    diagonal panel blocks of D A D^-1) under ``certificate``.
    """

    r_used: float
    gamma0: float
    steps: list[tuple] = field(default_factory=list)
    spectral: SelfAdjointCertificate | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.steps)

    def _step_value(self, name: str) -> float | None:
        return next((value for step, value, *_ in self.steps if step == name), None)

    @property
    def identity_residual(self) -> float | None:
        return self._step_value("identity_residual")

    @property
    def equation_residual(self) -> float | None:
        return self._step_value("equation_residual")

    @property
    def sigma_min_at_r(self) -> float | None:
        return None if self.spectral is None else self.spectral.sigma_min

    def _certificate_dict(self) -> dict | None:
        if self.spectral is None:
            return None
        grid = self.spectral.operator.grid
        panels = len(grid.panel_bounds) - 1
        return {
            "panels": panels,
            "nodes": grid.size // panels,
            "size": grid.size,
            "next_sigma": self.spectral.next_sigma,
            "asymmetry": self.spectral.asymmetry,
        }

    def to_json_dict(self) -> dict:
        return {
            "R": self.r_used,
            "gamma0": self.gamma0,
            "identity_residual": self.identity_residual,
            "equation_residual": self.equation_residual,
            "sigma_min_at_R": self.sigma_min_at_r,
            "certificate": self._certificate_dict(),
            "pass": self.passed,
            "steps": [
                {"name": name, "value": value, "threshold": threshold, "ok": ok}
                for name, value, threshold, ok in self.steps
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n"

    def summary_text(self) -> str:
        lines = [f"R ≈ {self.r_used!r}"]
        certificate = self._certificate_dict()
        if certificate is not None:
            lines.append(
                "  certificate: {panels} panels x {nodes} nodes (N = {size}), "
                "next |1 - lambda| {next_sigma:.6e}, asymmetry {asymmetry:.1e}"
                .format(**certificate)
            )
        for name, value, threshold, ok in self.steps:
            shown = "failed to evaluate" if value is None else f"{value:.6e}"
            lines.append(
                f"  {'PASS' if ok else 'FAIL'}  {name}: {shown} "
                f"(threshold {threshold:.1e})"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def reference_spec() -> KernelSpec:
    """The single-pair kernel S = {0}, T = {2}, for which gamma_0 = -6."""
    return solve_gamma(validate_sets([0.0], [2.0]))


def p_series(r) -> float:
    """Taylor route: p(r) = sum_{k>=1} c_k r^(2k), valid for 0 < r <= 0.5.

    The coefficients follow from expanding the closed form:

        c_k = (-1)^k * 3 * 2^(2k+1) * (2k - 1) / (2k + 3)!

    so c_1 = -1/5, c_2 = 2/35, c_3 = -1/189, c_4 = 2/7425, ...  Terms are
    accumulated until they stop contributing at double precision, so the
    truncation error is negligible everywhere in the validity range.
    """
    r = check_radius(r)
    if r > SERIES_RADIUS:
        raise ValueError(
            f"series route is restricted to r <= {SERIES_RADIUS}, got {r!r}"
        )
    r2 = r * r
    term = -r2 / 5.0  # c_1 r^2
    total = term
    k = 1
    while True:
        # c_{k+1} / c_k = -4 (2k + 1) / ((2k - 1)(2k + 4)(2k + 5))
        term *= -4.0 * (2 * k + 1) * r2 / ((2 * k - 1) * (2 * k + 4) * (2 * k + 5))
        total += term
        k += 1
        if abs(term) <= 1e-18 * abs(total) or k > 60:
            break
    return total


def p_explicit(r) -> float:
    """Closed-form route: p(r) = 1 - (3 + 3 cos^2 r)/r^2 + 3 sin(2r)/r^3.

    Below ``EXPLICIT_CROSSOVER`` the closed form loses most of its digits to
    cancellation, so evaluation is delegated to the series route.
    """
    r = check_radius(r)
    if r < EXPLICIT_CROSSOVER:
        return p_series(r)
    if r >= 1e9:
        return 1.0  # the closed form rounds to 1.0 from r ~ 3.3e8 on; r**3 overflows at 5.6e102
    c = math.cos(r)
    return 1.0 - (3.0 + 3.0 * c * c) / (r * r) + 3.0 * math.sin(2.0 * r) / r**3


def p_wronskian(r):
    """Cross-family route: p(r) = v_0 u'_2 - v'_0 u_2 from function pairs.

    ``r`` may also be a 1-D array of radii, evaluated in one array pass;
    then the result is an array, and each value has the bits of the call
    on its radius alone.
    """
    v0, dv0 = eval_irregular(0, r)
    u2, du2 = eval_regular(2, r)
    return v0 * du2 - dv0 * u2


# Route name -> evaluator of p.  Entries look their function up when called,
# so rebinding a module function (monkeypatch, profiler) reaches the table.
P_ROUTES = {
    "explicit": lambda r: p_explicit(r),
    "wronskian": lambda r: p_wronskian(r),
    "series": lambda r: p_series(r),
}


def find_root(lo, hi, tol: float = 1e-12, route: str = "explicit") -> RootResult:
    """Locate a root of p inside a sign-change bracket by bisection.

    The bracket is halved until its ends are adjacent doubles (or p vanishes
    exactly at a midpoint), and whichever end has the smaller |p| is
    returned; ``iterations`` counts the bisection steps.  ``tol`` is an
    acceptance bound on that |p|, not a stopping rule.

    Raises
    ------
    ValueError
        If p(lo) and p(hi) do not have opposite signs, an evaluation is not
        finite, or |p(root)| exceeds ``tol``.
    """
    if route not in P_ROUTES:
        raise ValueError(f"unknown p route {route!r}; expected one of {tuple(P_ROUTES)}")
    p = P_ROUTES[route]
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo!r}, {hi!r}")
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    f_lo = p(lo)
    f_hi = p(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise ValueError("p is not finite at the bracket endpoints")
    if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(
            f"no sign change on [{lo:g}, {hi:g}]: p(lo) = {f_lo:g}, p(hi) = {f_hi:g}"
        )
    a, b, f_a, f_b = lo, hi, f_lo, f_hi
    iterations = 0
    mid = 0.5 * (a + b)
    while f_a != 0.0 and f_b != 0.0 and a < mid < b:
        f_mid = p(mid)
        if not math.isfinite(f_mid):
            raise ValueError(f"p({mid!r}) is not finite")
        iterations += 1
        if (f_mid < 0.0) == (f_a < 0.0):
            a, f_a = mid, f_mid
        else:
            b, f_b = mid, f_mid
        mid = 0.5 * (a + b)
    root, residual = (a, abs(f_a)) if abs(f_a) <= abs(f_b) else (b, abs(f_b))
    if residual > tol:
        raise ValueError(f"|p| = {residual:g} at the root {root!r} exceeds tol {tol:g}")
    return RootResult(root=root, bracket=(lo, hi), residual=residual, iterations=iterations)


def _u(m: int, t):
    return eval_regular(m, t).value


def _default_points(r: float, count: int = 20) -> np.ndarray:
    return np.linspace(r / count, r, count)


# u_2 as the one-argument h that apply_operator integrates
_u2 = partial(_u, 2)


def check_identity(r, s_points=None) -> float:
    """Max residual |(K u_2)(s) - (u_2(s) + p(r) u_0(s))| over the points.

    The identity holds for every radius, not only at the root, so this is a
    strong end-to-end test of kernel, quadrature, and special functions at
    once.  Defaults to 20 evenly spaced points in (0, r].
    """
    r = check_radius(r)
    points = _default_points(r) if s_points is None else np.asarray(s_points, float)
    k_u2 = apply_operator(reference_spec(), r, _u2, points)
    return _identity_residual(r, points, k_u2)


def _identity_terms(r: float, points: np.ndarray, k_u2):
    """u_2 + p(r) u_0 at the points, and its distance from ``k_u2``, (K u_2) there."""
    rhs = _u(2, points) + p_explicit(r) * _u(0, points)
    return rhs, np.abs(k_u2 - rhs)


def _identity_residual(r: float, points: np.ndarray, k_u2: np.ndarray) -> float:
    """:func:`check_identity` at a checked radius, given (K u_2)(points)."""
    return float(np.max(_identity_terms(r, points, k_u2)[1], initial=0.0))


def _equation_residual(u2_points: np.ndarray, k_u2: np.ndarray) -> float:
    """max |u_2 - K u_2| over the points, divided by min(1, max |u_2|) there.

    The absolute residual is |p(r)| max u_0 ~ r^3/5 at a small radius that is
    not a root, below any fixed gate; relative to u_2 (~r^3/15 there) it is
    not.  |u_2| peaks at 1.11, so the scale only ever makes the gate stricter.
    """
    scale = min(1.0, float(np.max(np.abs(u2_points))))
    if scale == 0.0:
        raise ValueError("u_2 underflows to 0 at every point")
    return float(np.max(np.abs(u2_points - k_u2))) / scale


def _null_vector_deviation(certificate: SelfAdjointCertificate) -> float:
    """Max deviation of the certificate's null vector from u_2, both D-scaled."""
    grid = certificate.operator.grid
    target = _u(2, grid.nodes) * grid.l2_scaling
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError(f"u_2 underflows to 0 at the nodes of radius {grid.r!r}")
    target /= norm
    vector = certificate.null_vector
    if float(vector @ target) < 0.0:
        vector = -vector
    return float(np.max(np.abs(vector - target)))


def verify_counterexample(r_override=None) -> VerificationReport:
    """Run the full verification chain and report pass/fail per step.

    Steps: solve gamma_0 (must be -6), find the root R of p in the default
    bracket, check the integration-by-parts identity at radii 1, R and 3,
    and check the homogeneous equation residual of u_2 at R, relative to
    min(1, max |u_2|) on its points.  Then the self-adjoint certificate of
    the kink-exact matrix (see
    :func:`rbkernel.operator.self_adjoint_certificate`) is taken at R on
    8 uniform panels x 16 Gauss nodes (``DEFAULT_CERTIFICATE_*`` of
    :mod:`rbkernel.operator`), with four gated steps: min |1 - lambda| at R
    (``sigma_min_at_R``); the deviation of its null vector from u_2
    (``null_vector_deviation``); its ratio to the smaller value at r = 1
    and r = 3 (``collapse_ratio``), which fails on a grid that collapses
    everywhere; and the largest change of those off-root values when the
    panels are doubled (``off_root_grid_delta``).  No SVD is computed.
    A step passes when its value is at most its threshold in :data:`GATES`.
    ``r_override`` substitutes a different radius for R in the identity,
    equation and certificate steps (useful to watch the verification fail
    away from the root); one whose grid cannot be built raises ValueError
    before any step runs.  A numeric error inside a step is recorded as a
    failed step, and any other exception propagates.

    (K u_2) at the radius used is computed once, on the 20 points of
    :func:`check_identity`, and both the identity step's term at that radius
    and the equation step read it (with the error it raised, if any).  The
    kink-exact matrix never squares t, so it forms wherever its grid does.
    Every |1 - lambda| comes from eigenvalues alone (``np.linalg.eigvalsh``):
    :func:`rbkernel.operator.min_singular_value` for the four off-root values,
    and :func:`rbkernel.operator.self_adjoint_certificate` at the radius
    used, whose one ``np.linalg.eigh`` gives only the null vector.
    """
    steps = []

    def record(gate, value, name=None):
        threshold = GATES[gate]
        steps.append((name or gate, value, threshold,
                      value is not None and value <= threshold))

    panels = DEFAULT_CERTIFICATE_PANELS

    def grid(r, count=panels):
        return build_grid(r, count, DEFAULT_CERTIFICATE_NODES,
                          grading=DEFAULT_CERTIFICATE_GRADING)

    spec = reference_spec()
    gamma0 = spec.gamma[0]
    record("gamma0_matches_-6", abs(gamma0 + 6.0))

    try:
        root = find_root(*DEFAULT_BRACKET, tol=GATES["root_residual"])
        record("root_residual", root.residual)
        r_star = root.root
    except ValueError as exc:
        record("root_residual", None, f"root_search ({exc})")
        r_star = 0.5 * (DEFAULT_BRACKET[0] + DEFAULT_BRACKET[1])
    r_used = float(r_override) if r_override is not None else r_star
    grid_at_r = grid(r_used)

    # K u_2 at r_used's default points, or the numeric error computing it
    # raised: the identity step's r_used term and the equation step share it.
    points = _default_points(r_used)
    try:
        k_u2 = apply_operator(spec, r_used, _u2, points)
    except NUMERIC_ERRORS as exc:
        k_u2 = exc

    def k_u2_at_r_used():
        if isinstance(k_u2, Exception):
            raise k_u2
        return k_u2

    try:
        record("identity_residual", max(
            check_identity(1.0),
            _identity_residual(r_used, points, k_u2_at_r_used()),
            check_identity(3.0),
        ))
    except NUMERIC_ERRORS as exc:
        record("identity_residual", None, f"identity_check ({exc})")

    try:
        record("equation_residual", _equation_residual(_u(2, points), k_u2_at_r_used()))
    except NUMERIC_ERRORS as exc:
        record("equation_residual", None, f"equation_check ({exc})")

    spectral = None
    try:
        spectral = self_adjoint_certificate(kink_exact_matrix(spec, grid_at_r))
        record("sigma_min_at_R", spectral.sigma_min)
    except NUMERIC_ERRORS as exc:
        record("sigma_min_at_R", None, f"spectral_certificate ({exc})")
    if spectral is not None:
        try:
            record("null_vector_deviation", _null_vector_deviation(spectral))
        except NUMERIC_ERRORS as exc:
            record("null_vector_deviation", None, f"null_vector_check ({exc})")

    try:
        off_root = {
            (r, count): min_singular_value(kink_exact_matrix(spec, grid(r, count)))
            for r in (1.0, 3.0)
            for count in (panels, 2 * panels)
        }
        record("collapse_ratio",
               None if spectral is None
               else spectral.sigma_min / min(off_root[1.0, panels], off_root[3.0, panels]))
        record("off_root_grid_delta",
               max(abs(off_root[r, panels] - off_root[r, 2 * panels]) for r in (1.0, 3.0)))
    except NUMERIC_ERRORS as exc:
        record("collapse_ratio", None, f"off_root_check ({exc})")

    return VerificationReport(
        r_used=r_used, gamma0=gamma0, steps=steps, spectral=spectral,
    )
