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
checks the integration-by-parts identity numerically, and bundles everything
into one pass/fail report backed by the self-adjoint certificate of
:mod:`rbkernel.operator`: the kink-exact matrix of K on 8 uniform panels x 16
nodes has an eigenvalue 1 to rounding level at R, one eigenvalue above 0 at R
and at r = 3, as K has, and at r = 3 K's exact largest eigenvalue, from the
dispersion relation in nu (DLMF 10.2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .kernel import KernelSpec, solve_gamma, validate_sets
from .operator import (
    SelfAdjointCertificate,
    _outcome,
    apply_operator,
    build_grid,
    kink_exact_matrix,
    self_adjoint_certificate,
)
from .report import json_text
from .riccati import _regular_values, check_radius, eval_irregular, eval_regular

__all__ = [
    "RootResult",
    "VerificationReport",
    "EXPLICIT_CROSSOVER",
    "SERIES_RADIUS",
    "DEFAULT_BRACKET",
    "DEFAULT_CERTIFICATE_PANELS",
    "DEFAULT_CERTIFICATE_NODES",
    "DEFAULT_CERTIFICATE_GRADING",
    "GATES",
    "POSITIVE_EIGENVALUE_FLOOR",
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

# The certificate's grid: the kink-exact matrix of K on uniform panels.
DEFAULT_CERTIFICATE_PANELS = 8
DEFAULT_CERTIFICATE_NODES = 16
DEFAULT_CERTIFICATE_GRADING = 1.0

# The certificate: each gated step of verify_counterexample and the largest value
# that passes it.  The last four are calibrated on the grid above; the count's 0 is exact.
GATES = {
    "gamma0_matches_-6": 1e-14,
    "root_residual": 1e-12,
    "identity_residual": 1e-8,
    "equation_residual": 1e-8,
    "sigma_min_at_R": 1e-12,
    "null_vector_deviation": 1e-10,
    "positive_eigenvalue_count": 0.0,
    "off_root_eigenvalue_gap": 1e-11,
}

# positive_eigenvalue_count counts eigenvalues above this floor, not 0: K has one above 0 at R
# and r = 3 (#{k >= 0 : pi/2 + k pi < r}; lambda_0 reads 1 and 1.749), and the discrete edge of
# its band [-24, 0] tends to 0 from below (-2.5e-4, -4.6e-6, -2.2e-7 at R on 2, 8, 32 x 16).
POSITIVE_EIGENVALUE_FLOOR = 1e-3


@dataclass(frozen=True)
class RootResult:
    """Converged root of p with its originating bracket."""

    root: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass
class VerificationReport:
    """The certificate's report.

    ``steps`` holds one (name, value, threshold, ok) entry per :data:`GATES`
    key, in its order (see :func:`verify_counterexample` for the names of
    failed steps); ``passed`` is every step ok.  ``spectral`` is the
    self-adjoint certificate at ``r_used``, None if it failed to evaluate.
    :meth:`to_json_dict`'s top-level ``identity_residual``, ``equation_residual``
    and ``sigma_min_at_R`` are those steps' values, None where the step failed,
    and its ``certificate`` holds None for a non-finite value.
    """

    r_used: float
    gamma0: float
    steps: list[tuple] = field(default_factory=list)
    spectral: SelfAdjointCertificate | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.steps)

    def _certificate_dict(self) -> dict | None:
        if self.spectral is None:
            return None
        grid = self.spectral.grid
        panels = len(grid.panel_bounds) - 1
        return {"panels": panels, "nodes": grid.size // panels, "size": grid.size,
                "next_sigma": self.spectral.next_sigma, "asymmetry": self.spectral.asymmetry}

    def to_json_dict(self) -> dict:
        values = {name: value for name, value, *_ in self.steps}  # a failed step is renamed
        certificate = self._certificate_dict()
        return {
            "R": self.r_used,
            "gamma0": self.gamma0,
            **{gate: values.get(gate)
               for gate in ("identity_residual", "equation_residual", "sigma_min_at_R")},
            "certificate": certificate and {key: value if math.isfinite(value) else None
                                            for key, value in certificate.items()},
            "pass": self.passed,
            "steps": [{"name": name, "value": value, "threshold": threshold, "ok": ok}
                      for name, value, threshold, ok in self.steps],
        }

    def to_json_text(self) -> str:
        return json_text(self.to_json_dict())

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
            lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}: {shown} "
                         f"(threshold {threshold:.1e})")
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


def _bisect(f, name: str, a: float, b: float, f_a: float, f_b: float):
    """Bisect f's sign-change bracket [a, b], f(a) = f_a and f(b) = f_b, as :func:`find_root`
    describes; returns the end with the smaller |f|, that |f| and the halvings.  A midpoint
    where f is not finite raises ValueError naming f as ``name``."""
    iterations = 0
    mid = 0.5 * (a + b)
    while f_a != 0.0 and f_b != 0.0 and a < mid < b:
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise ValueError(f"{name}({mid!r}) is not finite")
        iterations += 1
        if (f_mid < 0.0) == (f_a < 0.0):
            a, f_a = mid, f_mid
        else:
            b, f_b = mid, f_mid
        mid = 0.5 * (a + b)
    return (a, abs(f_a), iterations) if abs(f_a) <= abs(f_b) else (b, abs(f_b), iterations)


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
    root, residual, iterations = _bisect(p, "p", lo, hi, f_lo, f_hi)
    if residual > tol:
        raise ValueError(f"|p| = {residual:g} at the root {root!r} exceeds tol {tol:g}")
    return RootResult(root=root, bracket=(lo, hi), residual=residual, iterations=iterations)


def _dispersion(nu: float, r: float) -> float:
    """F(nu, r) = u_nu(r) sin r + u_nu'(r) cos r, with u_nu = sqrt(pi r/2) J_{nu+1/2}(r)
    summed as sqrt(pi) sum_k (-1)^k (r/2)^(2k+nu+1) / (k! Gamma(k+nu+3/2)), and
    u_nu' term by term.  F(0, r) = 1 and F(2, r) = -p(r)."""
    half = 0.5 * r
    term = math.sqrt(math.pi) * half ** (nu + 1.0) / math.gamma(nu + 1.5)
    u = du = 0.0
    for k in range(60):
        u += term
        du += (2 * k + nu + 1.0) * term
        term *= -half * half / ((k + 1) * (k + nu + 1.5))
        if k >= half and abs(term) <= 1e-17 * abs(u):
            break
    return u * math.sin(r) + du / r * math.cos(r)


def _lambda0_minus_1(r: float) -> float:
    """lambda_0(r) - 1 for the continuous K of :func:`reference_spec`, exactly.

    Exact theory for S = {0}, T = {2} only: K h = lambda h is
    h'' + h = (6/lambda) h/s^2 with h(r) sin r + h'(r) cos r = 0, so
    h = u_nu with nu (nu + 1) = 6/lambda, and the largest eigenvalue is
    lambda_0 = 6/(nu_0 (nu_0 + 1)), nu_0 the first root of F(., r).  Since
    F(0, r) = 1, nu_0 is bracketed by F's first sign change on steps of 1/8,
    then bisected by :func:`find_root`'s rule.
    """
    lo, hi = 0.0, 0.125
    f_lo, f_hi = _dispersion(lo, r), _dispersion(hi, r)
    while not f_hi <= 0.0:
        if hi >= 64.0:
            raise ValueError(f"F(nu, {r!r}) changes sign for no nu <= 64")
        lo, f_lo, hi = hi, f_hi, hi + 0.125
        f_hi = _dispersion(hi, r)
    nu = _bisect(partial(_dispersion, r=r), "F", lo, hi, f_lo, f_hi)[0]
    return 6.0 / (nu * (nu + 1.0)) - 1.0


def _default_points(r: float, count: int = 20) -> np.ndarray:
    return np.linspace(r / count, r, count)


def _u2(t):
    """u_2 at a radius or an array of radii t, the h that apply_operator integrates.

    ``eval_regular(2, t).value``'s bits, checks and OverflowError, from the
    values path, which forms no derivative: the quadratures and the identity,
    equation and null-vector targets need none.
    """
    return _regular_values(2, t)


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
    rhs = _u2(points) + p_explicit(r) * _regular_values(0, points)
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
    """sqrt(2) ||S t - t|| / next_sigma, t = D u_2 normed, S the certificate's form: by the sin
    theta theorem (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970), a bound on max |v - t| for
    the eigenvector v nearest 1, sign matched, which is never computed.  A gap that is not
    finite and positive raises."""
    if not 0.0 < certificate.next_sigma < math.inf:
        raise ValueError(f"the gap {certificate.next_sigma!r} is not finite and positive")
    grid = certificate.grid
    target = _u2(grid.nodes) * grid.l2_scaling
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError(f"u_2 underflows to 0 at the nodes of radius {grid.r!r}")
    target /= norm
    residual = certificate.form @ target - target
    return math.sqrt(2.0) * float(np.linalg.norm(residual)) / certificate.next_sigma


def _unwrap(outcome):
    """The value of an :func:`rbkernel.operator._outcome`, or its error raised again."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _step(gate: str, label: str, compute) -> tuple:
    """(gate, value, threshold, ok) for ``compute()``, or
    (``label (message)``, None, threshold, False) if it raised a numeric error
    or its value is not finite."""
    threshold = GATES[gate]
    value = _outcome(compute)
    if isinstance(value, Exception):
        return (f"{label} ({value})", None, threshold, False)
    if not math.isfinite(value):
        return (f"{label} (not finite: {float(value)!r})", None, threshold, False)
    return (gate, value, threshold, value <= threshold)


def verify_counterexample(r_override=None) -> VerificationReport:
    """Run the certificate: one step per :data:`GATES` entry, in its order.

    The steps check gamma_0, the root R of p, the identity at r = 1, R and 3,
    the equation residual of u_2 at R, and the self-adjoint certificates of
    the kink-exact matrix on the ``DEFAULT_CERTIFICATE_*`` grid at R and r = 3
    (one if R is 3): min |1 - lambda| at R, a bound on its null vector's
    distance from u_2, each one's count of eigenvalues above
    ``POSITIVE_EIGENVALUE_FLOOR`` against K's exact 1, and the r = 3 value
    against K's exact lambda_0(3) - 1.  A step passes when its value is at
    most its threshold.  A step whose input or evaluation raised a numeric
    error, or whose value is not finite, fails as ``label (message)`` with
    value None; the labels, in the same order, are ``gamma0_check``,
    ``root_search``, ``identity_check``, ``equation_check``,
    ``spectral_certificate``, ``null_vector_check``, ``count_check`` and
    ``off_root_exact_check``.  Any other exception propagates.  ``r_override``
    replaces R in the identity, equation and certificate steps; one whose
    grid cannot be built raises ValueError before any step runs.
    """
    spec = reference_spec()
    gamma0 = spec.gamma[0]
    root = _outcome(lambda: find_root(*DEFAULT_BRACKET, tol=GATES["root_residual"]))
    r_star = root.root if isinstance(root, RootResult) else 0.5 * sum(DEFAULT_BRACKET)
    r_used = float(r_override) if r_override is not None else r_star
    grids = {r: build_grid(r, DEFAULT_CERTIFICATE_PANELS, DEFAULT_CERTIFICATE_NODES,
                           grading=DEFAULT_CERTIFICATE_GRADING) for r in (r_used, 3.0)}
    points = {r: _default_points(r) for r in (1.0, r_used, 3.0)}
    k_u2 = {r: _outcome(partial(apply_operator, spec, r, _u2, at)) for r, at in points.items()}
    certificates = {r: _outcome(lambda g=g: self_adjoint_certificate(kink_exact_matrix(spec, g)))
                    for r, g in grids.items()}
    certificate = certificates[r_used]
    steps = [
        _step("gamma0_matches_-6", "gamma0_check", lambda: abs(gamma0 + 6.0)),
        _step("root_residual", "root_search", lambda: _unwrap(root).residual),
        _step("identity_residual", "identity_check", lambda: max(
            _identity_residual(r, at, _unwrap(k_u2[r])) for r, at in points.items())),
        _step("equation_residual", "equation_check", lambda: _equation_residual(
            _u2(points[r_used]), _unwrap(k_u2[r_used]))),
        _step("sigma_min_at_R", "spectral_certificate", lambda: _unwrap(certificate).sigma_min),
        _step("null_vector_deviation", "null_vector_check",
              lambda: _null_vector_deviation(_unwrap(certificate))),
        _step("positive_eigenvalue_count", "count_check", lambda: float(max(
            abs(np.count_nonzero(_unwrap(c).eigenvalues > POSITIVE_EIGENVALUE_FLOOR) - 1)
            for c in certificates.values()))),
        _step("off_root_eigenvalue_gap", "off_root_exact_check",
              lambda: abs(_unwrap(certificates[3.0]).sigma_min - _lambda0_minus_1(3.0))),
    ]
    return VerificationReport(
        r_used=r_used, gamma0=gamma0, steps=steps,
        spectral=None if isinstance(certificate, Exception) else certificate,
    )
