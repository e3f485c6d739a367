"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math

import numpy as np

from rbkernel import (
    check_identity,
    eval_irregular,
    eval_regular,
    find_root,
    kink_exact_matrix,
    min_singular_value,
    nystrom_matrix,
    p_explicit,
    p_series,
    p_wronskian,
    self_adjoint_certificate,
    solve_gamma,
    validate_sets,
)
from rbkernel.counterexample import (
    DEFAULT_CERTIFICATE_GRADING,
    DEFAULT_CERTIFICATE_NODES,
    DEFAULT_CERTIFICATE_PANELS,
)
from rbkernel.operator import build_grid


def _report(number: int, description: str, detail: str, ok: bool):
    print(f"[criterion {number:2d}] {description}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {description} ({detail})"


def test_criterion_01_gamma_coefficient():
    gamma0 = solve_gamma(validate_sets([0], [2])).gamma[0]
    error = abs(gamma0 + 6.0)
    _report(1, "gamma_0 = -6 within 1e-14", f"error {error:.2e}", error <= 1e-14)


def test_criterion_02_wronskian_suite():
    worst = 0.0
    for m in range(21):
        for r in np.geomspace(0.1, 50.0, 30):
            worst = max(worst, abs(
                eval_regular(m, float(r)).value * eval_irregular(m, float(r)).derivative
                - eval_regular(m, float(r)).derivative * eval_irregular(m, float(r)).value
                - 1.0
            ))
    _report(2, "Wronskian = 1 within 1e-10 over m<=20, r in [0.1, 50]",
            f"worst {worst:.2e}", worst <= 1e-10)


def test_criterion_03_small_radius_asymptotics():
    dev_01 = abs(p_series(0.1) / 0.1**2 + 0.2)
    dev_001 = abs(p_series(0.01) / 0.01**2 + 0.2)
    ok = dev_01 <= 0.02 and dev_001 <= 2e-4
    _report(3, "p(r)/r^2 -> -1/5 via series branch",
            f"dev(0.1) {dev_01:.2e} <= 2e-2, dev(0.01) {dev_001:.2e} <= 2e-4", ok)


def test_criterion_04_large_radius_limit():
    dev_10 = abs(p_explicit(10.0) - 1.0)
    dev_100 = abs(p_explicit(100.0) - 1.0)
    ok = dev_10 <= 0.07 and dev_100 <= 7e-4
    _report(4, "p(r) -> 1 at large r",
            f"dev(10) {dev_10:.2e} <= 7e-2, dev(100) {dev_100:.2e} <= 7e-4", ok)


def test_criterion_05_root():
    # independent confirmation of the bracket signs, straight from arithmetic
    def p_direct(r):
        return 1.0 - (3.0 + 3.0 * math.cos(r) ** 2) / r**2 + 3.0 * math.sin(2 * r) / r**3

    assert p_direct(2.0) < 0.0 < p_direct(2.5)
    result = find_root(2.0, 2.5, tol=1e-12)
    ok = result.residual <= 1e-12 and round(result.root, 2) == 2.44
    _report(5, "find_root(2, 2.5, 1e-12) converges to R = 2.44",
            f"R {result.root:.12f}, |p(R)| {result.residual:.2e}", ok)


def test_criterion_06_identity(root_r):
    residuals = {r: check_identity(r) for r in (1.0, root_r, 3.0)}
    worst = max(residuals.values())
    _report(6, "integration-by-parts identity within 1e-8 at r in {1, R, 3}",
            f"worst {worst:.2e}", worst <= 1e-8)


def test_criterion_07_nontrivial_solution_at_root(reference_spec, root_r):
    from rbkernel import apply_operator

    worst = max(
        abs(
            eval_regular(2, float(s)).value
            - apply_operator(reference_spec, root_r, lambda t: eval_regular(2, t).value, float(s))
        )
        for s in np.linspace(root_r / 20, root_r, 20)
    )
    _report(7, "u_2 solves h = K h at r = R within 1e-8", f"worst {worst:.2e}",
            worst <= 1e-8)


def _nearest_eigenpair(spec, r, panels):
    """1 - lambda, signed, for the eigenvalue of the symmetric form nearest 1, and its
    eigenvector, on ``panels`` uniform panels of 12 nodes at r; and the grid."""
    grid = build_grid(r, panels, 12, grading=1.0)
    eigenvalues, eigenvectors = np.linalg.eigh(nystrom_matrix(spec, grid).own_norm_form(),
                                               UPLO="L")
    nearest = np.argmin(np.abs(1.0 - eigenvalues))
    return 1.0 - eigenvalues[nearest], eigenvectors[:, nearest], grid


def test_criterion_08_spectral_corroboration(reference_spec, root_r):
    # the Nystrom route, an independent discretization: its error at R is
    # O(N^-2), so halving the panels quadruples 1 - lambda (e_16/e_32 = 4),
    # and one Richardson step (4 e_32 - e_16)/3 removes that term
    e_16, _, _ = _nearest_eigenpair(reference_spec, root_r, 16)
    e_32, null_vec, grid = _nearest_eigenpair(reference_spec, root_r, 32)
    richardson = abs(4.0 * e_32 - e_16) / 3.0
    ratio = e_16 / e_32

    away = {}
    for r in (0.5, 1.0, 1.5):
        grid_away = build_grid(r, 16, 12, grading=1.0)
        away[r] = min_singular_value(nystrom_matrix(reference_spec, grid_away))

    # the null vector holds node values scaled by D = sqrt(w)/t
    samples = eval_regular(2, grid.nodes).value * grid.l2_scaling
    samples /= np.linalg.norm(samples)
    if float(null_vec @ samples) < 0.0:
        null_vec = -null_vec
    deviation = float(np.max(np.abs(null_vec - samples)))

    ok = (
        richardson <= 1e-8
        and abs(ratio - 4.0) <= 1e-2
        and all(sigma >= 0.1 for sigma in away.values())
        and deviation <= 1e-5
    )
    _report(8, "sigma_min collapses only at R and the null vector matches u_2",
            f"Richardson |1 - lambda| at R {richardson:.2e} <= 1e-8, "
            f"e_16/e_32 {ratio:.5f} within 1e-2 of 4, "
            f"min away {min(away.values()):.2f} >= 0.1, "
            f"null-vector dev {deviation:.2e} <= 1e-5", ok)


def test_criterion_09_ode_residual():
    # with the ladder derivatives u_2'' = u_0 - (3/s) u_1 + (6/s^2) u_2, the
    # ODE residual u_2'' + u_2 - (6/s^2) u_2 is the recurrence u_0 + u_2 - (3/s) u_1
    s = np.array([0.01, 0.1, 1.0, 5.0, 20.0])
    u0, u1, u2 = (eval_regular(m, s).value for m in (0, 1, 2))
    worst = float(np.max(np.abs(u0 + u2 - 3.0 / s * u1)))
    _report(9, "u_2 satisfies its ODE within 1e-9 (ladder derivatives)",
            f"worst {worst:.2e}", worst <= 1e-9)


def test_criterion_10_cross_route_agreement():
    worst_wide = max(
        abs(p_explicit(float(r)) - p_wronskian(float(r)))
        for r in np.geomspace(0.25, 50.0, 80)
    )
    worst_series = max(
        abs(p_series(float(r)) - p_explicit(float(r)))
        for r in np.linspace(0.25, 0.5, 26)
    )
    worst = max(worst_wide, worst_series)
    _report(10, "p routes agree within 1e-9 on [0.25, 50]",
            f"worst {worst:.2e}", worst <= 1e-9)


def test_criterion_11_kink_exact_certificate(reference_spec, root_r):
    def certificate(r, panels=DEFAULT_CERTIFICATE_PANELS):
        grid = build_grid(r, panels, DEFAULT_CERTIFICATE_NODES,
                          grading=DEFAULT_CERTIFICATE_GRADING)
        return self_adjoint_certificate(kink_exact_matrix(reference_spec, grid))

    result = certificate(root_r)
    away = {r: certificate(r).sigma_min for r in (0.5, 1.0, 1.5)}

    grid = result.operator.grid
    samples = np.array([eval_regular(2, t).value for t in grid.nodes]) * grid.l2_scaling
    samples /= np.linalg.norm(samples)
    # the eigenvector of the eigenvalue nearest 1, from an eigh of the form's own
    eigenvalues, eigenvectors = np.linalg.eigh(result.operator.own_norm_form(), UPLO="L")
    null_vec = eigenvectors[:, np.argmin(np.abs(1.0 - eigenvalues))]
    if float(null_vec @ samples) < 0.0:
        null_vec = -null_vec
    deviation = float(np.max(np.abs(null_vec - samples)))

    # at rounding level a halving ratio means nothing: the off-root value
    # must instead be the same on a grid with twice the panels
    off_root_delta = abs(certificate(3.0).sigma_min
                         - certificate(3.0, 2 * DEFAULT_CERTIFICATE_PANELS).sigma_min)

    ok = (
        result.sigma_min <= 1e-6
        and all(sigma >= 0.1 for sigma in away.values())
        and deviation <= 1e-4
        and off_root_delta <= 1e-8
    )
    _report(11, "kink-exact self-adjoint certificate collapses only at R",
            f"sigma(R) {result.sigma_min:.2e} <= 1e-6, "
            f"min away {min(away.values()):.2f} >= 0.1, "
            f"null-vector dev {deviation:.2e} <= 1e-4, "
            f"sigma(3) across 2x panels {off_root_delta:.2e} <= 1e-8", ok)
