"""Tests for the p function, its root, and the verification chain."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rbkernel import (
    ConvergenceError,
    apply_operator,
    build_grid,
    check_identity,
    eval_regular,
    find_root,
    kink_exact_matrix,
    min_singular_value,
    p_explicit,
    p_series,
    p_wronskian,
    self_adjoint_certificate,
    verify_counterexample,
)
import rbkernel.counterexample as cx_module
from rbkernel.counterexample import EXPLICIT_CROSSOVER, GATES, P_ROUTES, SERIES_RADIUS

from conftest import mp_p

# 40-digit oracle values of the closed form
P_AT_1 = -0.14788746470224133
P_AT_2 = -0.16368457791661863
P_AT_2_5 = 0.027807614753503111
P_AT_0_1 = -0.0019942910025982904
R_TRUE = 2.4431401944938765  # root of p to double precision

# Taylor coefficients of p as exact rationals, confirmed independently below
SERIES_RATIONALS = {1: (-1, 5), 2: (2, 35), 3: (-1, 189), 4: (2, 7425)}


class TestExplicitRoute:
    def test_at_pi(self):
        value = p_explicit(math.pi)
        assert value == pytest.approx(1.0 - 6.0 / math.pi**2, rel=1e-13)

    def test_reference_values(self):
        assert p_explicit(1.0) == pytest.approx(P_AT_1, rel=1e-13)
        assert p_explicit(2.0) == pytest.approx(P_AT_2, rel=1e-13)
        assert p_explicit(2.5) == pytest.approx(P_AT_2_5, rel=1e-12)

    def test_sign_change_bracket(self):
        assert p_explicit(2.0) < 0.0 < p_explicit(2.5)

    def test_small_radius_delegates_to_series(self):
        assert p_explicit(0.05) == p_series(0.05)
        r, c = 0.25, math.cos(0.25)  # the closed form runs from the crossover on
        closed = 1.0 - (3.0 + 3.0 * c * c) / (r * r) + 3.0 * math.sin(2.0 * r) / r**3
        assert p_explicit(r) == closed
        assert EXPLICIT_CROSSOVER == 0.2

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            p_explicit(0.0)
        with pytest.raises(ValueError):
            p_explicit(-1.0)
        with pytest.raises(ValueError):
            p_explicit(math.inf)


class TestWronskianRoute:
    def test_at_pi_reduces_to_u2_derivative(self):
        # v_0(pi) = 1 and v'_0(pi) = 0, so p(pi) = u'_2(pi) = 1 - 6/pi^2
        value = p_wronskian(math.pi)
        assert value == pytest.approx(1.0 - 6.0 / math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 10.0])
    def test_matches_explicit(self, r):
        assert abs(p_wronskian(r) - p_explicit(r)) <= 1e-10

    def test_array_gives_the_bits_of_per_point_calls(self):
        # every Riccati branch of u_2 (series, backward, forward), underflowed
        # series values and the p-scan range
        radii = np.concatenate([
            [5e-324, 1e-310, 1e-200, 1e-155, 0.3, 0.5, 2.4431401944938766],
            np.geomspace(1e-3, 800.0, 200),
            np.linspace(0.3, 5.0, 1001),
        ])
        batch = p_wronskian(radii)
        assert batch.shape == radii.shape
        alone = np.array([p_wronskian(float(r)) for r in radii])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_array_rejects_a_bad_radius_like_a_scalar(self, bad):
        with pytest.raises(ValueError) as scalar:
            p_wronskian(bad)
        with pytest.raises(ValueError) as batch:
            p_wronskian(np.array([1.0, bad, 2.0]))
        assert str(batch.value) == str(scalar.value)


class TestSeriesRoute:
    def test_leading_term_dominates_near_zero(self):
        r = 1e-4
        assert p_series(r) / r**2 == pytest.approx(-0.2, rel=1e-7)

    def test_value_at_tenth(self):
        assert p_series(0.1) == pytest.approx(P_AT_0_1, rel=1e-13, abs=0.0)

    def test_overlap_with_explicit(self):
        assert abs(p_series(0.4) - p_explicit(0.4)) <= 1e-9

    def test_validity_radius_enforced(self):
        with pytest.raises(ValueError):
            p_series(0.6)
        assert SERIES_RADIUS == 0.5
        p_series(0.5)  # boundary included

    def test_coefficients_against_independent_extraction(self):
        # successively strip terms from the 80-digit closed form at r = 0.01;
        # each extracted coefficient is contaminated only at relative ~3e-5
        # by the next order, far smaller than the gaps between candidates
        with mp.workdps(80):
            r0 = mp.mpf("0.01")
            rest = mp_p(r0)
            for k in (1, 2, 3, 4):
                num, den = SERIES_RATIONALS[k]
                extracted = float(rest / r0 ** (2 * k))
                assert extracted == pytest.approx(num / den, rel=1e-4), k
                rest -= mp.mpf(num) / den * r0 ** (2 * k)


class TestRouteAgreement:
    def test_explicit_vs_wronskian_wide_range(self):
        for r in np.geomspace(0.2, 50.0, 80):
            r = float(r)
            assert abs(p_explicit(r) - p_wronskian(r)) <= 1e-9, r

    def test_series_vs_explicit_overlap_window(self):
        for r in np.linspace(0.25, 0.5, 26):
            r = float(r)
            assert abs(p_series(r) - p_explicit(r)) <= 1e-9, r


class TestAsymptotics:
    def test_small_radius_envelope(self):
        # |p + r^2/5| <= 0.1 r^4: the r^4 coefficient is 2/35 ~ 0.057
        for r in np.linspace(0.01, 0.3, 30):
            r = float(r)
            assert abs(p_explicit(r) + r * r / 5.0) <= 0.1 * r**4, r

    def test_large_radius_envelope(self):
        # |p - 1| <= (6 cos^2 + 3)/r^2 + 3/r^3 <= 7/r^2 for r >= 10
        for r in np.geomspace(10.0, 200.0, 25):
            r = float(r)
            assert abs(p_explicit(r) - 1.0) <= 7.0 / r**2, r


class TestFindRoot:
    def test_default_bracket(self):
        result = find_root(2.0, 2.5, tol=1e-12)
        assert result.residual <= 1e-12
        assert 2.0 < result.root < 2.5
        assert round(result.root, 2) == 2.44
        assert result.root == pytest.approx(R_TRUE, abs=1e-12)
        assert result.root == 2.4431401944938766
        assert result.bracket == (2.0, 2.5)
        # bisection ends on adjacent doubles: p changes sign between the root
        # and a neighbouring double, and here it has opposite signs on either side
        below, above = (p_explicit(math.nextafter(result.root, x))
                        for x in (0.0, 3.0))
        assert below < 0.0 < above

    def test_no_sign_change_reported(self):
        with pytest.raises(ValueError, match="sign change"):
            find_root(0.5, 1.5)
        # p ~ -r^2/5 here: the product p(lo) p(hi) underflows to 0, the signs do not
        with pytest.raises(ValueError, match="sign change"):
            find_root(1e-150, 1e-140)

    def test_tolerance_refinement_consistency(self):
        loose = find_root(2.0, 2.5, tol=1e-6).root
        tight = find_root(2.0, 2.5, tol=1e-12).root
        assert abs(loose - tight) <= 1e-6

    def test_route_invariance(self):
        via_explicit = find_root(2.0, 2.5, tol=1e-12, route="explicit").root
        via_wronskian = find_root(2.0, 2.5, tol=1e-12, route="wronskian").root
        assert via_explicit == via_wronskian

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            find_root(2.5, 2.0)
        with pytest.raises(ValueError):
            find_root(2.0, 2.5, tol=0.0)
        # nan compares false both ways, so it must not pass as a bound
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_root(2.0, 2.5, tol=math.nan)
        # tol bounds the returned |p|: the Wronskian route ends at 5.6e-17
        with pytest.raises(ValueError, match="exceeds tol"):
            find_root(2.0, 2.5, route="wronskian", tol=1e-20)
        with pytest.raises(ValueError) as exc:
            find_root(2.0, 2.5, route="nope")
        assert all(repr(route) in str(exc.value) for route in P_ROUTES)

    @pytest.mark.parametrize("bad_r, bad_p, message", [
        (2.0, math.nan, "p is not finite at the bracket endpoints"),
        (2.5, math.inf, "p is not finite at the bracket endpoints"),
        (2.25, math.nan, r"p\(2\.25\) is not finite"),
    ])
    def test_non_finite_p_is_named(self, monkeypatch, bad_r, bad_p, message):
        # |p| > tol is False for nan: without these checks a nan could pass as a root
        real = P_ROUTES["explicit"]
        monkeypatch.setitem(P_ROUTES, "explicit", lambda r: bad_p if r == bad_r else real(r))
        with pytest.raises(ValueError, match=message):
            find_root(2.0, 2.5)


class TestCheckIdentity:
    def test_moderate_radius(self):
        assert check_identity(1.0) <= 1e-9

    def test_at_root_implies_fixed_point(self, reference_spec, root_r):
        assert check_identity(root_r) <= 1e-8
        # p(R) = 0, so K u_2 must reproduce u_2 itself
        worst = max(
            abs(
                apply_operator(
                    reference_spec, root_r, lambda t: eval_regular(2, t).value, float(s)
                )
                - eval_regular(2, float(s)).value
            )
            for s in np.linspace(root_r / 20, root_r, 20)
        )
        assert worst <= 1e-8

    def test_beyond_root(self):
        assert check_identity(3.0) <= 1e-8

    def test_point_validation(self):
        with pytest.raises(ValueError):
            check_identity(1.0, s_points=[0.5, 1.5])

    def test_tiny_points(self):
        # t * t underflows on [0, s] and u_2 with it; the identity still closes
        for r in (0.3, 1.0, 5.0):
            assert check_identity(r, s_points=[1e-160, 1e-200, 1e-300, 1e-320, 5e-324]) <= 1e-8


# an input of verify made to raise: (the function, the radius it fails at,
# None for every call and "R" for the root, {gate: label} of the steps it fails)
INJECTED_FAILURES = {
    "find_root": ("find_root", None, {"root_residual": "root_search"}),
    "apply_at_1": ("apply_operator", 1.0, {"identity_residual": "identity_check"}),
    "apply_at_R": ("apply_operator", "R", {"identity_residual": "identity_check",
                                           "equation_residual": "equation_check"}),
    "apply_at_3": ("apply_operator", 3.0, {"identity_residual": "identity_check"}),
    "kink_exact_matrix": ("kink_exact_matrix", None, {
        "sigma_min_at_R": "spectral_certificate",
        "null_vector_deviation": "null_vector_check",
        "collapse_ratio": "off_root_check",
        "off_root_eigenvalue_gap": "off_root_exact_check"}),
    "min_singular_value": ("min_singular_value", None, {
        "collapse_ratio": "off_root_check",
        "off_root_eigenvalue_gap": "off_root_exact_check"}),
}


def inject_failure(monkeypatch, name, root_r):
    """Make the input of ``INJECTED_FAILURES[name]`` raise a numeric error."""
    target, radius, _ = INJECTED_FAILURES[name]
    at = root_r if radius == "R" else radius
    original = getattr(cx_module, target)

    def failing(*args, **kwargs):
        if at is None or args[1] == at:  # apply_operator(spec, r, ...)
            raise ValueError("synthetic failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(cx_module, target, failing)


class TestVerifyCounterexample:
    def test_default_run_passes(self):
        report = verify_counterexample()
        assert report.passed
        assert round(report.r_used, 2) == 2.44
        assert report.gamma0 == pytest.approx(-6.0, abs=1e-14)
        data = report.to_json_dict()
        assert data["identity_residual"] <= 1e-8
        assert data["equation_residual"] <= 1e-8
        assert data["sigma_min_at_R"] <= 1e-6
        assert data["pass"] is True
        assert set(data) >= {"R", "gamma0", "identity_residual",
                             "equation_residual", "sigma_min_at_R", "steps"}

    def test_forced_radius_fails_equation(self):
        report = verify_counterexample(r_override=1.0)
        assert not report.passed
        # residual is |p(1)| max_s u_0(s) = |p(1)| sin(1) for s in (0, 1],
        # relative to max_s u_2(s) = u_2(1) = 2 sin(1) - 3 cos(1)
        expected = abs(P_AT_1) * math.sin(1.0) / (2.0 * math.sin(1.0) - 3.0 * math.cos(1.0))
        data = report.to_json_dict()
        assert data["equation_residual"] == pytest.approx(expected, rel=1e-2)
        # the identity itself still holds away from the root
        assert data["identity_residual"] <= 1e-8

    def test_equation_residual_is_relative_to_u2(self, root_r):
        # |u_2 - K u_2| = |p(r)| u_0 ~ r^3/5 at a small radius, below the 1e-8
        # gate; relative to max |u_2| ~ r^3/15 it is 3
        steps = {name: (value, ok) for name, value, _, ok in
                 verify_counterexample(r_override=0.001).steps}
        value, ok = steps["equation_residual"]
        assert value == pytest.approx(3.0, rel=1e-5) and not ok
        steps = {name: (value, ok) for name, value, _, ok in
                 verify_counterexample().steps}
        value, ok = steps["equation_residual"]
        assert ok and value <= 1e-12
        # max |u_2| < 1 on R's points, so the scale is max |u_2| itself
        u2 = eval_regular(2, np.linspace(root_r / 20, root_r, 20)).value
        assert 0.1 < np.max(np.abs(u2)) < 1.0

    def test_equation_residual_never_looser_than_absolute(self, reference_spec):
        # |u_2| peaks at 1.11 near r = 3.87: the scale is min(1, max |u_2|)
        points = np.linspace(0.2, 4.5, 20)
        u2 = eval_regular(2, points).value
        k_u2 = u2 + 1e-9
        assert np.max(np.abs(u2)) > 1.0
        assert cx_module._equation_residual(u2, k_u2) == float(np.max(np.abs(u2 - k_u2)))
        with pytest.raises(ValueError, match="u_2 underflows to 0 at every point"):
            cx_module._equation_residual(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("r", [1.0, 3.0])
    def test_forced_off_root_radius_fails_the_certificate(self, r):
        report = verify_counterexample(r_override=r)
        assert not report.passed
        steps = {name: (value, ok) for name, value, _, ok in report.steps}
        assert report.to_json_dict()["sigma_min_at_R"] >= 0.1
        assert not steps["sigma_min_at_R"][1]
        assert not steps["collapse_ratio"][1]
        assert steps["collapse_ratio"][0] >= 1.0  # r = 3 is one of the off-root radii
        assert not steps["null_vector_deviation"][1]
        assert steps["off_root_eigenvalue_gap"][1]  # the r = 3 value does not depend on R

    def test_certificate_calls_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("verify must not compute an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        report = verify_counterexample()
        assert report.passed
        steps = {name: value for name, value, _, _ in report.steps}
        assert steps["sigma_min_at_R"] <= 1e-12
        assert steps["null_vector_deviation"] <= 1e-10
        assert steps["collapse_ratio"] <= 1e-10
        assert steps["off_root_eigenvalue_gap"] <= 1e-11

    def test_report_explains_the_certificate(self):
        report = verify_counterexample()
        certificate = report.to_json_dict()["certificate"]
        assert {k: certificate[k] for k in ("panels", "nodes", "size")} == {
            "panels": 8, "nodes": 16, "size": 128}
        assert certificate["next_sigma"] == pytest.approx(1.0, abs=1e-4)
        assert certificate["asymmetry"] <= 1e-10
        assert "certificate: 8 panels x 16 nodes (N = 128)" in report.summary_text()
        # no wall times: a second run gives the same bytes
        again = verify_counterexample()
        assert again.to_json_text() == report.to_json_text()
        assert again.summary_text() == report.summary_text()

    def test_failed_certificate_reports_no_grid(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cx_module, "kink_exact_matrix", failing)
        report = verify_counterexample()
        assert not report.passed
        assert report.spectral is None
        assert report.to_json_dict()["certificate"] is None
        assert "certificate:" not in report.summary_text()
        names = [name for name, *_ in report.steps]
        assert names == [
            "gamma0_matches_-6",
            "root_residual",
            "identity_residual",
            "equation_residual",
            "spectral_certificate (synthetic failure)",
            "null_vector_check (synthetic failure)",
            "off_root_check (synthetic failure)",
            "off_root_exact_check (synthetic failure)",
        ]

    @pytest.mark.parametrize("injected", INJECTED_FAILURES)
    def test_failed_input_fails_exactly_the_steps_reading_it(self, monkeypatch, root_r, injected):
        inject_failure(monkeypatch, injected, root_r)
        failed = INJECTED_FAILURES[injected][2]
        report = verify_counterexample()
        assert not report.passed
        # every gate keeps its step, its place and its threshold
        assert len(report.steps) == len(GATES)
        assert [threshold for _, _, threshold, _ in report.steps] == list(GATES.values())
        assert [name for name, *_ in report.steps] == [
            f"{failed[gate]} (synthetic failure)" if gate in failed else gate for gate in GATES
        ]
        assert [value is None for _, value, _, _ in report.steps] == [
            gate in failed for gate in GATES
        ]
        assert not any(ok for name, _, _, ok in report.steps if name not in GATES)

    @pytest.mark.parametrize("force_r, injected", [
        *[(r, None) for r in (None, 1.0, 3.0, 1e-300)],
        *[(None, name) for name in INJECTED_FAILURES],
    ], ids=["R", "force_1", "force_3", "force_1e-300", *INJECTED_FAILURES])
    def test_top_level_values_are_the_step_values(self, monkeypatch, root_r, force_r, injected):
        if injected is not None:
            inject_failure(monkeypatch, injected, root_r)
        data = verify_counterexample(force_r).to_json_dict()
        # a failed step is renamed ``label (message)``, so its gate's name is missing
        values = {step["name"]: step["value"] for step in data["steps"]}
        for gate in ("identity_residual", "equation_residual", "sigma_min_at_R"):
            if gate in values:
                assert isinstance(data[gate], float) and data[gate] == values[gate]
            else:
                assert data[gate] is None

    def test_only_numeric_errors_become_failed_steps(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(cx_module, "apply_operator", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            verify_counterexample()

        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cx_module, "apply_operator", failing)
        report = verify_counterexample()
        assert not report.passed
        for step in ("identity_check", "equation_check"):
            assert (f"{step} (synthetic failure)", None, 1e-8, False) in report.steps

    def test_eigvalsh_only_and_three_quadratures(self, monkeypatch):
        calls = {"eigh": [], "eigvalsh": [], "apply_operator": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args[1] if name == "apply_operator" else len(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        monkeypatch.setattr(cx_module, "apply_operator",
                            counting("apply_operator", cx_module.apply_operator))
        report = verify_counterexample()
        assert report.passed
        # no eigenvector: the null vector is bounded from u_2 and the gap
        assert calls["eigh"] == []
        # at R and at r = 1 and 3, and none above the certificate's 128 nodes
        assert len(calls["eigvalsh"]) == 3
        assert max(calls["eigvalsh"]) <= 128
        # K u_2 at R once, shared by the identity and equation steps
        assert sorted(calls["apply_operator"]) == sorted([1.0, report.r_used, 3.0])

    def test_shared_quadrature_keeps_the_residuals(self, reference_spec):
        report = verify_counterexample()
        r = report.r_used
        data = report.to_json_dict()
        assert data["identity_residual"] == max(check_identity(x) for x in (1.0, r, 3.0))
        points = np.linspace(r / 20, r, 20)
        u2 = lambda t: eval_regular(2, t).value  # noqa: E731
        # relative to max |u_2| on the points, which is below 1 at R
        assert data["equation_residual"] == float(np.max(np.abs(
            u2(points) - apply_operator(reference_spec, r, u2, points)
        ))) / float(np.max(np.abs(u2(points))))

    def test_failed_shared_quadrature_fails_both_steps(self, monkeypatch):
        r_star = find_root(2.0, 2.5).root
        original = cx_module.apply_operator

        def failing_at_r_star(spec, r, *args, **kwargs):
            if r == r_star:
                raise ConvergenceError(f"synthetic failure at {r!r}")
            return original(spec, r, *args, **kwargs)

        monkeypatch.setattr(cx_module, "apply_operator", failing_at_r_star)
        report = verify_counterexample()
        assert not report.passed
        message = f"synthetic failure at {r_star!r}"
        assert report.steps[2:4] == [
            (f"identity_check ({message})", None, 1e-8, False),
            (f"equation_check ({message})", None, 1e-8, False),
        ]
        data = report.to_json_dict()
        assert data["identity_residual"] is None and data["equation_residual"] is None
        assert all(ok for _, _, _, ok in report.steps[4:])

    def test_forced_radius_three_is_its_own_off_root_value(self):
        # the radius used and r = 3 go through the same eigvalsh on the same matrix
        report = verify_counterexample(r_override=3.0)
        steps = {name: value for name, value, _, _ in report.steps}
        assert steps["collapse_ratio"] == 1.0

    def test_certificate_does_not_import_scipy(self):
        # scipy is a test oracle only; the certificate path must not load it
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import sys, rbkernel; assert rbkernel.verify_counterexample().passed; "
                "sys.exit('scipy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_summary_mentions_radius(self):
        report = verify_counterexample()
        assert "R ≈ 2.44" in report.summary_text()
        assert "overall: PASS" in report.summary_text()


class TestNullVectorBound:
    """``null_vector_deviation`` is sqrt(2) ||S t - t|| / next_sigma, with t the
    D-scaled u_2: a bound on max |v - t| for the eigenvector v that verify never
    computes, checked here against an eigh of the certificate's own form."""

    @pytest.mark.parametrize("panels, nodes", [(4, 12), (8, 12), (8, 16), (16, 16)])
    @pytest.mark.parametrize("r", [
        "R", "R(1 - 1e-6)", "R(1 + 1e-6)", "R(1 + 1e-9)", 0.5, 1.0, 2.0, 3.0, 5.0])
    def test_bound_dominates_the_measured_deviation(self, reference_spec, root_r, panels,
                                                    nodes, r):
        factors = {"R": 1.0, "R(1 - 1e-6)": 1.0 - 1e-6, "R(1 + 1e-6)": 1.0 + 1e-6,
                   "R(1 + 1e-9)": 1.0 + 1e-9}
        radius = root_r * factors[r] if r in factors else r
        grid = build_grid(radius, panels, nodes, grading=1.0)
        certificate = self_adjoint_certificate(kink_exact_matrix(reference_spec, grid))
        target = eval_regular(2, grid.nodes).value * grid.l2_scaling
        target /= np.linalg.norm(target)
        eigenvalues, eigenvectors = np.linalg.eigh(certificate.operator.own_norm_form(),
                                                   UPLO="L")
        vector = eigenvectors[:, np.argmin(np.abs(1.0 - eigenvalues))]
        if float(vector @ target) < 0.0:
            vector = -vector
        deviation = float(np.max(np.abs(vector - target)))
        # eigh's vector is itself off by an angle of about eps ||S|| / gap (LAPACK
        # Users' Guide, section 4.7), which shows only where both read rounding
        # level: at R, where its bits move with the BLAS thread count
        allowance = np.finfo(float).eps * np.max(np.abs(eigenvalues)) / certificate.next_sigma
        assert cx_module._null_vector_deviation(certificate) + allowance >= deviation

    @pytest.mark.parametrize("gap", [0.0, math.nan])
    def test_a_gap_of_zero_or_nan_fails_the_step(self, monkeypatch, gap):
        real = cx_module.self_adjoint_certificate
        monkeypatch.setattr(cx_module, "self_adjoint_certificate",
                            lambda op: dataclasses.replace(real(op), next_sigma=gap))
        report = verify_counterexample()
        failed = [(name, value) for name, value, _, ok in report.steps if not ok]
        assert len(failed) == 1
        name, value = failed[0]
        if gap == 0.0:  # float division by zero: the step fails to evaluate
            assert (name, value) == ("null_vector_check (float division by zero)", None)
        else:  # NaN is never at most the threshold
            assert name == "null_vector_deviation" and math.isnan(value)


def mp_dispersion(nu, r):
    """F(nu, r) = u_nu(r) sin r + u_nu'(r) cos r at 40 digits, u_nu from mpmath.besselj."""
    with mp.workdps(40):
        u = lambda x: mp.sqrt(mp.pi * x / 2) * mp.besselj(mp.mpf(nu) + 0.5, x)  # noqa: E731
        r = mp.mpf(r)
        return u(r) * mp.sin(r) + mp.diff(u, r) * mp.cos(r)


def nu_of(excess):
    """nu > 0 with 6 / (nu (nu + 1)) = 1 + excess."""
    return 0.5 * (math.sqrt(1.0 + 24.0 / (1.0 + excess)) - 1.0)


class TestExactSpectrum:
    """The dispersion relation in nu behind the off_root_eigenvalue_gap gate."""

    def test_first_eigenvalue_at_3_against_mpmath(self):
        with mp.workdps(40):
            nu0 = mp.findroot(lambda nu: mp_dispersion(nu, 3), 1.418)
            excess = 6 / (nu0 * (nu0 + 1)) - 1
        value = cx_module._lambda0_minus_1(3.0)
        assert abs(value - float(excess)) <= 5e-15
        assert abs(nu_of(value) - float(nu0)) <= 5e-15
        assert float(nu0) == pytest.approx(1.4183676736166014, abs=5e-15)

    @pytest.mark.parametrize("nu, r", [(0.5, 1.0), (1.4, 3.0), (3.7, 6.0)])
    def test_dispersion_against_mpmath(self, nu, r):
        assert cx_module._dispersion(nu, r) == pytest.approx(float(mp_dispersion(nu, r)), abs=1e-14)

    def test_dispersion_at_orders_0_and_2_is_1_and_minus_p(self):
        # u_0 = sin, so F(0, r) = 1; u_2 ties F(2, r) to the paper's p
        for r in np.linspace(0.5, 8.0, 40):
            assert abs(cx_module._dispersion(0.0, r) - 1.0) <= 1e-13
            assert abs(cx_module._dispersion(2.0, r) + p_explicit(r)) <= 1e-13

    def test_root_is_the_first_sign_change(self):
        nu0 = nu_of(cx_module._lambda0_minus_1(3.0))
        below = [cx_module._dispersion(nu, 3.0) for nu in np.linspace(0.0, nu0 - 1e-9, 2001)]
        assert min(below) > 0.0
        assert cx_module._dispersion(nu0 + 1e-9, 3.0) < 0.0

    def test_no_positive_eigenvalue_is_an_error(self):
        # K has an eigenvalue above 0 only from r = pi/2 on
        with pytest.raises(ValueError, match="changes sign for no nu"):
            cx_module._lambda0_minus_1(1.0)

    def test_grid_error_falls_at_the_predicted_order(self, reference_spec):
        # u_nu ~ t^(nu + 1) at the origin: lambda_0's error on uniform panels
        # falls by about 2^(2 nu_0 + 1) per doubling
        exact = cx_module._lambda0_minus_1(3.0)
        e4, e8 = (abs(min_singular_value(kink_exact_matrix(
            reference_spec, build_grid(3.0, panels, 16, grading=1.0))) - exact)
            for panels in (4, 8))
        assert abs(math.log2(e4 / e8) - (2.0 * nu_of(exact) + 1.0)) <= 0.1
