"""Tests for index-set validation, coefficient solving, and kernel evaluation."""

import math

import numpy as np
import pytest

from rbkernel import (
    KernelSpec,
    SetValidationError,
    SingularSystemError,
    UnsupportedOrderError,
    apply_operator,
    build_grid,
    equation_residual,
    eval_kernel,
    nystrom_matrix,
    solve_gamma,
    sweep,
    validate_sets,
)


class TestValidateSets:
    def test_reference_pair(self):
        sets = validate_sets([0], [2])
        assert sets.s_orders == (0.0,)
        assert sets.t_orders == (2.0,)
        assert solve_gamma(sets).terms == ((0, -6.0),)

    def test_disjointness(self):
        with pytest.raises(SetValidationError, match="disjoint"):
            validate_sets([1], [1])

    def test_square_system_required(self):
        with pytest.raises(SetValidationError, match="square"):
            validate_sets([0, 1], [2])

    def test_duplicates_rejected(self):
        with pytest.raises(SetValidationError, match="duplicate"):
            validate_sets([1, 1], [2, 3])

    def test_interval_bound(self):
        with pytest.raises(SetValidationError, match="admissible"):
            validate_sets([-0.5], [2])
        with pytest.raises(SetValidationError, match="admissible"):
            validate_sets([0], [-3])
        # the interval is open at -0.5, so anything above is fine
        sets = validate_sets([-0.4], [2])
        with pytest.raises(UnsupportedOrderError):
            solve_gamma(sets).terms

    def test_empty_and_nonfinite(self):
        with pytest.raises(SetValidationError):
            validate_sets([], [])
        with pytest.raises(SetValidationError):
            validate_sets([math.nan], [2])

    def test_orders_sorted(self):
        sets = validate_sets([3, 0], [4, 1])
        assert sets.s_orders == (0.0, 3.0)
        assert sets.t_orders == (1.0, 4.0)


class TestSolveGamma:
    def test_reference_pair_gives_minus_six(self):
        spec = solve_gamma(validate_sets([0], [2]))
        assert abs(spec.gamma[0] + 6.0) <= 1e-14

    def test_one_by_one_swapped(self):
        # gamma_1 / (1*2 - 0*1) = 1  =>  gamma_1 = 2
        spec = solve_gamma(validate_sets([1], [0]))
        assert spec.gamma[0] == pytest.approx(2.0, abs=1e-14)

    def test_two_by_two(self):
        # hand-solved: -g0/6 - g1/4 = 1 and -g0/12 - g1/10 = 1
        spec = solve_gamma(validate_sets([0, 1], [2, 3]))
        assert spec.gamma == pytest.approx((-36.0, 20.0), rel=1e-12)

    def test_residual_property_random_integer_sets(self):
        rng = np.random.default_rng(90125)
        for _ in range(60):
            size = int(rng.integers(1, 5))
            pool = list(rng.permutation(np.arange(13)))
            s_values = pool[:size]
            t_values = pool[size : 2 * size]
            spec = solve_gamma(validate_sets(s_values, t_values))
            assert equation_residual(spec.sets, spec.gamma) <= 1e-10, (
                s_values,
                t_values,
            )

    def test_near_degenerate_sets_reported(self):
        # two nearly equal orders make two columns nearly identical; depending
        # on severity this trips the condition gate or the residual guard,
        # but is never silently solved
        with pytest.raises(SingularSystemError):
            solve_gamma(validate_sets([0.0, 1e-9], [2.0, 3.0]))
        with pytest.raises(SingularSystemError, match="rank deficient"):
            solve_gamma(validate_sets([0.0, 1e-14], [2.0, 3.0]))

    def test_real_orders_accepted(self):
        # coefficient solving is pure arithmetic, no integrality needed
        spec = solve_gamma(validate_sets([0.25], [1.75]))
        assert equation_residual(spec.sets, spec.gamma) <= 1e-14


class TestEvalKernel:
    # g(2, 1) = -6 u_0(1) v_0(2) = -6 sin(1) (-cos 2); 40-digit oracle value
    G_2_1 = -2.1010529302440879

    def test_reference_value(self, reference_spec):
        assert eval_kernel(reference_spec, 2.0, 1.0) == pytest.approx(
            self.G_2_1, rel=1e-12
        )

    def test_symmetry_of_the_example(self, reference_spec):
        assert eval_kernel(reference_spec, 1.0, 2.0) == eval_kernel(
            reference_spec, 2.0, 1.0
        )

    def test_diagonal_zero_at_half_pi(self, reference_spec):
        # -cos(pi/2) vanishes, so the diagonal value does too
        assert abs(eval_kernel(reference_spec, math.pi / 2, math.pi / 2)) <= 1e-12

    def test_symmetry_bitwise_random(self, reference_spec):
        rng = np.random.default_rng(424242)
        pts = rng.uniform(1e-6, 10.0, size=(10_000, 2))
        for s, t in pts:
            assert eval_kernel(reference_spec, s, t) == eval_kernel(
                reference_spec, t, s
            )

    def test_terms_built_once_per_spec(self):
        spec = solve_gamma(validate_sets([0, 4, 8], [2, 6, 10]))
        assert spec.terms is spec.terms
        assert spec.terms == tuple(zip((0, 4, 8), spec.gamma))
        assert all(type(m) is int for m, _ in spec.terms)

    def test_non_integer_orders_rejected(self):
        spec = solve_gamma(validate_sets([0.5], [1.5]))
        message = r"the kernel needs nonnegative integer orders in S, got S=\[0\.5\]"
        with pytest.raises(UnsupportedOrderError, match=message):
            eval_kernel(spec, 1.0, 2.0)
        with pytest.raises(UnsupportedOrderError, match=message):
            nystrom_matrix(spec, build_grid(1.0, 2, 4))
        with pytest.raises(UnsupportedOrderError, match=message):
            apply_operator(spec, 1.0, lambda t: t, 0.5)
        with pytest.raises(UnsupportedOrderError, match=message):
            sweep(spec, 1.0, 2.0, 3)  # raised once, not recorded per point

    def test_domain_errors(self, reference_spec):
        with pytest.raises(ValueError):
            eval_kernel(reference_spec, 0.0, 1.0)
        with pytest.raises(ValueError):
            eval_kernel(reference_spec, 1.0, math.inf)


class TestGreenFunctionProperty:
    """The single-pair unit kernel g0(s, t) = u_0(min) v_0(max) inverts d^2 + 1."""

    @staticmethod
    def _unit_spec():
        return KernelSpec(sets=validate_sets([0], [2]), gamma=(1.0,))

    def test_ode_on_each_side(self):
        # with ladder derivatives, (d^2 + 1) applied in s away from the kink
        # reduces to (u_0'' + u_0) v_0 or u_0 (v_0'' + v_0); both vanish
        t0 = 1.3
        for s in np.linspace(0.1, 2.5, 25):
            s = float(s)
            if abs(s - t0) < 1e-9:
                continue
            # second derivative of sin/cos via the m=0 ladder is exact
            g_ss = -math.sin(min(s, t0)) * -math.cos(max(s, t0))
            g = math.sin(min(s, t0)) * -math.cos(max(s, t0))
            assert abs(g_ss + g) <= 1e-8

    def test_derivative_jump_is_one(self):
        # second-order one-sided differences across s = t0; the jump equals
        # the Wronskian, i.e. the delta-function weight
        spec = self._unit_spec()
        t0 = 1.3
        h = 1e-4

        def g(s):
            return eval_kernel(spec, s, t0)

        right = (-3 * g(t0) + 4 * g(t0 + h) - g(t0 + 2 * h)) / (2 * h)
        left = (3 * g(t0) - 4 * g(t0 - h) + g(t0 - 2 * h)) / (2 * h)
        assert abs((right - left) - 1.0) <= 1e-8

    def test_solved_pair_jump_scales_with_gamma(self, reference_spec):
        # the solved kernel's jump is gamma_0 * Wronskian = -6
        t0 = 0.9
        h = 1e-4

        def g(s):
            return eval_kernel(reference_spec, s, t0)

        right = (-3 * g(t0) + 4 * g(t0 + h) - g(t0 + 2 * h)) / (2 * h)
        left = (3 * g(t0) - 4 * g(t0 - h) + g(t0 - 2 * h)) / (2 * h)
        assert abs((right - left) + 6.0) <= 1e-7
