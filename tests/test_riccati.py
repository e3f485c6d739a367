"""Tests for the Riccati-Bessel function evaluator."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from rbkernel import eval_irregular, eval_regular, wronskian
from rbkernel.riccati import (
    SERIES_CROSSOVER,
    _regular_backward,
    _regular_series_parts,
)

from conftest import mp_irregular, mp_regular

# u_2(0.5), computed from the Taylor series u_2 = r^3/15 (1 - r^2/14 + ...)
# summed to machine precision (40-digit oracle agrees).
U2_AT_HALF = 0.0081855533039967063


class TestRegularExamples:
    def test_order0_at_half_pi(self):
        value, derivative = eval_regular(0, math.pi / 2)
        assert value == pytest.approx(1.0, abs=1e-15)
        assert abs(derivative) < 1e-12  # cos(pi/2) up to rounding of pi/2

    def test_order2_at_pi(self):
        value, _ = eval_regular(2, math.pi)
        assert value == pytest.approx(3.0 / math.pi, rel=1e-12)

    def test_order2_small_radius_series(self):
        value, _ = eval_regular(2, 0.5)
        assert value == pytest.approx(U2_AT_HALF, rel=1e-13)

    def test_origin_limits(self):
        assert eval_regular(0, 0.0) == (0.0, 1.0)
        assert eval_regular(3, 0.0) == (0.0, 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_regular(-1, 1.0)
        with pytest.raises(ValueError):
            eval_regular(2.5, 1.0)
        with pytest.raises(ValueError):
            eval_regular(0, math.nan)
        with pytest.raises(ValueError):
            eval_regular(0, math.inf)
        with pytest.raises(ValueError):
            eval_regular(0, -1.0)


class TestIrregularExamples:
    def test_order0_at_half_pi(self):
        value, derivative = eval_irregular(0, math.pi / 2)
        assert abs(value) < 1e-12  # -cos(pi/2)
        assert derivative == pytest.approx(1.0, abs=1e-15)

    def test_order1_value_forced_by_recurrence(self):
        # v_1 = -cos(r)/r - sin(r) from the seeds v_-1 = sin, v_0 = -cos
        value, _ = eval_irregular(1, math.pi / 2)
        assert value == pytest.approx(-1.0, rel=1e-12)

    def test_order1_derivative_ladder(self):
        # v'_1 = v_0 - v_1 / r, by hand at pi/2: 0 - (-1)/(pi/2) = 2/pi
        _, derivative = eval_irregular(1, math.pi / 2)
        assert derivative == pytest.approx(0.63661977236758134, rel=1e-12)

    def test_rejects_zero_and_negative_radius(self):
        with pytest.raises(ValueError):
            eval_irregular(0, 0.0)
        with pytest.raises(ValueError):
            eval_irregular(2, -0.3)


class TestWronskian:
    def test_order0(self):
        assert abs(wronskian(0, 1.0) - 1.0) <= 1e-12
        assert abs(wronskian(0, 37.2) - 1.0) <= 1e-12

    def test_order5(self):
        assert abs(wronskian(5, 2.0) - 1.0) <= 1e-10

    def test_grid(self):
        # identity is radius-independent; exercise both branches and many orders
        for m in range(21):
            for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
                assert abs(wronskian(m, r) - 1.0) <= 1e-10, (m, r)


class TestRecurrenceConsistency:
    @pytest.mark.parametrize("r", [0.1, 0.7, 2.0, 13.5, 50.0])
    def test_both_families(self, r):
        for m in range(1, 20):
            u_prev = eval_regular(m - 1, r).value
            u_mid = eval_regular(m, r).value
            u_next = eval_regular(m + 1, r).value
            resid = u_next - (2 * m + 1) / r * u_mid + u_prev
            assert abs(resid) <= 1e-10 * max(abs(u_next), 1.0), ("u", m, r)

            v_prev = eval_irregular(m - 1, r).value
            v_mid = eval_irregular(m, r).value
            v_next = eval_irregular(m + 1, r).value
            resid = v_next - (2 * m + 1) / r * v_mid + v_prev
            assert abs(resid) <= 1e-10 * max(abs(v_next), 1.0), ("v", m, r)


class TestOdeResidual:
    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 4.0, 25.0])
    def test_ladder_twice(self, r):
        # f'' reconstructed from the ladder identity applied twice:
        # f''_m = f_{m-2} - ((2m-1)/r) f_{m-1} + m(m+1)/r^2 f_m
        for m in range(2, 11):
            for family in (eval_regular, eval_irregular):
                f2 = family(m - 2, r).value
                f1 = family(m - 1, r).value
                f0 = family(m, r).value
                second = f2 - (2 * m - 1) / r * f1 + m * (m + 1) / r**2 * f0
                resid = second + f0 - m * (m + 1) / r**2 * f0
                scale = max(abs(f0), 1.0)
                assert abs(resid) <= 1e-8 * scale, (family.__name__, m, r)


class TestBranchAgreement:
    def test_series_vs_closed_forms_in_overlap_window(self):
        # both branches must deliver >= 12 digits across the crossover
        for r in np.linspace(0.3, 0.7, 41):
            r = float(r)
            closed = {
                0: math.sin(r),
                1: math.sin(r) / r - math.cos(r),
            }
            for m in (0, 1, 2):
                prefactor, total = _regular_series_parts(m, r)
                series = prefactor * total
                if m in closed:
                    other = closed[m]
                else:
                    other = float(_regular_backward(m, r)[0][0])
                assert abs(series - other) <= 1e-12 * abs(other), (m, r)

    def test_crossover_constant(self):
        assert SERIES_CROSSOVER == 0.5


def test_small_radius_leading_term():
    # u_2(r)/r^3 -> 1/15; at r = 1e-3 the next term is r^2/14 ~ 7e-8
    r = 1e-3
    ratio = eval_regular(2, r).value / r**3
    assert abs(ratio - 1.0 / 15.0) <= 1e-5 / 15.0


@pytest.mark.parametrize("r", [1e-155, 1e-160, 1e-200, 1e-300])
def test_underflowed_series_keeps_its_derivative(r):
    # u_1 = r^2/3 is subnormal or 0 below ~1e-154, but u'_1 = 2r/3 is not;
    # the ladder u_0 - u_1/r would lose the u_1/r term (giving r at 1e-200)
    assert eval_regular(1, r).derivative == pytest.approx(2.0 * r / 3.0, rel=1e-15, abs=0.0)
    assert eval_regular(2, r).value == 0.0


@pytest.mark.parametrize("m, r", [(100, 0.066), (60, 3.8e-4)])
def test_underflowed_series_derivative_matches_oracle(m, r):
    # u_m is subnormal here while u_{m-1} is not; a leading-term derivative
    # would be off by ~1e-7 relative at m = 100
    value, derivative = eval_regular(m, r)
    assert 0.0 < value < np.finfo(float).tiny
    expected = mp_regular(m - 1, r) - m / mp.mpf(r) * mp_regular(m, r)
    assert abs(derivative - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("r", [1e-310, 5e-324])
def test_subnormal_radius_is_finite(r):
    # m/r overflows here; the pair is still representable
    assert eval_regular(2, r) == (0.0, 0.0)
    assert 0.0 < eval_regular(1, r).derivative <= r


class TestAgainstScipy:
    def test_regular_random_domain(self):
        rng = np.random.default_rng(20240817)
        for _ in range(400):
            m = int(rng.integers(0, 51))
            r = float(10 ** rng.uniform(-3, 2))
            value, derivative = eval_regular(m, r)
            ref = r * spherical_jn(m, r)
            ref_d = spherical_jn(m, r) + r * spherical_jn(m, r, derivative=True)
            if ref != 0.0:
                assert abs(value - ref) <= 1e-12 * abs(ref), (m, r)
            if ref_d != 0.0:
                assert abs(derivative - ref_d) <= 5e-12 * abs(ref_d), (m, r)

    def test_irregular_random_domain(self):
        rng = np.random.default_rng(7151)
        for _ in range(400):
            m = int(rng.integers(0, 51))
            r = float(10 ** rng.uniform(-2, 2))
            value, derivative = eval_irregular(m, r)
            ref = r * spherical_yn(m, r)
            ref_d = spherical_yn(m, r) + r * spherical_yn(m, r, derivative=True)
            assert abs(value - ref) <= 1e-12 * abs(ref), (m, r)
            assert abs(derivative - ref_d) <= 5e-12 * abs(ref_d), (m, r)

    def test_array_calls_over_the_domain(self):
        # one call per order over 60 radii in [1e-3, 100] (irregular: [1e-2, 100])
        rng = np.random.default_rng(4242)
        for m in range(51):
            r = 10 ** rng.uniform(-3, 2, 60)
            value, derivative = eval_regular(m, r)
            ref = r * spherical_jn(m, r)
            ref_d = spherical_jn(m, r) + r * spherical_jn(m, r, derivative=True)
            assert np.all(np.abs(value - ref) <= 1e-12 * np.abs(ref)), m
            assert np.all(np.abs(derivative - ref_d) <= 5e-12 * np.abs(ref_d)), m
            r = 10 ** rng.uniform(-2, 2, 60)
            value, derivative = eval_irregular(m, r)
            ref = r * spherical_yn(m, r)
            ref_d = spherical_yn(m, r) + r * spherical_yn(m, r, derivative=True)
            assert np.all(np.abs(value - ref) <= 1e-12 * np.abs(ref)), m
            assert np.all(np.abs(derivative - ref_d) <= 5e-12 * np.abs(ref_d)), m


class TestArrayEvaluation:
    # per order: the origin, the series (r < 0.5), m = 1's closed form, the
    # forward branch (m <= r - 2 sqrt r) and the backward recurrence; m = 200
    # at r = 0.6 drives the backward recurrence through its overflow rescale
    RADII = np.array([0.0, 0.01, 0.3, 0.499, 0.5, 0.6, 1.0, 3.0, 20.0, 80.0, 100.0])

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 50, 200])
    def test_batch_gives_the_bits_of_single_calls(self, m):
        value, derivative = eval_regular(m, self.RADII)
        for i, r in enumerate(self.RADII):
            alone = eval_regular(m, float(r))
            assert (alone.value, alone.derivative) == (value[i], derivative[i]), (m, r)
        positive = self.RADII[1:]
        value, derivative = eval_irregular(min(m, 50), positive)
        for i, r in enumerate(positive):
            alone = eval_irregular(min(m, 50), float(r))
            assert (alone.value, alone.derivative) == (value[i], derivative[i]), (m, r)

    def test_rescale_path_is_exercised(self):
        # the recurrence from the 1e-300 seed at order m + _MILLER_PAD grows
        # past 1e308 on its way down to order 0 (by ~1e660 at (30, 1e-7)), so
        # u_m and u_{m-1}, both normal doubles, come out right only because
        # it rescales; without the rescale they are inf or nan
        for m, r in ((30, 1e-7), (20, 1e-10)):
            value, below = _regular_backward(m, r)
            for got, order in ((value[0], m), (below[0], m - 1)):
                expected = mp_regular(order, r)
                assert abs(got - expected) <= 1e-12 * abs(expected), (m, r, order)
        assert np.isfinite(eval_regular(200, 0.6).value)  # rescaled, underflows to 0

    def test_float_in_gives_python_floats(self):
        for pair in (eval_regular(2, 1.5), eval_regular(3, 0.2), eval_regular(0, 0),
                     eval_irregular(2, 1.5), eval_irregular(1, 1)):
            assert type(pair.value) is float and type(pair.derivative) is float

    def test_array_keeps_its_shape(self):
        radii = np.linspace(0.1, 5.0, 6).reshape(2, 3)
        assert eval_regular(4, radii).value.shape == (2, 3)
        assert eval_irregular(4, radii).derivative.shape == (2, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_array_with_a_bad_radius_raises(self, bad):
        radii = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValueError):
            eval_regular(2, radii)
        with pytest.raises(ValueError):
            eval_irregular(2, radii)

    def test_irregular_array_rejects_the_origin(self):
        with pytest.raises(ValueError):
            eval_irregular(0, np.array([1.0, 0.0]))


class TestAgainstMpmath:
    @pytest.mark.parametrize(
        "m,r", [(2, 0.5), (29, 67.25), (50, 100.0), (50, 0.01), (7, 0.499), (3, 3.0)]
    )
    def test_regular_spot_checks(self, m, r):
        ref = float(mp_regular(m, r))
        value = eval_regular(m, r).value
        assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("m,r", [(0, 2.0), (10, 0.1), (50, 3.0), (20, 80.0)])
    def test_irregular_spot_checks(self, m, r):
        ref = float(mp_irregular(m, r))
        value = eval_irregular(m, r).value
        assert abs(value - ref) <= 1e-12 * abs(ref)
