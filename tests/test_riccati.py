"""Tests for the Riccati-Bessel function evaluator."""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from rbkernel import eval_irregular, eval_regular, riccati, wronskian
from rbkernel.riccati import (
    SERIES_CROSSOVER,
    _regular_backward,
    _regular_forward,
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
        assert value == pytest.approx(U2_AT_HALF, rel=1e-13, abs=0.0)

    def test_origin_limits(self):
        # the limit (0, 1) for m = 0 and (0, 0) beyond, alone and among other radii
        for m in (0, 1, 2, 3, 149, 150, 200):
            alone = bits(eval_regular(m, 0.0)).tolist()
            assert alone == bits((0.0, 1.0) if m == 0 else (0.0, 0.0)).tolist(), m
            batch = eval_regular(m, np.array([0.3, 0.0, 3.0, 1e-300, 0.0]))
            for i in (1, 4):
                assert bits([batch.value[i], batch.derivative[i]]).tolist() == alone, m

    def test_order1_outside_its_series_is_the_forward_seed(self):
        # past sqrt 5, u_1 is sin r / r - cos r, alone and among series
        # radii; math.sqrt(5.0) is the smallest double above sqrt 5
        radii = np.array([math.sqrt(5.0), 3.0, 1e3, 1e300, np.finfo(float).max])
        expected = np.sin(radii) / radii - np.cos(radii)
        for r, value in zip(radii.tolist(), expected.tolist()):
            assert bits(eval_regular(1, r).value) == bits(value), r
            assert bits(riccati._regular_values(1, r)) == bits(value), r
        batch = np.concatenate([[0.0, 0.3, 2.0], radii])
        for got in (eval_regular(1, batch).value, riccati._regular_values(1, batch)):
            assert np.array_equal(bits(got[3:]), bits(expected))

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
                series = float(prefactor[0] * total[0])
                if m in closed:
                    other = closed[m]
                else:
                    other = float(_regular_backward(m, r)[0])
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


@pytest.mark.parametrize("r, name", [(1e-34, "v_8'"), (1e-38, "v_8")])
def test_overflow_names_the_half_that_overflows(r, name):
    # v_8 ~ -2.03e278 is finite at 1e-34 while v'_8 ~ 8 v_8 / r is not;
    # at 1e-38 the value overflows too
    with pytest.raises(OverflowError, match=rf"^{name}\({r!r}\) overflows double precision$"):
        eval_irregular(8, r)
    with pytest.raises(OverflowError, match=rf"^{name}\({r!r}\) overflows double precision$"):
        eval_irregular(8, np.array([1.0, r, 1e-40]))


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


# Radii of the series, from the smallest subnormal through the [0.3, 0.7]
# window where it overlaps the closed forms and the backward recurrence.
SERIES_RADII = np.concatenate([
    [5e-324, 1e-320, 1e-310, 2.2e-308, 1e-300, 1e-200, 1e-154, 1e-100],
    np.geomspace(1e-20, 0.3, 60),
    np.linspace(0.3, 0.7, 41),
    [0.4999999999999999, 0.5],
])


def bits(x):
    """The doubles of x as int64, so equal bits compare equal (NaN and -0.0 included)."""
    return np.asarray(x, dtype=float).view(np.int64)


def backward_filler(m):
    """The first integer radius outside u_m's series region: for m >= 2 it
    takes the backward recurrence (the forward branch starts past 7.4)."""
    return float(math.ceil(math.sqrt(riccati._series_bound(m))))


class TestArrayEvaluation:
    # per order: the origin, the series (r^2 < 2m + 3 up to m = 149, r < 0.5
    # beyond), m = 1's closed form, the forward branch (m <= r - 2 sqrt r)
    # and the backward recurrence (10 for m = 7); m = 200 at r = 0.6 drives
    # the backward recurrence through its overflow rescale
    RADII = np.array([0.0, 0.01, 0.3, 0.499, 0.5, 0.6, 1.0, 3.0, 10.0, 20.0, 80.0, 100.0])

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 50, 200])
    def test_batch_gives_the_bits_of_single_calls(self, m):
        # the radii alone; padded to n = block / 2 and block radii and one
        # more each; and padded with backward radii to one below, at and one
        # above the n whose ratios (2k + 1)/r fill a block (divided out in
        # one call up to it, a row at a time beyond)
        block = riccati._BLOCK_VALUES
        filler = backward_filler(m)
        batches = [np.resize([0.3, 1.0, filler], size - self.RADII.size)  # series, backward
                   for size in (self.RADII.size, block // 2, block // 2 + 1, block, block + 1)]
        backward = self.RADII[(self.RADII * self.RADII >= riccati._series_bound(m))
                              & (m > self.RADII - 2.0 * np.sqrt(self.RADII))]
        if m >= 2:
            kmax = max(riccati._miller_top(max(m, math.ceil(r)))
                       for r in [*backward.tolist(), filler])
            edge = block // kmax
            for count in (edge - 1, edge, edge + 1):
                batches.append(np.full(count - backward.size, filler))
                blocked = isinstance(riccati._ratio_rows(np.ones(count), kmax), np.ndarray)
                assert blocked == (count <= edge), (m, count)
        singles = [eval_regular(m, float(r)) for r in self.RADII]
        for filler in batches:
            value, derivative = eval_regular(m, np.concatenate([self.RADII, filler]))
            for i, alone in enumerate(singles):
                assert (alone.value, alone.derivative) == (value[i], derivative[i]), (
                    m, filler.size, i)
        positive = self.RADII[1:]
        value, derivative = eval_irregular(min(m, 50), positive)
        for i, r in enumerate(positive):
            alone = eval_irregular(min(m, 50), float(r))
            assert (alone.value, alone.derivative) == (value[i], derivative[i]), (m, r)

    @pytest.mark.parametrize("kmax", [64, 65])  # 64 divides the block
    def test_ratio_rows_divide_in_one_call_while_they_fit_a_block(self, kmax):
        edge = riccati._BLOCK_VALUES // kmax
        for count in (edge - 1, edge, edge + 1):
            r = np.linspace(0.5, 3.0, count)
            rows = riccati._ratio_rows(r, kmax)
            assert isinstance(rows, np.ndarray) == (count <= edge), count
            expected = np.arange(2 * kmax + 1, 2, -2, dtype=float)[:, None] / r
            # the rows of a larger batch reuse three arrays: copy each as it comes
            assert np.array_equal([row.copy() for row in rows], expected), count

    def test_series_coefficients_are_the_rounded_rationals(self):
        # c_k = (-1/2)^k / (k! (2m + 3)(2m + 5)...(2m + 2k + 1)), highest first,
        # each the double nearest its rational
        for m in range(201):
            coefficients = riccati._series_coefficients(m)[::-1]
            exact = Fraction(1)
            for k, coefficient in enumerate(coefficients):
                if k:
                    exact /= -2 * k * (2 * m + 2 * k + 1)
                assert coefficient == float(exact), (m, k)

    def test_series_keeps_every_term_above_2_to_the_minus_64(self):
        # at r^2 = _series_bound(m) + 2, past the series' region and the
        # order m - 1 that the underflow derivative sums there, the first
        # omitted term is below 2^-64 of S_m and the last kept one is not
        for m in [*range(1, 152), 200]:
            x = Fraction(riccati._series_bound(m) + 2.0)
            coefficients = riccati._series_coefficients(m)[::-1]
            degree = len(coefficients) - 1
            terms = [Fraction(1)]
            for k in range(1, degree + 2):
                terms.append(terms[-1] * -x / (2 * k * (2 * m + 2 * k + 1)))
            total = sum(terms[:-1])
            assert abs(terms[-1]) < Fraction(1, 2**64) * total, m
            assert abs(terms[-2]) >= Fraction(1, 2**64) * total, m

    # the largest error in ulps of |u_m| over the 300 radii of each order's
    # series region below when S_m was summed term by term until a term fell
    # below 1e-18 of the sum and (2m + 1)!! was a float product (rounded
    # down); Horner's rule over a correctly rounded (2m + 1)!! reads 1.9,
    # 1.9, 2.8, 2.4, 2.3, 2.3 and 1.9 ulps there
    SERIES_MAX_ULPS = {1: 3.4, 2: 4.0, 3: 3.8, 8: 3.7, 20: 2.6, 60: 4.9, 149: 5.9}

    @pytest.mark.parametrize("m", sorted(SERIES_MAX_ULPS))
    def test_series_accuracy_on_its_region(self, m):
        # 300 radii evenly spaced over (0, sqrt(_series_bound(m))), against
        # mpmath at 50 digits
        radii = np.linspace(0.0, math.sqrt(riccati._series_bound(m)), 302)[1:-1]
        values = riccati._regular_values(m, radii)
        worst = 0.0
        with mp.workdps(50):
            for r, value in zip(radii.tolist(), values.tolist()):
                expected = mp_regular(m, r)
                unit = np.spacing(abs(float(expected)))
                worst = max(worst, float(abs(value - expected)) / unit)
        assert worst <= self.SERIES_MAX_ULPS[m], worst

    @pytest.mark.parametrize("m", [1, 2, 30])
    def test_series_rows_summed_together_keep_their_bits(self, m):
        # the terms fall below 1e-18 of the sum after 2 terms at r = 1e-6 and
        # after about 9 at 0.49, so the batch's elements stop at different k
        radii = np.geomspace(1e-6, 0.49, 40)
        for order in (m, m - 1):
            _, total = _regular_series_parts(order, radii)
            for i, r in enumerate(radii):
                _, alone = _regular_series_parts(order, r)
                assert alone[0] == total[i], (order, r)

    def test_rescale_path_is_exercised(self, monkeypatch):
        # the recurrence from the 1e-300 seed at its start (order 2m + 10
        # here) grows past 1e308 on its way down to order 0, so u_m and
        # u_{m-1}, both normal doubles, come out right only because it
        # rescales; without the rescale they are 0, nan or wrong
        cases = [(order, r) for m, r in ((30, 3e-8), (20, 1e-11)) for order in (m, m - 1)]

        def accurate(order, r):
            got, expected = _regular_backward(order, r)[0], mp_regular(order, r)
            return abs(got - expected) <= 1e-12 * abs(expected)

        assert all(accurate(order, r) for order, r in cases)
        assert np.isfinite(eval_regular(200, 0.6).value)  # rescaled, underflows to 0
        monkeypatch.setattr(riccati, "_RESCALE_LIMIT", math.inf)
        with np.errstate(all="ignore"):
            assert not any(accurate(order, r) for order, r in cases)
            assert np.isnan(_regular_backward(200, 0.6)[0])

    def test_float_in_gives_python_floats(self):
        for pair in (eval_regular(2, 1.5), eval_regular(3, 0.2), eval_regular(0, 0),
                     eval_irregular(2, 1.5), eval_irregular(1, 1)):
            assert type(pair.value) is float and type(pair.derivative) is float

    def test_array_keeps_its_shape(self):
        radii = np.linspace(0.1, 5.0, 6).reshape(2, 3)
        assert eval_regular(4, radii).value.shape == (2, 3)
        assert eval_irregular(4, radii).derivative.shape == (2, 3)
        # no radius: the one min/max check of the radii passes it
        assert eval_regular(4, np.empty((0, 2))).value.shape == (0, 2)
        assert riccati._irregular_values(4, np.empty((0, 2))).shape == (0, 2)
        # the pair call too: the quadrature calls a family with no node on its side
        empty = eval_irregular(4, np.empty((0, 2)))
        assert empty.value.shape == empty.derivative.shape == (0, 2)

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

    # RADII with subnormal radii (where m/r overflows), the last radius
    # before m = 2's forward branch and the first in it (r - 2 sqrt r >= 2
    # from (1 + sqrt 3)^2 = 7.464101615137754), and 1e3, a Miller start of
    # over a thousand orders
    VALUE_RADII = np.concatenate([
        RADII,
        [5e-324, 1e-310, 2.2e-308, 1e-200, 1e-154, 7.4641016151377535, 7.464101615137754, 1e3],
    ])

    def test_values_path_has_the_bits_of_eval_regular_at_every_order(self):
        for m in range(201):
            expected = eval_regular(m, self.VALUE_RADII).value
            got = riccati._regular_values(m, self.VALUE_RADII)
            assert np.array_equal(bits(got), bits(expected)), m

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 50, 200])
    def test_values_path_scalars(self, m):
        for r in self.VALUE_RADII:
            value = riccati._regular_values(m, float(r))
            assert type(value) is float
            assert bits(value) == bits(eval_regular(m, float(r)).value), (m, r)

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 50, 200])
    def test_values_path_batches(self, m):
        # from one radius to 20000, past the sizes where the Miller ratios
        # stop fitting one block, drawn over every branch
        rng = np.random.default_rng(m)
        pool = np.concatenate([self.VALUE_RADII, SERIES_RADII, np.geomspace(0.5, 1e3, 200)])
        block = riccati._BLOCK_VALUES
        for size in (1, 2, 3, 57, block // 2, block + 1, 20000):
            radii = rng.choice(pool, size)
            expected = eval_regular(m, radii).value
            got = riccati._regular_values(m, radii)
            assert got.shape == radii.shape and np.array_equal(bits(got), bits(expected)), size
        radii = rng.choice(pool, (3, 40))
        assert np.array_equal(bits(riccati._regular_values(m, radii)),
                              bits(eval_regular(m, radii).value))

    def test_forward_branch_starts_where_the_rule_says(self):
        # the one test on the largest radius must not skip a radius whose
        # r - 2 sqrt r reaches m: at the edge (1 + sqrt(m + 1))^2 and the
        # doubles either side, alone and after smaller radii, each value is
        # the one its own branch gives (at most of these radii the two
        # branches differ in the last bits)
        for m in range(2, 201):
            edge = (1.0 + math.sqrt(m + 1.0)) ** 2
            near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)])
            forward = m <= near - 2.0 * np.sqrt(near)
            expected = np.where(forward, _regular_forward(m, near), _regular_backward(m, near))
            for radii in (near, np.concatenate([[0.3, 1.0, 3.0], near])):
                for evaluate in (lambda m, r: eval_regular(m, r).value, riccati._regular_values):
                    assert np.array_equal(bits(evaluate(m, radii)[-3:]), bits(expected)), m
            for r, value in zip(near, expected):
                assert bits(riccati._regular_values(m, float(r))) == bits(value), (m, r)

    def test_series_region_ends_where_the_rule_says(self):
        # one double below, at and above sqrt(2m + 3) (0.5 from m = 150 on),
        # alone, in a batch with radii of the other branches, and through the
        # values path: each value is the one its own branch gives, the series
        # exactly where r^2 < 2m + 3, with the same bits
        for m in [*range(1, 152), 200]:
            bound = riccati._series_bound(m)
            edge = math.sqrt(bound)
            near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)])
            series = near * near < bound
            assert series[0] and not series[2], m
            prefactor, total = _regular_series_parts(m, near)
            other = np.sin(near) / near - np.cos(near) if m == 1 else _regular_backward(m, near)
            expected = np.where(series, prefactor * total, other)
            batch = np.concatenate([[0.0, 0.3, 1.0, 3.0], near, [2.0 * edge, 1e3]])
            pairs = eval_regular(m, batch)
            assert np.array_equal(bits(pairs.value[4:7]), bits(expected)), m
            assert np.array_equal(bits(riccati._regular_values(m, batch)), bits(pairs.value)), m
            for i, r in enumerate(batch.tolist()):
                alone = eval_regular(m, r)
                assert bits([alone.value, alone.derivative]).tolist() == bits(
                    [pairs.value[i], pairs.derivative[i]]).tolist(), (m, r)

    @pytest.mark.parametrize("m, r", [
        (-1, 1.0), (2.5, 1.0), ("2", 1.0), (2, math.nan), (2, math.inf), (2, -1.0),
        (0, np.array([0.5, math.nan])), (3, np.array([1.0, -2.0, math.inf])),
        (200, np.array([[0.0, 1e3], [-1e-300, 2.0]])),
    ])
    def test_values_path_raises_where_eval_regular_raises(self, m, r):
        with pytest.raises(Exception) as expected:
            eval_regular(m, r)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            riccati._regular_values(m, r)

    def test_values_path_names_a_value_that_is_not_finite(self, monkeypatch):
        # no radius eval_regular accepts gives a u_m that is not finite (none
        # on the grids above), so a branch is made to return inf at r = 4,
        # a backward radius of m = 5 (4^2 >= 13): both paths name that
        # radius, and only the value, in one message
        real = riccati._regular_backward

        def poisoned(m, r):
            value = real(m, r)
            value[r == 4.0] = math.inf
            return value

        monkeypatch.setattr(riccati, "_regular_backward", poisoned)
        radii = np.array([0.3, 1.0, 4.0, 20.0, 4.0])
        for evaluate in (eval_regular, riccati._regular_values):
            with pytest.raises(OverflowError,
                               match=r"^u_5\(4\.0\) is not finite in double precision$"):
                evaluate(5, radii)

    # positive radii, from 1e3 down to the smallest subnormal
    IRREGULAR_RADII = np.unique(np.concatenate([
        VALUE_RADII[VALUE_RADII > 0.0], SERIES_RADII, [1e-100, 1e-34, 1e-30, 1e-10],
    ]))[::-1]

    def test_irregular_values_path_has_the_bits_of_eval_irregular_at_every_order(self):
        # compared where the pair is finite: the pair names its first, so
        # largest, failing radius, and the comparison keeps the radii above
        for m in range(201):
            radii = self.IRREGULAR_RADII
            while True:
                try:
                    expected = eval_irregular(m, radii).value
                    break
                except OverflowError as error:
                    failed = float(re.search(r"\((.*)\)", str(error)).group(1))
                    radii = radii[radii > failed]
            assert radii.size, m
            assert np.array_equal(bits(riccati._irregular_values(m, radii)), bits(expected)), m
            for r in radii[::20]:
                value = riccati._irregular_values(m, float(r))
                assert type(value) is float
                assert bits(value) == bits(eval_irregular(m, float(r)).value), (m, r)

    def test_irregular_values_path_fails_only_where_the_value_overflows(self):
        # v_8(1e-34) = -15!! / r^8 = -2.027025e278 is finite where the pair
        # names v'_8 (test_overflow_names_the_half_that_overflows); at 1e-38
        # the value overflows too, and the values path gives the pair's
        # message, alone and after 1e-34 in an array
        assert riccati._irregular_values(8, 1e-34) == pytest.approx(-2.027025e278, rel=1e-14)
        for r in (1e-38, np.array([1.0, 1e-34, 1e-38])):
            with pytest.raises(OverflowError, match=r"^v_8\(1e-38\) overflows double precision$"):
                riccati._irregular_values(8, r)

    @pytest.mark.parametrize("m, r", [
        (-1, 1.0), (2.5, 1.0), (2, 0.0), (2, math.nan), (2, -1.0),
        (0, np.array([0.5, 0.0])), (3, np.array([1.0, -2.0, math.inf])),
    ])
    def test_irregular_values_path_raises_where_eval_irregular_raises(self, m, r):
        with pytest.raises(Exception) as expected:
            eval_irregular(m, r)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            riccati._irregular_values(m, r)


class TestAgainstMpmath:
    @pytest.mark.parametrize(
        "m,r", [(2, 0.5), (29, 67.25), (50, 100.0), (50, 0.01), (7, 0.499), (3, 3.0)]
    )
    def test_regular_spot_checks(self, m, r):
        ref = float(mp_regular(m, r))
        value = eval_regular(m, r).value
        assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_miller_rescale_at_order_200(self, monkeypatch):
        # u_200(0.6) is about 1.3e-481: the backward recurrence from 1e-300
        # passes 1e250 on the way down, so only the rescale reaches the
        # underflowed 0 instead of an overflow; a batch with r = 150 rescales
        # the small radius alone and keeps every element's own bits
        assert eval_regular(200, 0.6) == riccati.FunctionPair(0.0, 0.0)
        radii = np.array([0.6, 150.0])
        batch = eval_regular(200, radii)
        for i, r in enumerate(radii.tolist()):
            alone = eval_regular(200, r)
            assert batch.value[i:i + 1].tobytes() == np.float64(alone.value).tobytes()
            assert batch.derivative[i:i + 1].tobytes() == np.float64(alone.derivative).tobytes()
        ref = float(mp_regular(200, 150.0))
        assert abs(batch.value[1] - ref) <= 1e-13 * abs(ref)
        monkeypatch.setattr(riccati, "_RESCALE_LIMIT", math.inf)
        with pytest.raises(OverflowError, match=re.escape("u_200(0.6) is not finite")):
            eval_regular(200, 0.6)

    # orders and radii of the backward branch, from the series' edge
    # (sqrt(2m + 3), 0.5 for m = 200) up to where the forward branch takes
    # over (about 230 at m = 200), with the radii just below an integer
    # K = m, or the first integer K past the edge, where the turning point
    # k ~ r makes the recurrence's contamination fall slowest (the worst case
    # of its start)
    BACKWARD_ORDERS = [2, 3, 5, 8, 13, 20, 50, 200]

    @pytest.mark.parametrize("m", BACKWARD_ORDERS)
    def test_backward_branch_accuracy(self, m):
        # within 8 + m/2 ulps of |u_m| where m >= r and of 1 (the
        # oscillation's amplitude) where m < r, on the radii of 40 from 0.5
        # to 1e3 past the edge and three just below an integer; the worst
        # over ~3000 radii a order is 4 ulps at m = 2 and 78 at m = 200
        first = backward_filler(m)
        radii = np.concatenate([np.geomspace(0.5, 1e3, 40),
                                [m - 2.0**-20, m - 0.125, first - 2.0**-20]])
        radii = radii[(radii * radii >= riccati._series_bound(m))
                      & (m > radii - 2.0 * np.sqrt(radii))]
        values = riccati._regular_values(m, radii)
        for r, value in zip(radii.tolist(), values.tolist()):
            expected = mp_regular(m, r)
            unit = np.spacing(abs(float(expected))) if m >= r else np.spacing(1.0)
            assert float(abs(value - expected)) <= (8 + m / 2) * unit, (m, r)

    @pytest.mark.parametrize("K", range(2, 41))
    def test_start_leaves_no_visible_contamination(self, K):
        # started at N with f_{N+1} = 0, the recurrence gives u_m plus
        # (u_{N+1}/v_{N+1}) v_m of the irregular solution; at the start of
        # the rule it is below 2^-64 of u_m where m = K >= r, at radii from
        # K - 1 + 1/8 to just below K, where it falls slowest
        for r in K - np.array([7, 5, 3, 1, 2.0**-20]) / 8:
            top = riccati._miller_top(K)
            contamination = abs(mp_regular(top + 1, r) * mp_irregular(K, r)
                                / (mp_irregular(top + 1, r) * mp_regular(K, r)))
            assert contamination <= 2.0**-64, (K, r, top)

    def test_start_is_at_most_45_orders_above_max_m_and_r_until_the_need_passes_45(self):
        # K = max(m, ceil r): K + 10 orders up to K = 35, 45 up to K = 166,
        # then ceil(8 K^(1/3)) + 1, the need past 2^-64 (81 at K = 1000)
        radii = np.concatenate([[0.5, 0.7, 1.0], np.geomspace(1.0, 1e3, 200)])
        for m in range(2, 251):
            for K in np.maximum(m, np.ceil(radii)).astype(int).tolist():
                spare = riccati._miller_top(K) - K
                if K <= 166:
                    assert spare == min(K + 10, 45), (m, K)
                else:
                    assert spare == math.ceil(8 * K ** (1 / 3) - 1e-9) + 1, (m, K)

    @pytest.mark.parametrize("m, r", [(937, 1000.0), (1000, 1000.0)])
    def test_backward_branch_accuracy_at_large_orders(self, m, r):
        # with a pad of 45 orders these were off by 5.8e-9 and 6.5e-9, the
        # irregular solution's share; the start past 8 K^(1/3) leaves the
        # rounding of a thousand steps, within 8 + m/2 ulps of the amplitude
        value, derivative = eval_regular(m, r)
        expected = mp_regular(m, r)
        assert float(abs(value - expected)) <= (8 + m / 2) * np.spacing(1.0)
        expected = mp_regular(m - 1, r) - m / mp.mpf(r) * expected
        assert float(abs(derivative - expected)) <= (8 + m / 2) * np.spacing(1.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 20, 50, 149])
    def test_series_accuracy_past_the_crossover(self, m):
        # the series serves r^2 < 2m + 3 up to m = 149; from 0.5 to that edge
        # (where m = 1's closed form and the backward recurrence served
        # before, up to 10 ulps off at m = 1 and 56 at m = 149 over 800 radii
        # an order) it stays within 6 + m/25 ulps of |u_m|: the worst over
        # those 800 radii is 4.5 ulps at m = 20 and 7.1 at m = 149
        bound = riccati._series_bound(m)
        radii = np.linspace(SERIES_CROSSOVER, math.sqrt(bound), 41)[:-1]
        assert np.all(radii * radii < bound)
        values = riccati._regular_values(m, radii)
        for r, value in zip(radii.tolist(), values.tolist()):
            expected = mp_regular(m, r)
            unit = np.spacing(abs(float(expected)))
            assert float(abs(value - expected)) <= (6 + m / 25) * unit, (m, r)

    def test_series_serves_the_orders_whose_double_factorial_is_finite(self):
        # (2m + 1)!! overflows from m = 150, where the series' prefactor
        # r^(m+1)/(2m+1)!! would read 0 (or raise), so its region shrinks to
        # r < 0.5 there
        for m in range(150):  # the double nearest each, not a float product's
            assert riccati._double_factorial(2 * m + 1) == float(math.prod(range(1, 2 * m + 2, 2)))
        assert riccati._double_factorial(2 * 150 + 1) == math.inf
        assert riccati._series_bound(149) == 2 * 149 + 3
        assert riccati._series_bound(150) == SERIES_CROSSOVER**2

    @pytest.mark.parametrize("m, r", [(150, 17.0), (160, 17.9), (250, 22.0)])
    def test_orders_past_149_keep_the_backward_recurrence(self, m, r):
        # r^2 < 2m + 3 here, but (2m + 1)!! overflows: a series would give
        # 0 at (150, 17.0), where u_m is 3.45e-124, and raise at (250, 22.0)
        value, derivative = eval_regular(m, r)
        expected = mp_regular(m, r)
        assert value == pytest.approx(float(expected), rel=1e-14, abs=0.0)
        expected = mp_regular(m - 1, r) - m / mp.mpf(r) * expected
        assert derivative == pytest.approx(float(expected), rel=2e-14, abs=0.0)

    def test_subnormal_series_value_past_the_crossover_keeps_its_derivative(self):
        # u_149(0.9) = 3.6e-314 is a subnormal series value, so u'_149 comes
        # from the series sums, not from the ladder over the subnormal u_148
        # and u_149 (21 subnormal spacings off); u'_149 itself is subnormal
        value, derivative = eval_regular(149, 0.9)
        assert 0.0 < value < np.finfo(float).tiny
        expected = mp_regular(148, 0.9) - 149 / mp.mpf(0.9) * mp_regular(149, 0.9)
        assert float(abs(derivative - expected)) <= np.spacing(abs(float(expected)))

    @pytest.mark.parametrize("m,r", [(0, 2.0), (10, 0.1), (50, 3.0), (20, 80.0)])
    def test_irregular_spot_checks(self, m, r):
        ref = float(mp_irregular(m, r))
        value = eval_irregular(m, r).value
        assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_regular_derivative_accuracy(self):
        # u'_m is the ladder u_{m-1} - (m/r) u_m over two value calls; its
        # error, relative to the size of the ladder's two terms, over orders
        # 1 to 50 on radii from the series through the Miller and forward
        # branches, stays at a few ulps (9.8e-16 at (46, 4.76) here, 5.6e-16
        # when u_{m-1} came from u_m's own recurrence)
        worst = 0.0
        for r in np.geomspace(0.01, 12.0, 24):
            r = float(r)
            exact = [mp_regular(m, r) for m in range(51)]
            derivatives = [eval_regular(m, r).derivative for m in range(1, 51)]
            for m, derivative in enumerate(derivatives, 1):
                ref = exact[m - 1] - m / mp.mpf(r) * exact[m]
                scale = abs(exact[m - 1]) + m / mp.mpf(r) * abs(exact[m])
                worst = max(worst, float(abs(derivative - ref) / scale))
        assert worst <= 2e-15
