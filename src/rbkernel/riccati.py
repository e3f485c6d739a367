"""Riccati-Bessel functions of nonnegative integer order.

The regular family ``u_m`` solves ``u'' + u - m(m+1) r^-2 u = 0`` and
vanishes like ``r^(m+1)`` at the origin (``u_0 = sin r``); the irregular
family ``v_m`` is the second solution, normalized so that ``v_0 = -cos r``
and blowing up like ``r^-m`` at the origin.  Both families satisfy the
three-term recurrence

    f_{m+1}(r) = ((2m + 1) / r) f_m(r) - f_{m-1}(r)

seeded by ``u_{-1} = cos r`` and ``v_{-1} = sin r``, and the derivative
ladder ``f'_m = f_{m-1} - (m / r) f_m``.  The pair is normalized so that the
Wronskian ``u_m v'_m - u'_m v_m`` equals 1 for every order.

Evaluation strategy, chosen for double precision:

* ``u_m`` by its Taylor series wherever r^2 < 2m + 3, for every order whose
  (2m + 1)!! is a finite double (1 <= m <= 149), and below
  ``SERIES_CROSSOVER`` for every order (DLMF 10.53.1).  There the ratio of
  each term to the one before is below 1/2, so the sum cannot cancel and
  stays in (1/2, 1]; the closed forms would subtract nearly equal terms
  near zero (u_2 alone loses ~45/r^5 in relative error).  Outside that
  region, by forward recurrence from the exact u_0, u_1 seeds for m = 1
  (its seed) and deep in the oscillatory regime (order well below the
  argument), where it is neutral and keeps errors at a few ulps of the
  oscillation amplitude; otherwise by backward Miller-style recurrence
  normalized against the closed forms of u_0 / u_1.  It starts
  K + min(K + 10, max(45, s)) orders up, K = max(m, ceil r), s the smallest
  integer with (s - 1)^3 >= 512 K (about 8 K^(1/3) + 1): past where the
  irregular solution it picks up falls below 2^-64 of u_m's envelope.  It
  keeps a three-row window and divides out the ratios (2k + 1)/r of all its
  orders in one call where they fit 2^13 values, and an order at a time
  into three reused rows elsewhere, so n radii take O(n) memory at any
  order;

* ``v_m`` always by forward recurrence, which is stable because v_m is the
  dominant solution as the order grows;

* each family's core (``_regular``, ``_irregular``) gives the values of one
  order and nothing else; a derivative is the ladder over two value calls,
  never finite differences.  Where the series value of u_m underflows
  (the origin, r below ~1e-154 for m = 1, below ~0.98 for m = 149), the
  ladder would lose its (m/r) u_m term or overflow in m/r, so it is written
  with the two series sums, u'_m = u_{m-1} (1 - m/(2m + 1) S_m/S_{m-1}).

Where only values are wanted (family tables, kernel values, the integrand
u_2), ``_regular_values`` and ``_irregular_values`` return the pairs' values
bit for bit, with their checks and message, and fail only where a value
itself is not finite.

The entries take a single radius or a numpy array of radii for one fixed
order.  An array is evaluated element by element with the branch above
selected per element by mask, from the element's own m and r alone; each
element keeps its own backward-recurrence start, and the series sums S_m by
Horner's rule in r^2 over cached coefficients whose count depends on m
alone.  So each value is bit for bit the one a call on that element alone
returns, whatever else is in the batch.  A float in gives a
``FunctionPair`` of Python floats out.  Order 0 is sin or cos of a finite
radius, so its values need no finiteness test.

The package's one radius rule lives here: a radius is a positive, finite
double.  Every layer checks it with ``check_radius``; the evaluators hold each
array element to it with the same message (``eval_regular`` admits 0 too).
"""

from __future__ import annotations

import math
import operator as _op
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "FunctionPair",
    "SERIES_CROSSOVER",
    "eval_regular",
    "eval_irregular",
    "wronskian",
]

# Below this radius every order's u_m is summed as a Taylor series.  For
# 1 <= m <= 149 the series serves r^2 < 2m + 3, so r < sqrt(5) at least, and
# no recurrence runs in [0.3, 0.7].  What 0.5 decides is the branch of the
# orders m >= 150, whose (2m + 1)!! overflows: the series below it, the
# backward recurrence from it on.  Both read u_m as 0.0 there (u_150 and
# u_200 are 0.0 at 0.3, 0.5 and 0.7; u_150(1.0) is 8.8e-310).
SERIES_CROSSOVER = 0.5

# Smallest normal double.
_TINY = np.finfo(float).tiny

# The backward recurrence starts K + min(K + _MILLER_SPARE, max(_MILLER_PAD,
# s)) orders up, K = max(m, ceil r), s the smallest integer with
# (s - 1)^3 >= 512 K.  Started at N, it gives u_m plus (u_{N+1}/v_{N+1}) v_m
# of the irregular solution.  Over the radii of one K that contamination
# falls below 2^-64 of u_m's envelope (|u_m| where m >= r, the amplitude
# sqrt(u_m^2 + v_m^2) below) at most K + 9 orders up: exactly K + 9 up to
# K = 7, then about 8 K^(1/3), the width of the turning region k ~ r
# (mpmath at 60 digits, radii 1/256 apart up to K = 12 and 1/16 apart up to
# K = 46, coarser up to K = 1001: 81 orders at K = 1000).  So K + 10 keeps
# an order spare.  From K = 35 to 166 the pad of 45 binds, which still
# reaches 2^-64; beyond, s = ceil(8 K^(1/3)) + 1 follows the need.
_MILLER_SPARE = 10
_MILLER_PAD = 45

# Magnitude at which the backward recurrence rescales to avoid overflow.
_RESCALE_LIMIT = 1e250

# Most values (64 KiB of them) of a block: the ratios (2k + 1)/r that the
# backward recurrence divides out in one numpy call (:func:`_ratio_rows`);
# a larger batch divides them an order at a time.  The block pays off where
# numpy's per-call cost dominates: it holds every ratio of the Miller part
# of an identity-check point's u_2 batch (about 20 orders over fewer than
# 170 radii), while numpy's one-dimensional calls are faster per value on a
# sweep's batches of thousands of radii, and a block there would only raise
# their peak memory.
_BLOCK_VALUES = 2**13

# The message of each family's OverflowError, after "u_m(r) " or "v_m(r) ".
_FAILURE = {"u": "is not finite in double precision", "v": "overflows double precision"}


class FunctionPair(NamedTuple):
    """Value and first derivative of one Riccati-Bessel function.

    Python floats for a scalar radius, arrays of the radii's shape otherwise.
    """

    value: float | np.ndarray
    derivative: float | np.ndarray


def _check_order(m) -> int:
    try:
        m = _op.index(m)
    except TypeError:
        raise ValueError(f"order must be an integer, got {m!r}") from None
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    return m


def check_radius(r) -> float:
    """The radius as a float, if it is positive and finite; ValueError otherwise."""
    r = float(r)
    if not 0.0 < r < math.inf:  # NaN fails both comparisons
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    return r


def _check_radii(r, *, allow_zero: bool = False) -> np.ndarray:
    """:func:`check_radius` for an array of radii, naming the first bad one.

    One min and one max decide (both propagate NaN; an empty array passes);
    the element-wise search runs only on a failure.
    """
    r = np.asarray(r, dtype=float)
    low, high = r.min(initial=math.inf), r.max(initial=-math.inf)
    if not ((low >= 0.0 if allow_zero else low > 0.0) and high < math.inf):
        ok = (r >= 0.0 if allow_zero else r > 0.0) & (r < math.inf)
        sign = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"radius must be {sign} and finite, got {float(r[~ok].flat[0])!r}")
    return r


def _double_factorial(n: int) -> float:
    """(n)!! over odd n, correctly rounded; inf on overflow (caller underflows to 0)."""
    exact = math.prod(range(3, n + 1, 2))
    return float(exact) if exact.bit_length() <= 1024 else math.inf


def _series_bound(m: int) -> float:
    """The r^2 below which u_m is summed as its Taylor series (u_0 is sin r).

    2m + 3 while (2m + 1)!! is a finite double (m <= 149), where the
    series' first ratio r^2 / (2 (2m + 3)) is below 1/2; beyond, the square
    of ``SERIES_CROSSOVER``, so ``r * r < bound`` there is r < 0.5 exactly.
    A radius's branch depends on its own m and r alone.
    """
    return 2 * m + 3 if m <= 149 else SERIES_CROSSOVER * SERIES_CROSSOVER


@lru_cache(maxsize=64)
def _series_coefficients(m: int) -> tuple:
    """The coefficients of S_m as a polynomial in x = r^2, the highest first.

    c_k = (-1/2)^k / (k! (2m + 3)(2m + 5)...(2m + 2k + 1)), each the
    correctly rounded quotient 1 / n of the integer n = 1 / c_k (Python's
    int division rounds correctly).  They run from c_0 = 1 up to the last
    term whose magnitude at x = ``_series_bound(m)`` + 2 is at least 2^-64
    of the sum so far: that covers the series' region, and the order m - 1
    that :func:`_regular_derivative` sums on the region of order m.
    """
    x = _series_bound(m) + 2.0
    coefficients, denominator, term, total = [1.0], 1, 1.0, 1.0
    k = 1
    while True:
        factor = -2 * k * (2 * m + 2 * k + 1)
        term *= x / factor
        if abs(term) < 2.0**-64 * total:
            return tuple(reversed(coefficients))
        denominator *= factor
        coefficients.append(1 / denominator)
        total += term
        k += 1


def _regular_series_parts(m: int, r):
    # u_m(r) = r^(m+1)/(2m+1)!! * S_m(r),
    # S_m(r) = sum_k (-r^2/2)^k / (k! (2m+3)...(2m+2k+1)),
    # an alternating series with factorially shrinking terms; safe for any r,
    # used where r^2 < ``_series_bound(m)``.  There the ratio of the k-th
    # term to the one before, r^2 / (2k (2m + 2k + 1)), is below 1/2 and
    # falls with k, so S_m lies in (1/2, 1] and cannot cancel.  S_m is
    # summed by Horner's rule in x = r^2 over the cached coefficients of
    # :func:`_series_coefficients`, each step one in-place multiply and
    # add over the 1-D radii.  Their count depends on m alone, so no
    # element's bits depend on the other radii.  Returns the prefactor and
    # S_m separately: S_m is near 1 even where u_m underflows.
    r = np.atleast_1d(np.asarray(r, dtype=float))
    # float_power calls C pow like Python's float ** int; numpy's ** takes a
    # different route for integer exponents and can differ in the last bit
    prefactor = np.float_power(r, m + 1) / _double_factorial(2 * m + 1)
    x = r * r
    highest, *rest = _series_coefficients(m)
    total = np.full(r.size, highest)
    for coefficient in rest:
        total *= x
        total += coefficient
    return prefactor, total


def _upward(m: int, r: np.ndarray, first: int, below, cur) -> np.ndarray:
    """f_m by forward recurrence from f_{first-1} = ``below`` and f_first = ``cur``."""
    for k in range(first, m):
        below, cur = cur, (2 * k + 1) / r * cur - below
    return cur


def _regular_forward(m: int, r: np.ndarray) -> np.ndarray:
    """u_m by forward recurrence from the exact u_0, u_1 seeds.

    Only safe while the order stays below the argument, where u_m has not
    started to decay and the recurrence is neutral in both directions; the
    caller takes this branch where m <= r - 2 sqrt(r), and for m = 1 (the seed).
    """
    u0 = np.sin(r)
    return _upward(m, r, 1, u0, u0 / r - np.cos(r))


def _ratio_rows(r: np.ndarray, kmax: int):
    """The rows (2k + 1)/r over the radii, for k = kmax, kmax - 1, ..., 1.

    A small batch, whose ratios fit ``_BLOCK_VALUES`` values, divides out
    all its orders in one numpy call and hands out the rows of the result.
    A larger one divides each order's row in its own one-dimensional call
    (which numpy runs faster per value than a broadcast block) into one of
    three reused rows: a step holds the rows of at most the two steps
    before it, so the third is free.  2k + 1 is exact in a double and IEEE
    division is element-wise, so each ratio has the bits of its own
    division either way.
    """
    numerators = np.arange(2 * kmax + 1, 2, -2, dtype=float)
    if kmax * r.size <= _BLOCK_VALUES:
        return np.divide(numerators[:, None], r)
    rows = [np.empty_like(r) for _ in range(3)]
    return (np.divide(numerator, r, out=rows[i % 3]) for i, numerator in enumerate(numerators))


@lru_cache(maxsize=256)
def _miller_top(k: int) -> int:
    """The backward recurrence's start for K = ``k``, K + min(K + 10, max(45, s)).

    s is the smallest integer with (s - 1)^3 >= 512 K (see ``_MILLER_SPARE``).
    """
    spare = min(k + _MILLER_SPARE, _MILLER_PAD)
    while (spare - 1) ** 3 < 512 * k:  # never below K = 167
        spare += 1
    return k + spare


def _regular_backward(m: int, r) -> np.ndarray:
    """u_m by backward Miller recurrence, for m >= 2.

    The unnormalized f_k run down from f_top = 1e-300 (an arbitrary tiny
    seed; the scale drops out), each radius from its own top, the
    :func:`_miller_top` of its K = max(m, ceil r), with zeros above it, and
    are scaled to u_k by whichever of u_0, u_1 is larger in magnitude, so
    that zeros of sin(r) cannot poison the scale.  The start depends on the
    radius's own m and r alone, so a batch starts each element where a call
    on it alone would.  Only the rows f_{k+1}, f_k,
    f_{k-1} of the current step, a copy of the row m, and the ratios
    (2k + 1)/r from :func:`_ratio_rows` (every order's for a small batch,
    three rows for a larger one) are held, and each step turns its ratio
    row into f_{k-1} in place by one multiply and one subtract.  So a batch
    of n radii takes O(n) memory whatever the order, and a small one few
    numpy calls.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    orders = np.maximum(m, np.ceil(r)).astype(int)  # each radius's K
    starts = {_miller_top(k): k for k in set(orders.tolist())}
    kmax = max(starts)
    # Each step down multiplies max|f| by at most (2 kmax + 1)/r + 1, so a
    # batch whose bound keeps the 1e-300 seed well under the limit never
    # rescales (a looser bound only adds checks that find nothing).
    growth = kmax * math.log10((2 * kmax + 1) / float(r.min()) + 1.0)
    may_rescale = growth - 300.0 > math.log10(_RESCALE_LIMIT) - 1.0
    above, cur = np.zeros(r.shape), np.zeros(r.shape)
    saved = np.zeros(r.shape)  # f_m, once the recurrence has reached it
    for k, new in zip(range(kmax, 0, -1), _ratio_rows(r, kmax)):
        if k in starts:
            cur[orders == starts[k]] = 1e-300
        new *= cur
        new -= above  # f_{k-1} = ((2k + 1)/r) f_k - f_{k+1}
        if may_rescale:
            big = np.abs(new) > _RESCALE_LIMIT
            if np.count_nonzero(big):
                for row in (new, cur, saved):
                    row[big] *= 1e-250
        if k == m + 1:
            saved[:] = new
        above, cur = cur, new
    f0, f1 = cur, above
    u0 = np.sin(r)
    u1 = u0 / r - np.cos(r)
    lam = np.where(np.abs(u0) >= np.abs(u1), u0 / f0, u1 / f1)
    return lam * saved


def _regular(m: int, r: np.ndarray) -> np.ndarray:
    """u_m over a 1-D array of radii >= 0, branch chosen per element."""
    if m == 0:  # exact at the origin too
        return np.sin(r)
    # the series gives the origin its limit, 0, for m >= 1
    series = r * r < _series_bound(m)
    count = np.count_nonzero(series)
    if count == r.size:
        prefactor, total = _regular_series_parts(m, r)
        return prefactor * total
    value = np.empty(r.size)
    if count:
        prefactor, total = _regular_series_parts(m, r[series])
        value[series] = prefactor * total
    rest = ~series
    # u_1 is the forward branch's seed, so every radius outside its series
    # takes it.  For m >= 2, r - 2 sqrt r rises for r >= 1 and is negative
    # below 4, so no radius takes the forward branch unless the largest
    # comes within the margin of it; the margin of 1 on m keeps a rounding
    # tie from skipping a radius that qualifies
    largest = r.max(initial=0.0)
    backward = rest
    if m == 1 or largest - 2.0 * math.sqrt(largest) >= m - 1:
        forward = rest if m == 1 else rest & (m <= r - 2.0 * np.sqrt(r))
        backward = rest & ~forward
        if np.count_nonzero(forward):
            value[forward] = _regular_forward(m, r[forward])
    if np.count_nonzero(backward):
        value[backward] = _regular_backward(m, r[backward])
    return value


def _regular_derivative(m: int, r: np.ndarray, value: np.ndarray) -> np.ndarray:
    """u'_m from u_m = ``value``: the ladder over u_{m-1} from its own values call."""
    if m == 0:  # exact at the origin too
        return np.cos(r)
    below = _regular(m - 1, r)
    # the ladder, f'_m = f_{m-1} - (m/r) f_m.  A subnormal or zero u_m is
    # a series value that lost digits to underflow (r^(m+1)/(2m+1)!! <
    # 2.2e-308), so the ladder would lose (m/r) u_m, a term of the same
    # order, or overflow in m/r (0 * inf at the origin).  With (m/r) u_m =
    # u_{m-1} m/(2m+1) S_m/S_{m-1} it needs neither, and reads 0 at the
    # origin, where u_{m-1} = 0 and S_m = S_{m-1} = 1.
    derivative = below - (m / r) * value
    underflow = (np.abs(value) < _TINY) & (r * r < _series_bound(m))
    if underflow.any():
        x = r[underflow]
        sum_ratio = _regular_series_parts(m, x)[1] / _regular_series_parts(m - 1, x)[1]
        derivative[underflow] = below[underflow] * (1.0 - (m / (2 * m + 1)) * sum_ratio)
    return derivative


def _irregular(m: int, r: np.ndarray) -> np.ndarray:
    """v_m by forward recurrence from v_{-1} = sin, v_0 = -cos (order 0 forms no sin)."""
    v0 = -np.cos(r)
    return _upward(m, r, 0, np.sin(r), v0) if m else v0


def _irregular_derivative(m: int, r: np.ndarray, value: np.ndarray) -> np.ndarray:
    """v'_m from v_m = ``value``: the ladder over v_{m-1} from its own values call."""
    if m == 0:
        return np.sin(r)  # v'_0 = v_{-1}
    return _irregular(m - 1, r) - (m / r) * value


def _shaped(x: np.ndarray, r: np.ndarray):
    """A Python float for a scalar radius, the radii's shape otherwise."""
    return float(x[0]) if r.ndim == 0 else x.reshape(r.shape)


def _evaluate(family: str, m, r, derivative=None):
    """Checks, core and OverflowError of the four entries; ``family`` is "u" or "v".

    The values of order m, shaped like the radii, or with a ``derivative``
    rule their ``FunctionPair``.  The error names the first radius where
    either is not finite, with a prime if only the derivative is.
    """
    m = _check_order(m)
    r = _check_radii(r, allow_zero=family == "u")
    x = r.ravel()
    with np.errstate(all="ignore"):
        value = (_regular if family == "u" else _irregular)(m, x)
        slope = None if derivative is None else derivative(m, x, value)
    if m:  # sin and cos of a finite radius are finite, so order 0 cannot fail
        finite = np.isfinite(value) if slope is None else np.isfinite(value) & np.isfinite(slope)
        if np.count_nonzero(finite) < finite.size:
            first = np.argmin(finite)
            prime = "'" if np.isfinite(value[first]) else ""
            radius = float(r.flat[first])
            raise OverflowError(f"{family}_{m}{prime}({radius!r}) {_FAILURE[family]}")
    return _shaped(value, r) if slope is None else FunctionPair(_shaped(value, r), _shaped(slope, r))


def eval_regular(m, r) -> FunctionPair:
    """Evaluate the regular Riccati-Bessel function u_m and its derivative.

    Parameters
    ----------
    m : int
        Nonnegative order.
    r : float or array_like
        Radius or radii, >= 0.  The origin is handled as the exact limit
        (value 0, derivative 1 for m = 0 and 0 otherwise).

    Returns
    -------
    FunctionPair
        ``(u_m(r), u'_m(r))``, relative accuracy <= 1e-12 for m <= 50,
        r <= 100: Python floats for a scalar ``r``, arrays of its shape
        otherwise.
    """
    return _evaluate("u", m, r, _regular_derivative)


def _regular_values(m, r):
    """``eval_regular(m, r).value``, bit for bit, with its checks and
    OverflowError, but without u_{m-1} or the derivative."""
    return _evaluate("u", m, r)


def eval_irregular(m, r) -> FunctionPair:
    """Evaluate the irregular Riccati-Bessel function v_m and its derivative.

    The family is pinned by ``v_0(r) = -cos r`` and the three-term
    recurrence; the derivative comes from the ladder identity.  Requires
    r > 0 strictly (v_m blows up like r^-m at the origin).  Takes a radius
    or an array of radii, like :func:`eval_regular`.
    """
    return _evaluate("v", m, r, _irregular_derivative)


def _irregular_values(m, r):
    """``eval_irregular(m, r).value``, bit for bit, with its checks; raises its
    OverflowError only where v_m itself overflows, not where v'_m alone does."""
    return _evaluate("v", m, r)


def wronskian(m, r):
    """u_m(r) v'_m(r) - u'_m(r) v_m(r); equals 1 for any order and radius.

    Purely diagnostic: deviations from 1 measure the combined evaluation
    error of both families.
    """
    u, du = eval_regular(m, r)
    v, dv = eval_irregular(m, r)
    return u * dv - du * v
