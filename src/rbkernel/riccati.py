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

* ``u_m`` for ``r < SERIES_CROSSOVER`` by Taylor series (the closed forms
  subtract nearly equal terms near zero; u_2 alone loses ~45/r^5 in relative
  error), summed in one loop with the series of u_{m-1}; deep in the
  oscillatory regime (order well below the argument) by forward recurrence
  from the exact u_0, u_1 seeds, which is neutral there and keeps errors at
  a few ulps of the oscillation amplitude; otherwise by
  backward Miller-style recurrence normalized against the closed forms of
  u_0 / u_1, which keeps a three-row window and divides out the ratios
  (2k + 1)/r of all its orders in one call where they fit 2^13 values, and
  an order at a time into three reused rows elsewhere, so n radii take O(n)
  memory at any order;

* ``v_m`` always by forward recurrence, which is stable because v_m is the
  dominant solution as the order grows;

* derivatives via the ladder identity, never finite differences; where the
  series value of u_m underflows (subnormal or 0, r below ~1e-154 for
  m = 1), via the same identity written with the two series sums,
  u'_m = u_{m-1} (1 - m/(2m + 1) S_m/S_{m-1}), because the plain ladder
  would lose its (m/r) u_m term or overflow in m/r.

Where only the values of u_m are wanted (the integrand u_2 of the package's
quadratures), ``_regular_values`` takes them from the same branches, bit for
bit, with ``eval_regular``'s checks and message, but without u_{m-1}, the
ladder or its fix-ups.

Both evaluators take a single radius or a numpy array of radii for one fixed
order.  An array is evaluated element by element with the branch above
selected per element by mask; each element keeps its own backward-recurrence
start, and the series, summed without masks until no element's term exceeds
1e-18 of its sum, adds to an element past its own stop only terms below half
an ulp of its sum.  So each value is bit for bit the one a call on that
element alone returns, whatever else is in the batch.  A float in gives a
``FunctionPair`` of Python floats out.

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

# Below this radius u_m is summed as a Taylor series, above it closed forms /
# backward recurrence take over.  Both branches deliver >= 12 digits in the
# overlap window [0.3, 0.7].
SERIES_CROSSOVER = 0.5

# Smallest normal double.
_TINY = np.finfo(float).tiny

# Extra orders above max(m, r) for the backward recurrence start.  Downward
# contamination by the irregular solution shrinks at least geometrically once
# the order exceeds the argument; 45 spare orders leave it far below 1e-13.
_MILLER_PAD = 45

# Magnitude at which the backward recurrence rescales to avoid overflow.
_RESCALE_LIMIT = 1e250

# Most values (64 KiB) in one block of rows that the series sums in one loop
# (a block holds one row at least), and in the ratios (2k + 1)/r that the
# backward recurrence divides out in one numpy call (a larger batch divides
# them an order at a time).  Blocks pay off where numpy's per-call cost
# dominates: this one holds every ratio of an identity-check point's u_2
# batch (about 50 orders over fewer than 170 radii), while numpy's one-
# dimensional calls are faster per value on a sweep's batches of thousands
# of radii, and a block there would only raise their peak memory.
_BLOCK_VALUES = 2**13


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
    """:func:`check_radius` for an array of radii, naming the first bad one."""
    r = np.asarray(r, dtype=float)
    ok = (r >= 0.0 if allow_zero else r > 0.0) & (r < math.inf)
    if not ok.all():
        sign = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"radius must be {sign} and finite, got {float(r[~ok].flat[0])!r}")
    return r


def _double_factorial(n: int) -> float:
    """(n)!! over odd n; returns inf on overflow (caller underflows to 0)."""
    out = 1.0
    for k in range(3, n + 1, 2):
        out *= k
        if not math.isfinite(out):
            return math.inf
    return out


@lru_cache(maxsize=64)
def _series_denominators(orders: tuple) -> np.ndarray:
    """k (2m + 2k + 1) for k = 1 .. 201, exact in a double: one column of
    the orders m per k, to broadcast over the radii."""
    ks = np.arange(1, 202)[:, None]
    return (ks * (2 * np.array(orders) + 2 * ks + 1)).astype(float)[..., None]


def _series_terms(x: float, m: int) -> int:
    """How many terms :func:`_regular_series_parts` adds to S_m at the radius x alone."""
    term = total = 1.0
    half_r2 = -0.5 * x * x
    for k in range(1, 202):
        term *= half_r2 / (k * (2 * m + 2 * k + 1))
        total += term
        if not abs(term) > 1e-18 * abs(total):
            break
    return k


def _regular_series_parts(orders, r):
    # u_m(r) = r^(m+1)/(2m+1)!! * S_m(r),
    # S_m(r) = sum_k (-r^2/2)^k / (k! (2m+3)...(2m+2k+1)),
    # an alternating series with factorially shrinking terms; safe for any r
    # but only needed (and used) near zero.  One row per order in ``orders``
    # over the 1-D radii; the rows of a block of at most _BLOCK_VALUES values
    # (one row at least) are summed in one loop, without masks, until no
    # element's term exceeds 1e-18 of its sum.  An element summed alone stops
    # at its first such term, and the terms after it change none of its
    # bits: below r = 2 each term is under 2/3 of the one before, so every
    # later term is below 1e-18 of the sum too, which is under half an ulp of
    # it (2^-54 of it at least), and adding it rounds back to the sum.  So
    # each element's bits depend on neither the other rows nor the other
    # radii.  No element stops before the largest radius at the block's
    # lowest order (its terms are the largest next to its sum), so the test
    # starts there.  Returns the prefactors and the sums S_m separately: S_m
    # is near 1 even where u_m underflows.
    r = np.atleast_1d(np.asarray(r, dtype=float))
    # float_power calls C pow like Python's float ** int; numpy's ** takes a
    # different route for integer exponents and can differ in the last bit
    prefactor = np.array([
        np.float_power(r, m + 1) / _double_factorial(2 * m + 1) for m in orders
    ])
    half_r2 = -0.5 * r * r
    largest = float(r.max())
    total = np.ones(prefactor.shape)
    block_rows = max(1, _BLOCK_VALUES // r.size)
    for first in range(0, len(orders), block_rows):
        rows = slice(first, first + block_rows)
        block = total[rows]  # a view: summed in place
        term = np.ones(block.shape)
        first_test = _series_terms(largest, min(orders[rows]))
        for k, denominator in enumerate(_series_denominators(tuple(orders[rows])), 1):
            term *= half_r2 / denominator
            block += term
            if k >= first_test and not (np.abs(term) > 1e-18 * np.abs(block)).any():
                break
    return prefactor, total


def _regular_forward(m: int, r: np.ndarray):
    """(u_m, u_{m-1}) by forward recurrence from the exact u_0, u_1 seeds.

    Only safe while the order stays below the argument, where u_m has not
    started to decay and the recurrence is neutral in both directions; the
    caller restricts this branch to m <= r - 2 sqrt(r).
    """
    prev = np.sin(r)
    cur = prev / r - np.cos(r)
    for k in range(1, m):
        prev, cur = cur, (2 * k + 1) / r * cur - prev
    return cur, prev


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


def _regular_backward(m: int, r, orders: int = 2):
    """[u_m, u_{m-1}] by backward Miller recurrence, for m >= 2; [u_m] for ``orders=1``.

    The unnormalized f_k run down from f_top = 1e-300 (an arbitrary tiny
    seed; the scale drops out), each radius from its own
    ``top = max(m, ceil r) + _MILLER_PAD`` with zeros above it, and are
    scaled to u_k by whichever of u_0, u_1 is larger in magnitude, so that
    zeros of sin(r) cannot poison the scale.  Only the rows f_{k+1}, f_k,
    f_{k-1} of the current step, copies of the rows m and (for two
    ``orders``) m - 1, and the ratios (2k + 1)/r from :func:`_ratio_rows`
    (every order's for a small batch, three rows for a larger one) are
    held, and each step turns its ratio row into f_{k-1} in place by one
    multiply and one subtract.  So a batch of n radii takes O(n) memory
    whatever the order, and a small one few numpy calls.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    top = np.maximum(m, np.ceil(r)).astype(int) + _MILLER_PAD
    kmax = int(top.max())
    starts = set(top.tolist())
    # Each step down multiplies max|f| by at most (2 kmax + 1)/r + 1, so a
    # batch whose bound keeps the 1e-300 seed well under the limit never
    # rescales (a looser bound only adds checks that find nothing).
    growth = kmax * math.log10((2 * kmax + 1) / float(r.min()) + 1.0)
    may_rescale = growth - 300.0 > math.log10(_RESCALE_LIMIT) - 1.0
    above, cur = np.zeros(r.shape), np.zeros(r.shape)
    keep = range(m + 2 - orders, m + 2)  # the steps whose f_{k-1} is returned
    saved = {}  # f_m (and f_{m-1}), once the recurrence has reached them
    for k, new in zip(range(kmax, 0, -1), _ratio_rows(r, kmax)):
        if k in starts:
            cur[top == k] = 1e-300
        new *= cur
        new -= above  # f_{k-1} = ((2k + 1)/r) f_k - f_{k+1}
        if may_rescale:
            big = np.abs(new) > _RESCALE_LIMIT
            if big.any():
                for row in (new, cur, *saved.values()):
                    row[big] *= 1e-250
        if k in keep:
            saved[k - 1] = new.copy()
        above, cur = cur, new
    f0, f1 = cur, above
    u0 = np.sin(r)
    u1 = u0 / r - np.cos(r)
    lam = np.where(np.abs(u0) >= np.abs(u1), u0 / f0, u1 / f1)
    return [lam * saved[k] for k in range(m, m - orders, -1)]


def _fill(rows, mask: np.ndarray, parts) -> None:
    """Set ``rows[i][mask] = parts[i]`` for every row; extra parts are dropped."""
    for row, part in zip(rows, parts):
        row[mask] = part


def _regular(m: int, r: np.ndarray, ladder: bool = True):
    """(u_m, u'_m) over a 1-D array of radii >= 0, branch chosen per element.

    Without the ``ladder``, u_m alone: the same branches give it the same
    bits, but u_{m-1}, the derivative and its fix-ups are never formed.
    """
    if m == 0:  # exact at the origin too
        return (np.sin(r), np.cos(r)) if ladder else np.sin(r)
    orders = 2 if ladder else 1
    # u_m and, for the ladder, u_{m-1}; the origin limit for m >= 1 is 0
    rows = [np.zeros(r.size) for _ in range(orders)]
    series = (r > 0.0) & (r < SERIES_CROSSOVER)
    if series.any():
        prefactor, total = _regular_series_parts((m, m - 1)[:orders], r[series])
        _fill(rows, series, prefactor * total)
    rest = r >= SERIES_CROSSOVER
    if m == 1:
        x = r[rest]
        u0 = np.sin(x)
        _fill(rows, rest, (u0 / x - np.cos(x), u0))
    else:
        # r - 2 sqrt r rises for r >= 1 and is negative below 4, so no radius
        # takes the forward branch (m >= 2) unless the largest comes within
        # the margin of it; the margin of 1 on m keeps a rounding tie from
        # skipping a radius that qualifies
        largest = r.max(initial=0.0)
        backward = rest
        if largest - 2.0 * math.sqrt(largest) >= m - 1:
            forward = rest & (m <= r - 2.0 * np.sqrt(r))
            backward = rest & ~forward
            if forward.any():
                _fill(rows, forward, _regular_forward(m, r[forward]))
        if backward.any():
            _fill(rows, backward, _regular_backward(m, r[backward], orders))
    if not ladder:
        return rows[0]
    value, below = rows
    # the ladder, f'_m = f_{m-1} - (m/r) f_m, at every radius but the origin
    derivative = below - (m / r) * value
    if not r.all():  # some radius is 0, where the ladder reads 0 * inf
        derivative[r == 0.0] = 0.0
    # a subnormal or zero u_m at r > 0 is a series value that lost digits to
    # underflow (r^(m+1)/(2m+1)!! < 2.2e-308), so the ladder would lose
    # (m/r) u_m, a term of the same order, or overflow in m/r.  With
    # (m/r) u_m = u_{m-1} m/(2m+1) S_m/S_{m-1} the ladder needs neither.
    underflow = (np.abs(value) < _TINY) & series
    if underflow.any():
        sum_ratio = (total[0] / total[1])[underflow[series]]
        derivative[underflow] = below[underflow] * (1.0 - (m / (2 * m + 1)) * sum_ratio)
    return value, derivative


def _irregular(m: int, r: np.ndarray):
    """(v_m, v'_m) by forward recurrence from v_{-1} = sin, v_0 = -cos."""
    if m == 0:
        return -np.cos(r), np.sin(r)  # v'_0 = v_{-1}
    prev = np.sin(r)
    cur = -np.cos(r)
    for k in range(m):
        prev, cur = cur, (2 * k + 1) / r * cur - prev
    return cur, prev - (m / r) * cur


def _shaped(x: np.ndarray, r: np.ndarray):
    """A Python float for a scalar radius, the radii's shape otherwise."""
    return float(x[0]) if r.ndim == 0 else x.reshape(r.shape)


def _pair(value, derivative, r: np.ndarray, name: str, failure: str) -> FunctionPair:
    """Check finiteness and shape the result like the radii that came in."""
    finite = np.isfinite(value) & np.isfinite(derivative)
    if not finite.all():
        first = np.argmin(finite)  # the first radius where either half is not finite
        prime = "'" if np.isfinite(value[first]) else ""  # there, only the derivative
        raise OverflowError(f"{name}{prime}({float(r.flat[first])!r}) {failure}")
    return FunctionPair(_shaped(value, r), _shaped(derivative, r))


_REGULAR_FAILURE = "is not finite in double precision"


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
    m = _check_order(m)
    r = _check_radii(r, allow_zero=True)
    with np.errstate(all="ignore"):
        value, derivative = _regular(m, r.ravel())
    return _pair(value, derivative, r, f"u_{m}", _REGULAR_FAILURE)


def _regular_values(m, r):
    """``eval_regular(m, r).value``, bit for bit, without the derivative.

    The same checks of m and r and the same branches, but neither u_{m-1}
    nor the ladder is formed; raises ``eval_regular``'s OverflowError at
    the first radius where u_m is not finite.
    """
    m = _check_order(m)
    r = _check_radii(r, allow_zero=True)
    with np.errstate(all="ignore"):
        value = _regular(m, r.ravel(), ladder=False)
    finite = np.isfinite(value)
    if not finite.all():
        raise OverflowError(f"u_{m}({float(r.flat[np.argmin(finite)])!r}) {_REGULAR_FAILURE}")
    return _shaped(value, r)


def eval_irregular(m, r) -> FunctionPair:
    """Evaluate the irregular Riccati-Bessel function v_m and its derivative.

    The family is pinned by ``v_0(r) = -cos r`` and the three-term
    recurrence; the derivative comes from the ladder identity.  Requires
    r > 0 strictly (v_m blows up like r^-m at the origin).  Takes a radius
    or an array of radii, like :func:`eval_regular`.
    """
    m = _check_order(m)
    r = _check_radii(r)
    with np.errstate(all="ignore"):
        value, derivative = _irregular(m, r.ravel())
    return _pair(value, derivative, r, f"v_{m}", "overflows double precision")


def wronskian(m, r):
    """u_m(r) v'_m(r) - u'_m(r) v_m(r); equals 1 for any order and radius.

    Purely diagnostic: deviations from 1 measure the combined evaluation
    error of both families.
    """
    u, du = eval_regular(m, r)
    v, dv = eval_irregular(m, r)
    return u * dv - du * v
