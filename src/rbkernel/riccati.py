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
  error); deep in the oscillatory regime (order well below the argument) by
  forward recurrence from the exact u_0, u_1 seeds, which is neutral there
  and keeps errors at a few ulps of the oscillation amplitude; otherwise by
  backward Miller-style recurrence normalized against the closed forms of
  u_0 / u_1, which keeps a three-row window, so n radii take O(n) memory
  at any order;

* ``v_m`` always by forward recurrence, which is stable because v_m is the
  dominant solution as the order grows;

* derivatives via the ladder identity, never finite differences; where the
  series value of u_m underflows (subnormal or 0, r below ~1e-154 for
  m = 1), via the same identity written with the two series sums,
  u'_m = u_{m-1} (1 - m/(2m + 1) S_m/S_{m-1}), because the plain ladder
  would lose its (m/r) u_m term or overflow in m/r.

Both evaluators take a single radius or a numpy array of radii for one fixed
order.  An array is evaluated element by element with the branch above
selected per element by mask; each element keeps its own series stopping
point and its own backward-recurrence start, so its value is bit for bit the
one a call on that element alone returns, whatever else is in the batch.  A
float in gives a ``FunctionPair`` of Python floats out.

The package's one radius rule lives here: a radius is a positive, finite
double.  Every layer checks it with ``check_radius``; the evaluators hold each
array element to it with the same message (``eval_regular`` admits 0 too).
"""

from __future__ import annotations

import math
import operator as _op
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


def _regular_series_parts(m: int, r):
    # u_m(r) = r^(m+1)/(2m+1)!! * S_m(r),
    # S_m(r) = sum_k (-r^2/2)^k / (k! (2m+3)...(2m+2k+1)),
    # an alternating series with factorially shrinking terms; safe for any r
    # but only needed (and used) near zero.  Each element stops summing on
    # its own once its terms no longer contribute.  Returns the prefactor
    # and S_m separately: S_m is near 1 even where u_m underflows.
    r = np.asarray(r, dtype=float)
    # float_power calls C pow like Python's float ** int; numpy's ** takes a
    # different route for integer exponents and can differ in the last bit
    prefactor = np.float_power(r, m + 1) / _double_factorial(2 * m + 1)
    half_r2 = -0.5 * r * r
    total = np.ones_like(r)
    term = np.ones_like(r)
    active = np.ones_like(r, dtype=bool)
    for k in range(1, 202):
        if not active.any():
            break
        np.multiply(term, half_r2 / (k * (2 * m + 2 * k + 1)), out=term, where=active)
        np.add(total, term, out=total, where=active)
        active &= np.abs(term) > 1e-18 * np.abs(total)
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


def _regular_backward(m: int, r):
    """(u_m, u_{m-1}) by backward Miller recurrence, for m >= 2.

    The unnormalized f_k run down from f_top = 1e-300 (an arbitrary tiny
    seed; the scale drops out), each radius from its own
    ``top = max(m, ceil r) + _MILLER_PAD`` with zeros above it, and are
    scaled to u_k by whichever of u_0, u_1 is larger in magnitude, so that
    zeros of sin(r) cannot poison the scale.  Only the rows f_{k+1}, f_k,
    f_{k-1} of the current step and the rows m and m - 1 are held, so a
    batch of n radii takes O(n) memory whatever the order.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    top = np.maximum(m, np.ceil(r)).astype(int) + _MILLER_PAD
    kmax = int(top.max())
    starts = set(top.tolist())
    # Each step down multiplies max|f| by at most (2k + 1)/r + 1, so a batch
    # whose bound keeps the 1e-300 seed well under the limit never rescales.
    growth = np.sum(np.log10((2 * np.arange(1, kmax + 1) + 1) / r.min() + 1.0))
    may_rescale = growth - 300.0 > math.log10(_RESCALE_LIMIT) - 1.0
    above, cur, new = np.zeros_like(r), np.zeros_like(r), np.empty_like(r)
    saved = {}  # f_m and f_{m-1}, once the recurrence has reached them
    for k in range(kmax, 0, -1):
        if k in starts:
            cur[top == k] = 1e-300
        np.divide(2 * k + 1, r, out=new)
        new *= cur
        new -= above  # f_{k-1} = ((2k + 1)/r) f_k - f_{k+1}
        if may_rescale:
            big = np.abs(new) > _RESCALE_LIMIT
            if big.any():
                for row in (new, cur, *saved.values()):
                    row[big] *= 1e-250
        if k - 1 in (m, m - 1):
            saved[k - 1] = new.copy()
        above, cur, new = cur, new, above
    f0, f1 = cur, above
    u0 = np.sin(r)
    u1 = u0 / r - np.cos(r)
    lam = np.where(np.abs(u0) >= np.abs(u1), u0 / f0, u1 / f1)
    return lam * saved[m], lam * saved[m - 1]


def _regular(m: int, r: np.ndarray):
    """(u_m, u'_m) over a 1-D array of radii >= 0, branch chosen per element."""
    if m == 0:
        return np.sin(r), np.cos(r)  # exact at the origin too
    value = np.zeros_like(r)  # the origin limit for m >= 1: (0, 0)
    below = np.zeros_like(r)  # u_{m-1}
    sum_ratio = np.zeros_like(r)  # S_m / S_{m-1} on the series branch
    series = (r > 0.0) & (r < SERIES_CROSSOVER)
    rest = r >= SERIES_CROSSOVER
    if series.any():
        x = r[series]
        prefactor, total = _regular_series_parts(m, x)
        prefactor_below, total_below = _regular_series_parts(m - 1, x)
        value[series] = prefactor * total
        below[series] = prefactor_below * total_below
        sum_ratio[series] = total / total_below
    if m == 1:
        x = r[rest]
        below[rest] = np.sin(x)
        value[rest] = below[rest] / x - np.cos(x)
    else:
        forward = rest & (m <= r - 2.0 * np.sqrt(r))
        backward = rest & ~forward
        if forward.any():
            value[forward], below[forward] = _regular_forward(m, r[forward])
        if backward.any():
            value[backward], below[backward] = _regular_backward(m, r[backward])
    derivative = np.zeros_like(r)
    # a subnormal or zero u_m at r > 0 is a series value that lost digits to
    # underflow (r^(m+1)/(2m+1)!! < 2.2e-308), so the ladder would lose
    # (m/r) u_m, a term of the same order, or overflow in m/r.  With
    # (m/r) u_m = u_{m-1} m/(2m+1) S_m/S_{m-1} the ladder needs neither.
    underflow = (np.abs(value) < _TINY) & series
    derivative[underflow] = below[underflow] * (
        1.0 - (m / (2 * m + 1)) * sum_ratio[underflow]
    )
    ladder = (r > 0.0) & ~underflow
    derivative[ladder] = below[ladder] - (m / r[ladder]) * value[ladder]
    return value, derivative


def _irregular(m: int, r: np.ndarray):
    """(v_m, v'_m) by forward recurrence from v_{-1} = sin, v_0 = -cos."""
    prev = np.sin(r)
    cur = -np.cos(r)
    for k in range(m):
        prev, cur = cur, (2 * k + 1) / r * cur - prev
    return cur, prev - (m / r) * cur


def _pair(value, derivative, r: np.ndarray, message: str) -> FunctionPair:
    """Check finiteness and shape the result like the radii that came in."""
    finite = np.isfinite(value) & np.isfinite(derivative)
    if not finite.all():
        raise OverflowError(message.format(float(r.flat[np.argmin(finite)])))
    if r.ndim == 0:
        return FunctionPair(float(value[0]), float(derivative[0]))
    return FunctionPair(value.reshape(r.shape), derivative.reshape(r.shape))


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
    return _pair(value, derivative, r, f"u_{m}({{}}) is not finite in double precision")


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
    return _pair(value, derivative, r, f"v_{m}({{}}) overflows double precision")


def wronskian(m, r):
    """u_m(r) v'_m(r) - u'_m(r) v_m(r); equals 1 for any order and radius.

    Purely diagnostic: deviations from 1 measure the combined evaluation
    error of both families.
    """
    u, du = eval_regular(m, r)
    v, dv = eval_irregular(m, r)
    return u * dv - du * v
