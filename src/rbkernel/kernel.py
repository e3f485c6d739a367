"""Degenerate symmetric kernels built from Riccati-Bessel function products.

A kernel here is a finite sum g(s, t) = sum_m gamma_m u_m(min(s,t)) v_m(max(s,t))
over an index set S, with the coefficients gamma_m pinned down by requiring

    sum_{m in S} gamma_m / (m(m+1) - l(l+1)) = 1   for every l in T,

where T is a second index set disjoint from S.  Because x -> x(x+1) is
strictly increasing on (-0.5, inf), disjoint admissible sets can never make a
denominator vanish, so the coefficient matrix is always well defined.

Coefficient solving is pure arithmetic and accepts arbitrary real orders;
kernel evaluation additionally needs nonnegative integer orders, where the
function families of :mod:`rbkernel.riccati` exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .riccati import check_radius, eval_irregular, eval_regular

__all__ = [
    "SetValidationError",
    "UnsupportedOrderError",
    "SingularSystemError",
    "IndexSets",
    "KernelSpec",
    "GAMMA_RESIDUAL_TOL",
    "CONDITION_LIMIT",
    "validate_sets",
    "coefficient_matrix",
    "equation_residual",
    "solve_gamma",
    "eval_kernel",
]

# Per-row residual allowed on the solved coefficient equation.
GAMMA_RESIDUAL_TOL = 1e-10

# Condition number above which the coefficient system is reported as
# numerically rank deficient instead of silently solved.
CONDITION_LIMIT = 1e12


class SetValidationError(ValueError):
    """Raised when the index sets S, T violate their invariants."""


class UnsupportedOrderError(ValueError):
    """Raised when kernel evaluation meets a non-integer order."""


class SingularSystemError(ValueError):
    """Raised when the coefficient system is singular or ill conditioned."""


@dataclass(frozen=True)
class IndexSets:
    """Validated index sets S and T: distinct reals > -0.5, disjoint, equal size."""

    s_orders: tuple[float, ...]
    t_orders: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.s_orders)

    @property
    def integer_orders(self) -> bool:
        """True when every element of S is a nonnegative integer.

        Only then can the kernel itself be evaluated (:meth:`KernelSpec.terms`
        checks this); coefficient solving works either way.
        """
        return all(x >= 0.0 and float(x).is_integer() for x in self.s_orders)


@dataclass(frozen=True)
class KernelSpec:
    """Index sets together with the solved coefficients gamma_m, m in S."""

    sets: IndexSets
    gamma: tuple[float, ...]

    def terms(self) -> list[tuple[int, float]]:
        """The (m, gamma_m) pairs of the kernel sum, with m as an int.

        Raises UnsupportedOrderError unless every m is a nonnegative integer.
        """
        if not self.sets.integer_orders:
            raise UnsupportedOrderError(
                "the kernel needs nonnegative integer orders in S, got "
                f"S={list(self.sets.s_orders)}"
            )
        return [(int(m), g) for m, g in zip(self.sets.s_orders, self.gamma)]


def _as_set(values, name: str) -> tuple[float, ...]:
    out = []
    for x in values:
        x = float(x)
        if not math.isfinite(x):
            raise SetValidationError(f"{name} contains a non-finite element")
        if x <= -0.5:
            raise SetValidationError(
                f"{name} contains {x!r}, outside the admissible interval (-0.5, inf)"
            )
        out.append(x)
    if len(set(out)) != len(out):
        raise SetValidationError(f"{name} contains duplicate elements: {out}")
    if not out:
        raise SetValidationError(f"{name} must be nonempty")
    return tuple(sorted(out))


def validate_sets(s_values, t_values) -> IndexSets:
    """Validate raw index sets and return them sorted ascending.

    Raises
    ------
    SetValidationError
        On overlap between S and T, elements <= -0.5, duplicates, empty
        sets, or |S| != |T| (the coefficient system must be square).
    """
    s_orders = _as_set(s_values, "S")
    t_orders = _as_set(t_values, "T")
    common = set(s_orders) & set(t_orders)
    if common:
        raise SetValidationError(f"S and T must be disjoint; both contain {sorted(common)}")
    if len(s_orders) != len(t_orders):
        raise SetValidationError(
            f"|S| = {len(s_orders)} and |T| = {len(t_orders)}: the coefficient "
            "system must be square"
        )
    return IndexSets(s_orders=s_orders, t_orders=t_orders)


def coefficient_matrix(sets: IndexSets) -> np.ndarray:
    """Matrix M[l, m] = 1 / (m(m+1) - l(l+1)) with rows over T, columns over S."""
    m = np.array(sets.s_orders)
    l = np.array(sets.t_orders)
    return 1.0 / (m[None, :] * (m[None, :] + 1.0) - l[:, None] * (l[:, None] + 1.0))


def equation_residual(sets: IndexSets, gamma) -> float:
    """Max-norm residual of the coefficient equation for the given gamma."""
    matrix = coefficient_matrix(sets)
    return float(np.max(np.abs(matrix @ np.asarray(gamma, dtype=float) - 1.0)))


def solve_gamma(sets: IndexSets) -> KernelSpec:
    """Solve the square coefficient system for gamma.

    Raises
    ------
    SingularSystemError
        If the system is singular, has condition estimate above
        ``CONDITION_LIMIT``, or the solution fails the per-row residual
        check (<= ``GAMMA_RESIDUAL_TOL``).
    """
    matrix = coefficient_matrix(sets)
    condition = np.linalg.cond(matrix)
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularSystemError(
            f"coefficient system for S={list(sets.s_orders)}, "
            f"T={list(sets.t_orders)} is numerically rank deficient "
            f"(condition estimate {condition:.3e})"
        )
    gamma = np.linalg.solve(matrix, np.ones(sets.size))
    residual = equation_residual(sets, gamma)
    if not residual <= GAMMA_RESIDUAL_TOL:
        raise SingularSystemError(
            f"solved gamma for S={list(sets.s_orders)}, T={list(sets.t_orders)} "
            f"leaves residual {residual:.3e} > {GAMMA_RESIDUAL_TOL:.0e}"
        )
    return KernelSpec(sets=sets, gamma=tuple(float(g) for g in gamma))


def eval_kernel(spec: KernelSpec, s, t) -> float:
    """Evaluate g(s, t) = sum_m gamma_m u_m(min(s,t)) v_m(max(s,t)).

    Symmetric under swapping the arguments by construction (the min/max
    split makes the symmetry bitwise exact); on the diagonal s = t the
    common continuous limit is returned.
    """
    terms = spec.terms()
    lo, hi = sorted((check_radius(s), check_radius(t)))
    total = 0.0
    for m, g in terms:
        total += g * eval_regular(m, lo).value * eval_irregular(m, hi).value
    return total
