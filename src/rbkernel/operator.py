"""Discretization and application of the kernel integral operator.

The operator acts on functions vanishing at the origin:

    (K h)(s) = - integral_0^r g(s, t) h(t) t^-2 dt,   0 < s <= r.

Three independent routes are provided.

``apply_operator`` exploits the separable form of the kernel: the
integration is split exactly at t = s (the kernel's derivative kink), so
each side has a smooth integrand and composite Gauss-Legendre panels
converge fast; panel counts double until the result is stable to the
requested tolerance.  It takes one point or an array of points and
evaluates h and the kernel families on the nodes of all of them at once.

``kink_exact_matrix`` discretizes the same split on one grid.  Since
g = u(min) v(max), (K h)(s_i) combines two cumulative integrals that end
exactly at the node s_i; each is taken by panel-wise Legendre product
integration (Greengard, SIAM J. Numer. Anal. 28, 1991; Atkinson, The
Numerical Solution of Integral Equations of the Second Kind, 1997, ch. 4),
so the matrix is as accurate as the polynomial interpolant of h on each
panel and the kink costs nothing.

``nystrom_matrix`` builds the dense collocation matrix
``A[i, j] = -g(s_i, t_j) w_j / t_j**2`` on one shared grid.  The matrix
cannot split at the kink per row, so its accuracy is limited by the panel
resolution (observed O(N^-2) in the total node count).  Its lower triangle
is one outer product v(s_i) u(t_j) per order, and the upper triangle is
its mirror image.

Both matrices act on values at the grid nodes.  K is self-adjoint on
L^2((0, r], t^-2 dt), and ``D = sqrt(w)/t`` maps node values to vectors
whose Euclidean norm is that norm, so min |1 - lambda| over the eigenvalues
of the symmetric form ``D A D^-1`` measures how close h = K h is to having a
nontrivial solution, on a scale that does not depend on the grid.
``certificate_sigma`` takes it from the eigenvalues alone
(``np.linalg.eigvalsh``, LAPACK's values-only symmetric eigensolver);
``self_adjoint_certificate`` takes the same values, bit for bit, from the
same call, and one ``np.linalg.eigh`` for the null vector.  ``verify`` uses
them on the kink-exact matrix of the ``DEFAULT_CERTIFICATE_*`` grid,
8 uniform panels x 16 nodes, where min |1 - lambda| reaches rounding level
at the singular radius.

``min_singular_value`` returns the smallest singular value of I - A, a
float, from a values-only SVD, which forms neither singular-vector matrix.
``sweep`` and the public ``spectral_grid`` use it; ``DEFAULT_SPECTRAL_*``
define the grid on which its 1e-6 collapse threshold was calibrated: 128
uniform panels x 12 nodes push the kink-limited discretization error of the
Nystrom matrix near the singular radius to ~5e-7.  Uniform panels beat
origin-graded ones here because the kink error lives in mid-interval panels,
not at the origin.

``sweep`` takes the Riccati tables of a chunk of radii from one call per
order and family on all their grids' nodes, and assembles and solves each
grid on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernel import KernelSpec
from .report import ScanReport, fmt_float
from .riccati import check_radius, eval_irregular, eval_regular

__all__ = [
    "ConvergenceError",
    "NUMERIC_ERRORS",
    "QuadratureGrid",
    "NystromOperator",
    "SelfAdjointCertificate",
    "DEFAULT_CERTIFICATE_PANELS",
    "DEFAULT_CERTIFICATE_NODES",
    "DEFAULT_CERTIFICATE_GRADING",
    "DEFAULT_SPECTRAL_PANELS",
    "DEFAULT_SPECTRAL_NODES",
    "DEFAULT_SPECTRAL_GRADING",
    "build_grid",
    "spectral_grid",
    "nystrom_matrix",
    "kink_exact_matrix",
    "apply_operator",
    "min_singular_value",
    "self_adjoint_certificate",
    "certificate_sigma",
    "dump_matrix",
    "sweep",
]

# Grid of verify's self-adjoint certificate on the kink-exact matrix.
DEFAULT_CERTIFICATE_PANELS = 8
DEFAULT_CERTIFICATE_NODES = 16
DEFAULT_CERTIFICATE_GRADING = 1.0

# Grid on which the Nystrom sigma_min collapse threshold (1e-6) is calibrated.
DEFAULT_SPECTRAL_PANELS = 128
DEFAULT_SPECTRAL_NODES = 12
DEFAULT_SPECTRAL_GRADING = 1.0

# Absolute tolerance target per sub-integral in apply_operator.
DEFAULT_QUAD_TOL = 1e-10

_MAX_DOUBLINGS = 14

# Most quadrature nodes apply_operator holds at once: a pass's rows are
# processed in chunks of at most this many nodes over all the pass's levels
# (one row may exceed it), so a call that fails to converge stays within a
# few rows' worth of memory.
# sweep tabulates the Riccati functions on chunks of radii of at most this
# many grid nodes (one radius may exceed it), so a long sweep stays bounded.
_CHUNK_NODES = 2**16

# Gauss-Legendre nodes per panel of the apply_operator quadrature.
_QUAD_NODES = 16


class ConvergenceError(RuntimeError):
    """Raised when panel doubling fails to reach the requested tolerance."""


# The numeric failures a point of a sweep, or a CLI command, may end in;
# anything else (a TypeError, say) is a programming error and propagates.
NUMERIC_ERRORS = (ValueError, OverflowError, ArithmeticError, ConvergenceError)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Composite Gauss-Legendre grid on (0, r].

    ``panel_bounds`` holds the ordered panel boundaries (first 0, last r);
    ``nodes`` and ``weights`` are the concatenated per-panel Gauss points.
    """

    r: float
    panel_bounds: tuple[float, ...]
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError(f"nodes and weights must have equal length at r = {self.r!r}")
        if np.any(self.weights <= 0.0):
            raise ValueError(f"weights must be positive at r = {self.r!r}")
        if np.any(self.nodes <= 0.0) or np.any(self.nodes >= self.r):
            raise ValueError(f"nodes must lie strictly inside (0, r) at r = {self.r!r}")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError(f"nodes must be strictly increasing at r = {self.r!r}")
        # summed relative to r, since the plain sum overflows near the largest double
        if abs(float(np.sum(self.weights / self.r)) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to r at r = {self.r!r}")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def l2_scaling(self) -> np.ndarray:
        """D = sqrt(w)/t: node values to vectors normed in L^2((0, r], t^-2 dt)."""
        return np.sqrt(self.weights) / self.nodes


@dataclass(frozen=True, eq=False)
class NystromOperator:
    """Dense matrix A on the grid's nodes: (K h)(t_i) ~ sum_j A[i, j] h(t_j).

    Built by :func:`nystrom_matrix` (collocation) or
    :func:`kink_exact_matrix` (product integration).
    """

    grid: QuadratureGrid
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class SelfAdjointCertificate:
    """Eigenvalues lambda of the symmetric form D A D^-1, measured from 1.

    ``sigma_min`` and ``next_sigma`` are the smallest and second-smallest
    |1 - lambda|; ``null_vector`` is the unit eigenvector of the smallest,
    i.e. the candidate solution's node values scaled by D = sqrt(w)/t (sign
    as returned by ``np.linalg.eigh``); ``asymmetry`` is max |S - S^T| of
    S = D A D^-1 before it was symmetrized.
    """

    sigma_min: float
    next_sigma: float
    asymmetry: float
    null_vector: np.ndarray = field(repr=False)
    operator: NystromOperator = field(repr=False)


@lru_cache(maxsize=32)
def _gauss_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(bounds: np.ndarray, nodes_per_panel: int):
    """Gauss nodes and weights of the panels along the last axis of ``bounds``."""
    x, w = _gauss_rule(nodes_per_panel)
    # halved before adding: b + a overflows near the largest double
    mid = 0.5 * bounds[..., 1:] + 0.5 * bounds[..., :-1]
    half = 0.5 * (bounds[..., 1:] - bounds[..., :-1])
    shape = bounds.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    weights = (half[..., None] * w).reshape(shape)
    return nodes, weights


def build_grid(
    r,
    panels_count: int = 8,
    nodes_per_panel: int = 12,
    grading: float = 2.0,
) -> QuadratureGrid:
    """Build a composite Gauss-Legendre grid on (0, r].

    Panels are graded toward the origin: boundary i sits at
    ``r * (i / panels)**grading`` (grading 1 gives uniform panels).
    """
    r = check_radius(r)
    if panels_count < 1:
        raise ValueError("panels_count must be >= 1")
    if nodes_per_panel < 2:
        raise ValueError("nodes_per_panel must be >= 2")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    bounds = r * (np.arange(panels_count + 1) / panels_count) ** grading
    nodes, weights = _panel_nodes(bounds, nodes_per_panel)
    return QuadratureGrid(
        r=r, panel_bounds=tuple(float(b) for b in bounds), nodes=nodes, weights=weights
    )


def spectral_grid(r) -> QuadratureGrid:
    """Default grid for singular-value certificates (see module docstring)."""
    return build_grid(
        r,
        panels_count=DEFAULT_SPECTRAL_PANELS,
        nodes_per_panel=DEFAULT_SPECTRAL_NODES,
        grading=DEFAULT_SPECTRAL_GRADING,
    )


def _family_tables(spec: KernelSpec, points: np.ndarray):
    """u_m and v_m sampled at the given points, per order in S."""
    return [
        (g, eval_regular(m, points).value, eval_irregular(m, points).value)
        for m, g in spec.terms()
    ]


def _grid_tables(spec: KernelSpec, grids) -> list:
    """``_family_tables`` of each grid, from one call on all their nodes."""
    ends = np.cumsum([grid.size for grid in grids])[:-1]
    per_grid = [[] for _ in grids]
    for g, u, v in _family_tables(spec, np.concatenate([grid.nodes for grid in grids])):
        for tables, u_part, v_part in zip(per_grid, np.split(u, ends), np.split(v, ends)):
            tables.append((g, u_part, v_part))
    return per_grid


def _square_divisors(t: np.ndarray, *numerators) -> tuple[np.ndarray, np.ndarray]:
    """Per-node divisors (left, right) such that ``x / left * ... / right`` is x ... / t^2.

    Where t*t is a normal double and every numerator / (t*t) is finite, left
    is 1 and right is t*t, so the plain quotient keeps its bits.  Elsewhere
    both are t, dividing by t once on each side of the product, and t = 0
    maps to inf, since those nodes carry no weight.
    """
    with np.errstate(all="ignore"):  # quotients only tested; t*t is inf above ~1.3e154
        square = t * t
        plain = square >= np.finfo(float).tiny
        for numerator in numerators:
            plain &= np.isfinite(numerator / square)
    split = np.where(t > 0.0, t, np.inf)
    return np.where(plain, 1.0, split), np.where(plain, square, split)


def nystrom_matrix(spec: KernelSpec, grid: QuadratureGrid) -> NystromOperator:
    """Assemble the dense Nystrom matrix on the grid's nodes.

    Collocation points coincide with the quadrature nodes.  The degenerate
    form of the kernel keeps assembly at O(N) function evaluations plus
    O(N^2) arithmetic.
    """
    return _nystrom_assembly(grid, _family_tables(spec, grid.nodes))


def _nystrom_assembly(grid: QuadratureGrid, tables) -> NystromOperator:
    """The Nystrom matrix from the grid and its ``_family_tables`` at the nodes."""
    left, right = _square_divisors(grid.nodes, grid.weights)
    n = grid.size
    # rows are collocation s_i, columns integration t_j; nodes ascending, so
    # i >= j means t_j <= s_i and g = v(s_i) u(t_j).  The rest is the mirror
    # image, since u(s_i) v(t_j) is the same product as v(t_j) u(s_i).
    lower = np.zeros((n, n))
    for g, u, v in tables:
        term = np.multiply.outer(v, u)
        term *= g
        lower += term
    a_matrix = np.where(np.tri(n, dtype=bool), lower, lower.T)
    with np.errstate(all="ignore"):  # the finiteness check below reports it
        a_matrix /= -left  # the sign of A too: x / -1 is -x exactly
        a_matrix *= grid.weights / right
    if not np.all(np.isfinite(a_matrix)):
        raise ValueError("Nystrom matrix contains non-finite entries")
    return NystromOperator(grid=grid, matrix=a_matrix)


@lru_cache(maxsize=32)
def _legendre_cumulative(n: int) -> np.ndarray:
    """Q[i, j] = integral_{-1}^{x_i} l_j on the n-point Gauss rule x.

    l_j is the Lagrange polynomial of node j; its Legendre coefficients
    (2k + 1)/2 w_j P_k(x_j) follow from the rule's exactness to degree 2n - 1.
    """
    x, w = _gauss_rule(n)
    legendre = np.polynomial.legendre
    vander = legendre.legvander(x, n - 1)
    coefficients = ((np.arange(n) + 0.5)[:, None] * vander.T) * w[None, :]
    return legendre.legvander(x, n) @ legendre.legint(coefficients, lbnd=-1, axis=0)


def _cumulative_integration(grid: QuadratureGrid) -> np.ndarray:
    """L with sum_j L[i, j] f(t_j) ~ integral_0^{t_i} f, panel by panel.

    Earlier panels contribute their full Gauss weights, the node's own panel
    the integral of the polynomial interpolant up to t_i; L is exact for
    polynomials of degree below the nodes per panel on each panel.
    """
    panels = len(grid.panel_bounds) - 1
    nodes_per_panel, rest = divmod(grid.size, panels)
    if rest:
        raise ValueError("the grid must have the same number of nodes in every panel")
    panel = np.repeat(np.arange(panels), nodes_per_panel)
    matrix = np.where(panel[:, None] > panel[None, :], grid.weights[None, :], 0.0)
    in_panel = _legendre_cumulative(nodes_per_panel)
    for k, half in enumerate(0.5 * np.diff(grid.panel_bounds)):
        block = slice(k * nodes_per_panel, (k + 1) * nodes_per_panel)
        matrix[block, block] = half * in_panel
    return matrix


def kink_exact_matrix(spec: KernelSpec, grid: QuadratureGrid) -> NystromOperator:
    """Assemble the product-integration matrix of K on the grid's nodes.

    With L the cumulative integration matrix (integral_0^{t_i}) and
    U = W - L its complement (integral_{t_i}^r),

        A = -sum_m gamma_m [diag(v_m) L diag(u_m/t^2) + diag(u_m) U diag(v_m/t^2)],

    the discrete form of :func:`apply_operator`'s split at t = s.  The grid
    must have the same Gauss-Legendre rule on every panel, as
    :func:`build_grid` gives.  Where t*t is not a normal double, or u_m/t^2
    or v_m/t^2 overflows, a column divides by t once on each side of the
    product instead, so K forms down to the smallest radii.  Caveat: at
    high orders (S = {0, 4, 8}, T = {2, 6, 10}) D A D^-1 is far from
    symmetric (max |S - S^T| ~30 at 12 nodes a panel, ~5e3 at 16) and
    min |1 - lambda| moves with the nodes per panel.
    """
    lower = _cumulative_integration(grid)
    upper = grid.weights[None, :] - lower
    tables = _family_tables(spec, grid.nodes)
    left, right = _square_divisors(grid.nodes, *(f for _, u, v in tables for f in (u, v)))
    a_matrix = np.zeros_like(lower)
    with np.errstate(all="ignore"):  # the finiteness check below reports it
        for g, u, v in tables:
            a_matrix -= g * (
                v[:, None] / left * lower * (u / right)
                + u[:, None] / left * upper * (v / right)
            )
    if not np.all(np.isfinite(a_matrix)):
        raise ValueError("kink-exact matrix contains non-finite entries")
    return NystromOperator(grid=grid, matrix=a_matrix)


def _symmetric_form(op: NystromOperator):
    """S = D A D^-1 with D = sqrt(w)/t, and its symmetric part (S + S^T)/2."""
    scaling = op.grid.l2_scaling
    form = scaling[:, None] * op.matrix / scaling[None, :]
    return form, 0.5 * (form + form.T)


def _distances_from_one(symmetric: np.ndarray) -> np.ndarray:
    """|1 - lambda| of a symmetric matrix, ascending, from its eigenvalues alone."""
    return np.sort(np.abs(1.0 - np.linalg.eigvalsh(symmetric)))


def certificate_sigma(op: NystromOperator) -> float:
    """min |1 - lambda| over the eigenvalues of D A D^-1, from eigenvalues alone.

    The same value, bit for bit, as ``self_adjoint_certificate(op).sigma_min``,
    without the eigenvectors or the asymmetry.
    """
    return float(_distances_from_one(_symmetric_form(op)[1])[0])


def self_adjoint_certificate(op: NystromOperator) -> SelfAdjointCertificate:
    """|1 - lambda| for the eigenvalues of D A D^-1, and the null vector.

    K is self-adjoint on L^2((0, r], t^-2 dt), so S = D A D^-1 with
    D = sqrt(w)/t is symmetric up to discretization and rounding.
    ``sigma_min`` and ``next_sigma`` come from the eigenvalues of its
    symmetric part alone (``np.linalg.eigvalsh``, as in
    :func:`certificate_sigma`); one ``np.linalg.eigh`` gives the null
    vector, the eigenvector of its own eigenvalue nearest 1.  A near-zero
    ``sigma_min`` certifies a nontrivial discrete solution of h = K h.
    """
    form, symmetric = _symmetric_form(op)
    asymmetry = float(np.max(np.abs(form - form.T)))
    distance = _distances_from_one(symmetric)
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    nearest = np.argmin(np.abs(1.0 - eigenvalues))
    return SelfAdjointCertificate(
        sigma_min=float(distance[0]),
        next_sigma=float(distance[1]),
        asymmetry=asymmetry,
        null_vector=eigenvectors[:, nearest].copy(),
        operator=op,
    )


def min_singular_value(op: NystromOperator) -> float:
    """Smallest singular value of I - A, from a values-only SVD.

    A near-zero value certifies a nontrivial discrete solution of h = K h.
    """
    singular_values = np.linalg.svd(np.eye(op.grid.size) - op.matrix, compute_uv=False)
    return float(singular_values[-1])


def dump_matrix(op: NystromOperator, path) -> None:
    """Write the dense matrix A as CSV (debugging aid; one row per line)."""
    lines = [
        ",".join(fmt_float(entry) for entry in row) for row in op.matrix
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _panel_sums(order: int, h, lo, hi, is_left, counts) -> list:
    """Per panel count in ``counts``, each row's Gauss sum of f_m h / t^2.

    A row integrates over [lo, hi]; f_m is u_m on ``is_left`` rows, whose
    panels are graded toward the origin (exponent 2), and v_m on the others,
    whose panels are uniform.  h and each Riccati family are called once on
    the nodes of every count, and each sum is the dot product of one count's
    weights and integrand.
    """
    levels = []
    for count in counts:
        ticks = np.arange(count + 1) / count
        frac = np.where(is_left[:, None], ticks**2.0, ticks)
        with np.errstate(over="ignore"):  # lo + (hi - lo) may round past the largest double
            bounds = lo[:, None] + (hi - lo)[:, None] * frac
        levels.append(_panel_nodes(np.where(np.isinf(bounds), hi[:, None], bounds), _QUAD_NODES))
    nodes = np.concatenate([level_nodes.ravel() for level_nodes, _ in levels])
    on_left = np.concatenate([
        np.repeat(is_left, level_nodes.shape[1]) for level_nodes, _ in levels
    ])
    h_values = np.broadcast_to(h(nodes), nodes.shape)
    family = np.empty_like(nodes)
    if on_left.any():
        family[on_left] = eval_regular(order, nodes[on_left]).value
    if not on_left.all():
        family[~on_left] = eval_irregular(order, nodes[~on_left]).value
    ends = np.cumsum([level_nodes.size for level_nodes, _ in levels])[:-1]
    with np.errstate(all="ignore"):  # a non-finite row never freezes
        left, right = _square_divisors(nodes, family * h_values)
        integrand = family / left * h_values / right
        return [
            np.array([np.dot(wr, fr) for wr, fr in zip(weights, block.reshape(weights.shape))])
            for (_, weights), block in zip(levels, np.split(integrand, ends))
        ]


def _kink_split_integrals(order: int, h, s: np.ndarray, r: float, tol: float):
    """I_m^< and I_m^> of :func:`apply_operator` at every point of ``s``.

    One row per side of each point: [0, s] graded toward the origin
    (exponent 2), [s, r] uniform.  All rows start at 2 panels and double
    together, up to ``2**_MAX_DOUBLINGS``; a row is frozen once two
    consecutive values differ by at most ``tol``, so it ends with exactly
    the panels it would get on its own.  No row can stop at 2 panels, so the
    first pass evaluates 2 and 4 panels together, and each later pass one
    level.  A pass's rows are evaluated in chunks of at most ``_CHUNK_NODES``
    nodes over all its levels (at least one row each), which bounds the
    memory a call holds however many of its points fail to converge.
    """
    n = len(s)
    lo = np.concatenate([np.zeros(n), s])
    hi = np.concatenate([s, np.full(n, r)])
    is_left = np.arange(2 * n) < n
    values = np.zeros(2 * n)
    previous = np.full(2 * n, np.nan)
    active = lo < hi  # the right side of s = r is empty
    levels = [2 << k for k in range(_MAX_DOUBLINGS)]
    passes = [levels[:2]] + [[count] for count in levels[2:]] if levels else []
    for counts in passes:
        pass_rows = np.flatnonzero(active)
        if pass_rows.size == 0:
            break
        chunk_rows = max(1, _CHUNK_NODES // (sum(counts) * _QUAD_NODES))
        for start in range(0, pass_rows.size, chunk_rows):
            rows = pass_rows[start:start + chunk_rows]
            for level in _panel_sums(order, h, lo[rows], hi[rows], is_left[rows], counts):
                with np.errstate(invalid="ignore"):  # inf - inf is NaN, never <= tol
                    settled = np.abs(level - previous[rows]) <= tol
                active[rows[settled]] = False
                values[rows] = previous[rows] = level
    if active.any():
        row = np.flatnonzero(active)[0]
        raise ConvergenceError(
            f"integral on [{lo[row]:g}, {hi[row]:g}] did not stabilize to {tol:.1e} "
            f"within {2**_MAX_DOUBLINGS} panels"
        )
    return values[:n], values[n:]


def apply_operator(
    spec: KernelSpec,
    r,
    h: Callable[[np.ndarray], np.ndarray | float],
    s,
    tol: float = DEFAULT_QUAD_TOL,
) -> float | np.ndarray:
    """Apply the integral operator to a function h at the point(s) s.

    Uses the separable kernel split at t = s, so both sub-integrals are
    smooth:

        (K h)(s) = - sum_m gamma_m [ v_m(s) I_m^<(s) + u_m(s) I_m^>(s) ],
        I_m^< = integral_0^s u_m(t) h(t) t^-2 dt,
        I_m^> = integral_s^r v_m(t) h(t) t^-2 dt.

    h must vanish at the origin at least linearly so that h(t) t^-2 stays
    integrable.  It is called with a 1-D array of quadrature nodes and must
    return an array of their length or a scalar (broadcast to every node);
    each pass calls it on the nodes of every point that has not yet
    converged, once per chunk of at most 2**16 nodes (one side of a point
    may exceed that alone).  The first pass covers 2 and 4 panels, so a
    scalar h gives both levels the same value; each later pass covers one
    level.  ``s`` is a float, giving a float, or a 1-D array, giving an
    array; every point gets the same value it gets on its own.
    Each sub-integral doubles its count of 16-node Gauss-Legendre panels
    until consecutive values differ by at most ``tol`` (absolute); with
    ``tol = 0`` that means until they agree bit for bit.

    Raises
    ------
    ValueError
        If r is not positive and finite, ``tol`` is negative or NaN, or a
        point lies outside (0, r].
    ConvergenceError
        If doubling exhausts its budget before reaching ``tol``.
    """
    terms = spec.terms()
    r = check_radius(r)
    tol = float(tol)
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    points = np.asarray(s, dtype=float)
    if points.ndim > 1:
        raise ValueError("evaluation points must be a float or a 1-D array")
    inside = (points > 0.0) & (points <= r)
    if not inside.all():
        raise ValueError(
            f"evaluation point must lie in (0, r], got {float(points[~inside][0])!r}"
        )

    flat = np.atleast_1d(points)
    total = np.zeros(flat.size)
    for m, g in terms:
        left, right = _kink_split_integrals(m, h, flat, r, tol)
        total += g * (
            eval_irregular(m, flat).value * left + eval_regular(m, flat).value * right
        )
    return float(-total[0]) if points.ndim == 0 else -total


def radius_range(r_min, r_max, steps: int) -> np.ndarray:
    """``steps`` evenly spaced radii from r_min to r_max, each end checked as a radius."""
    r_min, r_max = check_radius(r_min), check_radius(r_max)
    if not r_min < r_max:
        raise ValueError(f"need r-min < r-max, got {r_min!r}, {r_max!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    return np.linspace(r_min, r_max, steps)


def sweep(
    spec: KernelSpec,
    r_min,
    r_max,
    steps: int,
    panels_count: int = 8,
    nodes_per_panel: int = 12,
    grading: float = 2.0,
    refine: bool = False,
) -> ScanReport:
    """Tabulate sigma_min(I - A) over a range of radii.

    With ``refine=True`` every radius is redone at doubled panel count and
    the absolute change is recorded in the ``refinement_delta`` column
    (otherwise the column is empty).  A range :func:`radius_range` rejects,
    non-integer orders in S and a grid that cannot be built raise ValueError
    before any point is computed; numeric failures at a point are recorded
    in ``report.failures`` instead of aborting the sweep.

    The radii go in chunks of at most ``_CHUNK_NODES`` grid nodes (at least
    one radius each), and the family tables of a chunk's grids come from
    one Riccati call per order and family on all their nodes, which gives
    each node the bits of a call on its own grid.  A chunk whose tables
    raise a numeric error is redone one radius at a time, so every failing
    radius records the message it gets alone.
    """
    radii = radius_range(r_min, r_max, steps).tolist()
    spec.terms()  # non-integer orders fail here, not at every point
    panel_counts = (panels_count, 2 * panels_count) if refine else (panels_count,)
    radius_nodes = sum(panel_counts) * nodes_per_panel
    chunk_radii = max(1, _CHUNK_NODES // max(radius_nodes, 1))
    rows = []
    failures = []
    for start in range(0, steps, chunk_radii):
        chunk = radii[start:start + chunk_radii]
        grids = [
            build_grid(r, count, nodes_per_panel, grading=grading)
            for r in chunk for count in panel_counts
        ]
        try:
            tables = _grid_tables(spec, grids)
        except NUMERIC_ERRORS:  # each radius redoes its own, for its own message
            tables = [None] * len(grids)
        for i, r in enumerate(chunk):
            own = slice(i * len(panel_counts), (i + 1) * len(panel_counts))
            try:
                sigmas = []
                for grid, grid_tables in zip(grids[own], tables[own]):
                    if grid_tables is None:
                        grid_tables = _family_tables(spec, grid.nodes)
                    op = _nystrom_assembly(grid, grid_tables)
                    sigmas.append(min_singular_value(op))
                delta = abs(sigmas[1] - sigmas[0]) if refine else None
                rows.append((r, sigmas[0], delta))
            except NUMERIC_ERRORS as exc:  # per-point failures must not kill the scan
                failures.append((r, str(exc)))
    return ScanReport(
        columns=("r", "sigma_min", "refinement_delta"),
        rows=rows,
        failures=failures,
    )
