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

Both matrices of K act on values at the grid nodes and are one class,
``SeparableNystromOperator``, held by gamma and the family tables, one
|S| x 2 x N array of u_m and v_m at the nodes.  K is self-adjoint on
L^2((0, r], t^-2 dt), and D = sqrt(w)/t maps node values to vectors normed
in it, so min |1 - lambda| over the eigenvalues of the symmetric form of
S = D A D^-1 measures, on a grid-independent scale, how close h = K h is
to a nontrivial solution.
With the generators P = -gamma a v and Q = a u (a column per order,
a = sqrt(w)/t), S[i, j] = (P Q^T)[i, j] below the diagonal wherever row and
column lie in different panels.  A itself is never formed and t is never
squared, so both matrices form down to radii whose first nodes are
subnormal; only ``apply_operator`` divides by t^2 (``_over_square``).

``nystrom_matrix`` collocates, ``A[i, j] = -g(s_i, t_j) w_j / t_j**2`` on
one shared grid: S is the lower triangle of P Q^T everywhere, exactly
symmetric (``asymmetry`` 0).  It cannot split at the kink per row, so its
accuracy is limited by the panel resolution (observed O(N^-2) in the total
node count).

``kink_exact_matrix`` discretizes ``apply_operator``'s split: (K h)(s_i)
combines two cumulative integrals ending exactly at s_i, each taken by
panel-wise Legendre product integration (Greengard, SIAM J. Numer. Anal.
28, 1991; Atkinson, The Numerical Solution of Integral Equations of the
Second Kind, 1997, ch. 4), so the kink costs nothing.  Earlier panels enter
at their full Gauss weights, so S differs from the Nystrom product only on
the diagonal panel blocks, where it is ``rule * P Q^T + (1 - rule) * Q P^T``
with rule[i, j] = integral_{-1}^{x_i} l_j / w_j, one n x n matrix for every
panel and radius.  Those blocks are symmetrized; ``asymmetry`` says by how
much they were not symmetric.

``min_singular_value`` takes min |1 - lambda| from ``np.linalg.eigvalsh``
(values only, lower triangle): the smallest singular value of I - S, i.e.
of I - A in K's own norm.  ``self_adjoint_certificate`` takes the same
value, bit for bit, and the next one, from the same ``eigvalsh``.

``sweep`` uses ``min_singular_value`` on the Nystrom operator, taking the
Riccati tables of a chunk of radii from one call per order and family on
all their grids' nodes and solving each grid's form on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernel import KernelSpec
from .report import ScanReport, csv_text
from .riccati import (_TINY, _irregular_values, _regular_values, check_radius, eval_irregular,
                      eval_regular)

__all__ = [
    "ConvergenceError",
    "NUMERIC_ERRORS",
    "QuadratureGrid",
    "SeparableNystromOperator",
    "SelfAdjointCertificate",
    "build_grid",
    "spectral_grid",
    "nystrom_matrix",
    "kink_exact_matrix",
    "apply_operator",
    "min_singular_value",
    "self_adjoint_certificate",
    "dump_matrix",
    "sweep",
]

# Absolute tolerance target per sub-integral in apply_operator.
DEFAULT_QUAD_TOL = 1e-10

_MAX_DOUBLINGS = 14

# Most nodes held at once by apply_operator's quadrature and by sweep's
# family tables: a quadrature pass takes its rows in chunks of at most this
# many nodes over all the pass's levels (one row may exceed it), and sweep
# takes its radii in chunks of at most this many grid nodes (one radius may
# exceed it), so a call that fails to converge, or a long sweep, stays
# bounded in memory.
_CHUNK_NODES = 2**16

# Gauss-Legendre nodes per panel of the apply_operator quadrature.
_QUAD_NODES = 16


class ConvergenceError(RuntimeError):
    """Raised when panel doubling fails to reach the requested tolerance."""


# The numeric failures a point of a sweep, or a CLI command, may end in;
# anything else (a TypeError, say) is a programming error and propagates.
NUMERIC_ERRORS = (ValueError, ArithmeticError, ConvergenceError)


def _outcome(compute: Callable[[], object]):
    """``compute()``, or the :data:`NUMERIC_ERRORS` exception it raised."""
    try:
        return compute()
    except NUMERIC_ERRORS as exc:
        return exc


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
class SeparableNystromOperator:
    """A matrix A of K on the grid's nodes, held by gamma and its family tables.

    ``gamma`` holds the |S| coefficients gamma_m, and ``tables`` is one
    |S| x 2 x N array, ``tables[:, 0]`` u_m and ``tables[:, 1]`` v_m at the
    nodes, a row per order in S: the shape the product reads.  Since
    g(s, t) = sum_m gamma_m u_m(min) v_m(max), they fix A, which is read
    only through :meth:`own_norm_form`.  ``panel_rule`` is None for
    :func:`nystrom_matrix`, or the n x n rule every panel of
    :func:`kink_exact_matrix` shares.  The form is built in one pass, which
    also measures how far its diagonal panel blocks were from symmetric;
    :func:`self_adjoint_certificate` reports that as its ``asymmetry``.
    A grid whose tables are finite forms even where -gamma a v alone would
    overflow (see :meth:`_generators`).
    """

    grid: QuadratureGrid
    gamma: np.ndarray
    tables: np.ndarray
    panel_rule: np.ndarray | None = None

    def _generators(self) -> tuple[np.ndarray, np.ndarray]:
        """P = -gamma a v (N x |S|) and Q^T = (a u)^T (|S| x N), a = sqrt(w)/t,
        each order's column of P divided and row of Q^T multiplied by one power of two.

        The power balances the exponents of max |v_m| and max |u_m|, so P stays
        finite where -gamma a v alone would overflow.  Scaling by a power of two
        commutes with rounding: wherever no entry, scaled or not, is subnormal
        or overflows, every entry of P Q^T keeps the bits of the unscaled product.
        """
        scaling = self.grid.l2_scaling
        exponent = np.frexp(np.max(np.abs(self.tables), axis=2))[1]
        shift = ((exponent[:, 1] - exponent[:, 0]) // 2)[:, None]
        rows = -self.gamma * scaling[:, None] * np.ldexp(self.tables[:, 1], -shift).T
        columns = scaling * np.ldexp(self.tables[:, 0], shift)
        return rows, columns

    def _form(self) -> tuple[np.ndarray, float]:
        """:meth:`own_norm_form`, and max |B - B^T| over its diagonal panel blocks B
        before they were symmetrized (0.0 without a panel rule)."""
        asymmetry = 0.0
        with np.errstate(all="ignore"):  # the finiteness check below reports it
            rows, columns = self._generators()
            form = rows @ columns
            rule = self.panel_rule
            if rule is not None:
                # B = rule * M + (1 - rule) * M^T on each diagonal block M of P Q^T,
                # read and written through form's (panel, row, panel, column) view
                panels = np.arange(len(form) // len(rule))
                view = form.reshape(len(panels), len(rule), len(panels), len(rule))
                index = panels, slice(None), panels
                products = view[index]
                blocks = rule * products + (1.0 - rule) * products.transpose(0, 2, 1)
                transposed = blocks.transpose(0, 2, 1)
                asymmetry = float(np.max(np.abs(blocks - transposed)))
                view[index] = 0.5 * (blocks + transposed)
        # the upper triangle may overflow where S does not; only S is checked
        if not np.all(np.isfinite(form)) and not np.all(np.isfinite(np.tril(form))):
            kind = "Nystrom" if self.panel_rule is None else "kink-exact"
            raise ValueError(f"{kind} matrix contains non-finite entries at r = {self.grid.r!r}")
        return form, asymmetry

    def own_norm_form(self) -> np.ndarray:
        """A matrix whose lower triangle, diagonal included, is S = D A D^-1.

        It is the product P Q^T of the scaled tables, with a panel rule's
        diagonal panel blocks replaced by S there, symmetrized.  Above the
        diagonal it is not S; ``eigvalsh`` reads the lower triangle only.
        """
        return self._form()[0]


@dataclass(frozen=True, eq=False)
class SelfAdjointCertificate:
    """Eigenvalues lambda of the symmetric form of D A D^-1, measured from 1.

    ``sigma_min`` and ``next_sigma`` are the smallest and second-smallest
    |1 - lambda|; ``asymmetry`` is max |S - S^T| over the diagonal panel
    blocks of S = D A D^-1 before they were symmetrized, the only entries
    not symmetric by construction (0 for the Nystrom matrix).
    """

    sigma_min: float
    next_sigma: float
    asymmetry: float
    operator: SeparableNystromOperator = field(repr=False)


@lru_cache(maxsize=32)
def _gauss_rule(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(lower: np.ndarray, upper: np.ndarray, nodes_per_panel: int):
    """Gauss nodes and weights of the panels [lower, upper], along the last axis."""
    x, w = _gauss_rule(nodes_per_panel)
    # halved before adding: b + a overflows near the largest double
    mid = 0.5 * upper + 0.5 * lower
    half = 0.5 * (upper - lower)
    shape = lower.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    weights = (half[..., None] * w).reshape(shape)
    return nodes, weights


def _check_grid_shape(panels_count: int, nodes_per_panel: int, grading: float) -> np.ndarray:
    """:func:`build_grid`'s r-free checks, made once by a sweep; returns bounds (i / n)**grading."""
    if panels_count < 1:
        raise ValueError("panels_count must be >= 1")
    if nodes_per_panel < 2:
        raise ValueError("nodes_per_panel must be >= 2")
    if not grading >= 1.0:  # NaN too
        raise ValueError("grading exponent must be >= 1")
    bounds = (np.arange(panels_count + 1) / panels_count) ** grading
    if np.any(np.diff(bounds) <= 0.0):  # a large grading underflows the first bounds to 0
        raise ValueError(f"grading exponent {grading!r} collapses {panels_count} panels")
    return bounds


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
    bounds = r * _check_grid_shape(panels_count, nodes_per_panel, grading)
    nodes, weights = _panel_nodes(bounds[:-1], bounds[1:], nodes_per_panel)
    return QuadratureGrid(
        r=r, panel_bounds=tuple(float(b) for b in bounds), nodes=nodes, weights=weights
    )


def spectral_grid(r) -> QuadratureGrid:
    """The README quickstart's Nystrom grid on (0, r]: 128 uniform panels x 12 nodes.

    sigma at R reads ~6e-7 on it, a kink-limited error in mid-interval panels
    (graded ones do worse).
    """
    return build_grid(r, 128, 12, grading=1.0)


def _family_tables(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """u_m ([:, 0]) and v_m ([:, 1]) at the points, |S| x 2 x len(points) (values only)."""
    return np.array([(_regular_values(m, points), _irregular_values(m, points))
                     for m, _ in spec.terms])


def _over_square(t: np.ndarray, family: np.ndarray, h_values: np.ndarray) -> np.ndarray:
    """family * h / t^2 at the nodes t, by the package's one rule for dividing by t^2.

    Where t*t is a normal double and the quotient is finite, it is the plain
    quotient (family * h) / (t*t).  Elsewhere it is family / t * h / t, and
    t = 0 maps to inf, since those nodes carry no weight.  Only
    ``apply_operator`` divides by t^2; both matrices use a = sqrt(w)/t.  The
    caller ignores floating-point errors: the quotient is only tested, and
    t*t is inf above ~1.3e154.
    """
    square = t * t
    integrand = family * h_values / square
    plain = (square >= _TINY) & np.isfinite(integrand)
    if np.count_nonzero(plain) == plain.size:
        return integrand
    split = np.where(t > 0.0, t, np.inf)
    return np.where(plain, integrand, family / split * h_values / split)


def nystrom_matrix(spec: KernelSpec, grid: QuadratureGrid) -> SeparableNystromOperator:
    """The Nystrom operator on the grid's nodes, held by gamma and its |S| x 2 x N tables.

    Collocation points coincide with the quadrature nodes.  The degenerate
    form of the kernel keeps it at O(N) function evaluations; its D-scaled
    form costs O(N^2) arithmetic more, each time it is formed.
    """
    return SeparableNystromOperator(grid, np.array(spec.gamma), _family_tables(spec, grid.nodes))


@lru_cache(maxsize=32)
def _legendre_cumulative(n: int) -> np.ndarray:
    """rule[i, j] = integral_{-1}^{x_i} l_j / w_j on the n-point Gauss rule (x, w).

    l_j is the Lagrange polynomial of node j, with Legendre coefficients
    (2k + 1)/2 w_j P_k(x_j) by the rule's exactness to degree 2n - 1.
    Dividing the integrals by w_j last rounds as a dense L = c w_j rule on
    panels of half-width c does (forming l_j / w_j first moves the form of
    S = {0, 4, 8} by 3e-13 of its largest entry).  Read-only: it is cached.
    """
    x, w = _gauss_rule(n)
    legendre = np.polynomial.legendre
    coefficients = (np.arange(n) + 0.5)[:, None] * legendre.legvander(x, n - 1).T * w
    rule = legendre.legvander(x, n) @ legendre.legint(coefficients, lbnd=-1, axis=0) / w
    rule.flags.writeable = False
    return rule


def kink_exact_matrix(spec: KernelSpec, grid: QuadratureGrid) -> SeparableNystromOperator:
    """The product-integration matrix of K on the grid's nodes, held by gamma and its tables.

    With L the cumulative integration matrix (integral_0^{t_i}) and
    U = W - L its complement,
    A = -sum_m gamma_m [diag(v_m) L diag(u_m/t^2) + diag(u_m) U diag(v_m/t^2)]
    is the discrete form of :func:`apply_operator`'s split at t = s; it is
    held as the Nystrom tables plus the panel rule (see the module
    docstring).  The grid must have the same Gauss-Legendre rule on every
    panel, as :func:`build_grid` gives.  Caveat: at high orders
    (S = {0, 4, 8}, T = {2, 6, 10}) the diagonal blocks are far from
    symmetric (max |S - S^T| ~30 at 12 nodes a panel, ~5e3 at 16) and
    min |1 - lambda| moves with the nodes per panel.
    """
    nodes_per_panel, rest = divmod(grid.size, len(grid.panel_bounds) - 1)
    if rest:
        raise ValueError("the grid must have the same number of nodes in every panel")
    return SeparableNystromOperator(grid, np.array(spec.gamma), _family_tables(spec, grid.nodes),
                                    _legendre_cumulative(nodes_per_panel))


def _mirrored(form: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower triangle, diagonal included, is that of ``form``."""
    return np.where(np.tri(len(form), dtype=bool), form, form.T)


def _distances_from_one(symmetric: np.ndarray) -> np.ndarray:
    """|1 - lambda|, ascending, of the symmetric matrix whose lower triangle is given."""
    return np.sort(np.abs(1.0 - np.linalg.eigvalsh(symmetric, UPLO="L")))


def self_adjoint_certificate(op: SeparableNystromOperator) -> SelfAdjointCertificate:
    """The two smallest |1 - lambda| for the eigenvalues of D A D^-1.

    K is self-adjoint on L^2((0, r], t^-2 dt), so S = D A D^-1 with
    D = sqrt(w)/t is symmetric up to discretization and rounding.  Both
    values come from one ``np.linalg.eigvalsh`` of its symmetric form
    (:meth:`SeparableNystromOperator.own_norm_form`), as in
    :func:`min_singular_value`.  A near-zero ``sigma_min`` certifies a
    nontrivial discrete solution of h = K h.
    """
    symmetric, asymmetry = op._form()
    distance = _distances_from_one(symmetric)
    return SelfAdjointCertificate(
        sigma_min=float(distance[0]),
        next_sigma=float(distance[1]),
        asymmetry=asymmetry,
        operator=op,
    )


def min_singular_value(op: SeparableNystromOperator) -> float:
    """min |1 - lambda| over the eigenvalues of D A D^-1, from eigenvalues alone.

    The eigenvalues are those of the symmetric form of S = D A D^-1
    (``np.linalg.eigvalsh``), so the value is the smallest singular value of
    I minus that form, and the same value, bit for bit, as
    ``self_adjoint_certificate(op).sigma_min``.
    A near-zero value certifies a nontrivial discrete solution of h = K h.
    """
    return float(_distances_from_one(op.own_norm_form())[0])


def dump_matrix(op: SeparableNystromOperator, path) -> None:
    """Write S = D A D^-1 as the eigensolvers read it, the lower triangle mirrored, as CSV.

    A debugging aid; one row per line.
    """
    with open(path, "w") as handle:
        handle.write(csv_text(_mirrored(op.own_norm_form()).tolist()))


@lru_cache(maxsize=4)
def _level_pattern(counts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of the panels of every level in ``counts`` on [0, 1].

    Row 0 has uniform panels, with edges j/c on every level c, and row 1
    graded ones, their squares (exponent 2); the levels' panels follow one
    another along a row.  A row [lo, hi] takes the nodes lo + (hi - lo) F
    and the weights (hi - lo) W of its row.  Every node fraction is below
    1, so no node passes hi, not even at the largest double.  Read-only:
    it is cached for four passes' counts, so a call that doubles to 16384
    panels keeps only its last four passes' patterns.
    """
    ticks = [np.arange(count + 1) / count for count in counts]
    lower = np.concatenate([t[:-1] for t in ticks])
    upper = np.concatenate([t[1:] for t in ticks])
    pattern = _panel_nodes(np.stack([lower, lower**2.0]), np.stack([upper, upper**2.0]),
                           _QUAD_NODES)
    for table in pattern:
        table.flags.writeable = False
    return pattern


def _level_nodes(lo, hi, is_left, counts) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of every level in ``counts``, one row per row [lo, hi].

    A row takes lo + (hi - lo) F and (hi - lo) W from :func:`_level_pattern`'s
    graded row if it ``is_left``, its uniform row if not.  Nodes lie in
    [lo, hi], and nothing overflows.
    """
    fractions, unit_weights = _level_pattern(counts)
    pattern = is_left.astype(np.intp)
    width = (hi - lo)[:, None]
    return lo[:, None] + width * fractions[pattern], width * unit_weights[pattern]


def _unconverged(lo: float, hi: float, tol: float, panels: int) -> ConvergenceError:
    return ConvergenceError(
        f"integral on [{lo:g}, {hi:g}] did not stabilize to {tol:.1e} within {panels} panels"
    )


def _panel_sums(order: int, h, lo, hi, is_left, counts, points):
    """Each row's Gauss sum of f_m h / t^2 per panel count, and u_m, v_m at ``points``.

    A row integrates over [lo, hi]; f_m is u_m on ``is_left`` rows, whose
    panels are graded toward the origin (exponent 2), and v_m on the others,
    whose panels are uniform; the ``is_left`` rows come first.  The nodes of
    every count are built at once, one row of all its levels' panels per row,
    by :func:`_level_nodes` from the cached unit pattern of the pass's counts
    (one multiply and add per node, one multiply per weight); h is called
    once on them and must give one value per node, or a scalar,
    which reaches every node by numpy's broadcasting (any other shape is a
    ValueError naming the two counts), and each Riccati family once on its
    rows' nodes joined with the 1-D ``points`` (either may be empty, even
    both), so the values at the points come from the same calls.  Each sum
    is the dot product of one row's weights and integrand over one level's
    slice of that row, all the rows' of a level from one stacked
    (1 x k) @ (k x 1) ``matmul``, which takes each row's product by the
    routine ``np.dot`` uses for two vectors.  Returns the list of sums, u_m
    at the points and v_m at the points.
    """
    nodes, weights = _level_nodes(lo, hi, is_left, counts)
    flat = nodes.ravel()
    h_values = np.asarray(h(flat))
    if h_values.ndim and h_values.shape != flat.shape:
        raise ValueError(f"h returned {h_values.size} values for {flat.size} quadrature nodes")
    split = np.count_nonzero(is_left) * nodes.shape[1]
    right = flat.size - split
    regular = eval_regular(order, np.concatenate([flat[:split], points])).value
    irregular = eval_irregular(order, np.concatenate([flat[split:], points])).value
    family = np.concatenate([regular[:split], irregular[:right]])
    sums = []
    with np.errstate(all="ignore"):  # a non-finite row never freezes
        integrand = _over_square(flat, family, h_values).reshape(nodes.shape)
        start = 0
        for count in counts:
            level = slice(start, start + count * _QUAD_NODES)
            sums.append(np.matmul(weights[:, None, level], integrand[:, level, None])[:, 0, 0])
            start = level.stop
    return sums, regular[split:], irregular[right:]


def _kink_split_integrals(order: int, h, s: np.ndarray, r: float, tol: float):
    """I_m^< and I_m^> of :func:`apply_operator` at the points ``s``, and u_m, v_m there.

    Row i < n is [0, s_i], graded toward the origin (exponent 2), and row
    n + i is [s_i, r], uniform.  All rows start at 2 panels and double
    together: the first pass takes 2 and 4 panels, each later pass the
    ``following`` count, twice the last, up to ``2**_MAX_DOUBLINGS``.  A row
    is frozen once two consecutive values differ by at most ``tol``, so it
    ends with exactly the panels it would get on its own.  A pass's rows are
    gathered in chunks of at most ``_CHUNK_NODES`` nodes over all its levels
    (at least one row each), which bounds the memory a call holds however
    many of its points fail to converge; each chunk's Riccati calls also
    take u_m and v_m at the points, with the same bits.  A row that has not
    settled and is not finite fails at once if its smallest weight on the
    following level is subnormal: it cannot settle there, and below the
    smallest normal double further doublings only lose precision.
    """
    n = len(s)
    lo, hi = np.zeros(2 * n), np.empty(2 * n)
    lo[n:] = hi[:n] = s
    hi[n:] = r
    active = lo < hi  # the right side of s = r is empty
    values = np.where(active, np.nan, 0.0)  # each row's last sum
    regular_s = irregular_s = s  # what an empty s returns
    counts = (2, 4)[:_MAX_DOUBLINGS]
    while counts and np.count_nonzero(active):
        following = (2 * counts[-1],) if counts[-1] < 2**_MAX_DOUBLINGS else ()
        pass_rows = active.nonzero()[0]
        chunk_rows = max(1, _CHUNK_NODES // (sum(counts) * _QUAD_NODES))
        for start in range(0, pass_rows.size, chunk_rows):
            rows = pass_rows[start:start + chunk_rows]
            sums, regular_s, irregular_s = _panel_sums(
                order, h, lo[rows], hi[rows], rows < n, counts, s)
            # only a pass's last level can settle: the first pass's first
            # level has no value before it
            last = sums[-1]
            before = sums[-2] if len(sums) > 1 else values[rows]
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, never <= tol
                settled = np.abs(last - before) <= tol
            active[rows] = ~settled
            values[rows] = last
            if not following or np.count_nonzero(settled) == settled.size:
                continue
            # a non-finite value cannot settle at the next level, and where
            # that level's weights underflow, deeper ones cannot mend it
            stuck = rows[~settled & ~np.isfinite(last)]
            if stuck.size:
                weights = _level_nodes(lo[stuck], hi[stuck], stuck < n, following)[1]
                underflow = weights.min(axis=1) < _TINY
                if underflow.any():
                    row = stuck[np.argmax(underflow)]
                    raise _unconverged(lo[row], hi[row], tol, counts[-1])
        counts = following
    if np.count_nonzero(active):
        row = active.nonzero()[0][0]
        raise _unconverged(lo[row], hi[row], tol, 2**_MAX_DOUBLINGS)
    return values[:n], values[n:], regular_s, irregular_s


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
    ``tol = 0`` that means until they agree bit for bit.  A side [lo, hi]
    takes the nodes lo + (hi - lo) F and the weights (hi - lo) W of the
    Gauss rule's panels on [0, 1], cached per pass, so no node passes hi.

    Raises
    ------
    ValueError
        If r is not positive and finite, ``tol`` is negative or NaN, or a
        point lies outside (0, r].
    ConvergenceError
        If doubling exhausts its budget before reaching ``tol``, or at once
        when a sum that has not settled is not finite and the next level's
        weights would underflow; the message names the panels reached.
    """
    terms = spec.terms
    r = check_radius(r)
    tol = float(tol)
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    points = np.asarray(s, dtype=float)
    if points.ndim > 1:
        raise ValueError("evaluation points must be a float or a 1-D array")
    flat = np.atleast_1d(points)
    inside = (flat > 0.0) & (flat <= r)
    if np.count_nonzero(inside) < flat.size:
        raise ValueError(
            f"evaluation point must lie in (0, r], got {float(flat[~inside][0])!r}"
        )

    total = np.zeros(flat.size)
    for m, g in terms:
        left, right, u_s, v_s = _kink_split_integrals(m, h, flat, r, tol)
        total += g * (v_s * left + u_s * right)
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
    """Tabulate the Nystrom operator's :func:`min_singular_value` over a range of radii.

    With ``refine=True`` every radius is redone at doubled panel count and
    the absolute change is recorded in the ``refinement_delta`` column
    (otherwise the column is empty).  A range :func:`radius_range` rejects,
    non-integer orders in S and grid parameters :func:`build_grid` rejects
    at every radius raise ValueError before any point is computed; numeric
    failures at a point, its grid's included, are recorded in
    ``report.failures`` instead of aborting the sweep.

    The radii go in chunks of at most ``_CHUNK_NODES`` grid nodes (at least
    one radius each).  One ``_outcome`` builds a chunk's grids, their family
    tables from one Riccati call per order and family on all their nodes
    (which gives each node the bits of a call on its own grid) and their
    operators.  If any of that raises a numeric error, a grid that cannot be
    built or tables that overflow, each radius builds its own operators
    through :func:`nystrom_matrix`, so it records the message it gets alone.
    A radius's solves go through one ``_outcome``: its row, or its one failure.
    """
    radii = radius_range(r_min, r_max, steps).tolist()
    spec.terms  # non-integer orders fail here, not at every point
    gamma = np.array(spec.gamma)
    panel_counts = (panels_count, 2 * panels_count) if refine else (panels_count,)
    for count in panel_counts:
        _check_grid_shape(count, nodes_per_panel, grading)
    chunk_radii = max(1, _CHUNK_NODES // (sum(panel_counts) * nodes_per_panel))

    def own_grids(r):
        return [build_grid(r, count, nodes_per_panel, grading=grading) for count in panel_counts]

    def shared_operators(chunk):  # each grid's tables are a view of one |S| x 2 x N array
        grids = [grid for r in chunk for grid in own_grids(r)]
        ends = np.cumsum([grid.size for grid in grids])[:-1]
        tables = np.split(_family_tables(spec, np.concatenate([grid.nodes for grid in grids])),
                          ends, axis=2)
        return [SeparableNystromOperator(grid, gamma, own) for grid, own in zip(grids, tables)]

    rows, failures = [], []
    for start in range(0, steps, chunk_radii):
        chunk = radii[start:start + chunk_radii]
        shared = _outcome(lambda: shared_operators(chunk))
        for i, r in enumerate(chunk):
            # if the chunk failed, each radius builds its own, for its own message
            sigmas = _outcome(lambda: [min_singular_value(op) for op in (
                shared[i * len(panel_counts):(i + 1) * len(panel_counts)]
                if not isinstance(shared, Exception)
                else (nystrom_matrix(spec, grid) for grid in own_grids(r)))])
            if isinstance(sigmas, Exception):  # per-point failures must not kill the scan
                failures.append((r, str(sigmas)))
            else:
                rows.append((r, sigmas[0], abs(sigmas[1] - sigmas[0]) if refine else None))
    return ScanReport(
        columns=("r", "sigma_min", "refinement_delta"),
        rows=rows,
        failures=failures,
    )
