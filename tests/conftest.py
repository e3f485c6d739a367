"""Shared test fixtures, high-precision and dense oracles, and report readers."""

import json
import sys
from pathlib import Path

# Allow running pytest from a fresh checkout without installing the package.
try:
    import rbkernel  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath as mp
import numpy as np
import pytest

from rbkernel import eval_irregular, eval_regular

mp.mp.dps = 40


def mp_regular(m, r):
    """Oracle u_m(r) = r j_m(r) through mpmath's half-integer Bessel J."""
    r = mp.mpf(r)
    return r * mp.sqrt(mp.pi / (2 * r)) * mp.besselj(m + mp.mpf("0.5"), r)


def mp_irregular(m, r):
    """Oracle v_m(r) = r y_m(r) through mpmath's half-integer Bessel Y."""
    r = mp.mpf(r)
    return r * mp.sqrt(mp.pi / (2 * r)) * mp.bessely(m + mp.mpf("0.5"), r)


def mp_p(r):
    """Oracle for the closed form of p at 40 digits."""
    r = mp.mpf(r)
    return 1 - (3 + 3 * mp.cos(r) ** 2) / r**2 + 3 * mp.sin(2 * r) / r**3


def read_matrix(op):
    """What production reads of an operator: the lower triangle of its
    symmetric form of S = D A D^-1 (it holds no dense A)."""
    return np.tril(op.own_norm_form())


def kernel_definition_matrix(spec, grid):
    """The Nystrom A[i, j] = -g(s_i, t_j) w_j / t_j^2, with
    g = sum_m gamma_m u_m(min) v_m(max), assembled densely."""
    t = grid.nodes
    low, high = np.minimum.outer(t, t), np.maximum.outer(t, t)
    g = sum(gamma * eval_regular(m, low).value * eval_irregular(m, high).value
            for m, gamma in spec.terms)
    return -g * grid.weights / t**2


def kink_exact_definition_matrix(spec, grid):
    """The kink-exact A assembled densely by product integration,

        A = -sum_m gamma_m [diag(v_m) L diag(u_m/t^2) + diag(u_m) U diag(v_m/t^2)],

    with L the cumulative integration matrix (integral_0^{t_i}: earlier
    panels at their full Gauss weights, the node's own panel the integral
    of the Lagrange interpolant up to t_i) and U = W - L.  The grid needs
    the same Gauss-Legendre rule on every panel, and t*t normal at its nodes.
    """
    panels = len(grid.panel_bounds) - 1
    n = grid.size // panels
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(n)
    # Legendre coefficients (2k + 1)/2 w_j P_k(x_j) of the Lagrange polynomials
    coefficients = ((np.arange(n) + 0.5)[:, None] * legendre.legvander(x, n - 1).T) * w
    in_panel = legendre.legvander(x, n) @ legendre.legint(coefficients, lbnd=-1, axis=0)
    panel = np.repeat(np.arange(panels), n)
    lower = np.where(panel[:, None] > panel[None, :], grid.weights[None, :], 0.0)
    for k, half in enumerate(0.5 * np.diff(grid.panel_bounds)):
        block = slice(k * n, (k + 1) * n)
        lower[block, block] = half * in_panel
    upper = grid.weights[None, :] - lower
    t = grid.nodes
    matrix = np.zeros_like(lower)
    for m, gamma in spec.terms:
        u, v = eval_regular(m, t).value, eval_irregular(m, t).value
        matrix -= gamma * (v[:, None] * lower * (u / t**2) + u[:, None] * upper * (v / t**2))
    return matrix


def definition_form(grid, matrix):
    """The symmetric part of S = D A D^-1 of a dense A, D = sqrt(w)/t."""
    scaling = grid.l2_scaling
    form = scaling[:, None] * matrix / scaling[None, :]
    return 0.5 * (form + form.T)


def definition_sigma(grid, matrix):
    """min |1 - lambda| over the eigenvalues of :func:`definition_form`."""
    return float(np.min(np.abs(1.0 - np.linalg.eigvalsh(definition_form(grid, matrix)))))


def csv_table(text):
    """Columns and rows of a CSV report; an empty cell reads as None."""
    header, *lines = text.splitlines()
    rows = [tuple(None if cell == "" else float(cell) for cell in line.split(","))
            for line in lines]
    return tuple(header.split(",")), rows


def json_table(text):
    """Columns and rows of a JSON report, an array of row objects."""
    objects = json.loads(text)
    columns = tuple(objects[0])
    return columns, [tuple(obj[name] for name in columns) for obj in objects]


@pytest.fixture(scope="session")
def reference_spec():
    from rbkernel import reference_spec

    return reference_spec()


@pytest.fixture(scope="session")
def root_r():
    """The first positive root of p, found once per session."""
    from rbkernel import find_root

    return find_root(2.0, 2.5, tol=1e-12).root
