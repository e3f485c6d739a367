"""The radius rule: a radius is a positive, finite double, checked by one
function with one message in every layer; and every layer is defined on
the whole rule, from the smallest subnormal to the largest double, giving
finite values or a numeric error and never a numpy RuntimeWarning."""

import math
import warnings

import numpy as np
import pytest

from rbkernel import (
    apply_operator,
    build_grid,
    check_identity,
    eval_irregular,
    eval_kernel,
    eval_regular,
    kink_exact_matrix,
    min_singular_value,
    nystrom_matrix,
    p_explicit,
    p_series,
    p_wronskian,
    reference_spec,
    sweep,
)
from rbkernel.operator import NUMERIC_ERRORS, radius_range

from conftest import read_matrix

EXTREME_RADII = [5e-324, 1e-320, 1e-310, 1e160, 1e200, 1e308, float(np.finfo(float).max)]

GRID_SHAPES = [(8, 16, 1.0), (128, 12, 1.0), (8, 12, 2.0)]

# The shapes both matrices are formed on below, and the extreme radii at
# which those grids cannot be built (their weights or nodes lose their
# digits); at every other extreme radius both matrices must form.
MATRIX_SHAPES = [GRID_SHAPES[0], GRID_SHAPES[2]]
NO_MATRIX_GRID = {5e-324, 1e-320}


def u2(t):
    return eval_regular(2, t).value


def finite_or_numeric_error(evaluate):
    """The value of ``evaluate()``, asserted finite, or the numeric error it raised.

    A RuntimeWarning is turned into an error here, so it fails the test
    whatever the warning filters of the run.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = evaluate()
        except NUMERIC_ERRORS as exc:
            return exc
    assert np.all(np.isfinite(value))
    return value


def forms_unless_its_grid_cannot(r, evaluate):
    """``evaluate()`` is finite, or a ValueError naming r where the grid cannot be built."""
    value = finite_or_numeric_error(evaluate)
    if r in NO_MATRIX_GRID:
        assert isinstance(value, ValueError) and repr(r) in str(value), value
    else:
        assert not isinstance(value, Exception), value


@pytest.mark.parametrize("r", EXTREME_RADII)
class TestExtremeRadii:
    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_grid_builds_or_names_r(self, r, shape):
        grid = finite_or_numeric_error(lambda: build_grid(r, *shape).nodes)
        if isinstance(grid, Exception):
            assert isinstance(grid, ValueError) and repr(r) in str(grid)
        else:
            assert 0.0 < grid[0] and grid[-1] < r

    @pytest.mark.parametrize("shape", MATRIX_SHAPES)
    @pytest.mark.parametrize("assemble", [nystrom_matrix, kink_exact_matrix])
    def test_matrices(self, r, shape, assemble):
        forms_unless_its_grid_cannot(
            r, lambda: read_matrix(assemble(reference_spec(), build_grid(r, *shape))))

    @pytest.mark.parametrize("shape", MATRIX_SHAPES)
    @pytest.mark.parametrize("assemble", [nystrom_matrix, kink_exact_matrix])
    def test_min_singular_value(self, r, shape, assemble):
        forms_unless_its_grid_cannot(
            r, lambda: min_singular_value(assemble(reference_spec(), build_grid(r, *shape))))

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_riccati_families(self, r, m):
        for evaluate in (eval_regular, eval_irregular):
            finite_or_numeric_error(lambda: evaluate(m, r))
            finite_or_numeric_error(lambda: evaluate(m, np.array([r, r / 3])))

    def test_p_routes(self, r):
        value = finite_or_numeric_error(lambda: p_explicit(r))
        assert not isinstance(value, Exception)
        if r >= 1e9:
            assert value == 1.0
        finite_or_numeric_error(lambda: p_wronskian(r))
        finite_or_numeric_error(lambda: p_wronskian(np.array([r, r / 3])))


# every grid shape at both radii, except 128 x 12 at 1e-310, whose 1536
# weights lose their digits, so that grid cannot be built (see above)
@pytest.mark.parametrize("r, shape", [
    (r, shape) for r in (2.3e-308, 1e-310) for shape in GRID_SHAPES
    if (r, shape) != (1e-310, GRID_SHAPES[1])
])
def test_kink_exact_form_where_the_first_nodes_are_subnormal(r, shape):
    # the grid's first nodes are subnormal, and the form, which never
    # squares t, sits at its small-radius value
    grid = build_grid(r, *shape)
    assert grid.nodes[0] < np.finfo(float).tiny
    sigma = finite_or_numeric_error(
        lambda: min_singular_value(kink_exact_matrix(reference_spec(), grid)))
    small = min_singular_value(kink_exact_matrix(reference_spec(), build_grid(1e-100, *shape)))
    assert abs(sigma - small) <= 1e-12


# above 1e3 apply_operator spends 0.3 s on a ConvergenceError, so it is left out there
@pytest.mark.parametrize("r", [r for r in EXTREME_RADII if r <= 1e3])
def test_apply_operator_at_subnormal_radii(r):
    finite_or_numeric_error(lambda: apply_operator(reference_spec(), r, u2, r))


def test_p_explicit_is_continuous_where_it_returns_one():
    below = np.nextafter(1e9, 0.0)
    assert p_explicit(below) == 1.0 == p_explicit(1e9)
    assert p_explicit(1e8) < 1.0  # the closed form itself, still below 1


class TestOneMessage:
    """Every layer that takes a radius rejects a bad one with the same text."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_scalar_layers(self, bad):
        spec = reference_spec()
        message = f"radius must be positive and finite, got {bad!r}"
        for call in (
            lambda: build_grid(bad),
            lambda: apply_operator(spec, bad, u2, 1.0),
            lambda: eval_kernel(spec, bad, 1.0),
            lambda: eval_kernel(spec, 1.0, bad),
            lambda: p_explicit(bad),
            lambda: p_series(bad),
            lambda: p_wronskian(bad),
            lambda: p_wronskian(np.array([1.0, bad, 2.0])),
            lambda: check_identity(bad),
            lambda: eval_irregular(0, bad),
            lambda: radius_range(bad, 2.0, 3),
            lambda: radius_range(0.5, bad, 3),
            lambda: sweep(spec, 0.5, bad, 3),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_eval_regular_admits_zero(self, bad):
        assert eval_regular(2, 0.0) == (0.0, 0.0)
        with pytest.raises(ValueError) as exc:
            eval_regular(2, np.array([0.0, bad]))
        assert str(exc.value) == f"radius must be nonnegative and finite, got {bad!r}"


class TestRadiusRange:
    def test_values_are_linspace(self):
        radii = radius_range(1e-300, 1e308, 5)
        assert radii.tolist() == np.linspace(1e-300, 1e308, 5).tolist()

    @pytest.mark.parametrize("args, message", [
        ((2.0, 1.0, 3), "need r-min < r-max, got 2.0, 1.0"),
        ((1.0, 1.0, 3), "need r-min < r-max, got 1.0, 1.0"),
        ((1.0, 2.0, 1), "steps must be >= 2"),
    ])
    def test_errors(self, args, message):
        with pytest.raises(ValueError) as exc:
            radius_range(*args)
        assert str(exc.value) == message
