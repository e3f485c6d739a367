"""Property tests at random orders, radii and points (hypothesis)."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    reference_spec,
    solve_gamma,
    validate_sets,
    wronskian,
)
from rbkernel.operator import NUMERIC_ERRORS

orders = st.integers(min_value=0, max_value=50)


@settings(max_examples=60, deadline=None)
@given(m=orders, r=st.floats(min_value=0.1, max_value=100.0))
def test_wronskian_is_one(m, r):
    assert abs(wronskian(m, r) - 1.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    m=orders,
    l=orders,
    r=st.floats(min_value=0.1, max_value=20.0),
    a=st.floats(min_value=0.01, max_value=1.0),
    b=st.floats(min_value=0.01, max_value=1.0),
)
def test_kernel_is_symmetric(m, l, r, a, b):
    if l == m:
        l = m + 1  # S and T must be disjoint
    spec = solve_gamma(validate_sets([m], [l]))
    s, t = a * r, b * r
    value = eval_kernel(spec, s, t)
    assert value == eval_kernel(spec, t, s)
    lo, hi = min(s, t), max(s, t)
    assert value == spec.gamma[0] * eval_regular(m, lo).value * eval_irregular(m, hi).value


radius_and_point = st.floats(min_value=0.3, max_value=5.0).flatmap(
    lambda r: st.tuples(st.just(r), st.floats(min_value=0.0, max_value=r, exclude_min=True))
)


@settings(max_examples=25, deadline=None)
@given(radius_and_point)
def test_operator_maps_u2_to_u2_plus_p_u0(r_s):
    # (K u_2)(s) = u_2(s) + p(r) u_0(s) for every radius and every s in (0, r]
    r, s = r_s
    assert check_identity(r, [s]) <= 1e-8


# the reference kernel, then two whose v_m overflows at small radii
KERNELS = [reference_spec(), solve_gamma(validate_sets([1], [3])),
           solve_gamma(validate_sets([0, 4, 8], [2, 6, 10]))]


def _u2(t):
    return eval_regular(2, t).value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    exponent=st.floats(min_value=-300.0, max_value=3.0),
    kernel=st.sampled_from(range(len(KERNELS))),
    m=orders,
)
def test_whole_radius_range_is_finite_or_a_named_error(exponent, kernel, m):
    # r log-uniform in [1e-300, 1e3]: every discretization of K, the
    # Nystrom operator's sigma_min, and the Riccati pair give finite values
    # or one of NUMERIC_ERRORS, and numpy never warns; the reference kernel
    # forms all five operator results
    r = 10.0**exponent
    spec = KERNELS[kernel]
    grid = build_grid(r, 8, 16, grading=1.0)
    points = np.linspace(r / 7, r, 7)
    results = (
        lambda: np.tril(kink_exact_matrix(spec, grid).own_norm_form()),
        lambda: np.tril(nystrom_matrix(spec, grid).own_norm_form()),
        lambda: min_singular_value(nystrom_matrix(spec, grid)),
        lambda: apply_operator(spec, r, _u2, points),
        lambda: apply_operator(spec, r, lambda t: t, points),
        lambda: eval_regular(m, r),
        lambda: eval_irregular(m, r),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, result in enumerate(results):
            try:
                values = result()
            except NUMERIC_ERRORS:
                assert kernel != 0 or i >= 5, (r, i)
                continue
            assert np.all(np.isfinite(values)), (r, i)
