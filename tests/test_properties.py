"""Property tests at random orders, radii and points (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rbkernel import (
    check_identity,
    eval_irregular,
    eval_kernel,
    eval_regular,
    solve_gamma,
    validate_sets,
    wronskian,
)

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
