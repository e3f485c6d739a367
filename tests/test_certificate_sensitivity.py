"""Sensitivity of the certificate: one injected defect, and exactly which gates fail.

Each case breaks one input of ``verify_counterexample`` -- the kink-exact
operator's fields, the certificate's grid, the scaling D, a Riccati
function, p or the witness u_2 -- and checks the set of failing gates, so a
gate that stops seeing a defect, or starts failing on one it should pass,
shows up here.  A defect too small for any gate is listed too, with the
empty set: it marks how far below its threshold each gate's slack ends.
"""

import dataclasses

import numpy as np
import pytest

import rbkernel.counterexample as cx_module
import rbkernel.operator as operator_module
from rbkernel.counterexample import GATES
from rbkernel.operator import QuadratureGrid
from rbkernel.riccati import FunctionPair, _regular_values

SPECTRAL = {"sigma_min_at_R", "null_vector_deviation", "collapse_ratio", "off_root_eigenvalue_gap"}


def failing_gates(report):
    """The GATES whose step failed, by position (a failed step may carry a label)."""
    assert len(report.steps) == len(GATES)
    return {gate for gate, (*_, ok) in zip(GATES, report.steps) if not ok}


def replaced(**change):
    """A kink_exact_matrix whose operators get ``change(op)`` for each named field."""
    real = cx_module.kink_exact_matrix

    def make(spec, grid):
        op = real(spec, grid)
        return dataclasses.replace(op, **{name: f(op) for name, f in change.items()})

    return make


OPERATOR_DEFECTS = {
    "u_and_v_swapped": (replaced(tables=lambda op: op.tables[:, ::-1]), SPECTRAL),
    "panel_rule_dropped": (replaced(panel_rule=lambda op: None), SPECTRAL),
    "panel_rule_transposed": (replaced(panel_rule=lambda op: op.panel_rule.T), SPECTRAL),
    "panel_rule_half": (
        replaced(panel_rule=lambda op: np.full_like(op.panel_rule, 0.5)), SPECTRAL),
    "gamma_off_by_1e-12": (
        replaced(gamma=lambda op: op.gamma * (1.0 + 1e-12)), {"sigma_min_at_R"}),
    "gamma_off_by_1e-9": (replaced(gamma=lambda op: op.gamma * (1.0 + 1e-9)), SPECTRAL),
}

GRID_DEFECTS = {
    "two_panels": ("DEFAULT_CERTIFICATE_PANELS", 2, {"off_root_eigenvalue_gap"}),
    "four_panels": ("DEFAULT_CERTIFICATE_PANELS", 4, set()),
    "six_nodes": ("DEFAULT_CERTIFICATE_NODES", 6,
                  {"null_vector_deviation", "off_root_eigenvalue_gap"}),
}


def scaled_order_0(places, epsilon):
    """The Riccati functions of (m, r) at ``places`` with order 0 times (1 + epsilon r).

    A ``FunctionPair`` has its value and its derivative scaled alike; the
    certificate reads no derivative.
    """
    def defective(real):
        def evaluate(m, r):
            out = real(m, r)
            if m != 0:
                return out
            factor = 1.0 + epsilon * np.asarray(r)
            if isinstance(out, FunctionPair):
                return FunctionPair(*(part * factor for part in out))
            return out * factor

        return evaluate

    return [(module, name, defective(getattr(module, name))) for module, name in places]


# u_0 in the tables, the quadrature and the identity's right side; v_0 in the
# tables and the quadrature
U0_PLACES = ((operator_module, "_regular_values"), (operator_module, "eval_regular"),
             (cx_module, "_regular_values"))
V0_PLACES = ((operator_module, "_irregular_values"), (operator_module, "eval_irregular"))


def p_shifted(delta):
    real = cx_module.p_explicit
    return [(cx_module, "p_explicit", lambda r: real(r) + delta)]


def u2_scaled(epsilon):
    """The witness u_2 times (1 + epsilon r): the quadrature's h and every target."""
    real = cx_module._u2
    return [(cx_module, "_u2", lambda t: real(t) * (1.0 + epsilon * np.asarray(t)))]


def scaling_replaced(power):
    """D = sqrt(w) / t**power in place of sqrt(w) / t: the matrix and the null-vector target."""
    scaling = property(lambda grid: np.sqrt(grid.weights) / grid.nodes ** power)
    return [(QuadratureGrid, "l2_scaling", scaling)]


def h_is_u1():
    """The quadrature integrates K u_1 where the identity expects K u_2."""
    real = cx_module.apply_operator

    def apply(spec, r, h, s, **options):
        return real(spec, r, lambda t: _regular_values(1, t), s, **options)

    return [(cx_module, "apply_operator", apply)]


CERTIFICATE_AT_R = {"sigma_min_at_R", "null_vector_deviation", "collapse_ratio"}
GAP = "off_root_eigenvalue_gap"
# defect -> (module attributes to replace, as (target, name, value), failing gates)
INPUT_DEFECTS = {
    "scaling_sqrt_w": (scaling_replaced(0.0), CERTIFICATE_AT_R | {GAP}),
    "scaling_t_power_1+1e-7": (scaling_replaced(1.0 + 1e-7), CERTIFICATE_AT_R | {GAP}),
    "u0_times_1+1e-11r": (scaled_order_0(U0_PLACES, 1e-11), {"sigma_min_at_R", GAP}),
    "u0_times_1+1e-13r": (scaled_order_0(U0_PLACES, 1e-13), set()),
    "v0_times_1+1e-11r": (scaled_order_0(V0_PLACES, 1e-11), {"sigma_min_at_R", GAP}),
    "v0_times_1+1e-13r": (scaled_order_0(V0_PLACES, 1e-13), set()),
    "p_explicit_plus_1e-11": (p_shifted(1e-11), {"sigma_min_at_R"}),
    "p_explicit_plus_1e-13": (p_shifted(1e-13), set()),
    "u2_times_1+1e-8r": (u2_scaled(1e-8), {"identity_residual", "null_vector_deviation"}),
    "u2_times_1+1e-11r": (u2_scaled(1e-11), set()),
    "h_is_u1_in_quadrature": (h_is_u1(), {"identity_residual", "equation_residual"}),
}


def test_undefected_run_fails_no_gate():
    assert failing_gates(cx_module.verify_counterexample()) == set()


@pytest.mark.parametrize("defect", sorted(OPERATOR_DEFECTS))
def test_operator_defect_fails_exactly_its_gates(monkeypatch, defect):
    make, expected = OPERATOR_DEFECTS[defect]
    monkeypatch.setattr(cx_module, "kink_exact_matrix", make)
    assert failing_gates(cx_module.verify_counterexample()) == expected


@pytest.mark.parametrize("defect", sorted(GRID_DEFECTS))
def test_grid_defect_fails_exactly_its_gates(monkeypatch, defect):
    name, value, expected = GRID_DEFECTS[defect]
    monkeypatch.setattr(cx_module, name, value)
    assert failing_gates(cx_module.verify_counterexample()) == expected


@pytest.mark.parametrize("defect", sorted(INPUT_DEFECTS))
def test_input_defect_fails_exactly_its_gates(monkeypatch, defect):
    patches, expected = INPUT_DEFECTS[defect]
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    assert failing_gates(cx_module.verify_counterexample()) == expected
