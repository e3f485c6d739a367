"""Sensitivity of the certificate: one injected defect, and exactly which gates fail.

Each case breaks one input of ``verify_counterexample`` -- the kink-exact
operator's fields or the certificate's grid -- and checks the set of
failing gates, so a gate that stops seeing a defect, or starts failing on
one it should pass, shows up here.
"""

import dataclasses

import numpy as np
import pytest

import rbkernel.counterexample as cx_module
from rbkernel.counterexample import GATES

SPECTRAL = {"sigma_min_at_R", "null_vector_deviation", "collapse_ratio", "off_root_grid_delta"}


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
    "gamma_off_by_1e-9": (
        replaced(gamma=lambda op: op.gamma * (1.0 + 1e-9)),
        {"sigma_min_at_R", "collapse_ratio"}),
}

GRID_DEFECTS = {
    "two_panels": ("DEFAULT_CERTIFICATE_PANELS", 2, {"off_root_grid_delta"}),
    "six_nodes": ("DEFAULT_CERTIFICATE_NODES", 6,
                  {"null_vector_deviation", "off_root_grid_delta"}),
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
