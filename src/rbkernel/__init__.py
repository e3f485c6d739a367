"""Degenerate Riccati-Bessel kernels and their homogeneous integral equation.

The package builds symmetric separable kernels from Riccati-Bessel function
products, discretizes the associated integral operator on (0, r], and
certifies numerically that for the single-pair kernel (S = {0}, T = {2})
there is a radius R where the homogeneous equation h = K h acquires the
nontrivial solution u_2: the scalar function p(r) crosses zero at R, the
integration-by-parts identity closes, and the eigenvalue of the discretized
self-adjoint K nearest 1 reaches it with an eigenvector matching u_2.
"""

from .counterexample import (
    DEFAULT_BRACKET,
    RootResult,
    VerificationReport,
    check_identity,
    check_ode,
    find_root,
    p_explicit,
    p_series,
    p_wronskian,
    reference_spec,
    verify_counterexample,
)
from .kernel import (
    IndexSets,
    KernelSpec,
    SetValidationError,
    SingularSystemError,
    UnsupportedOrderError,
    equation_residual,
    eval_kernel,
    solve_gamma,
    validate_sets,
)
from .operator import (
    ConvergenceError,
    NystromOperator,
    QuadratureGrid,
    SelfAdjointCertificate,
    apply_operator,
    build_grid,
    certificate_sigma,
    kink_exact_matrix,
    min_singular_value,
    nystrom_matrix,
    self_adjoint_certificate,
    spectral_grid,
    sweep,
)
from .report import ScanReport
from .riccati import FunctionPair, eval_irregular, eval_regular, wronskian

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FunctionPair",
    "eval_regular",
    "eval_irregular",
    "wronskian",
    "IndexSets",
    "KernelSpec",
    "SetValidationError",
    "UnsupportedOrderError",
    "SingularSystemError",
    "validate_sets",
    "solve_gamma",
    "equation_residual",
    "eval_kernel",
    "QuadratureGrid",
    "NystromOperator",
    "SelfAdjointCertificate",
    "ConvergenceError",
    "build_grid",
    "spectral_grid",
    "nystrom_matrix",
    "kink_exact_matrix",
    "apply_operator",
    "min_singular_value",
    "self_adjoint_certificate",
    "certificate_sigma",
    "sweep",
    "ScanReport",
    "RootResult",
    "VerificationReport",
    "DEFAULT_BRACKET",
    "p_explicit",
    "p_wronskian",
    "p_series",
    "find_root",
    "check_identity",
    "check_ode",
    "reference_spec",
    "verify_counterexample",
]
