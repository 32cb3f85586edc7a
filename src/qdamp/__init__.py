"""Truncated-oscillator master-equation toolkit.

Builds the damped/pumped/two-photon-driven oscillator generator on a
finite number basis, exponentiates it exactly or through factorized
propagators, and reports state diagnostics.  See README.md for the
command line interface.
"""

from .linalg import (
    NumericalError,
    as_complex_matrix,
    expm,
    hermitian_eigenvalues,
)
from .fock import (
    FockOperators,
    build_fock_ops,
    coherent_state,
    fock_state,
    thermal_state,
)
from .vectorize import unvec, vec
from .algebra import (
    AlgebraReport,
    IdentityResidual,
    SuperOpGenerators,
    build_generators,
    commutator,
    interior_mask,
    projected_residual,
    sparse_generators,
    verify_algebra,
)
from .coefficients import (
    CoefficientSet,
    eval_coefficients,
    hyperbolic_weights,
    hyperbolic_weights_limit,
    phase_kernel,
    phase_kernel_limit,
)
from .liouvillian import (
    ModelParams,
    PositivityError,
    build_liouvillian,
    build_liouvillian_trace_exact,
)
from .propagators import (
    METHODS,
    PropagationResult,
    alternative_superop,
    exact_superop,
    factorized_superop,
    l_factor,
    operator_series_solution,
    propagate,
    propagate_sweep,
    stepped_propagate,
    su11_factor,
)
from .diagnostics import (
    ConvergenceTable,
    DiagnosticsRecord,
    compare_states,
    convergence_study,
    state_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraReport",
    "CoefficientSet",
    "ConvergenceTable",
    "DiagnosticsRecord",
    "FockOperators",
    "IdentityResidual",
    "METHODS",
    "ModelParams",
    "NumericalError",
    "PositivityError",
    "PropagationResult",
    "SuperOpGenerators",
    "alternative_superop",
    "as_complex_matrix",
    "build_fock_ops",
    "build_generators",
    "build_liouvillian",
    "build_liouvillian_trace_exact",
    "coherent_state",
    "commutator",
    "compare_states",
    "convergence_study",
    "eval_coefficients",
    "exact_superop",
    "expm",
    "factorized_superop",
    "fock_state",
    "hermitian_eigenvalues",
    "hyperbolic_weights",
    "hyperbolic_weights_limit",
    "interior_mask",
    "l_factor",
    "operator_series_solution",
    "phase_kernel",
    "phase_kernel_limit",
    "projected_residual",
    "propagate",
    "propagate_sweep",
    "sparse_generators",
    "state_diagnostics",
    "stepped_propagate",
    "su11_factor",
    "thermal_state",
    "unvec",
    "vec",
    "verify_algebra",
]
