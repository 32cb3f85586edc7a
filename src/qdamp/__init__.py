"""Truncated-oscillator master-equation toolkit.

Builds the damped/pumped/two-photon-driven oscillator generator on a
finite number basis, exponentiates it exactly or through factorized
propagators, and reports state diagnostics.  See README.md for the
command line interface.  The package exports what its users
call; kernels, seam helpers and the dense views kept for tests are
imported from their modules (qdamp.propagators.exact_superop, ...).
"""

from .linalg import NumericalError
from .fock import (
    FockOperators,
    build_fock_ops,
    coherent_state,
    fock_state,
    thermal_state,
)
from .vectorize import unvec, vec
from .algebra import AlgebraReport, verify_algebra
from .liouvillian import (
    ModelParams,
    PositivityError,
    build_liouvillian_trace_exact,
)
from .propagators import (
    METHODS,
    PropagationResult,
    propagate,
    propagate_sweep,
    stepped_propagate,
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
    "ConvergenceTable",
    "DiagnosticsRecord",
    "FockOperators",
    "METHODS",
    "ModelParams",
    "NumericalError",
    "PositivityError",
    "PropagationResult",
    "build_fock_ops",
    "build_liouvillian_trace_exact",
    "coherent_state",
    "compare_states",
    "convergence_study",
    "fock_state",
    "propagate",
    "propagate_sweep",
    "state_diagnostics",
    "stepped_propagate",
    "thermal_state",
    "unvec",
    "vec",
    "verify_algebra",
]
