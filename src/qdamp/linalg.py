"""Dense complex linear-algebra helpers and the NumericalError they raise.

Input coercion (fock, diagnostics, propagators), the dense matrix
exponential (the exact route's step map for parity blocks of at most
propagators.DENSE_BLOCK_ROWS rows, and the test oracle exact_superop)
and Hermitian eigensolves (diagnostics).  The exact route's sparse
kernel, scipy's expm_multiply, is called from propagators, which raises
NumericalError on a non-finite result as expm does here.

Everything here operates on plain numpy arrays with dtype complex128 in
C (row-major) order.  That layout choice is load-bearing: the vectorization
module identifies reshape(-1) with stacking matrix rows, and all Kronecker
identities downstream assume it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class NumericalError(RuntimeError):
    """A matrix routine could not produce a trustworthy result."""


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce user input to a finite 2-d complex128 array."""
    out = np.ascontiguousarray(m, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"{name} contains NaN or Inf entries")
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix (scaling-and-squaring Pade)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {m.shape}")
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalError("expm produced non-finite entries (overflow?)")
    return out


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of m, ascending.

    The input is symmetrized as (m + m')/2 first; callers that care about
    the skew part measure it separately (diagnostics never repair states
    silently, they record the residual).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eigensolve needs a square matrix, got shape {m.shape}")
    h = 0.5 * (m + m.conj().T)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"hermitian eigensolve failed: {exc}") from exc
