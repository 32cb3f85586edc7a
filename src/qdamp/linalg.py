"""Complex linear-algebra helpers and the NumericalError they raise.

Input coercion (fock, diagnostics, propagators), the dense matrix
exponential (the exact route's step map for parity blocks of at most
propagators.DENSE_BLOCK_ROWS rows, and the test oracle exact_superop),
the action of a sparse matrix exponential on a vector (the exact route's
step map above that rule: taylor_plan and taylor_apply) and Hermitian
eigensolves (diagnostics).

The action is the truncated Taylor algorithm of Al-Mohy and Higham
(SIAM J. Sci. Comput. 33:488, 2011), which needs only sparse matvecs.
taylor_plan picks its degree and step count once per matrix from the
matrix's exact 1-norm, so a chain of steps pays for that choice once,
and no norm is ever estimated: the result never depends on numpy's
global random state.  scipy.linalg, which only the dense exponential
needs, is imported by it on first use, so a program that stays above
the rule never loads it.

The dense helpers operate on plain numpy arrays with dtype complex128 in
C (row-major) order.  That layout choice is load-bearing: the
vectorization module identifies reshape(-1) with stacking matrix rows,
and all Kronecker identities downstream assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# theta_m of Al-Mohy and Higham for a backward error of TAYLOR_TOL: m
# Taylor terms per step suffice while the step's shifted 1-norm is at most
# theta_m.  The first 30 are table A.3 of Higham and Al-Mohy (Acta Numer.
# 19:159, 2010), the rest table 3.1 of the 2011 paper; scipy's
# expm_multiply uses the same table.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
TAYLOR_TOL = 2.0 ** -53


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
    # imported here: only dense blocks of at most DENSE_BLOCK_ROWS rows and
    # the test oracles need it, and it adds about 0.1 s and 7 MB to start-up
    import scipy.linalg
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalError("expm produced non-finite entries (overflow?)")
    return out


@dataclass(frozen=True, eq=False)
class TaylorPlan:
    """exp(gap B) as steps of exp(shift / steps) exp(shifted / steps),
    where shifted = gap B - shift I and the second factor is a Taylor
    polynomial of at most degree terms.  Plans compare by identity."""
    shifted: sp.csr_array
    shift: complex
    degree: int
    steps: int


def taylor_plan(block, gap: float) -> TaylorPlan:
    """The plan of exp(gap block) for a square CSR block.

    The shift is the mean diagonal of gap block.  Of the (m, s) with
    s = ceil(norm / theta_m), norm the exact 1-norm of the shifted
    matrix, the plan takes the least m s, the first such m on a tie: the
    fewest matvecs that meet TAYLOR_TOL.  That is scipy's expm_multiply
    below its norm-estimate bound, bit for bit.  A non-finite norm raises
    NumericalError.
    """
    scaled = gap * block
    rows = scaled.shape[0]
    shift = scaled.trace() / rows
    shifted = scaled - shift * sp.eye_array(rows, format="csr")
    norm = abs(shifted).sum(axis=0).max()
    if not math.isfinite(norm):
        raise NumericalError(f"the Taylor step over {gap} has a non-finite 1-norm")
    if norm == 0.0:
        return TaylorPlan(shifted, shift, 0, 1)
    degree, steps = min(((deg, math.ceil(norm / theta))
                         for deg, theta in TAYLOR_THETA.items()),
                        key=lambda pair: pair[0] * pair[1])
    return TaylorPlan(shifted, shift, degree, steps)


def taylor_apply(plan: TaylorPlan, x: np.ndarray) -> np.ndarray:
    """exp(gap block) x, a new array, by the plan's Taylor steps.

    Each step sums terms until two in a row are negligible against the
    sum in max-norm (Al-Mohy and Higham's early stop, as in scipy's
    expm_multiply) or the degree is reached, then multiplies by
    exp(shift / steps).  A non-finite result raises NumericalError.
    """
    a, out = plan.shifted, x
    eta = np.exp(plan.shift / plan.steps)
    for _ in range(plan.steps):
        c1 = np.abs(x).max()
        for j in range(plan.degree):
            x = (1.0 / (plan.steps * (j + 1))) * (a @ x)
            c2 = np.abs(x).max()
            out = out + x
            if c1 + c2 <= TAYLOR_TOL * np.abs(out).max():
                break
            c1 = c2
        out = x = eta * out
    if not np.all(np.isfinite(out)):
        raise NumericalError("taylor_apply produced non-finite entries (overflow?)")
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
