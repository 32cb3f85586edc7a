"""Complex linear-algebra helpers and the NumericalError they raise.

Input checks, one rule each: as_complex_matrix (an array), check_real and
check_complex (a finite number), check_margin (a margin).  Then the dense matrix
exponential (the exact route's step map for parity blocks of at most
propagators.DENSE_BLOCK_ROWS rows, and the test oracle exact_superop),
the action of a sparse matrix exponential on a vector (the exact route's
step map above that rule: taylor_plan, shifted_norm, taylor_apply), Hermitian
eigensolves (diagnostics), and the package's one CSR direct sum
(direct_sum) and row of each stored CSR entry (entry_rows).

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
import numbers
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
# The most matvecs (degree * steps) a Taylor plan may take.  taylor_apply
# pays about one sparse matvec per planned term, about 5 us at d = 16 and
# 15 us at d = 64 (one BLAS thread, 2-vCPU VM), so 2e7 of them run for
# minutes, and a larger plan would look like a hang: mu = nu = 1e6 plans
# 2.4e8 at d = 16, and kappa 1e30 about 5e30.  taylor_plan refuses such a
# plan with NumericalError.  The largest plan the test suite makes is
# 1.7e5 (stiff rates of 1e3 at d <= 12), and tools/csv_digest.py's 5.1e3.
TAYLOR_MAX_MATVECS = 2 * 10 ** 7


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


def shown(value) -> str:
    """repr(value) for an error message; an integer too long for repr
    (sys.get_int_max_str_digits) is shown by its bit length instead."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def check_real(value, name: str, rule: str = "finite") -> float:
    """value as a float; ValueError, saying name must be rule, unless it
    is a finite real number (numpy's count, bool does not).  An integer
    beyond the double range is not: it has no finite float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{name} must be {rule}, got {shown(value)}")


def check_complex(value, name: str) -> complex:
    """check_real's rule for a complex value."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            out = complex(value)
        except OverflowError:
            out = complex(math.inf)
        if np.isfinite(out):
            return out
    raise ValueError(f"{name} must be finite, got {shown(value)}")


def check_margin(margin) -> int:
    """margin as an int; ValueError unless it is an integer >= 0."""
    if (isinstance(margin, bool) or not isinstance(margin, numbers.Integral)
            or margin < 0):
        raise ValueError(f"margin must be an integer >= 0, got {shown(margin)}")
    return int(margin)


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
    s = ceil(norm / theta_m), norm the shifted matrix's exact 1-norm
    (shifted_norm), the plan takes the least m s, the first m on a tie:
    the fewest matvecs that meet TAYLOR_TOL, as scipy's expm_multiply
    takes below its norm-estimate bound.  A non-finite norm, or a plan of
    more than TAYLOR_MAX_MATVECS matvecs, raises NumericalError.
    """
    scaled = gap * block
    rows = scaled.shape[0]
    shift = scaled.trace() / rows
    shifted = scaled - shift * sp.eye_array(rows, format="csr")
    norm = shifted_norm(scaled.data, scaled.indices, scaled.diagonal())
    if not math.isfinite(norm):
        raise NumericalError(f"the Taylor step over {gap} has a non-finite 1-norm")
    if norm == 0.0:
        return TaylorPlan(shifted, shift, 0, 1)
    degree, steps = min(((deg, math.ceil(norm / theta))
                         for deg, theta in TAYLOR_THETA.items()),
                        key=lambda pair: pair[0] * pair[1])
    if degree * steps > TAYLOR_MAX_MATVECS:
        raise NumericalError(
            f"the Taylor step over {gap} needs {steps:.1e} steps of degree {degree} "
            f"(1-norm {norm:.1e}), more than {TAYLOR_MAX_MATVECS:.0e} matvecs")
    return TaylorPlan(shifted, shift, degree, steps)


def shifted_norm(data, indices, diagonal) -> float:
    """The 1-norm of a duplicate-free square CSR matrix, from its stored
    entries and diagonal, shifted by its mean diagonal: each column's sum
    of |entries|, the diagonal's |b_ii| replaced by |b_ii - mean|."""
    sums = np.bincount(indices, weights=np.abs(data), minlength=diagonal.size)
    return float((sums + np.abs(diagonal - diagonal.mean()) - np.abs(diagonal)).max())


def taylor_apply(plan: TaylorPlan, x: np.ndarray) -> np.ndarray:
    """exp(gap block) x, a new array, by the plan's Taylor steps.

    Each step sums terms until two in a row are negligible against the
    sum in max-norm (Al-Mohy and Higham's early stop, as in scipy's
    expm_multiply) or the degree is reached, then multiplies by
    exp(shift / steps).
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
    return out


def direct_sum(blocks, size: int) -> sp.csr_array:
    """The CSR direct sum of size x size CSR blocks, in order, built by
    offsetting and concatenating their buffers; None is a zero block.  Its
    indices are 32-bit while they fit, as scipy.sparse's own constructors
    take them; they cut the memory of every product and sum."""
    blocks = [sp.csr_array((size, size)) if b is None else b for b in blocks]
    rows = len(blocks) * size
    starts = np.cumsum([0] + [b.nnz for b in blocks])
    index = np.int32 if max(starts[-1], rows) < 2 ** 31 else np.int64
    indptr = np.concatenate([b.indptr[:-1] + s for b, s in zip(blocks, starts)]
                            + [starts[-1:]]).astype(index)
    indices = np.concatenate([b.indices.astype(index) + size * k
                              for k, b in enumerate(blocks)])
    return sp.csr_array((np.concatenate([b.data for b in blocks]), indices, indptr),
                        shape=(rows, rows))


def entry_rows(m) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in CSR order, as int64."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of m, ascending; of each matrix
    of an n x d x d stack, as its rows, with the bits of its own call.

    The input is symmetrized as (m + m')/2 first; callers that care about
    the skew part measure it separately (diagnostics never repair states
    silently, they record the residual).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"eigensolve needs a square matrix, got shape {m.shape}")
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"hermitian eigensolve failed: {exc}") from exc
