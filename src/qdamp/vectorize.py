"""Row-major vectorization of matrices and the sandwich-superoperator map.

vec stacks matrix rows, so for a d x d matrix X the slot (n1, n2) lands at
flat index n1*d + n2.  With that ordering the two-sided product obeys

    vec(A @ X @ B) == kron(A, B.T) @ vec(X)

with a plain transpose on B, no conjugation.  Every superoperator in this
package is built through that identity, so the convention must never drift.
"""

from __future__ import annotations

import math

import numpy as np


def vec(x: np.ndarray) -> np.ndarray:
    """Flatten a matrix into a vector by stacking rows."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"vec expects a matrix, got shape {x.shape}")
    return np.ascontiguousarray(x, dtype=np.complex128).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec; the length must be a perfect square."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"cannot unvec length {v.size}: not a perfect square")
    return v.reshape(d, d).copy()


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map X -> A @ X @ B acting on row-major vec(X)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != a.shape[1] \
            or b.shape[0] != b.shape[1] or a.shape != b.shape:
        raise ValueError(f"sandwich needs equal square factors, got {a.shape}, {b.shape}")
    return np.kron(a, b.T)


def trace_functional(dim: int) -> np.ndarray:
    """Row vector w such that w @ vec(X) == trace(X)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return vec(np.eye(dim, dtype=np.complex128)).conj()
