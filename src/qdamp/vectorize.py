"""Row-major vectorization of matrices, and the layout of its slots.

vec stacks matrix rows, so for a d x d matrix X the slot (n1, n2) lands at
flat index n1*d + n2.  slot_levels owns that layout: every per-slot
array of the package is built from its level pairs.  With that ordering
the two-sided product obeys

    vec(A @ X @ B) == np.kron(A, B.T) @ vec(X)

with a plain transpose on B, no conjugation.  Every superoperator in this
package is built through that identity (algebra's Kronecker products), so
the convention must never drift.  The trace is the inner product with
vec of the identity: vec(np.eye(d)).conj() @ vec(X) == trace(X).
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


def slot_levels(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The levels (n1, n2) of each slot of vec of a dim x dim matrix, in
    vec's order: vec(x)[k] is x[n1[k], n2[k]]."""
    return np.divmod(np.arange(dim * dim), dim)
