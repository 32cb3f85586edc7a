"""Superoperator generator families and their commutation checks.

The damped-oscillator generator decomposes over twelve d^2 x d^2 matrices
falling into four families, each closed under commutation in the
untruncated limit:

  jump family     su(1,1): two-sided jump maps  X -> a+ X a,  X -> a X a+,
                  with jump_z the symmetrized number map.
  pair family     su(2): joint two-sided raising/lowering  X -> a+ X a+,
                  X -> a X a.
  sym family      su(1,1): anticommutator halves of the two-photon terms,
                  X -> ((a+)^2 X + X (a+)^2)/2 and its lowering partner.
  squeeze family  the differences pair - sym; its raising and lowering
                  members commute with each other, which is what makes the
                  two-photon part of the evolution factorizable in closed
                  form.

pair_z, sym_z and squeeze_z are one and the same matrix: one array is
stored, and each family reads it under its own name.

sparse_generators builds the twelve as scipy.sparse CSR Kronecker
products (about three nonzeros per row); it is the program's one source of
the generator's Kronecker products.  cached_generators holds them per
(dim, theta), so liouvillian's form III and trace-exact generator, the
closed-form propagators and verify_algebra share one build.
build_generators is their dense view, the one formula densified, kept for
tests at small d.  The ladder phase theta enters only through a and a+:
jump_plus is phase-free, and pair_plus and sym_plus pick up exp(-2i theta),
which the tests check.

Truncation breaks a few of the relations at the highest Fock levels, in a
completely localized way.  Every generator moves each of the two slot
indices by at most 2, so restricting a residual to interior_mask at
margin 2 removes exactly the affected entries; verify_algebra reports the
projected residuals, computed on the CSR generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import FockOperators, build_fock_ops


@dataclass(frozen=True)
class SuperOpGenerators:
    """Twelve d^2 x d^2 generator matrices over one Fock truncation.

    theta is the ladder phase of the FockOperators they were built from.
    sparse_generators fills the fields with scipy.sparse CSR arrays,
    build_generators with their dense ndarray view.
    """

    dim: int
    theta: float
    jump_z: np.ndarray
    jump_plus: np.ndarray
    jump_minus: np.ndarray
    pair_z: np.ndarray
    pair_plus: np.ndarray
    pair_minus: np.ndarray
    sym_plus: np.ndarray
    sym_minus: np.ndarray
    squeeze_plus: np.ndarray
    squeeze_minus: np.ndarray

    @property
    def sym_z(self) -> np.ndarray:
        return self.pair_z

    @property
    def squeeze_z(self) -> np.ndarray:
        return self.pair_z


_MATRIX_FIELDS = ("jump_z", "jump_plus", "jump_minus", "pair_z", "pair_plus",
                  "pair_minus", "sym_plus", "sym_minus", "squeeze_plus",
                  "squeeze_minus")


def _kron(a, b) -> sp.csr_array:
    """kron(a, b) in CSR, its nonzero products taken by np.kron itself.

    Multiplying with the routine of the dense formula keeps the dense view
    bit-identical to np.kron of the dense factors.  scipy.sparse.kron
    broadcasts one-element operands through another numpy loop, which
    rounds some complex products (theta != 0) differently.
    """
    a, b = sp.coo_array(a), sp.coo_array(b)
    rows = np.add.outer(a.row * b.shape[0], b.row).ravel()
    cols = np.add.outer(a.col * b.shape[1], b.col).ravel()
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return sp.csr_array((np.kron(a.data, b.data), (rows, cols)), shape=shape)


def sparse_generators(ops: FockOperators) -> SuperOpGenerators:
    """The twelve generators as CSR arrays (about three nonzeros per row).

    Each is a Kronecker product or a sum of them, with the row-major
    convention vec(A X B) = kron(A, B.T) vec(X) of vectorize.py.
    """
    a, a_dag, n_op, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2 = a @ a
    ad2 = a_dag @ a_dag

    jump_z = 0.5 * (_kron(n_op, one) + _kron(one, n_op.T) + _kron(one, one))
    jump_plus = _kron(a_dag, a.T)
    jump_minus = _kron(a, a_dag.T)

    pair_z = 0.5 * (_kron(n_op, one) - _kron(one, n_op.T))
    pair_plus = _kron(a_dag, a_dag.T)
    pair_minus = _kron(a, a.T)

    sym_plus = 0.5 * (_kron(ad2, one) + _kron(one, ad2.T))
    sym_minus = 0.5 * (_kron(a2, one) + _kron(one, a2.T))

    return SuperOpGenerators(
        dim=ops.dim, theta=ops.theta,
        jump_z=jump_z, jump_plus=jump_plus, jump_minus=jump_minus,
        pair_z=pair_z, pair_plus=pair_plus, pair_minus=pair_minus,
        sym_plus=sym_plus, sym_minus=sym_minus,
        squeeze_plus=pair_plus - sym_plus,
        squeeze_minus=pair_minus - sym_minus,
    )


@functools.lru_cache(maxsize=8)
def cached_generators(dim: int, theta: float) -> SuperOpGenerators:
    """sparse_generators of build_fock_ops(dim, theta), built once, then shared.

    They depend on dim and theta alone, not on the rates or t.  Every
    caller receives the same arrays, so callers scale them into new
    arrays and never modify them in place.
    """
    return sparse_generators(build_fock_ops(dim, theta))


def build_generators(ops: FockOperators) -> SuperOpGenerators:
    """Dense view of sparse_generators: the same twelve matrices as ndarrays."""
    g = sparse_generators(ops)
    return replace(g, **{f: getattr(g, f).toarray() for f in _MATRIX_FIELDS})


def commutator(a, b):
    """a @ b - b @ a of two equal square matrices, dense or scipy.sparse."""
    a = a if sp.issparse(a) else np.asarray(a)
    b = b if sp.issparse(b) else np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape}, {b.shape}")
    return a @ b - b @ a


def interior_mask(dim: int, margin: int) -> np.ndarray:
    """Boolean mask over flat slots keeping n1 <= dim-1-margin and n2 likewise.

    margin >= dim yields an empty interior (all False); that degenerate case
    is legal and simply means no slot survives projection.
    """
    if not isinstance(margin, (int, np.integer)) or margin < 0:
        raise ValueError(f"margin must be an integer >= 0, got {margin!r}")
    keep = np.arange(dim) <= dim - 1 - margin
    return np.kron(keep, keep).astype(bool)


def projected_residual(delta, dim: int, margin: int) -> float:
    """Frobenius norm of P @ delta @ P without materializing P.

    delta is a dense ndarray or a scipy.sparse array.  A sparse one is
    measured on its summed stored entries, which spares the program the
    import of scipy.sparse.linalg and the scipy.linalg it pulls in (about
    0.14 s and 8.6 MB at start-up).
    """
    mask = interior_mask(dim, margin)
    if not mask.any():
        return 0.0
    if sp.issparse(delta):
        sub = sp.csr_array(delta[np.ix_(mask, mask)])
        sub.sum_duplicates()
        return float(np.linalg.norm(sub.data))
    return float(np.linalg.norm(np.asarray(delta)[np.ix_(mask, mask)]))


@dataclass(frozen=True)
class IdentityResidual:
    label: str
    residual: float


@dataclass(frozen=True)
class AlgebraReport:
    dim: int
    margin: int
    empty_interior: bool
    entries: list[IdentityResidual] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def all_within(self, tol: float) -> bool:
        return self.max_residual <= tol

    def to_text(self, tol: float = 1e-12) -> str:
        lines = [f"dim: {self.dim}", f"margin: {self.margin}"]
        if self.empty_interior:
            lines.append("note: interior is empty at this margin; residuals are trivially zero")
        for e in self.entries:
            lines.append(f"{e.label}: {e.residual:.3e}")
        lines.append(f"max_residual: {self.max_residual:.3e}")
        lines.append(f"verdict: {'PASS' if self.all_within(tol) else 'FAIL'} (threshold {tol:.1e})")
        return "\n".join(lines)


def _identity_table(gen: SuperOpGenerators, ops: FockOperators):
    """All commutation identities with their closed-form right-hand sides.

    The z <-> raising/lowering relations inside each family hold with the
    familiar signs; the two su(1,1) families close with [plus, minus] =
    -2 z, the su(2) pair family with +2 z, and the squeeze pair commutes.
    Cross-family brackets either vanish or land on explicit sandwich
    combinations, listed last; those are CSR Kronecker products whatever
    the type of the generators.
    """
    g = gen
    a, a_dag, one = ops.a, ops.a_dag, ops.identity
    a2 = a @ a
    ad2 = a_dag @ a_dag

    ad_x_ad = _kron(a_dag, a_dag.T)            # X -> a+ X a+
    a_x_a = _kron(a, a.T)                      # X -> a X a
    ad2_left = _kron(ad2, one)                 # X -> (a+)^2 X
    ad2_right = _kron(one, ad2.T)              # X -> X (a+)^2
    a2_left = _kron(a2, one)                   # X -> a^2 X
    a2_right = _kron(one, a2.T)                # X -> X a^2

    return [
        ("[jump_z, jump_plus] - jump_plus",
         commutator(g.jump_z, g.jump_plus) - g.jump_plus),
        ("[jump_z, jump_minus] + jump_minus",
         commutator(g.jump_z, g.jump_minus) + g.jump_minus),
        ("[jump_plus, jump_minus] + 2 jump_z",
         commutator(g.jump_plus, g.jump_minus) + 2.0 * g.jump_z),
        ("[pair_z, pair_plus] - pair_plus",
         commutator(g.pair_z, g.pair_plus) - g.pair_plus),
        ("[pair_z, pair_minus] + pair_minus",
         commutator(g.pair_z, g.pair_minus) + g.pair_minus),
        ("[pair_plus, pair_minus] - 2 pair_z",
         commutator(g.pair_plus, g.pair_minus) - 2.0 * g.pair_z),
        ("[sym_z, sym_plus] - sym_plus",
         commutator(g.sym_z, g.sym_plus) - g.sym_plus),
        ("[sym_z, sym_minus] + sym_minus",
         commutator(g.sym_z, g.sym_minus) + g.sym_minus),
        ("[sym_plus, sym_minus] + 2 sym_z",
         commutator(g.sym_plus, g.sym_minus) + 2.0 * g.sym_z),
        ("[squeeze_z, squeeze_plus] - squeeze_plus",
         commutator(g.squeeze_z, g.squeeze_plus) - g.squeeze_plus),
        ("[squeeze_z, squeeze_minus] + squeeze_minus",
         commutator(g.squeeze_z, g.squeeze_minus) + g.squeeze_minus),
        ("[squeeze_plus, squeeze_minus]",
         commutator(g.squeeze_plus, g.squeeze_minus)),
        ("[pair_plus, sym_plus]",
         commutator(g.pair_plus, g.sym_plus)),
        ("[pair_minus, sym_minus]",
         commutator(g.pair_minus, g.sym_minus)),
        ("[squeeze_z, jump_z]",
         commutator(g.squeeze_z, g.jump_z)),
        ("[squeeze_z, jump_plus]",
         commutator(g.squeeze_z, g.jump_plus)),
        ("[squeeze_z, jump_minus]",
         commutator(g.squeeze_z, g.jump_minus)),
        ("[jump_z, squeeze_plus] + (ad2_left - ad2_right)/2",
         commutator(g.jump_z, g.squeeze_plus) + 0.5 * (ad2_left - ad2_right)),
        ("[jump_z, squeeze_minus] - (a2_left - a2_right)/2",
         commutator(g.jump_z, g.squeeze_minus) - 0.5 * (a2_left - a2_right)),
        ("[jump_plus, squeeze_plus] - (ad_x_ad - ad2_left)",
         commutator(g.jump_plus, g.squeeze_plus) - (ad_x_ad - ad2_left)),
        ("[jump_plus, squeeze_minus] - (a_x_a - a2_right)",
         commutator(g.jump_plus, g.squeeze_minus) - (a_x_a - a2_right)),
        ("[jump_minus, squeeze_plus] - (ad2_right - ad_x_ad)",
         commutator(g.jump_minus, g.squeeze_plus) - (ad2_right - ad_x_ad)),
        ("[jump_minus, squeeze_minus] - (a2_left - a_x_a)",
         commutator(g.jump_minus, g.squeeze_minus) - (a2_left - a_x_a)),
    ]


def verify_algebra(ops_or_gen, margin: int = 2) -> AlgebraReport:
    """Interior-projected residual for every commutation identity.

    Accepts either FockOperators, whose dim and theta select the CSR
    generators of cached_generators, or an existing SuperOpGenerators,
    CSR or dense (the ladder operators for the right-hand sides are then
    rebuilt from its dim and theta).  The residual for each
    identity is the Frobenius norm of P (computed - expected) P with P the
    interior projector at the given margin; margin 2 is enough to remove
    every truncation artifact because no generator moves a slot index by
    more than 2.
    """
    if isinstance(ops_or_gen, SuperOpGenerators):
        gen = ops_or_gen
        ops = build_fock_ops(gen.dim, gen.theta)
    else:
        ops = ops_or_gen
        gen = cached_generators(ops.dim, ops.theta)
    d = gen.dim
    empty = margin >= d
    entries = [IdentityResidual(label, projected_residual(delta, d, margin))
               for label, delta in _identity_table(gen, ops)]
    return AlgebraReport(dim=d, margin=int(margin), empty_interior=empty,
                         entries=entries)
