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
margin 2 (read off each slot's levels, vectorize.slot_levels) removes
exactly the affected entries; verify_algebra reports the projected
residuals, computed on the CSR generators.  The dim and theta of its
one input, FockOperators, select the 23-row identity table, built once
per (dim, theta).  It is evaluated as seven CSR products, one per row
group (each family's three rows, the commuting pairs, two groups of
sandwich rows): [A, B] + C on the direct sums (linalg.direct_sum) of the
group's A, B and C, whose diagonal blocks are the rows' own products
entry for entry.  Each residual is read from its block's stored entries
whose row (linalg.entry_rows) and column slots are both interior, the
one rule projected_residual applies to any input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import FockOperators, build_fock_ops
from .linalg import check_margin, direct_sum, entry_rows
from .vectorize import slot_levels


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
    """Boolean mask over the slots of vec keeping n1 and n2 <= dim-1-margin;
    all False (no slot survives projection) for margin >= dim."""
    top = dim - 1 - check_margin(margin)
    n1, n2 = slot_levels(dim)
    return (n1 <= top) & (n2 <= top)


def projected_residual(delta, dim: int, margin: int) -> float:
    """Frobenius norm of P @ delta @ P without materializing P.

    delta is a dense ndarray or a scipy.sparse array.  Either is measured
    as CSR, on its stored entries whose row and column slots are both
    interior, in CSR order (_interior_norms), so no submatrix is built and
    the program is spared the import of scipy.sparse.linalg and the
    scipy.linalg it pulls in (about 0.14 s and 8.6 MB at start-up).
    """
    mask = interior_mask(dim, margin)
    if np.shape(delta) != (mask.size, mask.size):
        raise ValueError(f"delta must be {mask.size} x {mask.size} at dim {dim}, "
                         f"got {np.shape(delta)}")
    return _interior_norms(sp.csr_array(delta), mask)[0]


def _interior_norms(delta: sp.csr_array, mask: np.ndarray) -> list[float]:
    """Frobenius norm of each mask.size-square diagonal block of delta,
    over the stored entries whose row and column slots are both in mask.

    The entries are read in CSR order; a non-canonical delta (unsorted
    indices or duplicates) is summed on a copy first, so the caller's
    array is left as it is.  The one residual rule: projected_residual
    reads one block, verify_algebra a direct sum of a row group's.
    """
    if not delta.has_canonical_format:
        delta = delta.copy()
        delta.sum_duplicates()
    n = mask.size
    keep = mask[entry_rows(delta) % n] & mask[delta.indices % n]
    kept = delta.data[keep]
    bounds = np.concatenate(([0], np.cumsum(keep)))[delta.indptr[::n]]
    return [float(np.linalg.norm(kept[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class IdentityResidual:
    label: str
    residual: float


@dataclass(frozen=True)
class AlgebraReport:
    """Residual of every identity, and threshold = 2u max ||A||_F ||B||_F over
    their commutators [A, B], u = 2^-53: the roundoff a computed commutator
    carries (Higham, Accuracy and Stability of Numerical Algorithms, 3.5)."""

    dim: int
    margin: int
    empty_interior: bool
    threshold: float
    entries: list[IdentityResidual] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def all_within(self) -> bool:
        """max_residual <= threshold, both as to_text prints them."""
        return float(f"{self.max_residual:.3e}") <= float(f"{self.threshold:.3e}")

    def to_text(self) -> str:
        lines = [f"dim: {self.dim}", f"margin: {self.margin}"]
        if self.empty_interior:
            lines.append("note: interior is empty at this margin; residuals are trivially zero")
        for e in self.entries:
            lines.append(f"{e.label}: {e.residual:.3e}")
        lines.append(f"max_residual: {self.max_residual:.3e}")
        lines.append(f"verdict: {'PASS' if self.all_within() else 'FAIL'} (threshold {self.threshold:.3e})")
        return "\n".join(lines)


# Each family's [plus, minus] + closing * z = 0: jump and sym close as
# su(1,1), pair as su(2), and the squeeze pair commutes (None).
_FAMILIES = (("jump", 2.0), ("pair", -2.0), ("sym", 2.0), ("squeeze", None))
_COMMUTING = (("pair_plus", "sym_plus"), ("pair_minus", "sym_minus"),
              ("squeeze_z", "jump_z"), ("squeeze_z", "jump_plus"),
              ("squeeze_z", "jump_minus"))


@functools.lru_cache(maxsize=8)
def _identity_table(dim: int, theta: float) -> tuple:
    """(row groups, threshold) at (dim, theta), built once, then shared.

    Every identity is a row (label, A, B, C), meaning [A, B] + C = 0, of
    cached_generators(dim, theta), in row groups: each family's three
    rows, the commuting pairs, and the sandwich rows in two groups of
    three (a group's product holds all its rows' buffers at once).

    C is None for a pair that commutes.  Inside each family z raises plus
    by one and lowers minus by one, and [plus, minus] closes on z as
    _FAMILIES says.  Cross-family brackets either vanish or land on
    explicit sandwich combinations, listed last.  threshold is the
    report's, 2u max ||A||_F ||B||_F over the rows.
    """
    g = cached_generators(dim, theta)
    groups = []
    for family, closing in _FAMILIES:
        z, plus, minus = (f"{family}_{s}" for s in ("z", "plus", "minus"))
        gz, gp, gm = (getattr(g, name) for name in (z, plus, minus))
        close = "" if closing is None else f" {'+' if closing > 0 else '-'} 2 {z}"
        groups.append([(f"[{z}, {plus}] - {plus}", gz, gp, -gp),
                       (f"[{z}, {minus}] + {minus}", gz, gm, gm),
                       (f"[{plus}, {minus}]{close}", gp, gm,
                        None if closing is None else closing * gz)])
    groups.append([(f"[{a}, {b}]", getattr(g, a), getattr(g, b), None)
                   for a, b in _COMMUTING])

    ops = build_fock_ops(dim, theta)
    a, a_dag, one = ops.a, ops.a_dag, ops.identity
    a2 = a @ a
    ad2 = a_dag @ a_dag
    ad_x_ad = g.pair_plus                      # X -> a+ X a+
    a_x_a = g.pair_minus                       # X -> a X a
    ad2_left = _kron(ad2, one)                 # X -> (a+)^2 X
    ad2_right = _kron(one, ad2.T)              # X -> X (a+)^2
    a2_left = _kron(a2, one)                   # X -> a^2 X
    a2_right = _kron(one, a2.T)                # X -> X a^2
    groups.append([
        ("[jump_z, squeeze_plus] + (ad2_left - ad2_right)/2",
         g.jump_z, g.squeeze_plus, 0.5 * (ad2_left - ad2_right)),
        ("[jump_z, squeeze_minus] - (a2_left - a2_right)/2",
         g.jump_z, g.squeeze_minus, -0.5 * (a2_left - a2_right)),
        ("[jump_plus, squeeze_plus] - (ad_x_ad - ad2_left)",
         g.jump_plus, g.squeeze_plus, -(ad_x_ad - ad2_left)),
    ])
    groups.append([
        ("[jump_plus, squeeze_minus] - (a_x_a - a2_right)",
         g.jump_plus, g.squeeze_minus, -(a_x_a - a2_right)),
        ("[jump_minus, squeeze_plus] - (ad2_right - ad_x_ad)",
         g.jump_minus, g.squeeze_plus, -(ad2_right - ad_x_ad)),
        ("[jump_minus, squeeze_minus] - (a2_left - a_x_a)",
         g.jump_minus, g.squeeze_minus, -(a2_left - a_x_a)),
    ])
    norms = [np.linalg.norm(x.data) * np.linalg.norm(y.data)
             for group in groups for _, x, y, _ in group]
    return groups, float(np.finfo(float).eps * max(norms))  # eps is 2u


def verify_algebra(ops: FockOperators, margin: int = 2) -> AlgebraReport:
    """Interior-projected residual for every commutation identity.

    ops selects the table by its dim and theta alone (_identity_table,
    over the CSR generators of cached_generators); any other input is a
    TypeError.  The residual for each identity is the Frobenius norm of
    P ([A, B] + C) P with P the interior projector at the given margin;
    margin 2 is enough to remove every truncation artifact because no
    generator moves a slot index by more than 2.  The margin is checked
    before any commutator is formed.

    Each of the table's seven row groups is one CSR product: [A, B] + C
    with A, B and C the direct sums of the group's rows, whose diagonal
    blocks are the rows' own [A, B] + C entry for entry.  Each residual
    is read from its block's stored entries under one interior mask
    (_interior_norms).
    """
    if not isinstance(ops, FockOperators):
        raise TypeError(f"verify_algebra needs FockOperators, got {type(ops).__name__}")
    margin = check_margin(margin)
    d = ops.dim
    groups, threshold = _identity_table(d, ops.theta)
    mask = interior_mask(d, margin)
    entries = []
    for group in groups:
        labels, a, b, c = zip(*group)
        delta = commutator(direct_sum(a, d * d), direct_sum(b, d * d))
        if any(m is not None for m in c):
            delta = delta + direct_sum(c, d * d)
        entries += map(IdentityResidual, labels, _interior_norms(delta, mask))
    return AlgebraReport(dim=d, margin=margin, empty_interior=margin >= d,
                         threshold=threshold, entries=entries)
