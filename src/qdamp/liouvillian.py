"""Model parameters and the vectorized evolution generator.

The master equation evolved here is

    d rho/dt = -i omega [n, rho]
               - mu/2  (n rho + rho n - 2 a rho a+)
               - nu/2  (a a+ rho + rho a a+ - 2 a+ rho a)
               - kappa/2      (a^2 rho + rho a^2 - 2 a rho a)
               - conj(kappa)/2 ((a+)^2 rho + rho (a+)^2 - 2 a+ rho a+)

i.e. damping at rate mu, pumping at rate nu, and a phase-sensitive
two-photon (squeezed-reservoir) channel of complex strength kappa.  The map
is completely positive when mu*nu >= |kappa|**2; strict mode enforces that,
permissive mode lets callers explore the boundary deliberately.

build_liouvillian returns the d^2 x d^2 generator as the weighted sum of
the named generator families from algebra.py (form III).  It
inherits one known truncation artifact: the pumping channel enters
through the identity "a a+ = n + 1", which fails at the highest Fock
level, so the trace functional annihilates the generator on every slot
except the corner (d-1, d-1), where the row picks up exactly -nu*d.  For
states with no population at the truncation edge this is invisible.

build_liouvillian_trace_exact, the generator of the exact route, keeps
a a+ as the truncated product, which restores exact trace annihilation:
it is build_liouvillian plus the diagonal
(nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]).  The families depend on dim and
theta alone and the rates only weight them, so every such generator at
one (dim, theta) has one sparsity pattern.  generator_template builds it
once, from the CSR generators of algebra.cached_generators and without
densifying, with the positions of each family's entries in it and its
two parity classes of n1 + n2 (vectorize.slot_levels; every family
moves n1 + n2 by 0 or +-2), whose direct sums are linalg.direct_sum's.
A model is then only its stored entries (_entries): each family's CSR
data times its rate, scatter-added in one fixed order, which keeps the
bits of the sequential CSR sum of the scaled families.
build_liouvillian densifies them; the trace-exact generator is the
template's CSR matrix with them (about 9 nonzeros per row), whose data
the exact route cuts into its parity blocks by the template's classes.
Callers that need a dense matrix call .toarray().  The tests check them against the literal forms
I and II, built from Kronecker products of the ladder matrices without
those generators, against the sequential CSR sum, bit for bit
(tests/oracles.py), and against the master equation's right-hand side
by plain matrix products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# build_generators (the dense view) is not called here; perfbench's tracer
# wraps it under this module's name, so the name stays importable.
from .algebra import build_generators, cached_generators  # noqa: F401
from .fock import FockOperators, build_fock_ops, check_dim
from .linalg import check_complex, check_real, direct_sum, entry_rows
from .vectorize import slot_levels

# relative: strict mode admits mu*nu (1 + slack) >= |kappa|^2 at any rate scale
POSITIVITY_SLACK = 1e-12


class PositivityError(ValueError):
    """The requested model violates mu*nu >= |kappa|**2 in strict mode."""


@dataclass(frozen=True)
class ModelParams:
    """Oscillator frequency, dissipation rates, ladder phase, truncation."""

    omega: float
    mu: float
    nu: float
    kappa: complex
    dim: int
    theta: float = 0.0

    def __post_init__(self):
        for name in ("omega", "mu", "nu", "theta"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "kappa", check_complex(self.kappa, "kappa"))
        if self.mu < 0.0 or self.nu < 0.0:
            raise ValueError(f"rates must be >= 0, got mu={self.mu}, nu={self.nu}")
        object.__setattr__(self, "dim", check_dim(self.dim))

    @property
    def positivity_satisfied(self) -> bool:
        # k * k, not k ** 2, which raises OverflowError where the product
        # is inf (from |kappa| of about 1.3e154 on)
        k = abs(self.kappa)
        return self.mu * self.nu * (1.0 + POSITIVITY_SLACK) >= k * k

    def require_positivity(self) -> None:
        if not self.positivity_satisfied:
            raise PositivityError(
                f"mu*nu = {self.mu * self.nu:.6g} < |kappa|^2 = "
                f"{abs(self.kappa) * abs(self.kappa):.6g}; "
                "the map is not completely positive (use permissive mode to proceed)")

    def fock_ops(self) -> FockOperators:
        return build_fock_ops(self.dim, self.theta)


# The generator families of the weighted sum, after the identity; _rates
# gives the weight of each, and their entries are added in this order.
_FAMILIES = ("jump_z", "jump_plus", "jump_minus", "squeeze_z", "squeeze_plus",
             "squeeze_minus")


def _rates(p: ModelParams) -> tuple:
    """The weight of the identity, then of each of _FAMILIES."""
    return (0.5 * (p.mu - p.nu), -(p.mu + p.nu), p.nu, p.mu, -2j * p.omega,
            p.kappa.conjugate(), p.kappa)


@dataclass(frozen=True, eq=False)
class ParityClass:
    """The slots of vec(rho) whose n1 + n2 has one parity, ascending, and
    the CSR pattern of the generator's block on them.

    entries picks the block's stored entries, in CSR order, out of the
    generator's; diagonal picks each row's diagonal entry out of the
    block's.
    """

    slots: np.ndarray
    entries: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray

    def direct_sum(self, blocks) -> sp.csr_array:
        """linalg.direct_sum of the blocks, in order, each given by its
        entries (a generator's entries[self.entries])."""
        n = self.slots.size
        return direct_sum([sp.csr_array((b, self.indices, self.indptr), shape=(n, n))
                           for b in blocks], n)


@dataclass(frozen=True, eq=False)
class GeneratorTemplate:
    """The CSR pattern of every trace-exact generator at one (dim, theta).

    terms pairs each term of the weighted sum (the identity, then
    _FAMILIES) with the positions of its stored entries in the pattern;
    the entries are the term's own CSR data.  diagonal is the position
    of each slot's diagonal entry, and edge each slot's count
    1[n1 = d-1] + 1[n2 = d-1].  classes are the even and the odd parity
    class.
    """

    indices: np.ndarray
    indptr: np.ndarray
    terms: tuple
    diagonal: np.ndarray
    edge: np.ndarray
    classes: tuple

    def csr(self, entries: np.ndarray) -> sp.csr_array:
        """The CSR matrix of this pattern with the given stored entries."""
        size = self.indptr.size - 1
        return sp.csr_array((entries, self.indices, self.indptr), shape=(size, size))


@functools.lru_cache(maxsize=8)
def generator_template(dim: int, theta: float) -> GeneratorTemplate:
    """The GeneratorTemplate at (dim, theta), built once from the CSR
    entries of algebra.cached_generators, then shared; no dense matrix is
    formed.  Callers never modify its arrays in place."""
    g = cached_generators(dim, theta)
    size = dim * dim
    terms = [sp.eye_array(size, dtype=np.complex128, format="csr")]
    terms += [getattr(g, name) for name in _FAMILIES]
    # the union of the terms' patterns, in CSR order: no entry of a sum of
    # positive weights cancels
    union = sum(abs(m) for m in terms)
    index = union.indices.dtype
    rows, cols = entry_rows(union), union.indices
    # every generator moves n1 + n2 by 0 or +-2, so a class's rows reach
    # only its own columns
    n1, n2 = slot_levels(dim)
    parity = (n1 + n2) % 2
    local = np.empty(size, dtype=index)     # a slot's index in its class
    classes = []
    for k in (0, 1):
        slots = np.flatnonzero(parity == k)
        local[slots] = np.arange(slots.size)
        entries = np.flatnonzero(parity[rows] == k).astype(index)
        r, c = local[rows[entries]], local[cols[entries]]
        classes.append(ParityClass(
            slots, entries, c, np.searchsorted(r, np.arange(slots.size + 1)).astype(index),
            np.flatnonzero(r == c).astype(index)))
    keys = rows * size + cols     # int64, ascending: union is canonical
    return GeneratorTemplate(
        indices=cols, indptr=union.indptr,
        terms=tuple((np.searchsorted(keys, entry_rows(m) * size + m.indices)
                     .astype(index), m) for m in terms),
        diagonal=np.flatnonzero(rows == cols).astype(index),
        # a count, not a logical or: the corner slot is on both edges
        edge=np.add(n1 == dim - 1, n2 == dim - 1, dtype=float), classes=tuple(classes))


def _entries(p: ModelParams, edge: bool) -> np.ndarray:
    """The generator's stored entries in its template's pattern.

    Each term's CSR data times its rate, array first, as scipy.sparse
    scales a matrix, added onto zeros in _rates' order, then with edge the
    trace-exact diagonal.  numpy rounds a complex product by operand
    order, and with FMA by where the entry sits in its array; so these
    are the entries of the CSR sum of the scaled terms, bit for bit.
    Sums onto +0 hold no -0, so no entry differs from that sum's in the
    sign of a zero either; an entry the sum drops as exactly 0 is a
    stored 0 here.
    """
    tpl = generator_template(p.dim, p.theta)
    out = np.zeros(tpl.indices.size, dtype=np.complex128)
    for (positions, term), rate in zip(tpl.terms, _rates(p)):
        out[positions] += term.data * rate
    if edge:
        out[tpl.diagonal] += 0.5 * p.nu * p.dim * tpl.edge
    return out


def build_liouvillian(params: ModelParams) -> np.ndarray:
    """The dense d^2 x d^2 generator: the rates times the generator families."""
    tpl = generator_template(params.dim, params.theta)
    return tpl.csr(_entries(params, edge=False)).toarray()


def build_liouvillian_trace_exact(params: ModelParams) -> sp.csr_array:
    """The CSR generator with the pumping channel's a a+ kept truncated.

    build_liouvillian plus the diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]):
    a a+ equals n + 1 - d on the top level, which build_liouvillian
    drops.  With it, vec(identity) annihilates every column exactly.
    """
    tpl = generator_template(params.dim, params.theta)
    return tpl.csr(_entries(params, edge=True))
