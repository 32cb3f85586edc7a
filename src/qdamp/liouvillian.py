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
(nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]).  Both read one weighted sum
(_weighted_sum) of algebra.cached_generators, the CSR generators built
once per (dim, theta).  build_liouvillian densifies it; the trace-exact
generator stays CSR (about 9 nonzeros per row), since the exact route
slices its parity blocks and applies them sparse, and callers that need
a dense matrix call .toarray() on it.  The tests check them
against the literal forms I and II, built from Kronecker products of the
ladder matrices without those generators (tests/oracles.py), and against
the master equation's right-hand side by plain matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# build_generators (the dense view) is not called here; perfbench's tracer
# wraps it under this module's name, so the name stays importable.
from .algebra import build_generators, cached_generators  # noqa: F401
from .fock import FockOperators, build_fock_ops, check_dim
from .linalg import check_complex, check_real

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


def _weighted_sum(p: ModelParams) -> sp.csr_array:
    """build_liouvillian in CSR: the rates times the generator families."""
    g = cached_generators(p.dim, p.theta)
    eye2 = sp.eye_array(p.dim * p.dim, dtype=np.complex128, format="csr")
    return (0.5 * (p.mu - p.nu) * eye2
            - (p.mu + p.nu) * g.jump_z
            + p.nu * g.jump_plus
            + p.mu * g.jump_minus
            - 2j * p.omega * g.squeeze_z
            + p.kappa.conjugate() * g.squeeze_plus
            + p.kappa * g.squeeze_minus)


def build_liouvillian(params: ModelParams) -> np.ndarray:
    """The dense d^2 x d^2 generator: the rates times the generator families."""
    return _weighted_sum(params).toarray()


def build_liouvillian_trace_exact(params: ModelParams) -> sp.csr_array:
    """The CSR generator with the pumping channel's a a+ kept truncated.

    build_liouvillian plus the diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]):
    a a+ equals n + 1 - d on the top level, which build_liouvillian
    drops.  With it, vec(identity) annihilates every column exactly.
    """
    d = params.dim
    top = (np.arange(d) == d - 1).astype(np.float64)
    edge = 0.5 * params.nu * d * np.add.outer(top, top).reshape(-1)
    return _weighted_sum(params) + sp.diags_array(edge)
