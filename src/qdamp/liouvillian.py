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

build_liouvillian returns the d^2 x d^2 generator in one of three
deliberately independent assemblies:

  form I    raw sandwich superoperators, one term per master-equation term;
  form II   the same terms regrouped around number-plus-half and jump maps;
  form III  a weighted sum of the named generator families from algebra.py.

The three agree entrywise to roundoff; keeping them separate turns that
agreement into a real test of the generator decomposition.  All three
inherit one known truncation artifact: the pumping channel enters through
the identity "a a+ = n + 1", which fails at the highest Fock level, so the
trace functional annihilates the generator on every slot except the corner
(d-1, d-1), where the row picks up exactly -nu*d.  For states with no
population at the truncation edge this is invisible.

build_liouvillian_trace_exact, the generator of the exact route, keeps
a a+ as the truncated product, which restores exact trace annihilation:
it is form III plus the diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]).
Both read one weighted sum (_weighted_sum) of algebra.cached_generators,
the CSR generators built once per (dim, theta), and densify it once.
Forms I and II, and the plain-matrix right-hand side in the tests, check
it without those generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

# build_generators (the dense view) is not called here; perfbench's tracer
# wraps it under this module's name, so the name stays importable.
from .algebra import build_generators, cached_generators  # noqa: F401
from .fock import FockOperators, build_fock_ops
from .linalg import frobenius_norm
from .vectorize import sandwich_superop

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
            v = getattr(self, name)
            if isinstance(v, complex):
                raise ValueError(f"{name} must be real, got {v!r}")
            try:
                fv = float(v)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a real number, got {v!r}") from None
            if not math.isfinite(fv):
                raise ValueError(f"{name} must be finite, got {fv}")
            object.__setattr__(self, name, fv)
        k = complex(self.kappa)
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise ValueError("kappa must be finite")
        object.__setattr__(self, "kappa", k)
        if self.mu < 0.0 or self.nu < 0.0:
            raise ValueError(f"rates must be >= 0, got mu={self.mu}, nu={self.nu}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def positivity_satisfied(self) -> bool:
        return self.mu * self.nu + POSITIVITY_SLACK >= abs(self.kappa) ** 2

    def require_positivity(self) -> None:
        if not self.positivity_satisfied:
            raise PositivityError(
                f"mu*nu = {self.mu * self.nu:.6g} < |kappa|^2 = {abs(self.kappa) ** 2:.6g}; "
                "the map is not completely positive (use permissive mode to proceed)")

    def fock_ops(self) -> FockOperators:
        return build_fock_ops(self.dim, self.theta)


def _form_one(p: ModelParams) -> np.ndarray:
    ops = p.fock_ops()
    a, ad, n, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2, ad2 = a @ a, ad @ ad
    n1 = n + one
    k, kc = p.kappa, p.kappa.conjugate()
    out = -1j * p.omega * (np.kron(n, one) - np.kron(one, n.T))
    out -= 0.5 * p.mu * (np.kron(n, one) + np.kron(one, n.T) - 2.0 * sandwich_superop(a, ad))
    out -= 0.5 * p.nu * (np.kron(n1, one) + np.kron(one, n1.T) - 2.0 * sandwich_superop(ad, a))
    out -= 0.5 * k * (np.kron(a2, one) + np.kron(one, a2.T) - 2.0 * sandwich_superop(a, a))
    out -= 0.5 * kc * (np.kron(ad2, one) + np.kron(one, ad2.T) - 2.0 * sandwich_superop(ad, ad))
    return out


def _form_two(p: ModelParams) -> np.ndarray:
    ops = p.fock_ops()
    a, ad, n, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2, ad2 = a @ a, ad @ ad
    k, kc = p.kappa, p.kappa.conjugate()
    eye2 = np.kron(one, one)
    out = 0.5 * (p.mu - p.nu) * eye2
    out -= 0.5 * (p.mu + p.nu) * (np.kron(n, one) + np.kron(one, n.T) + eye2)
    out += p.nu * sandwich_superop(ad, a) + p.mu * sandwich_superop(a, ad)
    out -= 1j * p.omega * (np.kron(n, one) - np.kron(one, n.T))
    out += kc * (sandwich_superop(ad, ad) - 0.5 * (np.kron(ad2, one) + np.kron(one, ad2.T)))
    out += k * (sandwich_superop(a, a) - 0.5 * (np.kron(a2, one) + np.kron(one, a2.T)))
    return out


def _weighted_sum(p: ModelParams) -> sp.csr_array:
    """Form III in CSR: the rates times the generator families."""
    g = cached_generators(p.dim, p.theta)
    eye2 = sp.eye_array(p.dim * p.dim, dtype=np.complex128, format="csr")
    return (0.5 * (p.mu - p.nu) * eye2
            - (p.mu + p.nu) * g.jump_z
            + p.nu * g.jump_plus
            + p.mu * g.jump_minus
            - 2j * p.omega * g.squeeze_z
            + p.kappa.conjugate() * g.squeeze_plus
            + p.kappa * g.squeeze_minus)


def _form_three(p: ModelParams) -> np.ndarray:
    return _weighted_sum(p).toarray()


_FORMS = {"I": _form_one, "II": _form_two, "III": _form_three}


def build_liouvillian(params: ModelParams, form: str = "III") -> np.ndarray:
    """The d^2 x d^2 generator in one of the three literal assemblies."""
    try:
        builder = _FORMS[form]
    except KeyError:
        raise ValueError(f"form must be one of {sorted(_FORMS)}, got {form!r}") from None
    return builder(params)


def build_liouvillian_trace_exact(params: ModelParams) -> np.ndarray:
    """The dense generator with the pumping channel's a a+ kept truncated.

    Form III plus the diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]):
    a a+ equals n + 1 - d on the top level, which the literal forms
    drop.  With it, vec(identity) annihilates every column exactly.
    """
    d = params.dim
    top = (np.arange(d) == d - 1).astype(np.float64)
    edge = 0.5 * params.nu * d * np.add.outer(top, top).reshape(-1)
    return (_weighted_sum(params) + sp.diags_array(edge)).toarray()


def phase_equivalence_check(params: ModelParams) -> float:
    """Frobenius gap between the theta model and its phase-absorbed twin.

    Rotating the ladder phase is the same as rotating kappa by exp(2i theta):
    the returned value should be at roundoff for any parameters.
    """
    rotated = replace(params, theta=0.0,
                      kappa=params.kappa * np.exp(2j * params.theta))
    return frobenius_norm(build_liouvillian(params, "III")
                          - build_liouvillian(rotated, "III"))
