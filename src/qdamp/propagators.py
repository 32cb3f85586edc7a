"""Exact and factorized time-evolution maps for the damped oscillator.

The generator splits into a jump part (rates mu, nu over the su(1,1) jump
family) and a phase/two-photon part (omega, kappa over squeeze_z and the
commuting squeeze pair).  Each part exponentiates in closed form:

  jump part      exp of the weighted jump family disentangles into
                 raising-exponential x diagonal core x lowering-exponential
                 with the scalar weights pump, scale, decay from
                 coefficients.py; the diagonal core is scale**(-n1-n2-1).
  phase part     exp(squeeze_up * squeeze_plus) . exp(phase * squeeze_z)
                 . exp(squeeze_down * squeeze_minus); since squeeze_plus and
                 squeeze_minus commute there is no ordering ambiguity beyond
                 the diagonal, and each exponential is a terminating series
                 (the ladder matrices are nilpotent at any truncation).

factorized_superop multiplies the two closed forms; the product differs
from the exact exponential only because the two parts do not commute, so
the error is second order in t locally and first order globally, and
vanishes identically when kappa == 0 (the phase part then commutes with the
jump part).  alternative_superop reorders the splitting so the two-photon
raising and lowering exponentials sit on the outside.

operator_series_solution evaluates the same factorized map directly on the
density matrix as nested finite sums of ladder sandwiches, never forming a
d^2 x d^2 matrix; it must agree with factorized_superop to roundoff and
is kept as an independent implementation route for exactly that check.

Every map here multiplies a vectorized state by construction, so a state
whose population stays away from the truncation edge preserves trace and
Hermiticity to working precision; every result reports its diagnostics on
access rather than asserting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import build_generators
from .coefficients import eval_coefficients
from .diagnostics import DiagnosticsRecord, state_diagnostics
from .linalg import as_complex_matrix, expm, kron
from .liouvillian import (ModelParams, build_liouvillian,
                          build_liouvillian_trace_exact)
from .vectorize import unvec, vec

STATE_TRACE_TOL = 1e-10

SUPEROP_METHODS = ("exact", "factorized", "alternative")
METHODS = SUPEROP_METHODS + ("series",)


@dataclass(frozen=True)
class PropagationResult:
    rho_t: np.ndarray
    method: str
    t: float

    @property
    def diagnostics(self) -> DiagnosticsRecord:
        """state_diagnostics(rho_t) at the default margin, computed on access."""
        return state_diagnostics(self.rho_t)


def _check_state(rho0, dim: int) -> np.ndarray:
    rho0 = as_complex_matrix(rho0, "rho0")
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 must be {dim} x {dim}, got {rho0.shape}")
    tr = complex(np.trace(rho0))
    if abs(tr - 1.0) > STATE_TRACE_TOL:
        raise ValueError(f"rho0 trace must be 1 within {STATE_TRACE_TOL}, got {tr}")
    return rho0


def _check_time(t) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


def _terminating_expm(m: np.ndarray, cap: int) -> np.ndarray:
    """exp(m) for nilpotent m via its finite series (cap bounds the order)."""
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = out
    for k in range(1, cap + 1):
        term = (term @ m) / k
        if not term.any():
            break
        out = out + term
    return out


def _total_index(dim: int) -> np.ndarray:
    """n1 + n2 per flat slot."""
    levels = np.arange(dim, dtype=np.float64)
    return np.add.outer(levels, levels).reshape(-1)


def _index_difference(dim: int) -> np.ndarray:
    """n1 - n2 per flat slot."""
    levels = np.arange(dim, dtype=np.float64)
    return np.subtract.outer(levels, levels).reshape(-1)


def su11_factor(params: ModelParams, t: float) -> np.ndarray:
    """Closed-form exponential of the weighted jump family.

    Returns exp(t (-(mu+nu) jump_z + nu jump_plus + mu jump_minus)) as the
    disentangled product

        exp(pump * jump_plus) . diag(scale**(-n1-n2-1)) . exp(decay * jump_minus)

    (the 1/scale from the central weight is folded into the diagonal).  At
    t == 0 this is the identity.  The disentangling identity is exact in the
    untruncated algebra; at finite dim the product and the direct matrix
    exponential agree on interior-supported states, which is verified
    against expm in the test suite.
    """
    t = _check_time(t)
    c = eval_coefficients(params, t)
    g = build_generators(params.fock_ops())
    d = params.dim
    up = _terminating_expm(c.pump * g.jump_plus, d)
    down = _terminating_expm(c.decay * g.jump_minus, d)
    core = c.scale ** (-(_total_index(d) + 1.0))
    return up @ (core[:, None] * down)


def l_factor(params: ModelParams, t: float, split: bool = False) -> np.ndarray:
    """Closed-form exponential of the phase/two-photon part.

    Returns exp(t (-2i omega squeeze_z + conj(kappa) squeeze_plus
    + kappa squeeze_minus)).  With split=False the three-factor product over
    the squeeze family is used.  split=True expands each squeeze exponential
    into its pair and sym halves (they commute), giving the six-factor form

        exp(f pair_plus) . (S_up (x) S_up^T) . diag phases .
        exp(l pair_minus) . (S_dn (x) S_dn^T)

    with S_up = exp(-f/2 (a+)^2), S_dn = exp(-l/2 a^2); both routes agree to
    roundoff and are tested against each other and against expm.
    """
    t = _check_time(t)
    c = eval_coefficients(params, t)
    ops = params.fock_ops()
    g = build_generators(ops)
    d = params.dim
    phases = np.exp(0.5 * c.phase * _index_difference(d))
    if not split:
        up = _terminating_expm(c.squeeze_up * g.squeeze_plus, d)
        down = _terminating_expm(c.squeeze_down * g.squeeze_minus, d)
        return up @ (phases[:, None] * down)
    s_up = _terminating_expm(-0.5 * c.squeeze_up * (ops.a_dag @ ops.a_dag), d)
    s_dn = _terminating_expm(-0.5 * c.squeeze_down * (ops.a @ ops.a), d)
    pair_up = _terminating_expm(c.squeeze_up * g.pair_plus, d)
    pair_dn = _terminating_expm(c.squeeze_down * g.pair_minus, d)
    return (pair_up @ kron(s_up, s_up.T)
            @ (phases[:, None] * (pair_dn @ kron(s_dn, s_dn.T))))


def exact_superop(params: ModelParams, t: float, form: str = "cyclic") -> np.ndarray:
    """Reference propagator exp(t L) by dense matrix exponential.

    The default generator is the cyclic-trace assembly, which is
    annihilated by the trace functional exactly; pass form="I"/"II"/"III"
    to exponentiate one of the regrouped literal forms instead (those
    carry a trace defect confined to the top corner slot).
    """
    t = _check_time(t)
    if form == "cyclic":
        gen = build_liouvillian_trace_exact(params)
    else:
        gen = build_liouvillian(params, form)
    return expm(t * gen)


def factorized_superop(params: ModelParams, t: float) -> np.ndarray:
    """Jump factor times phase factor, with the scalar prefactor attached."""
    t = _check_time(t)
    pref = math.exp(0.5 * (params.mu - params.nu) * t)
    return pref * (su11_factor(params, t) @ l_factor(params, t))


def alternative_superop(params: ModelParams, t: float) -> np.ndarray:
    """Splitting with the two-photon exponentials moved outside.

    exp(t conj(kappa) squeeze_plus) . exp(t (phase + jump) generator)
    . exp(t kappa squeeze_minus), where the middle factor is computed in
    closed form as the phase diagonal times the jump-family product (legal
    because squeeze_z commutes with the whole jump family, even truncated).

    Unlike the factorized route, this product preserves Hermiticity only
    to the splitting order: taking adjoints swaps the two outer factors,
    so the residual grows as O(t^2 |kappa|^2).  At kappa=0 it degenerates
    to the factorized map exactly.
    """
    t = _check_time(t)
    g = build_generators(params.fock_ops())
    d = params.dim
    pref = math.exp(0.5 * (params.mu - params.nu) * t)
    outer_up = _terminating_expm(t * params.kappa.conjugate() * g.squeeze_plus, d)
    outer_dn = _terminating_expm(t * params.kappa * g.squeeze_minus, d)
    phases = np.exp(-1j * params.omega * t * _index_difference(d))
    middle = phases[:, None] * su11_factor(params, t)
    return pref * (outer_up @ middle @ outer_dn)


def propagate_exact(params: ModelParams, rho0, t: float) -> PropagationResult:
    """The dense-exponential reference route; propagate(..., "exact")."""
    return propagate(params, rho0, t, "exact")


def operator_series_solution(params: ModelParams, rho0, t: float) -> PropagationResult:
    """The factorized map evaluated as nested ladder-sandwich sums.

    Works directly on d x d matrices: two-photon lowering layer, phase
    rotation, two-photon raising layer, then decay-jump sum, diagonal
    rescale, pump-jump sum, and the scalar prefactor.  Algebraically
    identical to factorized_superop; no d^2 x d^2 matrix is ever built.
    """
    rho0 = _check_state(rho0, params.dim)
    t = _check_time(t)
    c = eval_coefficients(params, t)
    ops = params.fock_ops()
    a, ad = ops.a, ops.a_dag
    d = params.dim
    levels = np.arange(d)

    # phase part: lowering layer, phase diagonal, raising layer
    s_dn = _terminating_expm(-0.5 * c.squeeze_down * (a @ a), d)
    x = s_dn @ rho0 @ s_dn
    x = _sandwich_sum(x, a, a, c.squeeze_down, d)
    half_phase = np.exp(0.5 * c.phase * levels)
    x = half_phase[:, None] * x * (1.0 / half_phase)[None, :]
    s_up = _terminating_expm(-0.5 * c.squeeze_up * (ad @ ad), d)
    x = s_up @ x @ s_up
    x = _sandwich_sum(x, ad, ad, c.squeeze_up, d)

    # jump part: decay sum, diagonal core, pump sum
    x = _sandwich_sum(x, a, ad, c.decay, d)
    core = c.scale ** (-levels.astype(np.float64))
    x = core[:, None] * x * core[None, :]
    x = _sandwich_sum(x, ad, a, c.pump, d)

    x *= math.exp(0.5 * (params.mu - params.nu) * t) / c.scale
    return _result(x, "series", t)


def _sandwich_sum(x: np.ndarray, left: np.ndarray, right: np.ndarray,
                  weight: complex, cap: int) -> np.ndarray:
    """sum_k weight^k / k! . left^k @ x @ right^k (terminates by nilpotency)."""
    out = x.copy()
    term = x
    for k in range(1, cap + 1):
        term = (weight / k) * (left @ term @ right)
        if not term.any():
            break
        out = out + term
    return out


def stepped_propagate(params: ModelParams, rho0, t: float, n_steps: int,
                      method: str = "factorized") -> PropagationResult:
    """Apply the single-step map for t/n_steps repeatedly.

    For the exact method this is a semigroup identity check; for the
    splittings the global error shrinks like 1/n_steps.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    rho0 = _check_state(rho0, params.dim)
    t = _check_time(t)
    dt = t / n_steps
    if method == "series":
        rho = rho0
        for _ in range(n_steps):
            rho = operator_series_solution(params, rho, dt).rho_t
        return _result(rho, "series", t)
    step = _superop(params, dt, method)
    v = vec(rho0)
    for _ in range(n_steps):
        v = step @ v
    return _result(unvec(v), method, t)


def _superop(params: ModelParams, t: float, method: str) -> np.ndarray:
    # Builders are looked up as module attributes at call time, not captured
    # in a table, so a caller that rebinds one (a tracer, a test) is seen.
    if method == "exact":
        return exact_superop(params, t)
    if method == "factorized":
        return factorized_superop(params, t)
    if method == "alternative":
        return alternative_superop(params, t)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def propagate(params: ModelParams, rho0, t: float, method: str = "exact") -> PropagationResult:
    """Evolve rho0 to time t by one of the routes named in METHODS."""
    if method == "series":
        return operator_series_solution(params, rho0, t)
    rho0 = _check_state(rho0, params.dim)
    return _result(unvec(_superop(params, t, method) @ vec(rho0)), method, t)


def _result(rho_t: np.ndarray, method: str, t: float) -> PropagationResult:
    return PropagationResult(rho_t=rho_t, method=method, t=float(t))
