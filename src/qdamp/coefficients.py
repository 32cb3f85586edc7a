"""Scalar time-dependent weights entering the factorized propagators.

Two groups of closed-form functions of (model, t):

Hyperbolic group (real, driven by the damping/pumping rates mu, nu):
  scale(t)  = cosh(x) + ((mu+nu)/(mu-nu)) sinh(x),   x = (mu-nu) t / 2
  decay(t)  = (2 mu/(mu-nu)) sinh(x) / scale(t)
  pump(t)   = (2 nu/(mu-nu)) sinh(x) / scale(t)
  prefactor(t) = exp(x), the closed-form maps' scalar factor
decay weights the lowering jump exponential, pump the raising one, and
scale**(-n1-n2-1) is the diagonal core of the jump-family factor.  The
first three have removable singularities at mu == nu, handled by a short
Taylor branch in x (switched at |x| <= 1e-6, far above the distance where
the direct formulas lose digits).  cosh, sinh and exp overflow a double
from |x| of about 709.8 on: hyperbolic_weights raises NumericalError once
one of its three does, and eval_coefficients once any weight does, the
prefactor included, both with one message.

Phase group (complex, driven by omega and the two-photon rate kappa):
  squeeze_up(t)   = conj(kappa) * h(t)
  phase(t)        = -2i omega t
  squeeze_down(t) = kappa * h(t)
with the kernel h(t) = (exp(-2i omega t) - 1)/(-2i omega).  The kernel is
evaluated as exp(-i omega t) * sin(omega t)/omega, which is the same
function without the subtractive cancellation, plus a Taylor branch
t*(1 - i omega t) at |omega t| <= 1e-9.

Useful facts kept as tested invariants: 0 <= decay, pump < 1 and
scale >= 1 for nonnegative rates and times; squeeze_up(kappa) equals
squeeze_down(conj(kappa)); and the t -> 0 slopes reproduce the generator
weights (mu, nu, -(mu+nu), conj(kappa), -2i omega, kappa respectively).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .linalg import NumericalError, check_real, shown

HYPERBOLIC_BRANCH_AT = 1e-6   # on x = (mu - nu) t / 2
PHASE_BRANCH_AT = 1e-9        # on omega * t


@dataclass(frozen=True)
class CoefficientSet:
    """All seven weights evaluated at one time."""

    t: float
    decay: float
    pump: float
    scale: float
    prefactor: float
    squeeze_up: complex
    phase: complex
    squeeze_down: complex


def _overflow(x: float) -> NumericalError:
    """The error of closed-form weights that overflow at x = (mu - nu) t / 2."""
    return NumericalError(
        f"the closed-form weights overflow at (mu - nu) t / 2 = {x:.6g} "
        "(a double holds cosh and exp up to about 709.8); the exact route, "
        "or more steps of a splitting, stay in range")


def hyperbolic_weights(mu: float, nu: float, t: float) -> tuple[float, float, float]:
    """(decay, pump, scale) at time t; valid on both sides of mu == nu.
    NumericalError if one of them overflows or is not finite."""
    x = 0.5 * (mu - nu) * t
    if abs(x) <= HYPERBOLIC_BRANCH_AT:
        return hyperbolic_weights_limit(mu, nu, t)
    try:
        weights = _weights(mu, nu, t, math.sinh(x) / x, math.cosh(x))
    except OverflowError:
        raise _overflow(x) from None
    if not all(math.isfinite(w) for w in weights):
        raise _overflow(x)
    return weights


def hyperbolic_weights_limit(mu: float, nu: float, t: float) -> tuple[float, float, float]:
    """Forced Taylor-branch evaluation, exposed for seam-continuity tests."""
    x = 0.5 * (mu - nu) * t
    x2 = x * x
    return _weights(mu, nu, t, 1.0 + x2 / 6.0 + x2 * x2 / 120.0,
                    1.0 + x2 / 2.0 + x2 * x2 / 24.0)


def _weights(mu: float, nu: float, t: float, sinhc: float,
             cosh: float) -> tuple[float, float, float]:
    """(decay, pump, scale) from sinh(x)/x and cosh(x)."""
    scale = cosh + 0.5 * (mu + nu) * t * sinhc
    return mu * t * sinhc / scale, nu * t * sinhc / scale, scale


def phase_kernel(omega: float, t: float) -> complex:
    """(exp(-2i omega t) - 1)/(-2i omega), cancellation-free."""
    w = omega * t
    if abs(w) <= PHASE_BRANCH_AT:
        return phase_kernel_limit(omega, t)
    return cmath.exp(-1j * w) * math.sin(w) / omega


def phase_kernel_limit(omega: float, t: float) -> complex:
    """Forced small-frequency branch, exposed for seam-continuity tests."""
    return t * (1.0 - 1j * omega * t)


def check_time(t) -> float:
    """t as a float; ValueError unless it is finite and >= 0."""
    t = check_real(t, "t", "finite and >= 0")
    if t < 0.0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


def check_steps(n_steps) -> int:
    """n_steps as an int; ValueError unless it is an integer >= 1."""
    # bool is an int subclass, but True is not a step count
    if (isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral)
            or n_steps < 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {shown(n_steps)}")
    return int(n_steps)


def eval_coefficients(params, t: float) -> CoefficientSet:
    """Evaluate all seven weights for a model at time t >= 0;
    NumericalError if one overflows or is not finite."""
    t = check_time(t)
    x = 0.5 * (params.mu - params.nu) * t
    hyperbolic = hyperbolic_weights(params.mu, params.nu, t)
    try:
        prefactor = math.exp(x)
    except OverflowError:
        raise _overflow(x) from None
    kernel = phase_kernel(params.omega, t)
    c = CoefficientSet(t, *hyperbolic, prefactor, params.kappa.conjugate() * kernel,
                       -2j * params.omega * t, params.kappa * kernel)
    if not all(cmath.isfinite(w) for w in vars(c).values()):
        raise _overflow(x)
    return c
