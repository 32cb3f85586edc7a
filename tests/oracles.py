"""Dense test oracles: independent assemblies the library is checked against.

The program builds its generator once, as the weighted sum of the named
generator families (form III, liouvillian.build_liouvillian), and the
two-photon factor once, as three factors over the squeeze family
(propagators.l_factor).  The assemblies here reach the same matrices by
other formulas, so agreement to roundoff tests the decomposition:

  form I    one Kronecker term per master-equation term;
  form II   the same terms regrouped around number-plus-half and jump maps;
  six-factor l_factor
            each squeeze exponential split into its commuting pair and
            sym halves, each exponentiated densely by scipy's expm.

Also here: sandwich_sum, a ladder sum of the series route as d x d
matrix products, against which its windowed kernel
(propagators._ladder_sum) is checked; and exact_superop_extended, the
exponential of the trace-exact generator in extended precision, for
stiff rates where a double-precision exponential is itself about as far
from exp(t L) as the bars allow.

Forms I and II use no generator family, only np.kron of ladder matrices
with the row-major identity vec(A X B) = np.kron(A, B.T) vec(X).  They
share form III's truncation artifact: the pumping channel enters through
a a+ = n + 1, which fails at the top level.  Every result is a dense
d^2 x d^2 array, so these are for small d only.
"""

import math

import numpy as np
import scipy.linalg

from qdamp.algebra import build_generators
from qdamp.coefficients import eval_coefficients
from qdamp.liouvillian import ModelParams, build_liouvillian_trace_exact


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> A @ X @ B on row-major vec(X)."""
    return np.kron(a, b.T)


def form_one(p: ModelParams) -> np.ndarray:
    """The generator with one Kronecker term per master-equation term."""
    ops = p.fock_ops()
    a, ad, n, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2, ad2 = a @ a, ad @ ad
    n1 = n + one
    k, kc = p.kappa, p.kappa.conjugate()
    out = -1j * p.omega * (np.kron(n, one) - np.kron(one, n.T))
    out -= 0.5 * p.mu * (np.kron(n, one) + np.kron(one, n.T) - 2.0 * _sandwich(a, ad))
    out -= 0.5 * p.nu * (np.kron(n1, one) + np.kron(one, n1.T) - 2.0 * _sandwich(ad, a))
    out -= 0.5 * k * (np.kron(a2, one) + np.kron(one, a2.T) - 2.0 * _sandwich(a, a))
    out -= 0.5 * kc * (np.kron(ad2, one) + np.kron(one, ad2.T) - 2.0 * _sandwich(ad, ad))
    return out


def form_two(p: ModelParams) -> np.ndarray:
    """The same terms regrouped around number-plus-half and jump maps."""
    ops = p.fock_ops()
    a, ad, n, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2, ad2 = a @ a, ad @ ad
    k, kc = p.kappa, p.kappa.conjugate()
    eye2 = np.kron(one, one)
    out = 0.5 * (p.mu - p.nu) * eye2
    out -= 0.5 * (p.mu + p.nu) * (np.kron(n, one) + np.kron(one, n.T) + eye2)
    out += p.nu * _sandwich(ad, a) + p.mu * _sandwich(a, ad)
    out -= 1j * p.omega * (np.kron(n, one) - np.kron(one, n.T))
    out += kc * (_sandwich(ad, ad) - 0.5 * (np.kron(ad2, one) + np.kron(one, ad2.T)))
    out += k * (_sandwich(a, a) - 0.5 * (np.kron(a2, one) + np.kron(one, a2.T)))
    return out


def l_factor_six(p: ModelParams, t: float) -> np.ndarray:
    """l_factor as six dense factors: the pair and sym halves split.

        exp(f pair_plus) . exp(-f sym_plus) . diag phases
        . exp(l pair_minus) . exp(-l sym_minus)

    with f = squeeze_up and l = squeeze_down.  squeeze = pair - sym, and
    the halves of each squeeze generator commute, so this is the
    three-factor product to roundoff.
    """
    c = eval_coefficients(p, t)
    g = build_generators(p.fock_ops())
    levels = np.arange(p.dim, dtype=float)
    phases = np.diag(np.exp(0.5 * c.phase * np.subtract.outer(levels, levels).reshape(-1)))
    ex = scipy.linalg.expm
    return (ex(c.squeeze_up * g.pair_plus) @ ex(-c.squeeze_up * g.sym_plus)
            @ phases @ ex(c.squeeze_down * g.pair_minus)
            @ ex(-c.squeeze_down * g.sym_minus))


def exact_superop_extended(p: ModelParams, t: float) -> np.ndarray:
    """exp(t L) of the trace-exact generator, computed in longdouble.

    The degree-18 Taylor polynomial of t L / 2^s, s the least with a
    1-norm of at most 1/4 (a truncation error below 1e-27), squared s
    times, all in complex longdouble: a 64-bit significand on x86-64,
    where it costs about 0.1 s at d = 8.  Where longdouble is double it
    is no more accurate than scipy's expm.  At rates of 1e3 and d <= 10,
    ||t L||_1 reaches 1e4 to 1e5, and a double-precision exponential
    (exact_superop) can then be nearly 1e-12 in trace distance from
    exp(t L): for one such draw (d = 8, ||t L||_1 = 4.2e4) it is 7.1e-13
    from a 40-digit mpmath exponential, and this oracle 2e-15.
    """
    a = t * build_liouvillian_trace_exact(p).toarray().astype(np.clongdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(4.0 * norm))) if norm > 0 else 0
    a /= np.longdouble(2) ** squarings
    out = term = np.eye(len(a), dtype=np.clongdouble)
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out.astype(np.complex128)


def sandwich_sum(x: np.ndarray, left: np.ndarray, right: np.ndarray,
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
