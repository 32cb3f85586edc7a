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

weighted_sum and trace_exact_generator are the sequential CSR sum of the
generator: every family scaled by scipy, then added one matrix at a
time.  The program reads each model's entries off a cached sparsity
template (liouvillian.generator_template), and the tests check that it
keeps their bits.

Also here: sandwich_sum, a ladder sum of the series route as d x d
matrix products, against which its windowed kernel
(propagators._ladder_sum) is checked; and exact_superop_extended, the
exponential of the trace-exact generator in extended precision, for
stiff rates where a double-precision exponential is itself about as far
from exp(t L) as the bars allow.

The loops the program's kernels rewrote for speed are kept as they
were, with a new array per term, and the tests check that the kernels
keep their bits: series_by_new_terms (propagators._series on a block of
states, now summed in place), taylor_apply_by_new_sums (linalg's
taylor_apply, now summed in place with raw CSR products),
closed_form_all_slots (propagators._closed_form_pass on every slot of
vec(rho), now on the slots the state occupies), and state_record and
state_distance (one state's state_diagnostics and compare_states, now
stacked).

verify_algebra_by_rows is the commutation table one identity at a
time: commutator(A, B) + C per row, measured on the fancy-indexed
interior submatrix with its duplicates summed.  The program evaluates
the same rows as one direct-sum product per row group and reads each
residual from the product's stored entries (algebra.verify_algebra),
and the tests check that it prints the same report.

Forms I and II use no generator family, only np.kron of ladder matrices
with the row-major identity vec(A X B) = np.kron(A, B.T) vec(X).  They
share form III's truncation artifact: the pumping channel enters through
a a+ = n + 1, which fails at the top level.  Every result is a dense
d^2 x d^2 array, so these are for small d only.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from qdamp.algebra import (AlgebraReport, IdentityResidual, _identity_table,
                           build_generators, cached_generators, commutator,
                           interior_mask)
from qdamp.coefficients import eval_coefficients
from qdamp.diagnostics import DiagnosticsRecord
from qdamp.fock import FockOperators
from qdamp.linalg import TAYLOR_TOL
from qdamp.liouvillian import ModelParams, build_liouvillian_trace_exact
from qdamp.propagators import _apply, _closed_form


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


def weighted_sum(p: ModelParams) -> sp.csr_array:
    """Form III in CSR: the rates times the generator families, summed in
    order by scipy.sparse."""
    g = cached_generators(p.dim, p.theta)
    eye2 = sp.eye_array(p.dim * p.dim, dtype=np.complex128, format="csr")
    return (0.5 * (p.mu - p.nu) * eye2
            - (p.mu + p.nu) * g.jump_z
            + p.nu * g.jump_plus
            + p.mu * g.jump_minus
            - 2j * p.omega * g.squeeze_z
            + p.kappa.conjugate() * g.squeeze_plus
            + p.kappa * g.squeeze_minus)


def trace_exact_generator(p: ModelParams) -> sp.csr_array:
    """weighted_sum plus the diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1])."""
    d = p.dim
    top = (np.arange(d) == d - 1).astype(np.float64)
    edge = 0.5 * p.nu * d * np.add.outer(top, top).reshape(-1)
    return weighted_sum(p) + sp.diags_array(edge)


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


def series_by_new_terms(g, w, x, cap: int):
    """exp(w g) x for a nilpotent CSR g and a d^2 x n block x, one weight
    per column, or the sparse identity x and a scalar w: sum_k g^k x w^k
    / k!, each term and each partial sum a new array, up to the first
    term with no nonzero or order cap."""
    out = term = x
    for k in range(1, cap + 1):
        term = (g @ term) * (w / k)
        if not (term.count_nonzero() if sp.issparse(term) else term.any()):
            break
        out = out + term
    return out


def taylor_apply_by_new_sums(plan, x: np.ndarray) -> np.ndarray:
    """linalg.taylor_apply with each product by scipy's `@` and each
    partial sum and |.| a new array."""
    a, out = plan.shifted, x
    eta = np.exp(plan.shift / plan.steps)
    for _ in range(plan.steps):
        c1 = np.abs(x).max()
        for j in range(plan.degree):
            x = (1.0 / (plan.steps * (j + 1))) * (a @ x)
            c2 = np.abs(x).max()
            out = out + x
            if c1 + c2 <= TAYLOR_TOL * np.abs(out).max():
                break
            c1 = c2
        out = x = eta * out
    return out


def closed_form_all_slots(method: str, models, times, x: np.ndarray,
                          n_steps: int) -> np.ndarray:
    """The closed-form pass on every slot of vec x: the stages on all
    slots (the generators of algebra.cached_generators), n_steps times,
    column j under models[j] at times[j]."""
    pref, stages = _closed_form(models, times, method)
    v = np.repeat(x[:, None], len(models), axis=1)
    for _ in range(n_steps):
        v = _apply(stages, v, models[0].dim) * pref
    return v


def state_record(rho: np.ndarray, margin: int) -> DiagnosticsRecord:
    """state_diagnostics of one finite square state, one numpy call per value."""
    d = rho.shape[0]
    diag = np.real(np.diag(rho))
    return DiagnosticsRecord(
        trace=complex(np.trace(rho)),
        herm_residual=float(np.linalg.norm(rho - rho.conj().T)),
        min_eigenvalue=float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]),
        purity=float(np.real(np.trace(rho @ rho))),
        mean_n=float(np.arange(d) @ diag),
        tail_mass=float(diag[max(d - margin, 0):].sum()),
    )


def state_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> tuple[float, float]:
    """compare_states of two finite states of one shape."""
    delta = rho_a - rho_b
    return (float(np.linalg.norm(delta)),
            float(0.5 * np.abs(np.linalg.eigvalsh(0.5 * (delta + delta.conj().T))).sum()))


def verify_algebra_by_rows(ops: FockOperators, margin: int) -> AlgebraReport:
    """verify_algebra on the rows of ops's cached identity table
    (algebra._identity_table), one identity at a time.

    Each row's residual is the norm of the stored entries of
    (commutator(A, B) + C)[ix_(mask, mask)] with duplicates summed; the
    threshold is 2u max ||A||_F ||B||_F over the rows, recomputed here.
    """
    mask = interior_mask(ops.dim, margin)
    groups, _ = _identity_table(ops.dim, ops.theta)
    rows = [row for group in groups for row in group]
    entries = []
    for label, a, b, c in rows:
        delta = commutator(a, b) if c is None else commutator(a, b) + c
        residual = 0.0
        if mask.any():
            sub = sp.csr_array(delta[np.ix_(mask, mask)])
            sub.sum_duplicates()
            residual = float(np.linalg.norm(sub.data))
        entries.append(IdentityResidual(label, residual))
    threshold = np.finfo(float).eps * max(
        float(np.linalg.norm(a.data)) * float(np.linalg.norm(b.data)) for _, a, b, _ in rows)
    return AlgebraReport(dim=ops.dim, margin=margin, empty_interior=margin >= ops.dim,
                         threshold=threshold, entries=entries)
