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
jump part).  That holds against the untruncated flow: at kappa == 0 the
d-level product is the d x d block of the untruncated map (see
su11_factor).  Against the truncated exp(t L_d) it holds only up to that
generator's edge error, since L_d conserves trace by reflecting at level
d - 1 the population the untruncated flow carries out of the block.
alternative_superop reorders the splitting so the two-photon raising and
lowering exponentials sit on the outside.

Each closed-form map is written once, as stages in the order they act on
a state (_closed_form): a weighted generator from
algebra.cached_generators (CSR, about three nonzeros per row, built once
per dim and theta and shared with liouvillian and verify_algebra) stands
for its exponential, a 1-d array for a diagonal, and the scalar prefactor
multiplies last.  propagate applies the stages to vec(rho0) one at a
time: each exponential as its terminating series sum_k c^k G^k v / k!,
one sparse matvec per term, each diagonal elementwise.  No d^2 x d^2
matrix is formed, and a state costs O(d^3) instead of the O(d^5) or more
of a product build.  factorized_superop and alternative_superop form the
same stages as CSR factors, multiply them and densify once, at the
public boundary; they, su11_factor and l_factor stay as the algebra-level
oracles for tests at small d, and the first two as the stepped
splittings' step maps at d <= 10 and for long step chains (otherwise a
stepped splitting applies the stages n times, as propagate does once).
Both evaluations share one series helper (_series).

operator_series_solution evaluates the same factorized map directly on the
density matrix as nested finite sums of ladder sandwiches, never forming a
d^2 x d^2 matrix; it must agree with factorized_superop to roundoff and
is kept as an independent implementation route for exactly that check:
it works with d x d ladder matrices, the other two with the twelve
Kronecker generators.

propagate_grid evolves one state over a whole time grid.  The exact route
builds the generator once (liouvillian's trace-exact generator, a
weighted sum of the same cached generators, kept in CSR with about 9
nonzeros per row).  Every generator moves n1 + n2 by 0 or +-2, so L
couples no slot of even n1 + n2 to one of odd n1 + n2 (the weak-symmetry
reduction of Buca and Prosen, NJP 14 073007, 2012): the route cuts L
into its even and odd diagonal blocks in CSR, of about d^2 / 2 rows
each, and chains the state through exp(gap L_even) and exp(gap L_odd).
Above DENSE_BLOCK_ROWS rows (d > 10) each block is scaled by the gap
once and applied to its half of the state by scipy's expm_multiply (Al-
Mohy and Higham, SIAM J. Sci. Comput. 33:488, 2011), which takes sparse
matvecs only, so no d^2 x d^2 or half-size dense matrix is formed and
the route holds O(d^2) memory.  At or below it the blocks are densified
and each change of gap forms the two dense block exponentials, which is
faster at that size.  A uniform grid costs one scaled pair or one pair
of exponentials.  The other routes
are splittings, not semigroups, and each time is propagate's
single-time map of the initial state.  For exact and series, propagate
is the one-point grid, and stepped exact is the grid of its n step
times, which applies one step map n times.  exact_superop, the full
dense exp(t L) without the parity split, is the test oracle only: no
route calls it.

Every map here multiplies a vectorized state by construction, so a state
whose population stays away from the truncation edge preserves trace and
Hermiticity to working precision; every result reports its diagnostics on
access rather than asserting them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# build_generators (the dense view) is not called here; perfbench's tracer
# wraps it under this module's name, so the name stays importable.
from .algebra import SuperOpGenerators, build_generators, cached_generators  # noqa: F401
from .coefficients import CoefficientSet, eval_coefficients
from .diagnostics import DiagnosticsRecord, state_diagnostics
from .linalg import NumericalError, as_complex_matrix, expm
# build_liouvillian is not called here either; the tracer wraps it too.
from .liouvillian import (ModelParams, build_liouvillian,  # noqa: F401
                          build_liouvillian_trace_exact)
from .vectorize import unvec, vec

STATE_TRACE_TOL = 1e-10
# An exact-route grid time within this many ulps of one more step of the
# current step map reuses that map.
GAP_ULPS = 4
# Parity blocks of at most this many rows (d <= 10) keep the dense step
# maps: the exact route's expm of each block, and the stepped splittings'
# d^2 x d^2 factorized_superop or alternative_superop.  Above it the exact
# blocks are applied by scipy's expm_multiply and, over short step chains
# (_stepped_matrix_free), the splittings' stages one at a time
# (_dense_blocks reads the rule at call time).  One dense
# expm against one expm_multiply of the README model's block at gap 0.25,
# single-threaded BLAS: 0.08 against 0.99 ms at 18 rows, 0.65 against
# 1.1 ms at 50, 1.6 against 1.2 ms at 72, 7.1 against 1.6 ms at 128.
# expm's cost grows with log ||t L||_1 (its squarings), expm_multiply's
# about linearly, which counts at stiff rates.
# perfbench's traced test of a d = 6 kappa-sweep pins both dense branches:
# it requires a linalg.expm and a propagators.factor_build span and a
# 16 d^4 propagators.superop_bytes.  Once that test names its spans by
# role (ROADMAP item 1), both branches and this rule can go.
DENSE_BLOCK_ROWS = 50
# Above DENSE_BLOCK_ROWS a stepped splitting applies its stages matrix-free
# while n_steps <= d^2 / SLOTS_PER_MATRIX_FREE_STEP and forms its dense
# step map once for longer chains.  The two routes cost the same at n*
# steps, where the map's build equals n* matrix-free steps less n* dense
# matvecs.  README model, one or two BLAS threads: d^2 / n* measured at 5
# to 13 for d = 11..40 (2 to 6 at d = 48), so every chain the rule sends
# matrix-free is faster there than on the step map.
SLOTS_PER_MATRIX_FREE_STEP = 16
# Peak memory of the exact grid route, in units of its CSR generator
# (184 bytes per slot of vec(rho)): the generator, its two blocks, the
# scaled block pair, expm_multiply's shifted copy, the cached generators
# and the grid's states.  Measured with ru_maxrss over the
# README grid: 8.6 at d = 32, 6.8 at d = 64, 6.3 at d = 128.
EXPM_WORKSPACE = 9
# The kernel's memory report, read for the memory estimates.
MEMINFO = "/proc/meminfo"

CLOSED_FORM_METHODS = ("factorized", "alternative")
SUPEROP_METHODS = ("exact",) + CLOSED_FORM_METHODS
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


def _series(m, x, cap: int):
    """exp(m) x for nilpotent m, as the finite sum of m^k x / k!.

    x is the identity to form exp(m) itself, or vec(rho) to apply it
    with one matvec per term.  m is scipy.sparse CSR for the d^2 x d^2
    generators, or a dense d x d matrix for the two-photon ladder
    factors, where sparse call overhead would cost more than the
    products.  The sum stops at the first term with no nonzeros (a
    sparse term is tested with count_nonzero, since a sparse product
    can store explicit zeros); cap bounds the order.
    """
    out = term = x
    for k in range(1, cap + 1):
        term = (m @ term) / k
        if not (term.count_nonzero() if sp.issparse(term) else term.any()):
            break
        out = out + term
    return out


def _apply(stages, v: np.ndarray, cap: int) -> np.ndarray:
    """Apply a closed-form factor product to vec(rho), first stage first.

    A stage is either a weighted CSR generator m, standing for exp(m)
    and applied by _series, or a 1-d array, standing for that diagonal.
    """
    for stage in stages:
        v = _series(stage, v, cap) if sp.issparse(stage) else stage * v
    return v


def _total_index(dim: int) -> np.ndarray:
    """n1 + n2 per flat slot."""
    levels = np.arange(dim, dtype=np.float64)
    return np.add.outer(levels, levels).reshape(-1)


def _index_difference(dim: int) -> np.ndarray:
    """n1 - n2 per flat slot."""
    levels = np.arange(dim, dtype=np.float64)
    return np.subtract.outer(levels, levels).reshape(-1)


def _parity_classes(dim: int) -> list[np.ndarray]:
    """Flat slots with n1 + n2 even, then those with it odd.

    Every generator moves n1 + n2 by 0 or +-2, so the trace-exact
    generator couples no slot of one class to a slot of the other and
    exp(t L) is the exponential of each diagonal block on its own.
    """
    parity = _total_index(dim) % 2
    return [np.flatnonzero(parity == k) for k in (0, 1)]


def _dense_blocks(dim: int) -> bool:
    """Whether the parity blocks at dim, of ceil(d^2/2) rows at most,
    are within DENSE_BLOCK_ROWS, so the routes keep their dense step maps."""
    return (dim * dim + 1) // 2 <= DENSE_BLOCK_ROWS


def _stepped_matrix_free(dim: int, n_steps: int) -> bool:
    """Whether a stepped splitting applies its stages n_steps times
    rather than forming its dense step map."""
    return (not _dense_blocks(dim)
            and n_steps * SLOTS_PER_MATRIX_FREE_STEP <= dim * dim)


def _jump_stages(c: CoefficientSet, g: SuperOpGenerators) -> tuple:
    """su11_factor's product: lowering exponential, core, raising exponential."""
    core = c.scale ** (-(_total_index(g.dim) + 1.0))
    return (c.decay * g.jump_minus, core, c.pump * g.jump_plus)


def _squeeze_stages(c: CoefficientSet, g: SuperOpGenerators) -> tuple:
    """l_factor's three-factor product: lowering, phases, raising."""
    phases = np.exp(0.5 * c.phase * _index_difference(g.dim))
    return (c.squeeze_down * g.squeeze_minus, phases, c.squeeze_up * g.squeeze_plus)


def _closed_form(params: ModelParams, t: float, method: str):
    """Scalar prefactor and stages, first acting first, of a closed-form map."""
    c = eval_coefficients(params, t)
    g = cached_generators(params.dim, params.theta)
    pref = math.exp(0.5 * (params.mu - params.nu) * t)
    if method == "factorized":
        return pref, _squeeze_stages(c, g) + _jump_stages(c, g)
    kappa = params.kappa
    phases = np.exp(-1j * params.omega * t * _index_difference(g.dim))
    return pref, ((t * kappa * g.squeeze_minus,) + _jump_stages(c, g)
                  + (phases, t * kappa.conjugate() * g.squeeze_plus))


def _ladder_exp(m: np.ndarray) -> np.ndarray:
    """exp(m) of a dense, nilpotent d x d ladder matrix."""
    return _series(m, np.eye(m.shape[0], dtype=np.complex128), m.shape[0])


def _form(stages, dim: int) -> np.ndarray:
    """The dense d^2 x d^2 matrix of a stage product.

    Each stage is formed as a CSR factor and multiplied onto the product
    of those before it; applying the series to the growing product
    instead measured about twice as slow at d = 16..32.
    """
    eye = sp.eye_array(dim * dim, dtype=np.complex128, format="csr")
    out = eye
    for stage in stages:
        out = (_series(stage, eye, dim) if sp.issparse(stage)
               else sp.diags_array(stage)) @ out
    return out.toarray()


def su11_factor(params: ModelParams, t: float) -> np.ndarray:
    """Closed-form exponential of the weighted jump family.

    Returns exp(t (-(mu+nu) jump_z + nu jump_plus + mu jump_minus)) as the
    disentangled product

        exp(pump * jump_plus) . diag(scale**(-n1-n2-1)) . exp(decay * jump_minus)

    (the 1/scale from the central weight is folded into the diagonal).  At
    t == 0 this is the identity.  The disentangling identity is exact in the
    untruncated algebra, and the d-level product is exactly the d x d block
    of the untruncated map: applied to a state, the lowering exponential
    only lowers both indices, the core is diagonal and the raising
    exponential only raises both, so no term passes through a level >= d.
    The direct exponential of the truncated generator agrees with it only
    on interior-supported states, which is verified against expm in the
    test suite; the difference near the edge is that exponential's error.
    """
    t = _check_time(t)
    c = eval_coefficients(params, t)
    return _form(_jump_stages(c, cached_generators(params.dim, params.theta)), params.dim)


def l_factor(params: ModelParams, t: float) -> np.ndarray:
    """Closed-form exponential of the phase/two-photon part.

    Returns exp(t (-2i omega squeeze_z + conj(kappa) squeeze_plus
    + kappa squeeze_minus)) as the three-factor product over the squeeze
    family: raising exponential, phase diagonal, lowering exponential.
    The tests check it against expm and against the six-factor product
    that splits each squeeze exponential into its commuting pair and sym
    halves.
    """
    t = _check_time(t)
    c = eval_coefficients(params, t)
    g = cached_generators(params.dim, params.theta)
    return _form(_squeeze_stages(c, g), params.dim)


def exact_superop(params: ModelParams, t: float) -> np.ndarray:
    """Reference propagator exp(t L) by one dense matrix exponential.

    L is the trace-exact generator, exponentiated whole, without the
    parity split of the exact grid route; the tests check that route
    against it at small d.
    """
    t = _check_time(t)
    return expm(t * build_liouvillian_trace_exact(params).toarray())


def factorized_superop(params: ModelParams, t: float) -> np.ndarray:
    """Jump factor times phase factor, with the scalar prefactor attached."""
    t = _check_time(t)
    pref, stages = _closed_form(params, t, "factorized")
    return pref * _form(stages, params.dim)


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
    pref, stages = _closed_form(params, t, "alternative")
    return pref * _form(stages, params.dim)


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
    s_dn = _ladder_exp(-0.5 * c.squeeze_down * (a @ a))
    x = s_dn @ rho0 @ s_dn
    x = _sandwich_sum(x, a, a, c.squeeze_down, d)
    half_phase = np.exp(0.5 * c.phase * levels)
    x = half_phase[:, None] * x * (1.0 / half_phase)[None, :]
    s_up = _ladder_exp(-0.5 * c.squeeze_up * (ad @ ad))
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

    For the exact method this is the exact grid route over the step
    times dt, 2 dt, ..., n dt, a semigroup identity check; for the
    splittings the global error shrinks like 1/n_steps.  Above
    DENSE_BLOCK_ROWS block rows (d > 10) and for at most
    d^2 / SLOTS_PER_MATRIX_FREE_STEP steps a splitting applies the
    closed-form stages of one step (_closed_form, the stages propagate
    applies once) to vec(rho0) n_steps times, forming no d^2 x d^2
    matrix.  Otherwise it forms its dense d^2 x d^2 step map,
    factorized_superop or alternative_superop, once, after estimating
    that map's memory; it raises MemoryError if the estimate exceeds
    the available memory.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # bool is an int subclass, but True is not a step count
    if (isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer))
            or n_steps < 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    rho0 = _check_state(rho0, params.dim)
    t = _check_time(t)
    dt = t / n_steps
    if method == "exact":
        steps = [dt * k for k in range(1, n_steps + 1)]
        return _result(propagate_grid(params, rho0, steps)[-1].rho_t, method, t)
    if method == "series":
        rho = rho0
        for _ in range(n_steps):
            rho = operator_series_solution(params, rho, dt).rho_t
        return _result(rho, "series", t)
    if _stepped_matrix_free(params.dim, n_steps):
        pref, stages = _closed_form(params, dt, method)
        v = vec(rho0)
        for _ in range(n_steps):
            v = pref * _apply(stages, v, params.dim)
        return _result(unvec(v), method, t)
    # The dense step map: three d^2 x d^2 complex matrices cover the CSR
    # product and its dense copy, measured with ru_maxrss at 1.9-2.8 of
    # one at d = 16..48.
    _require_memory(f"stepped {method}", params.dim, 3 * 16 * params.dim ** 4)
    # the builders are looked up as module attributes at call time, so a
    # caller that rebinds one (a tracer, a test) is seen
    build = factorized_superop if method == "factorized" else alternative_superop
    step = build(params, dt)
    v = vec(rho0)
    for _ in range(n_steps):
        v = step @ v
    return _result(unvec(v), method, t)


def _available_memory() -> int:
    """Bytes of memory the kernel reports available for new allocations.

    MemAvailable in MEMINFO counts the page cache the kernel would
    reclaim.  Where the file or the field is missing, the free physical
    pages from sysconf stand in; they leave that cache out.
    """
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024     # reported in kB
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_exact_memory(dim: int) -> None:
    """Raise MemoryError if the exact grid route would not fit in memory.

    The estimate is EXPM_WORKSPACE times the CSR generator, taken as 184
    bytes per slot of vec(rho) (at most 9 nonzeros per row at 16 + 4
    bytes each, and the row pointer).  For blocks of at most
    DENSE_BLOCK_ROWS rows it adds 9 dense copies of the larger parity
    block (16 ceil(d^2/2)^2 bytes each): the dense blocks, the step maps
    and scipy's expm workspace, measured at 8.1-8.4 copies at d = 32 and
    48 with dense blocks.
    """
    need = EXPM_WORKSPACE * 184 * dim * dim
    if _dense_blocks(dim):
        rows = (dim * dim + 1) // 2
        need += 9 * 16 * rows * rows
    _require_memory("exact", dim, need)


def _require_memory(route: str, dim: int, need: int) -> None:
    """Raise MemoryError if need bytes exceed the available memory."""
    avail = _available_memory()
    if need > avail:
        raise MemoryError(f"the {route} route at dim {dim} needs about "
                          f"{need / 1e6:.3g} MB; {avail / 1e6:.3g} MB are available")


def _check_grid(times) -> list[float]:
    times = [_check_time(t) for t in times]
    if not times:
        raise ValueError("times must be a nonempty sequence")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be nondecreasing, got {times}")
    return times


def _drop_negligible(m):
    """Zero, in place, the entries of a CSR matrix below eps^2 times its
    largest one, and return it.

    expm_multiply picks its step count from onenormest's estimates of
    ||m^p||_1 for p <= 9.  Products of such small entries underflow to
    subnormals, which onenormest's sign vectors turn into inf and NaN:
    it warns of overflow and can return too low an estimate (d = 12,
    rates 1e3, kappa 1e-320: one call in 20 landed 1.1e-12 from
    exact_superop, the others 1.6e-13).  onenormest runs only where m,
    shifted by its mean diagonal, has a 1-norm above 63; with at most 9
    nonzeros per column m's largest entry is then above 3.5, so nine
    kept entries multiply to a normal number.  The zeroed entries move
    exp(m) v by about eps^2 relative.
    """
    size = np.abs(m.data)
    m.data[size < np.finfo(np.float64).eps ** 2 * size.max(initial=0.0)] = 0
    return m


def propagate_grid(params: ModelParams, rho0, times,
                   method: str = "exact") -> list[PropagationResult]:
    """Evolve rho0 over a time grid; one PropagationResult per time.

    times must be finite, >= 0 and nondecreasing.  The exact route is the
    semigroup exp(t L) of one generator: L is built once in CSR and cut
    into its even and odd n1 + n2 parity blocks, which it does not
    couple, and the state is chained from t = 0 through
    v_k <- exp(gap L_k) v_k on each block k, by expm_multiply of the
    scaled CSR block, or by the dense block exponential for blocks of at
    most DENSE_BLOCK_ROWS rows.  A step map (the scaled pair or the two
    exponentials) is formed only when a time is not one more step of the
    current map (within GAP_ULPS ulps of that time), so a uniform grid,
    np.linspace ones included, forms one and a repeated time none.  Only
    one step map is alive at a time.  A non-finite expm_multiply result
    raises NumericalError.  Before building anything the route estimates
    its memory and raises MemoryError if that exceeds the available
    memory.
    The splittings and the series route are not semigroups (chaining them
    would make them the stepped route), so each time is propagate's
    single-time map of rho0.
    """
    times = _check_grid(times)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "series":
        return [operator_series_solution(params, rho0, t) for t in times]
    if method != "exact":
        return [propagate(params, rho0, t, method) for t in times]
    rho0 = _check_state(rho0, params.dim)
    _check_exact_memory(params.dim)
    classes = _parity_classes(params.dim)
    gen = build_liouvillian_trace_exact(params)
    blocks = [gen[np.ix_(cls, cls)] for cls in classes]
    del gen        # free the full generator before the exponentials
    dense = _dense_blocks(params.dim)
    if dense:
        blocks = [block.toarray() for block in blocks]
    else:
        # imported here, not at module level: scipy.sparse.linalg adds
        # about 2 MB and 15 ms to the start-up of every command
        from scipy.sparse.linalg import expm_multiply
    # v is the state at start + n * gap, and steps[k] is exp(gap L_k)
    # (dense) or gap L_k (CSR, negligible entries dropped, applied by
    # expm_multiply).  v is updated in place block by block, and
    # vec(rho0) can be a view of the caller's rho0, so the chain starts
    # from a copy.
    v, steps, start, gap, n = vec(rho0).copy(), None, 0.0, 0.0, 0
    out = []
    for t in times:
        tol = GAP_ULPS * np.spacing(t)
        if abs(t - (start + n * gap)) > tol:
            if steps is None or abs(t - (start + (n + 1) * gap)) > tol:
                start, n = start + n * gap, 0
                gap = t - start
                steps = None   # free the old step map before forming the next
                steps = [expm(gap * block) if dense
                         else _drop_negligible(gap * block) for block in blocks]
            for cls, step in zip(classes, steps):
                if dense:
                    v[cls] = step @ v[cls]
                else:
                    w = expm_multiply(step, v[cls])
                    if not np.all(np.isfinite(w)):
                        raise NumericalError("expm_multiply produced non-finite "
                                             "entries (overflow?)")
                    v[cls] = w
            n += 1
        out.append(_result(unvec(v), method, t))
    return out


def propagate(params: ModelParams, rho0, t: float, method: str = "exact") -> PropagationResult:
    """Evolve rho0 to time t by one of the routes named in METHODS.

    factorized and alternative apply their closed-form factors to
    vec(rho0) one at a time, in the order their superop builders
    multiply them: each exponential as its terminating series (one
    sparse matvec per term), each diagonal elementwise, the scalar
    prefactor last.  No d^2 x d^2 matrix is formed.  exact and series
    are the one-point grid of propagate_grid.
    """
    if method not in CLOSED_FORM_METHODS:
        return propagate_grid(params, rho0, (t,), method)[0]
    rho0 = _check_state(rho0, params.dim)
    t = _check_time(t)
    pref, stages = _closed_form(params, t, method)
    return _result(unvec(pref * _apply(stages, vec(rho0), params.dim)), method, t)


def _result(rho_t: np.ndarray, method: str, t: float) -> PropagationResult:
    return PropagationResult(rho_t=rho_t, method=method, t=float(t))
