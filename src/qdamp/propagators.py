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

Every closed-form factor is exp(w G): the generator G, from
algebra.cached_generators (CSR, about three nonzeros per row), depends on
dim and theta alone, and the model and t enter only through scalar
weights.  So one kernel (_closed_form, _apply) evaluates many columns, a
column being a model and a time of one dim and theta: a stage is a
generator with one weight per column, applied to the d^2 x n block of
states as its terminating series (one sparse matmat per term for all
columns), or a d^2 x n array, one diagonal per column, built from each
slot's levels (vectorize.slot_levels); per-column prefactors multiply
last.  Each column has the bits of its one-column call, and no d^2 x d^2
matrix is formed.  factorized_superop and alternative_superop form the
same stages as CSR factors and densify their product once; they,
su11_factor and l_factor are the algebra-level oracles for tests at
small d, and the first two the stepped splittings' step maps for chains
longer than d^2 / SLOTS_PER_MATRIX_FREE_STEP steps.

operator_series_solution evaluates the same factorized map directly on the
density matrix as nested finite sums of ladder sandwiches, never forming a
d^2 x d^2 matrix; it must agree with factorized_superop to roundoff and
is kept as an independent implementation route for exactly that check:
it works with d x d ladder matrices, the other two with the twelve
Kronecker generators.  Its kernel (_series_pass, _ladder_sum) takes many
columns as one n x d x d stack, and each term on its shrinking window.

The exact route (_exact_chain) evolves the trace-exact generator of
liouvillian (CSR, about 9 nonzeros per row).  Every generator moves
n1 + n2 by 0 or +-2, so L couples no slot of even n1 + n2 to one of odd
n1 + n2 (the weak-symmetry reduction of Buca and Prosen, NJP 14 073007,
2012): the route cuts L into its two parity blocks and chains the states
over a time grid through exp(gap L_even) and exp(gap L_odd).  Only the
classes that vec(rho0) occupies are evolved: a class whose slots are
all +0 stays +0, so it gets no block, step map or apply (a Fock or
thermal state has no odd slot).  All
models of one (dim, theta) share the pattern of liouvillian's
generator_template, blocks included, so a model enters as its stored
entries alone, cut by the template's parity classes, and no slice of a
CSR generator is formed.  Above DENSE_BLOCK_ROWS rows (d > 10) the
blocks of models whose blocks have close norms form one direct sum per
class (ParityClass.direct_sum: linalg.direct_sum of the class pattern
with each model's entries), applied to those models'
states as one vector by linalg's Taylor kernel (Al-Mohy and Higham, SIAM
J. Sci. Comput. 33:488, 2011): taylor_plan fixes the shift, degree and
step count of exp(gap sum) from the sum's exact 1-norm once per gap, and
taylor_apply runs them on every step of the chain.  No norm is
estimated, so the result does not depend on numpy's global random
state, and no dense block is formed.  At or below the rule each model
forms its dense block exponentials, which is faster at that size.  A
uniform grid costs one step map.  exact_superop, the full dense exp(t L)
without the parity split, is the test oracle only: no route calls it.

propagate_sweep is the only way into a route, and METHODS the only list
of routes.  It runs a route over models x times, each time in n_steps
steps (an int >= 1), in one of two shapes: the exact chain over the
union of every time's step times, or one _columns call through one
kernel (_series_pass, _closed_form_pass, or the dense step maps'
_step_map_pass).  propagate, stepped_propagate and
operator_series_solution are its one-model, one-time calls.

Every map here multiplies a vectorized state by construction, so a state
whose population stays away from the truncation edge preserves trace and
Hermiticity to working precision; every result reports its diagnostics on
access rather than asserting them.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# build_generators (the dense view) is not called here; perfbench's tracer
# wraps it under this module's name, so the name stays importable.
from .algebra import SuperOpGenerators, build_generators, cached_generators  # noqa: F401
from .coefficients import check_steps, check_time, eval_coefficients
from .diagnostics import DiagnosticsRecord, state_diagnostics
from .linalg import (NumericalError, as_complex_matrix, expm, shifted_norm, taylor_apply,
                     taylor_plan)
# build_liouvillian is not called here either; the tracer wraps it too.
from .liouvillian import (ModelParams, ParityClass, build_liouvillian,  # noqa: F401
                          build_liouvillian_trace_exact, generator_template)
from .vectorize import slot_levels, unvec, vec

STATE_TRACE_TOL = 1e-10
# An exact-route grid time within this many ulps of one more step of the
# current step map reuses that map.
GAP_ULPS = 4
# Parity blocks of at most this many rows (d <= 10) keep the exact route's
# dense step map, the expm of each block per model; above it the blocks
# are applied by the Taylor kernel (linalg's taylor_plan and taylor_apply).
# The rule picks that kernel only (_dense_blocks reads it at call time).
# One dense expm against one plan and apply of the README model's block at
# gap 0.25, single-threaded BLAS: 0.06 against 0.5 ms at 18 rows, 0.6
# against 0.6 ms at 50, 1.2 against 0.6 ms at 72, 6.3 against 0.7 ms at 128.
# expm's cost grows with log ||t L||_1 (its squarings), the Taylor
# kernel's about linearly, which counts at stiff rates.
# perfbench's traced test of a d = 6 kappa-sweep requires a linalg.expm
# span, which this branch gives.  Once that test names its spans by role
# (ROADMAP item 1), the branch and this rule can go.
DENSE_BLOCK_ROWS = 50
# At every d a stepped splitting applies its stages matrix-free while
# n_steps <= d^2 / SLOTS_PER_MATRIX_FREE_STEP and forms its dense step map
# once per column for longer chains (_stepped_matrix_free).  The two cost
# the same at n* steps, where the map's build equals n* matrix-free steps
# less n* dense matvecs.  README model, one or two BLAS threads: d^2 / n*
# measured at 5 to 13 for d = 11..40 (2 to 6 at d = 48), so every chain
# the rule sends matrix-free is faster there than on the step map; at
# d <= 10 too (README model, one time, single-threaded BLAS, factorized at
# n = d^2 / 16, step map against matrix-free: 6.3 against 0.89 ms at
# d = 6, 8.5 against 2.3 at d = 8, 10 against 4.5 at d = 10).
# The long-chain side keeps the step map that perfbench's traced d = 6,
# 8-step kappa-sweep requires (8 > 36 / 16): a propagators.factor_build
# span and a 16 d^4 propagators.superop_bytes.
SLOTS_PER_MATRIX_FREE_STEP = 16
# A Taylor plan takes one shift, step count and degree for its whole
# matrix, set by the largest norm in it, so a direct sum of the exact
# route's blocks holds only blocks whose shifted norms are within this
# ratio of its smallest (_direct_sums).
DIRECT_SUM_NORM_RATIO = 1.5
# Peak memory of the exact route per model, in units of its CSR generator
# (184 bytes per slot of vec(rho)): the model's entries and its blocks'
# entries, the direct sums, the step map's shifted blocks (the Taylor
# plans), the Taylor vectors, the cached generators and their template
# (1.1 units, kept once built) and the grid's states.  ru_maxrss in a
# child process over the README grid, one BLAS thread, the first build
# of the cached generators and of the template included:
#   d      11     16     24     32       48       64       96       128
#   units  71-73  33-36  15-16  8.4-9.4  6.8-7.4  7.3-7.7  7.0-7.1  6.6-6.7
# those builds are most of it below d = 48, 1.57-1.76 MB at d <= 32, so
# _exact_memory takes at least 2 MiB; per model of an 8-model sweep,
# 3.5-3.8 units at d = 32..128.  10 keeps 2 units above every figure.
EXPM_WORKSPACE = 10
# The closed-form and series kernels take at most this many bytes of
# d^2 x n state block per pass (_columns) and hold about five such
# blocks, so a long grid or sweep does not grow their working memory.
CLOSED_FORM_BLOCK_BYTES = 2 ** 24
# The kernel's memory report, the cgroup mount (cgroup v2: memory.max and
# memory.current give a container's limit; cgroup v1: the memory
# controller's hierarchy under memory/) and the file naming the process's
# own cgroups, read for the memory estimates.
MEMINFO = "/proc/meminfo"
CGROUP = "/sys/fs/cgroup"
PROC_CGROUP = "/proc/self/cgroup"

METHODS = ("exact", "factorized", "alternative", "series")


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


def _check_models(models) -> list:
    models = list(models)
    if not models:
        raise ValueError("models must be a nonempty sequence")
    shared = (models[0].dim, models[0].theta)
    if any((p.dim, p.theta) != shared for p in models):
        raise ValueError("models must share dim and theta")
    return models


def _series(g, w, x, cap: int):
    """exp(w g) x for a nilpotent g, as the finite sum of g^k x w^k / k!,
    term k being (g @ term) * (w / k).

    g is a CSR generator with x a d^2 x n block of states and w one
    weight per column (one sparse matmat per term for all columns), or
    with x the sparse identity and w a scalar, to form exp(w g) itself.
    The sum stops at the first term with no nonzeros (a sparse term is tested
    with count_nonzero, since a sparse product can store explicit zeros);
    a column whose terms have run out only gains exact zeros from there
    on.  cap bounds the order.
    """
    out = term = x
    dense = not sp.issparse(x)
    for k in range(1, cap + 1):
        # a dense term is scaled where the product put it, and every term
        # is added into out in place once out is not x (a sparse += makes
        # a new sum).  A sparse term is scaled into a new array: it can
        # hold one entry, and numpy rounds an in-place complex product of
        # a one-element array differently from a new one.
        term = g @ term
        term = np.multiply(term, w / k, out=term) if dense else term * (w / k)
        if not (term.any() if dense else term.count_nonzero()):
            break
        if out is x:
            out = out + term
        else:
            out += term
    return out


def _apply(stages, v: np.ndarray, cap: int) -> np.ndarray:
    """Apply a closed-form factor product to a d^2 x n block of states,
    first stage first.

    A stage is either a pair (g, w), a CSR generator with one weight per
    column standing for exp(w_j g) and applied by _series, or a d^2 x n
    array, standing for one diagonal per column.
    """
    for stage in stages:
        v = _series(*stage, v, cap) if isinstance(stage, tuple) else stage * v
    return v


def _dense_blocks(dim: int) -> bool:
    """Whether the parity blocks at dim, of ceil(d^2/2) rows at most,
    are within DENSE_BLOCK_ROWS, so the routes keep their dense step maps."""
    return (dim * dim + 1) // 2 <= DENSE_BLOCK_ROWS


def _stepped_matrix_free(dim: int, n_steps: int) -> bool:
    """Whether a stepped splitting applies its stages n_steps times
    rather than forming its dense step map."""
    return n_steps * SLOTS_PER_MATRIX_FREE_STEP <= dim * dim


def _jump_stages(cs, g: SuperOpGenerators) -> tuple:
    """su11_factor's product per coefficient set: lowering exponential,
    core, raising exponential."""
    scale = np.array([c.scale for c in cs])
    core = scale ** -(np.add(*slot_levels(g.dim))[:, None] + 1.0)   # n1 + n2
    return ((g.jump_minus, np.array([c.decay for c in cs])), core,
            (g.jump_plus, np.array([c.pump for c in cs])))


def _squeeze_stages(cs, g: SuperOpGenerators) -> tuple:
    """l_factor's three-factor product per coefficient set: lowering,
    phases, raising."""
    half_phase = np.array([0.5 * c.phase for c in cs])
    phases = np.exp(np.multiply.outer(np.subtract(*slot_levels(g.dim)), half_phase))
    return ((g.squeeze_minus, np.array([c.squeeze_down for c in cs])), phases,
            (g.squeeze_plus, np.array([c.squeeze_up for c in cs])))


def _closed_form(models, times, method: str):
    """Per-column prefactors and the stages, first acting first, of a
    closed-form map; column j is models[j] at times[j], and all models
    share dim and theta."""
    g = cached_generators(models[0].dim, models[0].theta)
    cs = [eval_coefficients(p, t) for p, t in zip(models, times)]
    pref = np.array([c.prefactor for c in cs])
    squeeze = _squeeze_stages(cs, g)
    if method == "factorized":
        return pref, squeeze + _jump_stages(cs, g)
    # squeeze[1], at half of phase -2i omega t, is the rotation exp(-i omega t (n1 - n2))
    lower = np.array([t * p.kappa for p, t in zip(models, times)])
    raise_ = np.array([t * p.kappa.conjugate() for p, t in zip(models, times)])
    return pref, (((g.squeeze_minus, lower),) + _jump_stages(cs, g)
                  + (squeeze[1], (g.squeeze_plus, raise_)))


def _closed_form_pass(method: str, models, times, x, n_steps: int) -> np.ndarray:
    """vec x after n_steps maps under models[j] at times[j], column j."""
    pref, stages = _closed_form(models, times, method)
    v = np.repeat(x[:, None], len(models), axis=1)
    for _ in range(n_steps):
        v = _apply(stages, v, models[0].dim) * pref
    return v


def _step_map_pass(method: str, models, times, x, n_steps: int) -> np.ndarray:
    """_closed_form_pass's columns by the dense step map, factorized_superop
    or alternative_superop of models[j] at times[j], formed per column."""
    # Three d^2 x d^2 complex matrices cover the CSR product and its dense
    # copy, measured with ru_maxrss at 1.9-2.8 of one at d = 16..48.  One
    # map is alive at a time.
    dim = models[0].dim
    _require_memory(f"stepped {method}", dim, 3 * 16 * dim ** 4)
    # the builders are looked up as module attributes at call time, so a
    # caller that rebinds one (a tracer, a test) is seen
    build = factorized_superop if method == "factorized" else alternative_superop
    out = np.empty((x.size, len(models)), dtype=np.complex128)
    for j, (p, t) in enumerate(zip(models, times)):
        step, v = build(p, t), x
        for _ in range(n_steps):
            v = step @ v
        out[:, j] = v
    return out


def _columns(columns, rho0: np.ndarray, n_steps: int, kernel) -> list:
    """rho0 after n_steps steps of t / n_steps under p, per column (p, t),
    by kernel (_series_pass, _closed_form_pass or _step_map_pass) over the
    distinct columns with t > 0, CLOSED_FORM_BLOCK_BYTES of d^2 x n block a
    pass; a repeated column is a copy, and one at t = 0 is rho0."""
    x = vec(rho0)
    keys = list(dict.fromkeys(key for key in columns if key[1] > 0.0))
    per_pass = max(1, CLOSED_FORM_BLOCK_BYTES // (16 * x.size))
    done = {}
    for i in range(0, len(keys), per_pass):
        chunk = keys[i:i + per_pass]
        v = kernel([p for p, _ in chunk], [t / n_steps for _, t in chunk],
                   x, n_steps)
        done.update(zip(chunk, v.T))
    return [unvec(done.get(key, x)) for key in columns]


def _form(stages, dim: int) -> np.ndarray:
    """The dense d^2 x d^2 matrix of the first column of a stage product.

    Each stage is formed as a CSR factor and multiplied onto the product
    of those before it; applying the series to the growing product
    instead measured about twice as slow at d = 16..32.
    """
    eye = sp.eye_array(dim * dim, dtype=np.complex128, format="csr")
    out = eye
    for stage in stages:
        if isinstance(stage, tuple):
            g, w = stage
            factor = _series(g, w[0], eye, dim)
        else:
            factor = sp.diags_array(stage[:, 0])
        out = factor @ out
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
    c = eval_coefficients(params, t)
    g = cached_generators(params.dim, params.theta)
    return _form(_jump_stages([c], g), params.dim)


def l_factor(params: ModelParams, t: float) -> np.ndarray:
    """Closed-form exponential of the phase/two-photon part.

    Returns exp(t (-2i omega squeeze_z + conj(kappa) squeeze_plus
    + kappa squeeze_minus)) as the three-factor product over the squeeze
    family: raising exponential, phase diagonal, lowering exponential.
    The tests check it against expm and against the six-factor product
    that splits each squeeze exponential into its commuting pair and sym
    halves.
    """
    c = eval_coefficients(params, t)
    g = cached_generators(params.dim, params.theta)
    return _form(_squeeze_stages([c], g), params.dim)


def exact_superop(params: ModelParams, t: float) -> np.ndarray:
    """Reference propagator exp(t L) by one dense matrix exponential.

    L is the trace-exact generator, exponentiated whole, without the
    parity split of the exact route; the tests check that route against
    it at small d.
    """
    t = check_time(t)
    return expm(t * build_liouvillian_trace_exact(params).toarray())


def factorized_superop(params: ModelParams, t: float) -> np.ndarray:
    """Jump factor times phase factor, with the scalar prefactor attached."""
    pref, stages = _closed_form([params], [t], "factorized")
    return pref[0] * _form(stages, params.dim)


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
    pref, stages = _closed_form([params], [t], "alternative")
    return pref[0] * _form(stages, params.dim)


def operator_series_solution(params: ModelParams, rho0, t: float) -> PropagationResult:
    """The factorized map evaluated as nested ladder-sandwich sums.

    Works directly on d x d matrices: two-photon lowering layer, phase
    rotation, two-photon raising layer, then decay-jump sum, diagonal
    rescale, pump-jump sum, and the scalar prefactor: _series_pass's one
    column.  Algebraically identical to factorized_superop.
    """
    return propagate_sweep((params,), rho0, (t,), "series")[0][0]


def _series_pass(models, times, x: np.ndarray, n_steps: int) -> np.ndarray:
    """operator_series_solution's map of unvec(x) under models[j] at
    times[j], n_steps times over, as column j of a d^2 x n array, on one
    n x d x d stack; exp(w l^2) . rho . exp(w l^2) is two one-sided sums."""
    ops, n = models[0].fock_ops(), len(models)
    a, ad, eye = ops.a, ops.a_dag, ops.identity
    levels = np.arange(ops.dim, dtype=np.float64)
    cs = [eval_coefficients(p, t) for p, t in zip(models, times)]
    down, up, decay, pump = (np.array([getattr(c, name) for c in cs]) for name in
                             ("squeeze_down", "squeeze_up", "decay", "pump"))
    half_phase = np.array([np.exp(0.5 * c.phase * levels) for c in cs])
    core = np.array([c.scale ** -levels for c in cs])
    pref = np.array([c.prefactor / c.scale for c in cs])[:, None, None]
    rho = np.repeat(unvec(x)[None], n, axis=0)
    for _ in range(n_steps):
        # phase part: lowering layer, phase diagonal, raising layer
        _ladder_sum(rho, a @ a, eye, -0.5 * down)
        _ladder_sum(rho, eye, a @ a, -0.5 * down)
        _ladder_sum(rho, a, a, down)
        rho *= half_phase[:, :, None] / half_phase[:, None, :]
        _ladder_sum(rho, ad @ ad, eye, -0.5 * up)
        _ladder_sum(rho, eye, ad @ ad, -0.5 * up)
        _ladder_sum(rho, ad, ad, up)
        # jump part: decay sum, diagonal core, pump sum
        _ladder_sum(rho, a, ad, decay)
        rho *= core[:, :, None] * core[:, None, :] * pref   # pref commutes with the sum
        _ladder_sum(rho, ad, a, pump)
    return rho.reshape(n, -1).T


def _ladder_sum(x, left, right, w) -> np.ndarray:
    """Add sum_{k >= 1} w[j]^k / k! . left^k @ x[j] @ right^k to each x[j]
    in place; returns x.  left and right.T have one nonzero diagonal each
    (a, a_dag, their squares, the identity; a @ a is 0 at d = 2), so term
    k is term k-1 moved along them, times their entries and w / k, on a
    shrinking window (_window).  The entries' phase goes into w: numpy
    rounds an in-place complex product of one entry without FMA, but a
    real one alike.  einsum takes w without ufunc buffers (memory x 2)."""
    sides, phase = [], 1.0
    for op in (left, right.T):
        rows, cols = np.nonzero(op)
        if not rows.size:
            return x
        e = np.diagonal(op, cols[0] - rows[0])
        phase *= e[0] / abs(e[0])
        sides.append((cols[0] - rows[0], np.abs(e).astype(np.complex128)))
    (o_left, e_left), (o_right, e_right) = sides
    entries, w = np.multiply.outer(e_left, e_right), w * phase
    term, d = x, x.shape[1]
    for k in range(1, (d - 1) // max(abs(o_left), abs(o_right)) + 1):
        (rows, prev_rows, e_rows), (cols, prev_cols, e_cols) = (
            _window(o_left, k, d), _window(o_right, k, d))
        term = np.einsum("jrc,j->jrc", term[:, prev_rows, prev_cols], w / k)
        term *= entries[e_rows, e_cols]
        x[:, rows, cols] += term
    return x


def _window(o: int, k: int, d: int) -> tuple:
    """Term k's window at offset o, the part of term k-1's it reads, entries."""
    head, tail = slice(0, d - k * abs(o)), slice(k * abs(o) - d, None)
    return (head, tail, head) if o >= 0 else (tail, head, tail)


def _available_memory() -> int:
    """Bytes of memory available for new allocations: the kernel's figure,
    capped by the cgroup's headroom.

    MemAvailable in MEMINFO counts the page cache the kernel would
    reclaim.  Where the file or the field is missing, the free physical
    pages from sysconf stand in; they leave that cache out.  The cap is
    the cgroup's limit less its usage (_cgroup_headroom).
    """
    avail, headroom = _system_memory(), _cgroup_headroom()
    return avail if headroom is None else min(avail, headroom)


def _system_memory() -> int:
    """MemAvailable, else the free physical pages (_available_memory)."""
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024     # reported in kB
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _cgroup_headroom() -> int | None:
    """The cgroup's memory limit less its usage, at least 0; None for no limit.

    cgroup v2: memory.max less memory.current in CGROUP.  Where memory.max
    is missing, cgroup v1: memory.limit_in_bytes less memory.usage_in_bytes
    of the process's own memory cgroup, at its PROC_CGROUP path under
    CGROUP/memory, or at that mount's root where PROC_CGROUP names no
    mounted path (a container that sees only its own cgroup).  "max", v1's unlimited
    sentinel (2^62 or more, a page-rounded 2^63 - 1), and files that are
    missing or unreadable mean no limit.
    """
    try:
        if os.path.exists(os.path.join(CGROUP, "memory.max")):
            where, files = CGROUP, ("memory.max", "memory.current")
        else:
            where, files = _v1_memory_cgroup(), ("memory.limit_in_bytes",
                                                 "memory.usage_in_bytes")
        limit, usage = (_read_text(os.path.join(where, f)) for f in files)
        if limit == "max" or int(limit) >= 2 ** 62:
            return None
        return max(int(limit) - int(usage), 0)
    except (OSError, ValueError):
        return None


def _v1_memory_cgroup() -> str:
    """The directory of this process's cgroup v1 memory cgroup (_cgroup_headroom)."""
    root = os.path.join(CGROUP, "memory")
    for line in _read_text(PROC_CGROUP).splitlines():
        _, controllers, path = line.split(":", 2)
        if "memory" in controllers.split(","):
            own = os.path.join(root, path.lstrip("/"))
            return own if os.path.isdir(own) else root
    return root


def _read_text(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read().strip()


def _require_memory(route: str, dim: int, need: int) -> int:
    """The available memory in bytes; MemoryError if need exceeds it."""
    avail = _available_memory()
    if need > avail:
        raise MemoryError(f"the {route} route at dim {dim} needs about "
                          f"{need / 1e6:.3g} MB; {avail / 1e6:.3g} MB are available")
    return avail


def _exact_memory(dim: int) -> int:
    """Bytes the exact route needs per model.

    EXPM_WORKSPACE times the CSR generator, taken as 184 bytes per slot
    of vec(rho) (at most 9 nonzeros per row at 16 + 4 bytes each, and the
    row pointer), and at least 2 MiB, the first call's fixed cost.  For
    blocks of at most DENSE_BLOCK_ROWS rows it adds 9 dense copies of the
    larger parity block (16 ceil(d^2/2)^2 bytes each): the dense blocks,
    the step maps and scipy's expm workspace, measured at 8.1-8.4 copies
    at d = 32 and 48 with dense blocks.
    """
    need = max(EXPM_WORKSPACE * 184 * dim * dim, 2 ** 21)
    if _dense_blocks(dim):
        rows = (dim * dim + 1) // 2
        need += 9 * 16 * rows * rows
    return need


def _exact_chunks(models: list) -> list[list]:
    """models in the fewest chunks of near-equal size whose exact chains
    fit in the available memory; MemoryError if one model alone does not."""
    need = _exact_memory(models[0].dim)
    avail = _require_memory("exact", models[0].dim, need)
    count = -(-len(models) // min(len(models), avail // need))
    size = -(-len(models) // count)
    return [models[i:i + size] for i in range(0, len(models), size)]


def _direct_sums(cls: ParityClass, blocks: list, size: int) -> list:
    """(slots, direct sum) per CSR direct sum of the class's blocks, one
    block's entries per model, model j's state at slots j * size + cls.slots.

    A Taylor plan takes one shift, step count and degree for its whole
    matrix, all set by its largest norm, so only blocks whose
    shifted norms (linalg.shifted_norm) are within DIRECT_SUM_NORM_RATIO of
    the smallest in their sum share one: no block then costs more than
    about that ratio times its own steps.  The ratios do not depend on
    the step, so the sums serve every step of a chain.
    """
    norms = [shifted_norm(block, cls.indices, block[cls.diagonal]) for block in blocks]
    groups = []
    for j in sorted(range(len(blocks)), key=norms.__getitem__):
        if groups and norms[j] <= DIRECT_SUM_NORM_RATIO * norms[groups[-1][0]]:
            groups[-1].append(j)
        else:
            groups.append([j])
    return [(np.concatenate([cls.slots + j * size for j in group]),
             cls.direct_sum([blocks[j] for j in group]))
            for group in groups]


def _exact_chain(models: list, rho0: np.ndarray, times: list):
    """Yield, per time, the n x d^2 states of the exact route: row j is
    exp(t L_j) vec(rho0) for models[j].  The yielded array is updated in
    place for the next time.

    The states are one vector, model after model.  Every trace-exact
    generator at one (dim, theta) has the pattern of its
    generator_template, so each model is only its stored entries, cut
    into its parity blocks by the template's classes; a class whose
    slots in vec(rho0) are all +0 is left out, and its slots stay +0.  Above
    DENSE_BLOCK_ROWS rows the blocks of one class form CSR direct sums
    over the models of close norm (_direct_sums), and each step applies
    a sum's exponential to those models' states of that class, one
    vector, by its Taylor plan (taylor_plan, taylor_apply).  At or below
    it each model forms its dense block exponentials.  A step map, the
    plans or the dense exponentials, is formed only when a time is not
    one more step of the current map (within GAP_ULPS ulps of that
    time), so a uniform grid, np.linspace ones included, forms one and a
    repeated time none.  Only one step map is alive at a time.
    """
    dim, n = models[0].dim, len(models)
    size = dim * dim
    dense = _dense_blocks(dim)
    x = vec(rho0)
    entries = [build_liouvillian_trace_exact(p).data for p in models]
    # blocks pairs the slots of v with the block acting on them: per
    # class, one dense block per model, or the direct sums.  A class
    # whose slots are all +0 (no bit set) stays +0, so it has none.
    blocks = []
    for cls in generator_template(dim, models[0].theta).classes:
        if not x[cls.slots].view(np.uint64).any():
            continue
        parts = [data[cls.entries] for data in entries]
        blocks += ([(cls.slots + j * size, cls.direct_sum([part]).toarray())
                    for j, part in enumerate(parts)] if dense
                   else _direct_sums(cls, parts, size))
    del entries, parts     # free the entries before the exponentials
    # v holds the states at start + count * gap, and steps the step map:
    # (slots, exp(gap block)) per dense block, or (slots, Taylor plan) per
    # direct sum.  v is a new array, not the caller's rho0.
    v = np.tile(x, n)
    steps, start, gap, count = None, 0.0, 0.0, 0
    for t in times:
        tol = GAP_ULPS * np.spacing(t)
        if abs(t - (start + count * gap)) > tol:
            if steps is None or abs(t - (start + (count + 1) * gap)) > tol:
                start, count = start + count * gap, 0
                gap = t - start
                steps = None   # free the old step map before forming the next
                steps = [(idx, expm(gap * block) if dense
                          else taylor_plan(block, gap))
                         for idx, block in blocks]
            for idx, step in steps:
                v[idx] = step @ v[idx] if dense else taylor_apply(step, v[idx])
            count += 1
        yield v.reshape(n, size)


def _check_grid(times) -> list[float]:
    times = [check_time(t) for t in times]
    if not times:
        raise ValueError("times must be a nonempty sequence")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be nondecreasing, got {times}")
    return times


# a route whose state overflows says so once, at the end, not by numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def propagate_sweep(models, rho0, times, method: str = "exact",
                    n_steps: int = 1) -> list[list[PropagationResult]]:
    """Evolve rho0 under each of models to each of times, one pass per route.

    The models must share dim and theta; times must be finite, >= 0 and
    nondecreasing; n_steps is an integer >= 1.  Item [j][k] is models[j]
    at times[k]: stepped_propagate's map, which at n_steps = 1 is
    propagate's.  The exact route is the semigroup exp(t L) of each
    model, chained from t = 0 (_exact_chain) over one grid, the sorted
    union of every time's step times t / n * k, k = 1..n, and item k is
    the state at times[k] / n * n; a uniform grid forms one step map and
    a repeated time none.  It evolves direct sums of the models' parity
    blocks, each over the models whose blocks have norms within
    DIRECT_SUM_NORM_RATIO, one chain per chunk of the fewest that fit in
    the available memory, and raises MemoryError before building
    anything when one model alone does not fit.  The other routes are
    not semigroups: each item is a column (model, time) of one _columns
    call, by _series_pass, _closed_form_pass, or for a splitting's chain
    longer than d^2 / SLOTS_PER_MATRIX_FREE_STEP steps _step_map_pass,
    which estimates the dense step map's memory first; such an item has
    the bits of a call with that model and time alone.  Every route runs
    without numpy's floating-point warnings, and a state that is not
    finite raises NumericalError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    models = _check_models(models)
    dim = models[0].dim
    rho0 = _check_state(rho0, dim)
    times = _check_grid(times)
    n = check_steps(n_steps)
    if method == "exact":
        ends = Counter(t / n * n for t in times)     # items per grid time
        grid = sorted({t / n * k for t in times for k in range(1, n + 1)})
        rhos = []
        for chunk in _exact_chunks(models):
            # one copy per item; the chain updates its array in place
            per_time = [[unvec(row) for row in v]
                        for g, v in zip(grid, _exact_chain(chunk, rho0, grid))
                        for _ in range(ends[g])]
            rhos += [rho for per_model in zip(*per_time) for rho in per_model]
    else:
        splitting = (_closed_form_pass if n == 1 or _stepped_matrix_free(dim, n)
                     else _step_map_pass)
        kernel = (_series_pass if method == "series"
                  else lambda *args: splitting(method, *args))
        rhos = _columns([(p, t) for p in models for t in times], rho0, n, kernel)
    if not all(np.isfinite(rho).all() for rho in rhos):
        raise NumericalError(f"the {method} route produced non-finite entries "
                             "(overflow?)")
    states = iter(rhos)
    return [[PropagationResult(rho_t=next(states), method=method, t=float(t))
             for t in times] for _ in models]


def stepped_propagate(params: ModelParams, rho0, t: float, n_steps: int,
                      method: str = "factorized") -> PropagationResult:
    """Apply the single-step map for t/n_steps repeatedly.

    The one-model, one-time propagate_sweep with n_steps.  For the exact
    method this is the exact chain over the step times dt, 2 dt, ...,
    n dt, a semigroup identity check; for the splittings and the series
    route the global error shrinks like 1/n_steps.  Only rho0 is checked;
    the intermediate states of a splitting need not keep unit trace.
    For at most d^2 / SLOTS_PER_MATRIX_FREE_STEP steps a splitting
    applies the closed-form stages of one step to vec(rho0) n_steps
    times, forming no d^2 x d^2 matrix.  Otherwise it forms its dense
    d^2 x d^2 step map, factorized_superop or alternative_superop, once
    (_step_map_pass), after estimating that map's memory; it raises
    MemoryError if the estimate exceeds the available memory.
    """
    return propagate_sweep((params,), rho0, (t,), method, n_steps)[0][0]


def propagate(params: ModelParams, rho0, t: float, method: str = "exact") -> PropagationResult:
    """Evolve rho0 to time t by one of the routes named in METHODS.

    The one-model, one-time propagate_sweep.  factorized and alternative
    apply their closed-form factors to vec(rho0) one at a time, in the
    order their superop builders multiply them: each exponential as its
    terminating series (one sparse product per term), each diagonal
    elementwise, the scalar prefactor last.  No d^2 x d^2 matrix is
    formed.  exact is the one-point exact chain and series is
    operator_series_solution.
    """
    return propagate_sweep((params,), rho0, (t,), method)[0][0]
