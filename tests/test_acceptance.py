"""Acceptance battery: one test per release criterion, one verdict line each.

Run with -s to see the verdict lines.  Criteria 6, 7, 8 and 10 store every
propagated state in a shared collector; the invariant audit (criterion 9)
walks that collector, so it must run after them (file order does this under
plain pytest) and repopulates it when executed alone.

Tolerance provenance: structural identities get roundoff-level bars; the
truncation-sensitive comparisons (4, 5, 9) state their interior margin or
tail-regularity condition explicitly, because factor products built from
edge-defective ladder blocks only reproduce the exact flow away from the
truncation edge.  Criterion 6 compares against a wide-block reference
instead: each d=20 state is embedded in d'=28 levels (d + 8), propagated
by the dense exponential there, and cut back to its lowest 20 levels.  That
reference is exact on the 20 kept levels to roundoff: the d=20 closed form
sits 9.6e-16 from it at d'=28 and at d'=32, and 1.0e-15 at d'=40.

Criterion 6 and the truncation edge.  At kappa=0 the factorized map is the
su(1,1) jump product alone: lowering exponential, diagonal core, raising
exponential, applied in that order.  The lowering factor only lowers both
indices, the core is diagonal and the raising factor only raises both, so
no term passes through a level >= d and the d-level product is exactly the
d x d block of the untruncated flow, edge included.  The d=20 dense
exponential is not: its cyclic-trace generator conserves trace, so the
population that should leave the block through level 19 is reflected
there.  For the level-7 member at t=1 that edge error is ~3.5e-8, which is
the whole gap between the closed form and the d=20 exponential.  The
verdict line prints that gap without asserting it: the program promises
agreement with the truncated exponential only on interior-supported states.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from conftest import random_admissible_params, random_density
from oracles import form_one, form_two, l_factor_six

from qdamp.algebra import build_generators, projected_residual, verify_algebra
from qdamp.coefficients import (
    HYPERBOLIC_BRANCH_AT,
    PHASE_BRANCH_AT,
    hyperbolic_weights,
    hyperbolic_weights_limit,
    phase_kernel,
    phase_kernel_limit,
)
from qdamp.diagnostics import compare_states, convergence_study, state_diagnostics
from qdamp.fock import build_fock_ops, fock_state
from qdamp.linalg import expm
from qdamp.liouvillian import ModelParams, build_liouvillian, build_liouvillian_trace_exact
from qdamp.propagators import (
    alternative_superop,
    exact_superop,
    factorized_superop,
    l_factor,
    operator_series_solution,
    propagate,
    stepped_propagate,
    su11_factor,
)
from qdamp.vectorize import unvec, vec

TAIL_REGULAR = 1e-10


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@dataclass(frozen=True)
class Run:
    label: str
    method: str
    model: ModelParams
    t: float
    rho: np.ndarray


_BATTERY: dict = {}


def _splitting_battery():
    """d=20 kappa=0 splitting comparison over states on the lowest 8 levels.

    The battery spans the whole class: every basis state on those levels,
    a uniform superposition, and three seeded random draws.  The reference
    is the lowest 20 levels of the dense exponential at d + 8 (see the
    module docstring).  Distances are tracked separately for the worst
    member overall and the worst member whose support stops one level
    lower, and the distance to the d=20 dense exponential is kept for the
    verdict line as that route's edge error.
    """
    if "splitting" not in _BATTERY:
        model = ModelParams(omega=1.0, mu=0.4, nu=0.2, kappa=0.0, dim=20)
        wide_model = replace(model, dim=28)
        rng = np.random.default_rng(20240911)
        psi = np.zeros(20, dtype=complex)
        psi[:8] = 1.0 / np.sqrt(8.0)
        states = {f"basis-{n}": np.outer(e := np.eye(20)[n], e) for n in range(8)}
        states["uniform"] = np.outer(psi, psi.conj())
        states.update((f"random-{i}", random_density(20, 7, rng)) for i in range(3))
        runs = []
        worst = {"factorized": 0.0, "alternative": 0.0}
        worst_capped = dict(worst)
        worst_label = ""
        worst_edge = 0.0
        for t in (0.25, 0.5, 1.0):
            maps = {"exact": exact_superop(model, t),
                    "factorized": factorized_superop(model, t),
                    "alternative": alternative_superop(model, t)}
            wide = exact_superop(wide_model, t)
            for label, rho0 in states.items():
                v = vec(rho0)
                out = {m: unvec(s @ v) for m, s in maps.items()}
                for m, rho in out.items():
                    runs.append(Run(f"splitting-{label}", m, model, t, rho))
                embedded = np.zeros((28, 28), dtype=complex)
                embedded[:20, :20] = rho0
                ref = unvec(wide @ vec(embedded))[:20, :20]
                capped = label.startswith("basis-") and label != "basis-7"
                for m in ("factorized", "alternative"):
                    dist = compare_states(out[m], ref)[1]
                    if dist > worst[m]:
                        worst[m] = dist
                        worst_label = f"{label}, t={t}"
                    if capped:
                        worst_capped[m] = max(worst_capped[m], dist)
                worst_edge = max(worst_edge,
                                 compare_states(out["factorized"], out["exact"])[1])
        _BATTERY["splitting"] = (runs, worst, worst_capped, worst_label, worst_edge)
    return _BATTERY["splitting"]


def _order_battery():
    """d=16 full-parameter error-order study, vacuum start."""
    if "order" not in _BATTERY:
        model = ModelParams(omega=1.0, mu=0.5, nu=0.25, kappa=0.1 + 0.05j, dim=16)
        vac = fock_state(16, 0)
        local = convergence_study(model, vac, method="factorized",
                                  t_values=(0.4, 0.2, 0.1, 0.05))
        glob = convergence_study(model, vac, method="factorized",
                                 n_steps_values=(2, 4, 8, 16), t_final=1.0)
        runs = [Run("order", "factorized", model, t,
                    propagate(model, vac, t, method="factorized").rho_t)
                for t in (0.4, 0.2, 0.1, 0.05)]
        runs.append(Run("order", "exact", model, 1.0,
                        propagate(model, vac, 1.0, method="exact").rho_t))
        for n in (2, 16):
            runs.append(Run(f"order-steps-{n}", "stepped", model, 1.0,
                            stepped_propagate(model, vac, 1.0, n_steps=n).rho_t))
        _BATTERY["order"] = (runs, local.slope, glob.slope)
    return _BATTERY["order"]


def _series_battery():
    """d=12 series-vs-superoperator route comparison on random draws."""
    if "series" not in _BATTERY:
        rng = np.random.default_rng(7)
        runs, worst = [], 0.0
        for i in range(5):
            model = random_admissible_params(rng, dim=12)
            rho0 = random_density(12, 3, rng)
            for t in (0.3, 0.9):
                srs = operator_series_solution(model, rho0, t).rho_t
                fct = unvec(factorized_superop(model, t) @ vec(rho0))
                worst = max(worst, float(np.linalg.norm(srs - fct)))
                runs.append(Run(f"series-{i}", "series", model, t, srs))
                runs.append(Run(f"series-{i}", "factorized", model, t, fct))
        _BATTERY["series"] = (runs, worst)
    return _BATTERY["series"]


def _damping_battery():
    """d=8 analytic pure-damping benchmark on a 20-point time grid."""
    if "damping" not in _BATTERY:
        model = ModelParams(omega=0.0, mu=0.6, nu=0.0, kappa=0.0, dim=8)
        rho0 = fock_state(8, 1)
        runs, worst = [], 0.0
        for t in np.linspace(0.1, 2.0, 20):
            res = propagate(model, rho0, float(t), method="exact")
            runs.append(Run("damping", "exact", model, float(t), res.rho_t))
            worst = max(worst,
                        abs(res.diagnostics.mean_n - math.exp(-0.6 * float(t))))
        _BATTERY["damping"] = (runs, worst)
    return _BATTERY["damping"]


def test_criterion_01_algebra_identity_residuals():
    reports = [verify_algebra(build_fock_ops(8, theta=th), margin=2)
               for th in (0.0, 0.3)]
    worst = max(r.max_residual for r in reports)
    counts = {len(r.entries) for r in reports}
    ok = worst <= 1e-12 and counts == {23}
    _report(1, ok, f"23 identities, two ladder gauges, max residual {worst:.1e} "
                   "(bar 1e-12, d=8, margin 2)")


def test_criterion_02_vectorization_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a, b, x = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
                   for _ in range(3))
        gap = np.linalg.norm(np.kron(a, b.T) @ vec(x) - vec(a @ x @ b))
        scale = np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(b)
        worst = max(worst, gap / scale)
    ok = worst <= 1e-13
    _report(2, ok, f"100 random triples at d=6, worst scaled residual {worst:.1e} "
                   "(bar 1e-13)")


def test_criterion_03_generator_form_equivalence():
    rng = np.random.default_rng(3)
    d = 6
    w = vec(np.eye(d)).conj()
    worst_pair, worst_trace, worst_corner = 0.0, 0.0, 0.0
    for _ in range(20):
        model = random_admissible_params(rng, dim=d)
        forms = [form_one(model), form_two(model), build_liouvillian(model)]
        for i in range(3):
            for j in range(i + 1, 3):
                worst_pair = max(worst_pair,
                                 float(np.linalg.norm(forms[i] - forms[j])))
        cyc = build_liouvillian_trace_exact(model).toarray()
        scale = np.linalg.norm(cyc)
        worst_trace = max(worst_trace, float(np.linalg.norm(w @ cyc)) / scale)
        # the literal assembly leaks trace only through the corner column,
        # by exactly -nu*d there
        row = w @ forms[2]
        worst_corner = max(worst_corner,
                           abs(row[-1] + model.nu * d),
                           float(np.linalg.norm(row[:-1])) / scale)
    ok = worst_pair <= 1e-12 and worst_trace <= 1e-13 and worst_corner <= 1e-12
    _report(3, ok, f"20 admissible draws at d=6: pairwise form gap {worst_pair:.1e} "
                   f"(bar 1e-12), trace row {worst_trace:.1e} (bar 1e-13 scaled), "
                   f"corner defect off by {worst_corner:.1e}")


def test_criterion_04_jump_family_disentangling():
    model = ModelParams(omega=0.0, mu=0.4, nu=0.2, kappa=0.0, dim=16)
    g = build_generators(model.fock_ops())
    gen = (-(model.mu + model.nu) * g.jump_z
           + model.nu * g.jump_plus + model.mu * g.jump_minus)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        delta = su11_factor(model, t) - expm(t * gen)
        worst = max(worst, projected_residual(delta, 16, 8))
    ok = worst <= 1e-8
    _report(4, ok, f"d=16, t in {{0.25,0.5,1.0}}, margin-8 interior distance "
                   f"to expm {worst:.1e} (bar 1e-8)")


def test_criterion_05_two_photon_factor_validation():
    model = ModelParams(omega=1.0, mu=0.0, nu=0.0, kappa=0.1 + 0.05j, dim=16)
    g = build_generators(model.fock_ops())
    gen = (-2j * model.omega * g.squeeze_z
           + np.conj(model.kappa) * g.squeeze_plus
           + model.kappa * g.squeeze_minus)
    worst_exp, worst_split = 0.0, 0.0
    for t in (0.1, 0.5, 1.0):
        three = l_factor(model, t)
        worst_exp = max(worst_exp,
                        projected_residual(three - expm(t * gen), 16, 12))
        worst_split = max(worst_split,
                          float(np.linalg.norm(three - l_factor_six(model, t))))
    ok = worst_exp <= 1e-9 and worst_split <= 1e-12
    _report(5, ok, f"d=16, t in {{0.1,0.5,1.0}}: margin-12 interior distance to "
                   f"expm {worst_exp:.1e} (bar 1e-9), three- vs six-factor gap "
                   f"{worst_split:.1e} (bar 1e-12)")


def test_criterion_06_splitting_exact_without_two_photon():
    # the kappa=0 closed form is the d x d block of the untruncated flow, so
    # it is judged against a reference exact on all 20 kept levels; the gap
    # to the d=20 dense exponential is that route's own edge error (module
    # docstring) and is printed, not asserted
    runs, worst, worst_capped, worst_label, worst_edge = _splitting_battery()
    ok = worst["factorized"] <= 1e-8 and worst["alternative"] <= 1e-8
    _report(6, ok, f"d=20, 12 states on the lowest 8 levels, t <= 1: worst "
                   f"trace distance to the lowest 20 levels of exact at d=28 "
                   f"{worst['factorized']:.1e} (factorized) / "
                   f"{worst['alternative']:.1e} (alternative) at {worst_label}, "
                   f"bar 1e-8; members supported below level 7 reach "
                   f"{worst_capped['factorized']:.1e} / "
                   f"{worst_capped['alternative']:.1e}; distance to the d=20 "
                   f"dense exponential (its edge error, not asserted) "
                   f"{worst_edge:.1e}")


def test_criterion_07_splitting_error_order():
    runs, local_slope, global_slope = _order_battery()
    ok = abs(local_slope - 2.0) <= 0.2 and abs(global_slope + 1.0) <= 0.2
    _report(7, ok, f"local slope {local_slope:.3f} (want 2.0 +/- 0.2), global "
                   f"slope {global_slope:.3f} (want -1.0 +/- 0.2)")


def test_criterion_08_series_route_equivalence():
    runs, worst = _series_battery()
    ok = worst <= 1e-10
    _report(8, ok, f"5 admissible draws at d=12, two times each: series vs "
                   f"superoperator gap {worst:.1e} (bar 1e-10)")


def test_criterion_10_analytic_damping_benchmark():
    runs, worst = _damping_battery()
    ok = worst <= 1e-8
    _report(10, ok, f"mean occupation vs exp(-0.6 t) on 20 points, worst gap "
                    f"{worst:.1e} (bar 1e-8)")


def test_criterion_11_coefficient_seam_continuity():
    worst = 0.0
    for mult in (-1.001, -0.999, 0.999, 1.001):
        x = mult * HYPERBOLIC_BRANCH_AT
        mu = 0.5
        nu = mu - 2.0 * x          # t = 1 puts the seam variable at x
        for a, b in zip(hyperbolic_weights(mu, nu, 1.0),
                        hyperbolic_weights_limit(mu, nu, 1.0)):
            worst = max(worst, abs(a - b))
        w = mult * PHASE_BRANCH_AT
        worst = max(worst, abs(phase_kernel(w, 1.0) - phase_kernel_limit(w, 1.0)))
    ok = worst <= 1e-9
    _report(11, ok, f"both branch seams, both sides: worst cross-branch gap "
                    f"{worst:.1e} (bar 1e-9)")


def test_criterion_09_physical_invariants():
    # defined last in source so the collector is already populated in a full
    # run; calling the battery builders again is free (they memoize) and
    # makes this test self-sufficient when run alone
    runs = (_splitting_battery()[0] + _order_battery()[0]
            + _series_battery()[0] + _damping_battery()[0])
    asserted = excluded = 0
    worst_trace = worst_herm = 0.0
    floor_eig = np.inf
    for run in runs:
        rec = state_diagnostics(run.rho)
        regular = rec.tail_mass <= TAIL_REGULAR
        if run.method != "exact" and not regular:
            # edge-tail states leak trace through the truncation boundary
            # under any factor-product map; only the exact generator is
            # globally trace-annihilating, so only it is held to the bar
            # unconditionally
            excluded += 1
            continue
        asserted += 1
        worst_trace = max(worst_trace, abs(rec.trace - 1.0))
        worst_herm = max(worst_herm, rec.herm_residual)
        if run.method == "exact" and run.model.positivity_satisfied and regular:
            floor_eig = min(floor_eig, rec.min_eigenvalue)
    ok = (worst_trace <= 1e-10 and worst_herm <= 1e-10
          and floor_eig >= -1e-8 and asserted > 0)
    _report(9, ok, f"{asserted}/{len(runs)} collected runs tail-regular and "
                   f"asserted ({excluded} edge-tail runs excluded): worst "
                   f"|trace-1| {worst_trace:.1e}, worst herm {worst_herm:.1e} "
                   f"(bars 1e-10), exact spectrum floor {floor_eig:.1e} "
                   f"(bar -1e-8)")
