"""Propagation routes: closed-form factors, exact reference, stepped maps.

Tolerances are pinned from measured headroom; structural identities
(kappa independence, adjoint swap, semigroup) get roundoff-level bars.
"""

import ast
import cmath
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import random_admissible_params, random_density, stiff_models
from oracles import (closed_form_all_slots, exact_superop_extended, form_one, form_two,
                     l_factor_six, sandwich_sum, series_by_new_terms)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdamp import diagnostics, propagators
from qdamp.algebra import build_generators, cached_generators
from qdamp.coefficients import eval_coefficients, hyperbolic_weights
from qdamp.diagnostics import compare_states
from qdamp.fock import build_fock_ops, coherent_state, fock_state, thermal_state
from qdamp.linalg import (TAYLOR_MAX_MATVECS, TAYLOR_THETA, NumericalError, expm,
                          shifted_norm)
from qdamp.liouvillian import (ModelParams, build_liouvillian,
                               build_liouvillian_trace_exact, generator_template)
from qdamp.propagators import (
    METHODS,
    PropagationResult,
    alternative_superop,
    exact_superop,
    factorized_superop,
    l_factor,
    operator_series_solution,
    propagate,
    propagate_sweep,
    stepped_propagate,
    su11_factor,
)
from qdamp.vectorize import unvec, vec


def _herm(residual_of):
    return float(np.linalg.norm(residual_of - residual_of.conj().T))


def _low_hermitian(dim, top_level, rng):
    """Random Hermitian matrix supported on levels <= top_level."""
    k = top_level + 1
    blk = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    out = np.zeros((dim, dim), dtype=complex)
    out[:k, :k] = 0.5 * (blk + blk.conj().T)
    return out


def test_methods_tuple():
    assert METHODS == ("exact", "factorized", "alternative", "series")


def test_time_zero_is_identity():
    p = ModelParams(omega=1.1, mu=0.5, nu=0.2, kappa=0.1 + 0.2j, dim=8)
    rho0 = fock_state(8, 3)
    for method in METHODS:
        res = propagate(p, rho0, 0.0, method=method)
        assert isinstance(res, PropagationResult)
        assert res.method == method and res.t == 0.0
        np.testing.assert_allclose(res.rho_t, rho0, atol=1e-13)
    eye = np.eye(64)
    np.testing.assert_allclose(factorized_superop(p, 0.0), eye, atol=1e-13)
    np.testing.assert_allclose(alternative_superop(p, 0.0), eye, atol=1e-13)
    np.testing.assert_allclose(exact_superop(p, 0.0), eye, atol=1e-13)


def test_su11_factor_ignores_two_photon_rate():
    base = ModelParams(omega=0.9, mu=0.6, nu=0.3, kappa=0.0, dim=7)
    twisted = ModelParams(omega=0.9, mu=0.6, nu=0.3, kappa=0.3 + 0.2j, dim=7)
    np.testing.assert_array_equal(su11_factor(base, 0.8), su11_factor(twisted, 0.8))


def test_su11_factor_matches_enlarged_reference():
    """Jump-family disentangling is exact on interior slots.

    The truncated factor product agrees with the matrix exponential taken
    in a much larger space, restricted to low levels: the lowering factor
    moves support strictly downward, so the truncation edge never feeds
    back into the bulk.
    """
    d, big, keep = 12, 28, 8
    for t in (0.4, 1.0):
        small = ModelParams(omega=0.0, mu=0.5, nu=0.25, kappa=0.0, dim=d)
        large = ModelParams(omega=0.0, mu=0.5, nu=0.25, kappa=0.0, dim=big)
        rho_small = fock_state(d, 5)
        rho_big = np.zeros((big, big), dtype=complex)
        rho_big[:d, :d] = rho_small
        out_small = unvec(factorized_superop(small, t) @ vec(rho_small))
        ref = unvec(expm(t * build_liouvillian_trace_exact(large).toarray())
                    @ vec(rho_big))
        gap = np.linalg.norm(out_small[:keep, :keep] - ref[:keep, :keep])
        assert gap <= 1e-12, f"t={t}: interior gap {gap:.3e}"


def test_vacuum_is_fixed_point_of_pure_damping():
    p = ModelParams(omega=1.4, mu=0.7, nu=0.0, kappa=0.0, dim=10)
    vac = fock_state(10, 0)
    for t in (0.3, 1.0, 2.5):
        for method in ("exact", "factorized", "series"):
            res = propagate(p, vac, t, method=method)
            assert np.linalg.norm(res.rho_t - vac) <= 1e-12


def test_l_factor_split_routes_agree(rng):
    # the three-factor product against the six-factor oracle, whose pair
    # and sym halves are exponentiated densely
    for theta in (0.0, 0.4):
        p = random_admissible_params(rng, dim=9, theta=theta)
        for t in (0.3, 0.9):
            three = l_factor(p, t)
            six = l_factor_six(p, t)
            scale = max(np.linalg.norm(three), 1.0)
            assert np.linalg.norm(three - six) <= 1e-12 * scale


def test_l_factor_without_two_photon_is_pure_phase():
    p = ModelParams(omega=1.3, mu=0.5, nu=0.2, kappa=0.0, dim=6)
    t = 0.7
    levels = np.arange(6, dtype=float)
    diff = np.subtract.outer(levels, levels).reshape(-1)
    expected = np.diag(np.exp(-1j * p.omega * t * diff))
    np.testing.assert_allclose(l_factor(p, t), expected, atol=1e-13)


def test_l_factor_generator_tangency():
    p = ModelParams(omega=1.1, mu=0.0, nu=0.0, kappa=0.12 + 0.07j, dim=10)
    g = build_generators(p.fock_ops())
    gen = (-2j * p.omega * g.squeeze_z
           + np.conj(p.kappa) * g.squeeze_plus
           + p.kappa * g.squeeze_minus)
    t = 1e-6
    finite = (l_factor(p, t) - np.eye(100)) / t
    rel = np.linalg.norm(finite - gen) / np.linalg.norm(gen)
    assert rel <= 1e-4


def test_l_factor_preserves_hermiticity_in_bulk():
    # the two-photon ladders reach the edge in (d - support)/2 rungs, so
    # the reordering defect is visible on wide states; keep support low
    p = ModelParams(omega=1.0, mu=0.0, nu=0.0, kappa=0.1 + 0.05j, dim=16)
    x = np.zeros((16, 16), dtype=complex)
    x[0, 0], x[1, 1] = 0.6, 0.4
    x[0, 1], x[1, 0] = 0.3 + 0.1j, 0.3 - 0.1j
    y = unvec(l_factor(p, 0.2) @ vec(x))
    assert _herm(y) <= 1e-12


def test_su11_factor_preserves_hermiticity_exactly(rng):
    """Every jump-family factor conjugates cleanly, even truncated."""
    p = ModelParams(omega=1.0, mu=0.5, nu=0.25, kappa=0.0, dim=10)
    blk = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    x = 0.5 * (blk + blk.conj().T)
    y = unvec(su11_factor(p, 0.9) @ vec(x))
    assert _herm(y) <= 1e-13


def test_alternative_adjoint_swaps_outer_factors(rng):
    """(S x)^dag equals the outer-swapped product applied to x^dag."""
    p = ModelParams(omega=0.8, mu=0.5, nu=0.25, kappa=0.1 + 0.05j, dim=8)
    t = 0.6
    g = build_generators(p.fock_ops())
    levels = np.arange(8, dtype=float)
    diff = np.subtract.outer(levels, levels).reshape(-1)
    phases = np.exp(-1j * p.omega * t * diff)
    pref = np.exp(0.5 * (p.mu - p.nu) * t)
    middle = phases[:, None] * su11_factor(p, t)
    swapped = pref * (expm(t * p.kappa * g.squeeze_minus) @ middle
                      @ expm(t * np.conj(p.kappa) * g.squeeze_plus))
    blk = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    left = unvec(alternative_superop(p, t) @ vec(blk)).conj().T
    right = unvec(swapped @ vec(blk.conj().T))
    assert np.linalg.norm(left - right) <= 1e-12


def test_alternative_hermiticity_defect_quadratic_in_time():
    p = ModelParams(omega=0.8, mu=0.5, nu=0.25, kappa=0.1 + 0.05j, dim=12)
    rho0 = fock_state(12, 1)

    def defect(t):
        return propagate(p, rho0, t, method="alternative").diagnostics.herm_residual

    h1, h2 = defect(0.1), defect(0.2)
    assert 1e-4 <= h1 <= 1e-2          # a real splitting effect, not noise
    assert 3.0 <= h2 / h1 <= 4.6       # doubling t roughly quadruples it


def test_alternative_equals_factorized_without_two_photon():
    p = ModelParams(omega=1.2, mu=0.6, nu=0.3, kappa=0.0, dim=9)
    for t in (0.4, 1.3):
        gap = np.linalg.norm(alternative_superop(p, t) - factorized_superop(p, t))
        assert gap <= 1e-13 * max(np.linalg.norm(factorized_superop(p, t)), 1.0)


def test_series_matches_factorized(rng):
    for _ in range(5):
        theta = float(rng.uniform(0.0, 1.0))
        p = random_admissible_params(rng, dim=9, theta=theta)
        rho0 = fock_state(9, int(rng.integers(0, 3)))
        for t in (0.3, 1.1):
            series = operator_series_solution(p, rho0, t).rho_t
            direct = unvec(factorized_superop(p, t) @ vec(rho0))
            assert np.linalg.norm(series - direct) <= 1e-13


def test_closed_form_factors_match_expm_of_weighted_generators(rng):
    """Each builder equals its product rebuilt from dense expm factors.

    Every terminating series is replaced by scipy.linalg.expm of the
    weighted dense generator it sums (each is nilpotent), so the sparse
    assembly is checked against an independent dense one.
    """
    d, t = 10, 0.8
    p = random_admissible_params(rng, dim=d, theta=0.3)
    c = eval_coefficients(p, t)
    g = build_generators(p.fock_ops())
    ex = scipy.linalg.expm
    levels = np.arange(d, dtype=float)
    total = np.add.outer(levels, levels).reshape(-1)
    diff = np.subtract.outer(levels, levels).reshape(-1)
    phases = np.diag(np.exp(0.5 * c.phase * diff))
    pref = np.exp(0.5 * (p.mu - p.nu) * t)
    jump = (ex(c.pump * g.jump_plus) @ np.diag(c.scale ** -(total + 1.0))
            @ ex(c.decay * g.jump_minus))
    squeeze = (ex(c.squeeze_up * g.squeeze_plus) @ phases
               @ ex(c.squeeze_down * g.squeeze_minus))
    alternative = pref * (ex(t * np.conj(p.kappa) * g.squeeze_plus)
                          @ np.diag(np.exp(-1j * p.omega * t * diff)) @ jump
                          @ ex(t * p.kappa * g.squeeze_minus))
    cases = {
        "su11_factor": (su11_factor(p, t), jump),
        "l_factor": (l_factor(p, t), squeeze),
        "factorized_superop": (factorized_superop(p, t), pref * jump @ squeeze),
        "alternative_superop": (alternative_superop(p, t), alternative),
    }
    for name, (got, want) in cases.items():
        assert type(got) is np.ndarray and got.shape == (d * d, d * d), name
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-13, f"{name}: {rel:.2e}"


def test_superops_never_couple_slots_of_opposite_parity(rng):
    """Every factor conserves the parity of n1 + n2, so those entries are 0."""
    d = 10
    p = random_admissible_params(rng, dim=d)
    levels = np.arange(d)
    parity = np.add.outer(levels, levels).reshape(-1) % 2
    across = parity[:, None] != parity[None, :]
    for build in (factorized_superop, alternative_superop):
        s = build(p, 0.7)
        assert np.count_nonzero(s[across]) == 0, build.__name__
        assert np.count_nonzero(s[~across]) > 0, build.__name__


def test_factorized_matches_series_on_the_readme_model_at_d32():
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=32)
    rho0 = coherent_state(32, 1.2)
    direct = propagate(p, rho0, 2.0, method="factorized").rho_t
    series = operator_series_solution(p, rho0, 2.0).rho_t
    _, tdist = compare_states(direct, series)
    assert tdist <= 1e-13


_RATE = st.floats(0.05, 1.0)


@st.composite
def _boundary_models(draw):
    """Admissible models at d = 8, drawn across the coefficient seams.

    nu sits on the mu = nu seam, within the Taylor branch of the hyperbolic
    weights, or anywhere; |kappa| on the mu nu = |kappa|^2 positivity edge
    or inside it; omega at 0, small enough that omega t straddles the
    phase kernel's Taylor switch, or anywhere.
    """
    mu = draw(_RATE)
    nu = draw(st.one_of(st.just(mu), st.floats(-1e-5, 1e-5).map(lambda e: mu + e), _RATE))
    reach = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    kappa = reach * math.sqrt(mu * nu) * cmath.exp(1j * phase)
    omega = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-8), st.floats(0.1, 2.0)))
    t = draw(st.floats(1e-3, 2.0))
    return ModelParams(omega=omega, mu=mu, nu=nu, kappa=kappa, dim=8), t


@settings(max_examples=60)
@given(model=_boundary_models(), seed=st.integers(0, 2**32 - 1))
def test_factorized_matches_series_across_coefficient_seams(model, seed):
    # Strong pumping at the positivity edge grows the map's norm to ~3e4,
    # so roundoff is judged against it (measured error / norm <= 1.3e-16).
    p, t = model
    rho0 = random_density(8, 3, np.random.default_rng(seed))
    superop = factorized_superop(p, t)
    direct = unvec(superop @ vec(rho0))
    series = operator_series_solution(p, rho0, t).rho_t
    assert np.linalg.norm(direct - series) <= 1e-14 * np.linalg.norm(superop)


# ------------------------------------------------------- matrix-free route

_BUILDERS = {"factorized": factorized_superop, "alternative": alternative_superop}


@pytest.mark.parametrize("dim", [2, 5, 8, 12])
def test_matrix_free_propagate_matches_the_superop_builders(rng, dim):
    """The factors applied one at a time equal the formed product."""
    p = random_admissible_params(rng, dim=dim, theta=0.3)
    rho0 = random_density(dim, dim - 1, rng)
    for t in (0.0, 0.3, 1.1, 2.5):
        for method, build in _BUILDERS.items():
            want = unvec(build(p, t) @ vec(rho0))
            got = propagate(p, rho0, t, method).rho_t
            gap = np.linalg.norm(got - want)
            assert gap <= 1e-13 * np.linalg.norm(want), (method, t, gap)


@settings(max_examples=40)
@given(model=_boundary_models(), seed=st.integers(0, 2**32 - 1))
def test_matrix_free_route_across_coefficient_seams(model, seed):
    # the bar of test_factorized_matches_series_across_coefficient_seams,
    # scaled by the norm of the map
    p, t = model
    rho0 = random_density(8, 3, np.random.default_rng(seed))
    series = operator_series_solution(p, rho0, t).rho_t
    for method, build in _BUILDERS.items():
        superop = build(p, t)
        bar = 1e-14 * np.linalg.norm(superop)
        got = propagate(p, rho0, t, method).rho_t
        assert np.linalg.norm(got - unvec(superop @ vec(rho0))) <= bar, method
        if method == "factorized":
            assert np.linalg.norm(got - series) <= bar


def test_matrix_free_route_conserves_parity(rng):
    """No factor couples slots of opposite n1 + n2 parity."""
    d = 10
    p = random_admissible_params(rng, dim=d, theta=0.2)
    levels = np.arange(d)
    odd = np.add.outer(levels, levels) % 2 == 1
    rho0 = random_density(d, d - 1, rng)
    even_part = np.where(odd, 0.0, rho0)   # the diagonal is even: trace 1
    for method in _BUILDERS:
        whole = propagate(p, rho0, 0.9, method).rho_t
        even = propagate(p, even_part, 0.9, method).rho_t
        assert np.count_nonzero(even[odd]) == 0, method
        assert np.count_nonzero(whole[odd]) > 0, method
        gap = np.linalg.norm(whole[~odd] - even[~odd])
        assert gap <= 1e-14 * np.linalg.norm(even), method


def test_matrix_free_alternative_equals_factorized_without_two_photon(rng):
    p = ModelParams(omega=1.2, mu=0.6, nu=0.3, kappa=0.0, dim=12, theta=0.5)
    rho0 = random_density(12, 11, rng)
    for t in (0.4, 1.3, 3.0):
        fac = propagate(p, rho0, t, "factorized").rho_t
        alt = propagate(p, rho0, t, "alternative").rho_t
        assert np.linalg.norm(alt - fac) <= 1e-13 * np.linalg.norm(fac), t


# ---------------------------------------------------------------- time grids


def _tracedist(a, b):
    return compare_states(a, b)[1]


# The bar of the exact route against double-precision exact_superop at
# stiff rates is STIFF_C u (1 + ||t L||_1), u = 2^-53, and at most 1e-12:
# the route and that oracle each err by about u ||t L||_1.  Calibrated on
# 1461 models drawn by _stiff_sweeps (d = 11..14, ||t L||_1 up to 860) and
# the 11 of the two fixed stiff tests: the largest trace distance was
# 7.5 u (1 + ||t L||_1), 4.0e-14 at ||t L||_1 = 47.  32 keeps a factor 4.
STIFF_C = 32


def _stiff_bar(p, t) -> float:
    norm = t * abs(build_liouvillian_trace_exact(p)).sum(axis=0).max()
    return min(1e-12, STIFF_C * 2.0 ** -53 * (1.0 + norm))


@pytest.mark.parametrize("dim, times", [
    (16, np.linspace(0.0, 2.0, 9)),
    (12, [0.1, 0.35, 0.4, 1.3, 2.0]),
    (12, [0.5, 1.0, 1.5, 2.5]),
    (12, [0.0, 0.5, 0.5, 1.0, 1.0]),
], ids=["uniform", "nonuniform", "late_start", "repeated"])
def test_exact_grid_matches_per_time_expm(rng, dim, times):
    p = random_admissible_params(rng, dim=dim)
    rho0 = random_density(dim, 4, rng)
    got = propagate_sweep([p], rho0, times)[0]
    assert [r.t for r in got] == [float(t) for t in times]
    for res in got:
        want = unvec(exact_superop(p, res.t) @ vec(rho0))
        assert res.method == "exact"
        assert _tracedist(res.rho_t, want) <= 1e-12, res.t


def test_single_time_exact_matches_one_full_dense_exponential(rng):
    # the parity blocks sum in another order than the full exponential,
    # so the bar is the grid tests' trace distance, not bitwise equality
    p = random_admissible_params(rng, dim=10)
    rho0 = random_density(10, 4, rng)
    for t in (0.3, 1.7):
        want = unvec(expm(t * build_liouvillian_trace_exact(p).toarray())
                     @ vec(rho0))
        assert _tracedist(propagate(p, rho0, t).rho_t, want) <= 1e-12, t


def test_grid_evaluates_splittings_and_series_at_each_time(rng):
    """Not semigroups, so each grid point is the single-time map of rho0.

    The splittings apply their factors to vec(rho0) one at a time, not
    the formed product, so they match the builders to roundoff only.
    """
    p = random_admissible_params(rng, dim=8)
    rho0 = random_density(8, 3, rng)
    times = [0.0, 0.4, 0.4, 1.1]
    single = {
        "factorized": lambda t: unvec(factorized_superop(p, t) @ vec(rho0)),
        "alternative": lambda t: unvec(alternative_superop(p, t) @ vec(rho0)),
        "series": lambda t: operator_series_solution(p, rho0, t).rho_t,
    }
    for method, one in single.items():
        got = propagate_sweep([p], rho0, times, method)[0]
        assert [(r.method, r.t) for r in got] == [(method, t) for t in times]
        for res in got:
            want = one(res.t)
            if method == "series":
                assert np.array_equal(res.rho_t, want), res.t
            else:
                gap = np.linalg.norm(res.rho_t - want)
                assert gap <= 1e-14 * np.linalg.norm(want), (method, res.t, gap)


def _count_calls(monkeypatch, *names):
    """Counter of calls to the named propagators attributes, kept live."""
    calls = Counter()

    def counted(name):
        fn = getattr(propagators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(propagators, name, counted(name))
    return calls


def test_exact_grid_forms_one_exponential_per_distinct_gap(monkeypatch):
    # a step map is one expm per parity block that rho0 occupies: both for
    # a coherent state, the even one alone for a Fock state (no odd n1 + n2)
    calls = _count_calls(monkeypatch, "expm", "build_liouvillian_trace_exact")
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=8)
    for rho0, blocks in ((coherent_state(8, 0.9 - 0.4j), 2), (fock_state(8, 1), 1)):
        calls.clear()
        propagate_sweep([p], rho0, np.linspace(0.0, 2.0, 9))
        assert calls == {"expm": blocks, "build_liouvillian_trace_exact": 1}
        calls.clear()
        # gaps 0.5, 0.5, 0, 1.2 - 1.0 (not 0.2 in binary): two distinct gaps
        propagate_sweep([p], rho0, [0.5, 1.0, 1.0, 1.2])
        assert calls == {"expm": 2 * blocks, "build_liouvillian_trace_exact": 1}


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 1.0, 7),
    np.linspace(0.0, 1.0, 11),
    np.linspace(0.0, 2.0, 101),
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
], ids=["linspace_7", "linspace_11", "linspace_101", "decimal_list"])
def test_exact_grid_reuses_the_step_across_near_equal_gaps(monkeypatch, rng,
                                                           times):
    """Uniform grids off binary fractions have gaps that differ by an ulp or
    so (0.3 is not 3 * 0.1 in binary); one step map serves them all."""
    assert len(set(np.diff(times))) > 1
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=8)
    rho0 = random_density(8, 4, rng)
    calls = _count_calls(monkeypatch, "expm", "build_liouvillian_trace_exact")
    got = propagate_sweep([p], rho0, times)[0]
    # one step map: one expm per parity block
    assert calls == {"expm": 2, "build_liouvillian_trace_exact": 1}
    gen = build_liouvillian_trace_exact(p).toarray()
    for res in got:
        want = unvec(scipy.linalg.expm(res.t * gen) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= 1e-12, res.t


def test_exact_grid_leaves_the_callers_state_and_earlier_results_alone(rng):
    """The chain updates its state block by block in place; a contiguous
    complex128 rho0 must not be that state."""
    p = random_admissible_params(rng, dim=8, theta=0.4)
    rho0 = random_density(8, 7, rng)
    assert rho0.flags.c_contiguous and rho0.dtype == np.complex128
    keep = rho0.copy()
    times = [0.0, 0.5, 1.0, 1.0, 1.7]
    got = propagate_sweep([p], rho0, times)[0]
    assert np.array_equal(rho0, keep)
    # a Fortran-ordered copy is copied on entry, so its grid is the reference
    want = propagate_sweep([p], np.asfortranarray(keep), times)[0]
    for res, ref in zip(got, want):
        assert np.array_equal(res.rho_t, ref.rho_t), res.t
    assert np.array_equal(got[0].rho_t, keep)


# ------------------------------------------------------ exact kernel rule


def _readme_model(dim):
    return ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=dim)


@pytest.mark.parametrize("dim", [12, 16, 24, 32])
def test_sparse_exact_kernel_matches_the_full_dense_exponential(rng, dim):
    """The chain over two gaps, checked at its end: one d^2 x d^2 oracle
    exponential per model keeps d = 32 affordable."""
    assert (dim * dim + 1) // 2 > propagators.DENSE_BLOCK_ROWS
    times = [0.0, 0.7, 1.4, 2.0]
    drawn = random_admissible_params(rng, dim, theta=0.37)
    for p, rho0 in ((_readme_model(dim), coherent_state(dim, 1.2)),
                    (drawn, random_density(dim, 6, rng))):
        got = propagate_sweep([p], rho0, times)[0][-1].rho_t
        want = unvec(exact_superop(p, times[-1]) @ vec(rho0))
        assert _tracedist(got, want) <= 1e-12, p


@pytest.mark.parametrize("dim, expm_calls", [(10, 2), (11, 0)],
                         ids=["dense_50_rows", "sparse_61_rows"])
def test_exact_kernels_meet_one_bar_on_either_side_of_the_rule(
        monkeypatch, rng, dim, expm_calls):
    times = [0.0, 0.7, 1.4]
    drawn = random_admissible_params(rng, dim, theta=-1.3)
    for p, rho0 in ((_readme_model(dim), coherent_state(dim, 1.2)),
                    (drawn, random_density(dim, dim - 1, rng))):
        with monkeypatch.context() as mp:
            calls = _count_calls(mp, "expm")
            got = propagate_sweep([p], rho0, times)[0]
        # one step map: two block exponentials on the dense side, none on
        # the sparse side
        assert calls["expm"] == expm_calls
        for res in got:
            want = unvec(exact_superop(p, res.t) @ vec(rho0))
            assert _tracedist(res.rho_t, want) <= 1e-12, (p, res.t)


def _record_taylor(monkeypatch):
    """Lists of the Taylor plans the exact route forms and of the
    (plan, vector) pairs it applies, kept live."""
    planned, applied = [], []
    plan, apply = propagators.taylor_plan, propagators.taylor_apply

    def planning(block, gap):
        planned.append(plan(block, gap))
        return planned[-1]

    def applying(step, x):
        applied.append((step, x))
        return apply(step, x)

    monkeypatch.setattr(propagators, "taylor_plan", planning)
    monkeypatch.setattr(propagators, "taylor_apply", applying)
    return planned, applied


def test_sparse_exact_grid_forms_one_scaled_pair_per_distinct_gap(monkeypatch):
    planned, applied = _record_taylor(monkeypatch)
    calls = _count_calls(monkeypatch, "expm", "build_liouvillian_trace_exact")
    p = _readme_model(12)
    # both parity classes of a coherent state, the even one alone of a Fock
    # state (no odd n1 + n2 slot)
    for rho0, blocks in ((coherent_state(12, 0.9 - 0.4j), 2), (fock_state(12, 1), 1)):
        calls.clear()
        planned.clear()
        applied.clear()
        propagate_sweep([p], rho0, np.linspace(0.0, 2.0, 9))
        # one plan per occupied parity block, applied on each of the 8 steps
        assert calls == {"build_liouvillian_trace_exact": 1}
        assert [plan.shifted.shape for plan in planned] == [(72, 72)] * blocks
        assert [step for step, _ in applied] == planned * 8
        assert all(x.any() for _, x in applied)     # no all-zero class is evolved
        calls.clear()
        planned.clear()
        applied.clear()
        # gaps 0.5, 0.5, 0, 1.2 - 1.0 (not 0.2 in binary): two distinct gaps
        propagate_sweep([p], rho0, [0.5, 1.0, 1.0, 1.2])
        assert calls == {"build_liouvillian_trace_exact": 1}
        assert len(planned) == 2 * blocks
        assert [step for step, _ in applied] == (planned[:blocks] * 2
                                                 + planned[blocks:])


def test_exact_grid_fails_fast_when_memory_is_short(monkeypatch):
    calls = _count_calls(monkeypatch, "expm", "build_liouvillian_trace_exact")
    monkeypatch.setattr(propagators, "_available_memory", lambda: 1024)
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=4)
    with pytest.raises(MemoryError, match="dim 4 needs about"):
        propagate_sweep([p], fock_state(4, 1), [0.0, 0.5])
    with pytest.raises(MemoryError, match="dim 4"):
        propagate(p, fock_state(4, 1), 0.5)
    with pytest.raises(MemoryError, match="dim 4"):
        stepped_propagate(p, fock_state(4, 1), 0.5, 3, method="exact")
    assert not calls
    # the other routes form no d^2 x d^2 exponential and are not guarded
    for method in ("factorized", "alternative", "series"):
        propagate_sweep([p], fock_state(4, 1), [0.0, 0.5], method)


def test_stepped_splittings_fail_fast_when_memory_is_short(monkeypatch):
    calls = _count_calls(monkeypatch, "factorized_superop", "alternative_superop")
    monkeypatch.setattr(propagators, "_available_memory", lambda: 1024)
    # over more than d^2 / 16 steps the step map is the dense d^2 x d^2
    # product, estimated first
    p = _readme_model(10)
    for method in _BUILDERS:
        with pytest.raises(MemoryError,
                           match=f"stepped {method} route at dim 10 needs"):
            stepped_propagate(p, fock_state(10, 1), 1.0, 8, method=method)
    assert not calls
    # over at most d^2 / 16 steps the stages are applied n times, forming no
    # d^2 x d^2 matrix, and the route is not guarded
    p = _readme_model(12)
    for method in _BUILDERS:
        stepped_propagate(p, fock_state(12, 1), 1.0, 4, method=method)
    assert not calls


MEMINFO = ("MemTotal:        8000000 kB\n"
           "MemFree:         6000000 kB\n"
           "MemAvailable:    7000000 kB\n")


def test_available_memory_reads_mem_available(monkeypatch, tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(MEMINFO)
    monkeypatch.setattr(propagators, "MEMINFO", str(meminfo))
    monkeypatch.setattr(propagators, "CGROUP", str(tmp_path / "no_cgroup"))
    assert propagators._available_memory() == 7000000 * 1024


@pytest.mark.parametrize("limit, current, avail", [
    ("max\n", "5000000000\n", 7000000 * 1024),
    ("6000000000\n", "1000000000\n", 5000000000),
    ("6000000000\n", "6500000000\n", 0),
    ("6000000000\n", None, 7000000 * 1024),
], ids=["no_limit", "limit_below", "over_limit", "no_current"])
def test_available_memory_is_capped_by_the_cgroup_limit(monkeypatch, tmp_path,
                                                        limit, current, avail):
    """The cgroup v2 memory.max less memory.current where that is below
    MemAvailable; "max" or a missing file is no limit."""
    meminfo, cgroup = tmp_path / "meminfo", tmp_path / "cgroup"
    meminfo.write_text(MEMINFO)
    cgroup.mkdir()
    (cgroup / "memory.max").write_text(limit)
    if current is not None:
        (cgroup / "memory.current").write_text(current)
    monkeypatch.setattr(propagators, "MEMINFO", str(meminfo))
    monkeypatch.setattr(propagators, "CGROUP", str(cgroup))
    assert propagators._available_memory() == avail


V1_UNLIMITED = "9223372036854771712\n"   # 2^63 - 1 rounded down to a page


@pytest.mark.parametrize("proc, own, root, headroom", [
    ("4:memory:/a/b\n", ("6000000000\n", "1000000000\n"), None, 5000000000),
    ("5:cpuacct,memory:/a/b\n0::/\n", ("6000000000\n", "6500000000\n"), None, 0),
    ("4:memory:/a/b\n", (V1_UNLIMITED, "1000000000\n"), None, None),
    ("4:memory:/a/b\n", ("6000000000\n", None), None, None),
    ("4:memory:/docker/c\n", None, ("6000000000\n", "2000000000\n"), 4000000000),
    ("4:memory:/docker/c\n", None, (V1_UNLIMITED, "2000000000\n"), None),
    (None, ("6000000000\n", "1000000000\n"), None, None),
    ("3:cpu:/a/b\n", ("6000000000\n", "1000000000\n"), None, None),
], ids=["limit_below", "over_limit", "unlimited", "no_usage", "path_not_mounted",
        "root_unlimited", "no_proc_file", "no_memory_controller"])
def test_available_memory_is_capped_by_the_cgroup_v1_limit(monkeypatch, tmp_path, proc,
                                                           own, root, headroom):
    """Without cgroup v2's memory.max, the v1 memory.limit_in_bytes less
    memory.usage_in_bytes of the process's own memory cgroup, or of the
    mount's root where that path is not mounted; the unlimited sentinel,
    a missing file or no memory line is no limit."""
    meminfo, cgroup = tmp_path / "meminfo", tmp_path / "cgroup"
    meminfo.write_text(MEMINFO)
    for where, files in ((cgroup / "memory" / "a" / "b", own), (cgroup / "memory", root)):
        where.mkdir(parents=True, exist_ok=True)
        for name, text in zip(("memory.limit_in_bytes", "memory.usage_in_bytes"),
                              files or ()):
            if text is not None:
                (where / name).write_text(text)
    if proc is not None:
        (tmp_path / "proc_cgroup").write_text(proc)
    monkeypatch.setattr(propagators, "MEMINFO", str(meminfo))
    monkeypatch.setattr(propagators, "CGROUP", str(cgroup))
    monkeypatch.setattr(propagators, "PROC_CGROUP", str(tmp_path / "proc_cgroup"))
    assert propagators._cgroup_headroom() == headroom
    assert propagators._available_memory() == (
        7000000 * 1024 if headroom is None else min(7000000 * 1024, headroom))


@pytest.mark.parametrize("content", [None, "MemTotal:        8000000 kB\n"],
                         ids=["no_file", "no_field"])
def test_available_memory_falls_back_to_free_pages(monkeypatch, tmp_path,
                                                   content):
    meminfo = tmp_path / "meminfo"
    if content is not None:
        meminfo.write_text(content)
    monkeypatch.setattr(propagators, "MEMINFO", str(meminfo))
    monkeypatch.setattr(propagators, "CGROUP", str(tmp_path / "no_cgroup"))
    sysconf = {"SC_AVPHYS_PAGES": 3, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(propagators.os, "sysconf", sysconf.__getitem__)
    assert propagators._available_memory() == 3 * 4096


@pytest.mark.parametrize("times, match", [
    ([], "nonempty"),
    ([-0.1, 0.5], "finite and >= 0"),
    ([0.0, math.nan], "finite and >= 0"),
    ([0.0, math.inf], "finite and >= 0"),
    ([0.5, 0.2], "nondecreasing"),
], ids=["empty", "negative", "nan", "inf", "decreasing"])
def test_propagate_grid_rejects_bad_grids(times, match):
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.1, dim=6)
    for method in METHODS:
        with pytest.raises(ValueError, match=match):
            propagate_sweep([p], fock_state(6, 0), times, method)


@st.composite
def _grid_problems(draw):
    """An admissible model at d <= 10, a state and a nondecreasing grid.

    The grid starts at 0 or later and steps by one repeated gap or by
    random gaps, zero gaps included.
    """
    d = draw(st.integers(2, 10))
    mu, nu = draw(_RATE), draw(_RATE)
    kappa = (draw(st.floats(0.0, 1.0)) * math.sqrt(mu * nu)
             * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    p = ModelParams(omega=draw(st.floats(0.0, 2.0)), mu=mu, nu=nu,
                    kappa=kappa, dim=d)
    rho0 = random_density(d, draw(st.integers(0, d - 1)),
                          np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    gap = st.floats(0.01, 0.6)
    gaps = draw(st.one_of(
        st.tuples(gap, st.integers(1, 6)).map(lambda g: [g[0]] * g[1]),
        st.lists(st.one_of(st.just(0.0), gap), min_size=1, max_size=6)))
    return p, rho0, list(itertools.accumulate(gaps, initial=start))


@settings(max_examples=25)
@given(problem=_grid_problems())
def test_exact_grid_matches_dense_expm_property(problem):
    p, rho0, times = problem
    for res in propagate_sweep([p], rho0, times)[0]:
        want = unvec(exact_superop(p, res.t) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= 1e-12, res.t


@st.composite
def _stiff_edge_states(draw, max_dim=10, min_dim=2):
    """A model at min_dim <= d <= max_dim with rates up to 1e3 and
    theta != 0, and a state with population in one of the top two levels."""
    p = draw(stiff_models(max_dim, min_dim))
    rho0 = random_density(p.dim, draw(st.sampled_from([p.dim - 2, p.dim - 1])),
                          np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return p, rho0


@st.composite
def _stiff_edge_grid_problems(draw):
    """A stiff edge state (_stiff_edge_states) and a short grid."""
    p, rho0 = draw(_stiff_edge_states())
    gaps = draw(st.lists(st.floats(0.0, 1.0) | st.floats(1e-4, 1e-2),
                         min_size=1, max_size=4))
    return p, rho0, list(itertools.accumulate(gaps, initial=0.0))


def _pure(amplitudes, dim):
    """The pure state of the normalized amplitudes on the lowest levels."""
    psi = np.zeros(dim, dtype=complex)
    psi[:len(amplitudes)] = amplitudes
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@settings(max_examples=30)
@given(problem=_stiff_edge_grid_problems())
# ||t L||_1 = 4.2e4 at the last time: the chain is 1.2e-12 from
# exact_superop, 4.3e-13 from the extended-precision exponential
@example(problem=(
    ModelParams(omega=0.0, mu=789.1084980873195, nu=748.3337166487735,
                kappa=-98.22585765546275 + 560.174611403883j, dim=8, theta=2.0),
    _pure([0.28284, -0.211673 + 0.011352j, -0.346415 - 0.237247j,
           -0.178827 - 0.055068j, -0.008742 + 0.158814j,
           -0.668244 - 0.196701j, -0.013405 - 0.391212j], 8),
    [0.0, 0.75, 1.38527437582668]))
def test_exact_grid_matches_full_dense_expm_at_stiff_rates_and_the_edge(problem):
    """The parity-block chain against the whole generator's exponential,
    in extended precision: at these rates a double-precision one can be
    nearly the bar away from exp(t L) by itself."""
    p, rho0, times = problem
    for res in propagate_sweep([p], rho0, times)[0]:
        want = unvec(exact_superop_extended(p, res.t) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= 1e-12, res.t


@settings(max_examples=10)
@given(problem=_stiff_edge_grid_problems())
def test_sparse_exact_kernel_at_stiff_rates_and_the_edge(problem):
    """The same problems through the Taylor kernel, forced by a rule of 0
    rows, against the same oracle and bar."""
    p, rho0, times = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "DENSE_BLOCK_ROWS", 0)
        got = propagate_sweep([p], rho0, times)[0]
    for res in got:
        want = unvec(exact_superop_extended(p, res.t) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= 1e-12, res.t


@settings(max_examples=10)
@given(model=_boundary_models(), seed=st.integers(0, 2**32 - 1))
def test_sparse_exact_kernel_across_coefficient_seams(model, seed):
    p, t = model
    rho0 = random_density(8, 3, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "DENSE_BLOCK_ROWS", 0)
        got = propagate(p, rho0, t).rho_t
    want = unvec(exact_superop(p, t) @ vec(rho0))
    assert _tracedist(got, want) <= 1e-12


@pytest.mark.parametrize("rate, kappa, level", [
    (100.0, 1e-320, 0), (100.0, 1e-320, 5), (100.0, 1e-320, 11),
    (100.0, 1e-160, 5), (1e3, 1e-320, 5)])
def test_sparse_exact_kernel_ignores_subnormal_entries(rate, kappa, level):
    """A kappa of 1e-320 leaves subnormal entries in the blocks, and one
    of 1e-160 leaves them in the block's square.  A randomized norm
    estimate such as scipy's expm_multiply takes above a 1-norm of 63
    warns of overflow on them (an error under the test suite's warning
    filter) and can come back too low, which at rates of 1e3 (a block
    1-norm near 1e4) shows as too few steps.  The Taylor plan reads the
    exact norm; the state must be the exponential's."""
    p = ModelParams(omega=1.0, mu=rate, nu=rate, kappa=kappa, dim=12,
                    theta=2.0)
    rho0 = fock_state(12, level)
    got = propagate_sweep([p], rho0, [0.0, 1.0])[0][-1].rho_t
    want = unvec(exact_superop(p, 1.0) @ vec(rho0))
    assert _tracedist(got, want) <= 1e-12


def _refuse_norm_estimates(mp):
    """Fail on any call of onenormest, the randomized norm estimate that
    scipy's expm_multiply takes above its exact-norm bound; the exact
    route must never reach it."""
    def refuse(*args, **kwargs):
        raise AssertionError("onenormest called")

    mp.setattr("scipy.sparse.linalg._onenormest.onenormest", refuse)


@pytest.fixture
def no_norm_estimate(monkeypatch):
    _refuse_norm_estimates(monkeypatch)


@pytest.mark.parametrize("kappa", [0.0, 1e-320])
def test_sparse_exact_kernel_never_estimates_a_norm(no_norm_estimate, kappa):
    """A step 1-norm near 1.5e3 (rates 1e3), far above the bound where
    scipy's expm_multiply would estimate norms from numpy's global random
    state: the Taylor plan reads the exact norm."""
    p = ModelParams(omega=1.0, mu=1e3, nu=1e3, kappa=kappa, dim=12, theta=2.0)
    rho0 = fock_state(12, 5)
    got = propagate_sweep([p], rho0, [0.0, 0.05])[0][-1].rho_t
    want = unvec(exact_superop(p, 0.05) @ vec(rho0))
    assert _tracedist(got, want) <= 1e-12


def _shifted_norm(m):
    """The 1-norm of m shifted by its mean diagonal, as expm_multiply
    computes it."""
    shifted = m - (m.trace() / m.shape[0]) * scipy.sparse.eye_array(m.shape[0])
    return abs(shifted).sum(axis=0).max()


@pytest.mark.parametrize("dim", [12, 16, 24, 32])
def test_taylor_kernel_matches_scipys_expm_multiply(no_norm_estimate, dim):
    """scipy's expm_multiply as an oracle, at gaps whose shifted 1-norms
    keep it on its exact-norm branch (no_norm_estimate refuses the
    other): the kernel takes the same steps and degree there."""
    import scipy.sparse.linalg
    gen = build_liouvillian_trace_exact(_readme_model(dim))
    rng = np.random.default_rng(dim)
    for cls in generator_template(dim, 0.0).classes:
        block = gen[np.ix_(cls.slots, cls.slots)]
        x = rng.normal(size=cls.slots.size) + 1j * rng.normal(size=cls.slots.size)
        for gap in (0.01, 0.25, 1.0):
            got = propagators.taylor_apply(propagators.taylor_plan(block, gap), x)
            want = scipy.sparse.linalg.expm_multiply(gap * block, x)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), gap


def test_taylor_kernel_at_stiff_rates_meets_the_dense_oracle():
    """The README model with every rate times 1e3: plans of tens of
    steps of degree 55, two gaps in one chain."""
    p = ModelParams(omega=1e3, mu=400.0, nu=100.0, kappa=100.0 + 50.0j, dim=12)
    rho0 = coherent_state(12, 1.2)
    for res in propagate_sweep([p], rho0, [0.0, 0.02, 0.05])[0]:
        want = unvec(exact_superop(p, res.t) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= _stiff_bar(p, res.t), res.t


@settings(max_examples=40)
@given(d=st.integers(2, 16), theta=st.floats(-3.0, 3.0),
       name=st.sampled_from(["jump_minus", "jump_plus", "squeeze_minus",
                             "squeeze_plus"]),
       n=st.integers(1, 5), scale=st.sampled_from([0.0, 0.3, 5.0]),
       zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_series_sums_in_place_with_the_bits_of_new_terms(d, theta, name, n,
                                                         scale, zero, seed):
    """propagators._series on a block of states against the loop that
    makes a new array per term and sum; the caller's block is left as it
    was.  A zero weight or block ends the sum at its first term.  On the
    sparse identity with one weight (_form's exp(w g)), the sum keeps the
    bits and the stored pattern of that loop."""
    g = getattr(cached_generators(d, theta), name)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d * d, n)) + 1j * rng.normal(size=(d * d, n))
    if zero:
        x[:] = 0.0
    w = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    keep = x.copy()
    got = propagators._series(g, w, x, d)
    assert np.array_equal(got.view(np.uint64),
                          series_by_new_terms(g, w, x, d).view(np.uint64))
    assert np.array_equal(x.view(np.uint64), keep.view(np.uint64))
    eye = scipy.sparse.eye_array(d * d, dtype=np.complex128, format="csr")
    got = propagators._series(g, w[0], eye, d)
    want = series_by_new_terms(g, w[0], eye, d)
    assert got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
    assert eye.nnz == d * d and not (eye != scipy.sparse.eye_array(d * d)).nnz


def test_gap_steps_stay_within_the_exact_norm_bound():
    """Each of a plan's steps has a shifted 1-norm within theta of its
    degree, and no (degree, steps) pair of the table meets that bound
    with fewer matvecs."""
    theta = TAYLOR_THETA
    block = build_liouvillian_trace_exact(
        ModelParams(omega=1.0, mu=1e3, nu=1e3, kappa=0.0, dim=12))
    for gap in (1e-6, 1e-3, 0.05, 1.0):
        plan = propagators.taylor_plan(block, gap)
        norm = _shifted_norm(gap * block)
        assert abs(plan.shifted - (gap * block - plan.shift * scipy.sparse.eye_array(
            block.shape[0]))).max() == 0.0
        assert norm / plan.steps <= theta[plan.degree], gap
        assert plan.degree * plan.steps == min(
            m * math.ceil(norm / th) for m, th in theta.items()), gap
    assert plan.steps > 1000    # the last gap needs many steps
    zero = propagators.taylor_plan(block, 0.0)
    assert (zero.degree, zero.steps) == (0, 1)


def test_a_plan_past_the_matvec_bound_raises():
    # the plan's matvec count grows with the gap; a plan of half the bound
    # is made, one of twice the bound refused
    block = build_liouvillian_trace_exact(
        ModelParams(omega=1.0, mu=1e3, nu=1e3, kappa=0.0, dim=12))
    plan = propagators.taylor_plan(block, 1.0)
    gap = TAYLOR_MAX_MATVECS / (plan.degree * plan.steps)
    half = propagators.taylor_plan(block, 0.5 * gap)
    assert TAYLOR_MAX_MATVECS / 4 < half.degree * half.steps <= TAYLOR_MAX_MATVECS
    with pytest.raises(NumericalError, match=r"more than 2e\+07 matvecs$"):
        propagators.taylor_plan(block, 2.0 * gap)


# ------------------------------------------------------ one pass per sweep


@st.composite
def _sweep_problems(draw):
    """2 to 5 admissible models of one dim and theta, a state, a time and
    a step count.

    d is on both sides of the dense-block rule, and above it the step
    count keeps a stepped splitting matrix-free (n <= d^2 / 16).
    """
    d = draw(st.sampled_from([3, 8, 11, 13]))
    theta = draw(st.floats(0.0, 3.0))
    models = []
    for _ in range(draw(st.integers(2, 5))):
        mu, nu = draw(_RATE), draw(_RATE)
        kappa = (draw(st.floats(0.0, 1.0)) * math.sqrt(mu * nu)
                 * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
        models.append(ModelParams(omega=draw(st.floats(0.0, 2.0)), mu=mu,
                                  nu=nu, kappa=kappa, dim=d, theta=theta))
    rho0 = random_density(d, draw(st.integers(0, d - 1)),
                          np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return models, rho0, draw(st.floats(0.0, 2.5)), draw(st.integers(1, 7))


@settings(max_examples=25)
@given(problem=_sweep_problems())
def test_sweep_points_are_their_single_model_runs_bit_for_bit(problem):
    """Every closed-form column, and the series route's loop, gives the
    one-model call's bits; so does every stepped route."""
    models, rho0, t, n = problem
    for method in ("factorized", "alternative", "series"):
        plain = propagators.propagate_sweep(models, rho0, [t], method)
        for p, (res,) in zip(models, plain):
            assert (res.method, res.t) == (method, t)
            assert np.array_equal(res.rho_t, propagate(p, rho0, t, method).rho_t), method
        stepped = propagators.propagate_sweep(models, rho0, [t], method, n)
        for p, (res,) in zip(models, stepped):
            want = stepped_propagate(p, rho0, t, n, method).rho_t
            assert np.array_equal(res.rho_t, want), (method, n)


@settings(max_examples=25)
@given(problem=_sweep_problems(),
       more=st.lists(st.floats(0.0, 2.5), max_size=2))
def test_grid_columns_are_their_single_time_runs_bit_for_bit(problem, more):
    """Over models x sorted times with 0 and a repeated time, every
    closed-form column, every series item and every stepped splitting
    has the bits of its propagate or stepped_propagate call."""
    models, rho0, t, n = problem
    times = sorted([0.0, t, t] + more)
    for method in ("factorized", "alternative", "series"):
        plain = propagators.propagate_sweep(models, rho0, times, method)
        stepped = propagators.propagate_sweep(models, rho0, times, method, n)
        for p, row, steps in zip(models, plain, stepped):
            assert [(r.method, r.t) for r in row] == [(method, s) for s in times]
            for res, step in zip(row, steps):
                want = propagate(p, rho0, res.t, method).rho_t
                assert np.array_equal(res.rho_t, want), (method, res.t)
                want = stepped_propagate(p, rho0, res.t, n, method).rho_t
                assert np.array_equal(step.rho_t, want), (method, res.t, n)


@settings(max_examples=25)
@given(problem=_sweep_problems())
def test_exact_sweep_points_match_the_full_dense_exponential(problem):
    """Each model of the direct sum, and of its stepped chain, against its
    own full dense exponential."""
    models, rho0, t, n = problem
    single = [r[0] for r in propagators.propagate_sweep(models, rho0, [t])]
    stepped = [r[0] for r in propagators.propagate_sweep(models, rho0, [t], "exact", n)]
    for p, one, chain in zip(models, single, stepped):
        want = unvec(exact_superop(p, t) @ vec(rho0))
        assert _tracedist(one.rho_t, want) <= 1e-12, p
        assert _tracedist(chain.rho_t, want) <= 1e-12, (p, n)


@st.composite
def _stiff_sweeps(draw):
    """2 to 4 stiff models (conftest.stiff_models) at one d in 11..14 and
    one theta, a state with population in one of the top two levels, and
    a time of up to 20 time constants of the fastest rate, which puts
    ||t L||_1 up to about 1e3."""
    d = draw(st.integers(11, 14))
    first = draw(stiff_models(d, d))
    models = [first] + [replace(draw(stiff_models(d, d)), theta=first.theta)
                        for _ in range(draw(st.integers(1, 3)))]
    fastest = max(max(p.omega, p.mu, p.nu, abs(p.kappa)) for p in models)
    rho0 = random_density(d, draw(st.sampled_from([d - 2, d - 1])),
                          np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return models, rho0, draw(st.floats(0.0, 20.0)) / fastest


@settings(max_examples=10)
@given(problem=_stiff_sweeps())
def test_exact_direct_sum_at_stiff_rates_and_the_edge(problem):
    """Each model of the direct sum against its own full dense
    exponential; the sum shares one shift and one step count."""
    models, rho0, t = problem
    with pytest.MonkeyPatch.context() as mp:
        _refuse_norm_estimates(mp)
        got = [r[0] for r in propagators.propagate_sweep(models, rho0, [t])]
    for p, res in zip(models, got):
        want = unvec(exact_superop(p, t) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= _stiff_bar(p, t), p


def test_exact_direct_sum_across_three_decades_of_norm(no_norm_estimate):
    """A mu-sweep whose ||t L||_1 runs from 0.4 to 440, so the models
    fall into several direct sums of close norm."""
    models = [ModelParams(omega=0.01, mu=float(mu), nu=0.005, kappa=0.002, dim=12)
              for mu in np.geomspace(0.01, 20.0, 8)]
    norms = [abs(build_liouvillian_trace_exact(p)).sum(axis=0).max() for p in models]
    assert min(norms) < 0.4 and max(norms) > 400
    rho0 = coherent_state(12, 1.5)
    for p, (res,) in zip(models, propagators.propagate_sweep(models, rho0, [1.0])):
        want = unvec(exact_superop(p, 1.0) @ vec(rho0))
        assert _tracedist(res.rho_t, want) <= _stiff_bar(p, 1.0), p.mu


def test_exact_sweep_is_one_direct_sum_per_parity_class(monkeypatch):
    planned, applied = _record_taylor(monkeypatch)
    calls = _count_calls(monkeypatch, "build_liouvillian_trace_exact")
    models = [replace(_readme_model(12), kappa=k) for k in (0.0, 0.05, 0.1j)]
    # both parity classes of a coherent state, the even one alone of a Fock
    # state (no odd n1 + n2 slot)
    for rho0, blocks in ((coherent_state(12, 0.9 - 0.4j), 2), (fock_state(12, 1), 1)):
        calls.clear()
        planned.clear()
        applied.clear()
        propagators.propagate_sweep(models, rho0, [2.0])
        # one generator per model; per occupied class one plan and one
        # vector of all three models
        assert calls == {"build_liouvillian_trace_exact": 3}
        assert [plan.shifted.shape for plan in planned] == [(216, 216)] * blocks
        assert [(step, x.shape) for step, x in applied] == [
            (plan, (216,)) for plan in planned]
        assert all(x.any() for _, x in applied)     # no all-zero class is evolved


@st.composite
def _even_problems(draw):
    """1 to 3 admissible models at one d = 2..14 (both sides of the
    dense-block rule) and theta, a Fock or thermal state (no odd n1 + n2
    slot), levels (n1, n2) of odd n1 + n2, and a short grid."""
    d = draw(st.integers(2, 10) | st.integers(11, 14))
    theta = draw(st.floats(-3.0, 3.0))
    models = []
    for _ in range(draw(st.integers(1, 3))):
        mu, nu = draw(_RATE), draw(_RATE)
        kappa = (draw(st.floats(0.0, 1.0)) * math.sqrt(mu * nu)
                 * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
        models.append(ModelParams(omega=draw(st.floats(0.0, 2.0)), mu=mu, nu=nu,
                                  kappa=kappa, dim=d, theta=theta))
    rho0 = (fock_state(d, draw(st.integers(0, d - 1))) if draw(st.booleans())
            else thermal_state(d, draw(st.floats(0.0, 3.0))))
    n1 = draw(st.integers(0, d - 1))
    n2 = draw(st.sampled_from([k for k in range(d) if (n1 + k) % 2]))
    gaps = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    return models, rho0, (n1, n2), list(itertools.accumulate(gaps, initial=1e-3))


@settings(max_examples=15)
@given(problem=_even_problems())
def test_exact_chain_evolves_only_the_occupied_parity_classes(problem):
    """Without an odd coherence the odd slots stay +0, and the even slots
    have the bits of the runs with one, real, imaginary or complex; with
    it the odd slots are evolved (the full dense exponential)."""
    models, rho0, (n1, n2), times = problem
    even, odd = generator_template(rho0.shape[0], models[0].theta).classes
    plain = propagators.propagate_sweep(models, rho0, times)
    want = {(p, t): exact_superop(p, t) for p in models for t in times}
    for c in (0.1, 0.1j, 0.05 - 0.02j):
        coherent = rho0.astype(complex)
        coherent[n1, n2] += c
        coherent[n2, n1] += np.conj(c)
        mixed = propagators.propagate_sweep(models, coherent, times)
        for p, row, mixed_row in zip(models, plain, mixed):
            for res, other in zip(row, mixed_row):
                v, w = vec(res.rho_t), vec(other.rho_t)
                assert not v[odd.slots].view(np.uint64).any(), (p, res.t)
                assert np.array_equal(v[even.slots].view(np.uint64),
                                      w[even.slots].view(np.uint64)), (p, res.t, c)
                assert np.abs(w - want[p, res.t] @ vec(coherent)).max() <= 1e-12, (
                    p, res.t, c)


def test_exact_direct_sums_hold_only_blocks_of_close_norm():
    """A wide mu-sweep: every block is in one direct sum, and the blocks
    of one sum have shifted norms within DIRECT_SUM_NORM_RATIO."""
    dim, size = 12, 144
    models = [replace(_readme_model(dim), mu=mu)
              for mu in (0.4, 0.5, 0.6, 40.0, 45.0, 400.0)]
    for cls in generator_template(dim, 0.0).classes:
        parts = [(cls.slots + j * size,
                  build_liouvillian_trace_exact(p)[np.ix_(cls.slots, cls.slots)])
                 for j, p in enumerate(models)]
        blocks = [build_liouvillian_trace_exact(p).data[cls.entries] for p in models]
        norms = [_shifted_norm(b) for _, b in parts]
        for (_, b), entries in zip(parts, blocks):
            got = shifted_norm(entries, cls.indices, entries[cls.diagonal])
            assert got == pytest.approx(_shifted_norm(b), rel=1e-13)
        sums = propagators._direct_sums(cls, blocks, size)
        members = [sorted({int(i) // size for i in slots}) for slots, _ in sums]
        assert members == [[0, 1, 2], [3, 4], [5]]
        for (slots, block), group in zip(sums, members):
            assert np.array_equal(slots, np.concatenate([parts[j][0] for j in group]))
            want = scipy.sparse.block_diag([parts[j][1] for j in group])
            assert abs(block - want).max() == 0.0
            assert max(norms[j] for j in group) <= (
                propagators.DIRECT_SUM_NORM_RATIO * min(norms[j] for j in group))


def test_exact_sweep_splits_the_models_into_the_fewest_chunks_that_fit(
        monkeypatch, rng):
    models = [random_admissible_params(rng, 11, theta=0.2) for _ in range(5)]
    rho0 = random_density(11, 6, rng)
    whole = [r[0] for r in propagators.propagate_sweep(models, rho0, [1.3])]
    need = propagators._exact_memory(11)
    chains = []
    real = propagators._exact_chain

    def recording(chunk, *args):
        chains.append(len(chunk))
        return real(chunk, *args)

    monkeypatch.setattr(propagators, "_exact_chain", recording)
    # two models fit at a time: three chunks, as equal as they go
    monkeypatch.setattr(propagators, "_available_memory", lambda: 2 * need + need // 2)
    chunked = [r[0] for r in propagators.propagate_sweep(models, rho0, [1.3])]
    assert chains == [2, 2, 1]
    for a, b in zip(whole, chunked):
        assert _tracedist(a.rho_t, b.rho_t) <= 1e-12
    # four fit: two chunks of 3 and 2, not 4 and 1
    chains.clear()
    monkeypatch.setattr(propagators, "_available_memory", lambda: 4 * need)
    propagators.propagate_sweep(models, rho0, [1.3])
    assert chains == [3, 2]
    # not even one fits
    monkeypatch.setattr(propagators, "_available_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match="exact route at dim 11 needs"):
        propagators.propagate_sweep(models, rho0, [1.3])


def test_closed_form_grid_evaluates_each_distinct_positive_time_once(monkeypatch):
    """t = 0 is rho0, as the kernel's stages give it, and a repeated time
    is a copy of its first column."""
    p, rho0 = _readme_model(12), coherent_state(12, 0.8)
    times = [0.0, 0.0, 0.5, 0.5, 0.5, 1.25]
    for method in ("factorized", "alternative"):
        pref, stages = propagators._closed_form([p], [0.0], method)
        at_zero = propagators._apply(stages, vec(rho0)[:, None], 12) * pref
        assert at_zero[:, 0].tobytes() == vec(rho0).tobytes()
    real = propagators._closed_form
    columns = []

    def recording(models, ts, method, *slots):
        columns.append(list(ts))
        return real(models, ts, method, *slots)

    monkeypatch.setattr(propagators, "_closed_form", recording)
    for method in ("factorized", "alternative"):
        columns.clear()
        grid = propagate_sweep([p], rho0, times, method)[0]
        assert columns == [[0.5, 1.25]]
        assert grid[0].rho_t.tobytes() == rho0.tobytes()
        grid[2].rho_t[0, 0] = 7.0     # the repeated times are copies
        assert np.array_equal(grid[3].rho_t, grid[4].rho_t)
        assert not np.array_equal(grid[2].rho_t, grid[3].rho_t)
        for res in grid[3:]:
            assert np.array_equal(res.rho_t, propagate(p, rho0, res.t, method).rho_t)


def test_closed_form_passes_are_bounded_and_keep_the_bits(monkeypatch):
    p, rho0 = _readme_model(11), coherent_state(11, 0.8)
    times = np.linspace(0.25, 2.0, 7)
    whole = propagate_sweep([p], rho0, times, "factorized")[0]
    real = propagators._closed_form
    widths = []

    def recording(models, ts, method, *slots):
        widths.append(len(ts))
        return real(models, ts, method, *slots)

    monkeypatch.setattr(propagators, "_closed_form", recording)
    # two columns of 121 slots per pass
    monkeypatch.setattr(propagators, "CLOSED_FORM_BLOCK_BYTES", 2 * 16 * 121 + 15)
    passes = propagate_sweep([p], rho0, times, "factorized")[0]
    assert widths == [2, 2, 2, 1]
    for a, b in zip(whole, passes):
        assert np.array_equal(a.rho_t, b.rho_t)


@st.composite
def _closed_form_problems(draw):
    """A closed-form kernel call: 1 to 3 admissible models at one
    d = 2..24 and theta, kappa 0 or not, one time each, a route
    (factorized, alternative, or factorized stepped at n <= d^2 / 16
    steps), and vec of a Fock, thermal or coherent state, or of a Fock
    or thermal state given a real, imaginary or -0 coherence at one odd
    n1 + n2 slot and its mirror; and the number of parity classes it
    occupies."""
    d = draw(st.integers(2, 24))
    theta = draw(st.floats(-3.0, 3.0))
    models, times = [], []
    for _ in range(draw(st.integers(1, 3))):
        mu, nu = draw(_RATE), draw(_RATE)
        kappa = 0.0 if draw(st.booleans()) else (
            draw(st.floats(0.1, 1.0)) * math.sqrt(mu * nu)
            * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
        models.append(ModelParams(omega=draw(st.floats(0.0, 2.0)), mu=mu, nu=nu,
                                  kappa=kappa, dim=d, theta=theta))
        times.append(draw(st.floats(0.05, 2.0)))
    method = draw(st.sampled_from(["factorized", "alternative", "stepped"]))
    n_steps = draw(st.integers(1, max(1, d * d // 16))) if method == "stepped" else 1
    kind = draw(st.sampled_from(["fock", "thermal", "coherent", "real", "imaginary",
                                 "-0"]))
    if kind == "coherent":
        rho = coherent_state(d, cmath.rect(draw(st.floats(0.3, 1.5)),
                                           draw(st.floats(0.0, 2.0 * math.pi))))
    else:
        rho = (fock_state(d, draw(st.integers(0, d - 1))) if draw(st.booleans())
               else thermal_state(d, draw(st.floats(0.0, 3.0))))
    if kind in ("real", "imaginary", "-0"):
        n1 = draw(st.integers(0, d - 1))
        n2 = draw(st.sampled_from([k for k in range(d) if (n1 + k) % 2]))
        c = {"real": 0.05, "imaginary": 0.05j, "-0": complex(-0.0, 0.0)}[kind]
        rho = rho.astype(complex)
        rho[n1, n2], rho[n2, n1] = c, np.conj(c)
    return (method.replace("stepped", "factorized"), models, times, vec(rho), n_steps,
            1 if kind in ("fock", "thermal") else 2)


@settings(max_examples=40)
@given(problem=_closed_form_problems())
def test_closed_form_pass_evolves_only_the_occupied_slots(problem):
    """The closed-form kernel equals the pass on all slots by value on
    every slot, keeps its bits on the slots of each occupied class, and
    leaves an unoccupied class +0 (where the pass on all slots can leave
    -0)."""
    method, models, times, x, n_steps, count = problem
    got = propagators._closed_form_pass(method, models, times, x, n_steps)
    want = closed_form_all_slots(method, models, times, x, n_steps)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    classes = generator_template(models[0].dim, models[0].theta).classes
    occupied = [cls for cls in classes if x[cls.slots].view(np.uint64).any()]
    assert len(occupied) == count
    for cls in classes:
        bits = got[cls.slots].view(np.uint64)
        if cls in occupied:
            assert np.array_equal(bits, want[cls.slots].view(np.uint64))
        else:
            assert not bits.any()


@pytest.mark.parametrize("dim, theta", [(2, 0.0), (5, 0.4), (8, -2.0), (16, 0.0)])
def test_class_generators_are_the_generators_blocks(dim, theta):
    """Each class block has the generator's class rows, entries in CSR
    order, its columns re-indexed to the class; no entry of a class row
    reaches the other class."""
    g = cached_generators(dim, theta)
    for cls, part in zip(generator_template(dim, theta).classes,
                         propagators._class_generators(dim, theta)):
        assert part.slots is cls.slots
        outside = np.ones(dim * dim, dtype=bool)
        outside[cls.slots] = False
        for name in ("jump_minus", "jump_plus", "squeeze_minus", "squeeze_plus"):
            full, block = getattr(g, name), getattr(part, name)
            rows = full[cls.slots]
            assert not rows[:, outside].nnz
            assert block.shape == (cls.slots.size,) * 2
            assert block.indices.dtype == full.indices.dtype
            assert np.array_equal(block.indptr, rows.indptr)
            assert np.array_equal(cls.slots[block.indices], rows.indices)
            assert np.array_equal(block.data.view(np.uint64), rows.data.view(np.uint64))
    assert propagators._class_generators(dim, theta) is propagators._class_generators(
        dim, theta)


def test_series_grid_is_one_pass_over_its_distinct_positive_columns(monkeypatch):
    """Three models over [0, t, t, t2] are one kernel pass over 3 x 2
    columns, each ladder sum taking all six at once; a time-0 item is
    rho0, a repeated time a copy, and a stepped grid one pass that
    chains n_steps maps."""
    p = _readme_model(9)
    models = [p, replace(p, kappa=0.0), replace(p, mu=0.7)]
    rho0, times = coherent_state(9, 0.8), [0.0, 0.5, 0.5, 1.25]
    real_pass, real_sum = propagators._series_pass, propagators._ladder_sum
    passes, sums = [], []

    def recording_pass(ms, ts, x, n_steps):
        passes.append((len(ms), n_steps))
        return real_pass(ms, ts, x, n_steps)

    def recording_sum(x, *args):
        sums.append(len(x))
        return real_sum(x, *args)

    monkeypatch.setattr(propagators, "_series_pass", recording_pass)
    monkeypatch.setattr(propagators, "_ladder_sum", recording_sum)
    grid = propagate_sweep(models, rho0, times, "series")
    assert passes == [(6, 1)] and sums == [6] * 8   # eight sums per map
    for model, row in zip(models, grid):
        assert row[0].rho_t.tobytes() == rho0.tobytes()
        row[1].rho_t[0, 0] = 7.0     # the repeated times are copies
        assert np.array_equal(row[2].rho_t, propagate(model, rho0, 0.5, "series").rho_t)
    passes.clear()
    sums.clear()
    grid = propagate_sweep(models, rho0, times, "series", 4)
    assert passes == [(6, 4)] and sums == [6] * 32
    for model, row in zip(models, grid):
        assert row[0].rho_t.tobytes() == rho0.tobytes()
        want = stepped_propagate(model, rho0, 1.25, 4, "series").rho_t
        assert np.array_equal(row[3].rho_t, want)


_LADDER_PAIRS = [("a", "a"), ("a_dag", "a_dag"), ("a", "a_dag"), ("a_dag", "a"),
                 ("a2", "one"), ("one", "a2"), ("a_dag2", "one"), ("one", "a_dag2")]


@st.composite
def _ladder_problems(draw):
    """A ladder pair, d, theta, 1 to 5 complex weights with |w| <= 2 and
    a seed for the n x d x d stack."""
    n = draw(st.integers(1, 5))
    weights = [cmath.rect(draw(st.floats(0.0, 2.0)),
                          draw(st.floats(0.0, 2.0 * math.pi))) for _ in range(n)]
    return (draw(st.sampled_from(_LADDER_PAIRS)), draw(st.sampled_from([2, 3, 8, 13])),
            draw(st.floats(0.0, 3.0)), weights, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80)
@given(problem=_ladder_problems())
@example(problem=(("a", "a"), 3, 2.0, [0.7 + 0.9j, -1.3 + 0.4j], 0))
@example(problem=(("a_dag", "a"), 3, 2.0, [0.7 + 0.9j, -1.3 + 0.4j], 0))
def test_ladder_sum_is_the_matrix_sandwich_and_each_column_its_own_call(problem):
    """_ladder_sum against oracles.sandwich_sum, entrywise within
    4 d eps times the same sum of absolute values (each term's entry is
    about 2k roundings from exact, and there are at most d terms; at most
    1.9 d eps over 3000 random draws), and every column with the bits of
    its one-column call.  At d = 3 the last term's window is 1 x 1, where
    numpy's complex product in place rounds differently for one column
    than for several: the examples fail if _ladder_sum multiplies by the
    weights in place."""
    (left, right), d, theta, weights, seed = problem
    ops = build_fock_ops(d, theta)
    ladders = {"a": ops.a, "a_dag": ops.a_dag, "a2": ops.a @ ops.a,
               "a_dag2": ops.a_dag @ ops.a_dag, "one": ops.identity}
    lop, rop = ladders[left], ladders[right]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(weights), d, d)) + 1j * rng.normal(size=(len(weights), d, d))
    w = np.array(weights, dtype=complex)
    got = propagators._ladder_sum(x.copy(), lop, rop, w)
    eps = np.finfo(float).eps
    for j, wj in enumerate(weights):
        want = sandwich_sum(x[j], lop, rop, wj, d)
        scale = sandwich_sum(abs(x[j]), abs(lop), abs(rop), abs(wj), d).real
        assert np.all(abs(got[j] - want) <= 4 * d * eps * scale), (left, right)
        one = propagators._ladder_sum(x[j:j + 1].copy(), lop, rop, w[j:j + 1])
        assert np.array_equal(one[0], got[j]), (left, right)


def test_exact_memory_covers_the_measured_peaks():
    """Peak RSS of the exact route over the README grid in a child
    process, one BLAS thread, the first build of the cached generators
    and their template included: the largest of 3 to 6 runs per d with
    ru_maxrss (see EXPM_WORKSPACE)."""
    for dim, peak_mb in ((11, 1.63), (16, 1.70), (24, 1.70), (32, 1.76), (48, 3.15),
                         (64, 5.80), (96, 11.99), (128, 19.98)):
        assert propagators._exact_memory(dim) >= peak_mb * 1e6, dim


def test_sweep_validates_its_models():
    p = _readme_model(6)
    rho0 = fock_state(6, 0)
    with pytest.raises(ValueError, match="nonempty"):
        propagators.propagate_sweep([], rho0, [1.0])
    with pytest.raises(ValueError, match="share dim and theta"):
        propagators.propagate_sweep([p, replace(p, theta=0.1)], rho0, [1.0])
    with pytest.raises(ValueError, match="share dim and theta"):
        propagators.propagate_sweep([p, replace(p, dim=7)], rho0, [1.0])
    with pytest.raises(ValueError, match="unknown method"):
        propagators.propagate_sweep([p], rho0, [1.0], "spectral")
    with pytest.raises(ValueError, match="n_steps"):
        propagators.propagate_sweep([p], rho0, [1.0], "exact", 0)


@settings(max_examples=25)
@given(problem=_grid_problems(), pick=st.tuples(st.integers(0), st.integers(0)))
def test_exact_grid_is_a_semigroup_property(problem, pick):
    """The grid state at s + t is the single-time map of t applied at s."""
    p, rho0, times = problem
    i, j = sorted(k % len(times) for k in pick)
    states = propagate_sweep([p], rho0, times)[0]
    s, later = states[i], states[j]
    mapped = unvec(exact_superop(p, later.t - s.t) @ vec(s.rho_t))
    assert _tracedist(later.rho_t, mapped) <= 1e-12


@settings(max_examples=25)
@given(problem=_grid_problems())
def test_exact_grid_preserves_trace_property(problem):
    p, rho0, times = problem
    for res in propagate_sweep([p], rho0, times)[0]:
        assert abs(np.trace(res.rho_t) - 1.0) <= 1e-12, res.t


def test_stepped_single_step_matches_single_shot():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.1 + 0.1j, dim=8)
    rho0 = fock_state(8, 2)
    for method in METHODS:
        one = stepped_propagate(p, rho0, 0.9, n_steps=1, method=method).rho_t
        shot = propagate(p, rho0, 0.9, method=method).rho_t
        np.testing.assert_allclose(one, shot, atol=1e-13)


@settings(max_examples=30)
@given(problem=_stiff_edge_states(), t=st.floats(0.0, 1.0), n=st.integers(1, 8))
def test_stepped_exact_is_n_full_dense_steps_property(problem, t, n):
    """Stepped exact runs on the parity-block grid route; n applications of
    the full dense exp(t/n L) are its reference."""
    p, rho0 = problem
    step = exact_superop(p, t / n)
    v = vec(rho0)
    for _ in range(n):
        v = step @ v
    got = stepped_propagate(p, rho0, t, n, method="exact")
    assert (got.method, got.t) == ("exact", t)
    assert _tracedist(got.rho_t, unvec(v)) <= 1e-12


@settings(max_examples=30)
@given(problem=_stiff_edge_states(), tau=st.floats(0.0, 2.0))
def test_single_stepped_splitting_is_the_matrix_free_route_property(problem, tau):
    """One step of the formed step map equals the factors applied one at a
    time.  t is at most two time constants of the fastest rate: far beyond
    that the closed-form products lose digits to cancellation (1e-8 apart
    at rate * t ~ 600), and the splitting is no longer an approximation."""
    p, rho0 = problem
    t = tau / max(p.omega, p.mu, p.nu, abs(p.kappa))
    for method in _BUILDERS:
        one = stepped_propagate(p, rho0, t, n_steps=1, method=method).rho_t
        want = propagate(p, rho0, t, method).rho_t
        assert np.linalg.norm(one - want) <= 1e-13 * np.linalg.norm(want), method


@settings(max_examples=20)
@given(problem=_stiff_edge_states(max_dim=14, min_dim=11),
       tau=st.floats(0.0, 2.0), n=st.integers(1, 7))
def test_matrix_free_stepped_splitting_is_n_dense_steps_property(problem, tau, n):
    """Above the dense-block rule, over at most d^2 / 16 steps, a stepped
    splitting applies its stages n times; n applications of the formed
    step map are its oracle.  t is at most two time constants, as in the
    single-step property above."""
    p, rho0 = problem
    assert propagators._stepped_matrix_free(p.dim, n)
    t = tau / max(p.omega, p.mu, p.nu, abs(p.kappa))
    for method, build in _BUILDERS.items():
        step = build(p, t / n)
        v = vec(rho0)
        for _ in range(n):
            v = step @ v
        want = unvec(v)
        got = stepped_propagate(p, rho0, t, n, method=method)
        assert (got.method, got.t) == (method, t)
        assert np.linalg.norm(got.rho_t - want) <= 1e-13 * np.linalg.norm(want), method


@pytest.mark.parametrize("dim, n_steps, builds",
                         [(8, 4, 0), (10, 7, 1), (11, 4, 0), (11, 8, 1), (16, 16, 0),
                          (16, 17, 1)],
                         ids=["short_chain_at_d8", "long_chain_at_d10",
                              "matrix_free_61_rows", "long_chain_at_d11",
                              "matrix_free_d2_over_16_steps", "long_chain_at_d16"])
def test_stepped_splitting_forms_a_step_map_only_by_the_rules(
        monkeypatch, dim, n_steps, builds):
    """The dense step map is formed once n_steps exceeds d^2 / 16, where
    its one build costs less than the matrix-free steps, at every d."""
    calls = _count_calls(monkeypatch, "factorized_superop",
                         "alternative_superop", "_form")
    p = _readme_model(dim)
    for method in _BUILDERS:
        calls.clear()
        stepped_propagate(p, fock_state(dim, 1), 1.0, n_steps, method=method)
        assert calls[f"{method}_superop"] == builds
        assert calls["_form"] == builds
        assert sum(calls.values()) == 2 * builds


@pytest.mark.parametrize("dim", [8, 12])
def test_stepped_exact_grid_is_one_chain_over_the_union_of_step_times(
        monkeypatch, dim):
    """Every time's step times t / n * k go into one chain, so each model's
    generator is built once, not once per time."""
    models = [_readme_model(dim), replace(_readme_model(dim), kappa=0.15j)]
    rho0 = coherent_state(dim, 1.2)
    times = sorted([*np.linspace(0.0, 2.0, 9), 1.0])
    calls = _count_calls(monkeypatch, "build_liouvillian_trace_exact")
    got = propagate_sweep(models, rho0, times, "exact", n_steps=8)
    assert calls == {"build_liouvillian_trace_exact": len(models)}
    for p, per_model in zip(models, got):
        for res in per_model:
            want = unvec(exact_superop(p, res.t) @ vec(rho0))
            assert _tracedist(res.rho_t, want) <= 1e-12, (p, res.t)


def test_stepped_splitting_forms_one_step_map_per_distinct_positive_column(
        monkeypatch):
    """At d = 6 an 8-step chain forms the dense step map (8 > 36 / 16): once
    per model and distinct positive time; time 0 is rho0 and a repeated
    time a copy, each item with its one-column bits."""
    models = [_readme_model(6), replace(_readme_model(6), omega=0.7)]
    rho0 = coherent_state(6, 1.0)
    times = [0.0, 0.6, 0.6, 1.3]
    for method in _BUILDERS:
        with monkeypatch.context() as mp:
            calls = _count_calls(mp, f"{method}_superop")
            got = propagate_sweep(models, rho0, times, method, n_steps=8)
        assert calls == {f"{method}_superop": 2 * len(models)}
        for p, per_model in zip(models, got):
            assert np.array_equal(per_model[0].rho_t, rho0)
            for res in per_model[1:]:
                one = stepped_propagate(p, rho0, res.t, 8, method=method)
                assert np.array_equal(res.rho_t, one.rho_t), (method, res.t)


def test_stepped_series_checks_only_the_initial_state():
    """At d = 2 a step carries population out through the edge (trace
    0.978 after the first of these 5 steps); as in the other stepped
    routes only rho0 is checked, and the series chain is the factorized
    one's, which applies the same map."""
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=2)
    rho0 = coherent_state(2, 0.8)
    series = stepped_propagate(p, rho0, 1.7, 5, method="series").rho_t
    factorized = stepped_propagate(p, rho0, 1.7, 5, method="factorized").rho_t
    assert abs(np.trace(factorized) - 0.914) < 1e-3
    assert np.linalg.norm(series - factorized) <= 1e-14


def test_stepped_without_two_photon_ignores_step_count():
    # kappa == 0 makes the two closed-form parts commute, so the splitting
    # is exact and slicing the horizon must not change the answer
    p = ModelParams(omega=1.0, mu=0.4, nu=0.2, kappa=0.0, dim=16)
    rho0 = fock_state(16, 2)
    base = stepped_propagate(p, rho0, 1.0, n_steps=1).rho_t
    for n in (2, 5, 16):
        gap = np.linalg.norm(stepped_propagate(p, rho0, 1.0, n_steps=n).rho_t - base)
        assert gap <= 1e-9, f"n_steps={n}: {gap:.3e}"


def test_exact_is_a_semigroup():
    p = ModelParams(omega=0.9, mu=0.5, nu=0.25, kappa=0.15 + 0.05j, dim=10)
    rho0 = fock_state(10, 1)
    whole = propagate(p, rho0, 1.2, method="exact").rho_t
    sliced = stepped_propagate(p, rho0, 1.2, n_steps=4, method="exact").rho_t
    assert np.linalg.norm(whole - sliced) <= 1e-10


def test_exact_forms_agree_away_from_corner():
    # the literal forms differ from the cyclic assembly on the whole top
    # row/column of rho, so agreement needs the state kept off the edge
    p = ModelParams(omega=0.8, mu=0.5, nu=0.2, kappa=0.2 + 0.1j, dim=16)
    rho0 = fock_state(16, 1)
    cyclic = propagate(p, rho0, 0.5, method="exact").rho_t
    for form in (form_one(p), form_two(p), build_liouvillian(p)):
        literal = unvec(scipy.linalg.expm(0.5 * form) @ vec(rho0))
        assert np.linalg.norm(cyclic - literal) <= 1e-8


def test_two_level_damping_closed_form():
    mu, t = 0.8, 0.9
    p = ModelParams(omega=0.0, mu=mu, nu=0.0, kappa=0.0, dim=2)
    rho0 = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]])
    got = propagate(p, rho0, t, method="exact").rho_t
    decay = np.exp(-mu * t)
    want = np.array([
        [1.0 - 0.7 * decay, rho0[0, 1] * np.exp(-0.5 * mu * t)],
        [rho0[1, 0] * np.exp(-0.5 * mu * t), 0.7 * decay],
    ])
    assert np.linalg.norm(got - want) <= 1e-10


def test_unitary_limit_conserves_occupation_and_purity():
    p = ModelParams(omega=1.3, mu=0.0, nu=0.0, kappa=0.0, dim=8)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 1], rho0[3, 3] = 0.5, 0.5
    rho0[1, 3] = rho0[3, 1] = 0.35
    start = propagate(p, rho0, 0.0, method="factorized").diagnostics
    for t in (0.6, 2.0):
        d = propagate(p, rho0, t, method="factorized").diagnostics
        assert abs(d.mean_n - start.mean_n) <= 1e-10
        assert abs(d.purity - start.purity) <= 1e-10


def test_superops_are_tangent_to_the_generator():
    """(method(t) - I)/t at tiny t reproduces the generator action."""
    p = ModelParams(omega=1.0, mu=0.5, nu=0.25, kappa=0.1 + 0.05j, dim=10)
    rho0 = np.zeros((10, 10), dtype=complex)
    rho0[0, 0], rho0[1, 1], rho0[2, 2] = 0.5, 0.3, 0.2
    rho0[0, 2] = rho0[2, 0] = 0.2
    v = vec(rho0)
    want = build_liouvillian_trace_exact(p) @ v
    t = 1e-6
    for build in (exact_superop, factorized_superop, alternative_superop):
        got = (build(p, t) @ v - v) / t
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-4, f"{build.__name__}: {rel:.3e}"
    series = (vec(operator_series_solution(p, rho0, t).rho_t) - v) / t
    assert np.linalg.norm(series - want) / np.linalg.norm(want) <= 1e-4


def test_propagate_validates_inputs():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.0, dim=6)
    rho0 = fock_state(6, 0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        propagate(p, rho0, -0.5)
    with pytest.raises(ValueError, match="trace"):
        propagate(p, 2.0 * rho0, 0.5)
    with pytest.raises(ValueError, match="must be 6 x 6"):
        propagate(p, fock_state(5, 0), 0.5)
    with pytest.raises(ValueError, match="unknown method"):
        propagate(p, rho0, 0.5, method="spectral")
    bad = rho0.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NumericalError):
        propagate(p, bad, 0.5)


def test_stepped_validates_step_count():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.0, dim=6)
    rho0 = fock_state(6, 0)
    with pytest.raises(ValueError, match="n_steps"):
        stepped_propagate(p, rho0, 1.0, n_steps=0)
    with pytest.raises(ValueError, match="n_steps"):
        stepped_propagate(p, rho0, 1.0, n_steps=2.5)
    with pytest.raises(ValueError, match="n_steps"):
        stepped_propagate(p, rho0, 1.0, True)
    with pytest.raises(ValueError, match="unknown method"):
        stepped_propagate(p, rho0, 1.0, n_steps=2, method="spectral")
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1, got None"):
        propagate_sweep([p], rho0, [1.0], "factorized", None)


@pytest.mark.parametrize("mu, nu, t", [(1.0, 0.0, 2000.0), (1.0, 0.0, 1420.5),
                                       (400.0, 100.0, 5.0), (100.0, 1000.0, 2.0)])
def test_closed_form_routes_raise_when_their_weights_overflow(mu, nu, t):
    """cosh, sinh or exp of (mu - nu) t / 2 overflows a double from about
    709.8 on (at t = 1420.5 exp does, cosh does not, and the scale sums
    to inf): each closed-form route, a one-step splitting and
    hyperbolic_weights raise NumericalError; the exact route and an
    8-step splitting stay in range."""
    p = ModelParams(omega=1.0, mu=mu, nu=nu, kappa=0.0, dim=6)
    rho0 = fock_state(6, 1)
    match = r"overflow at \(mu - nu\) t / 2 = "
    with pytest.raises(NumericalError, match=match):
        hyperbolic_weights(mu, nu, t)
    for method in ("factorized", "alternative", "series"):
        with pytest.raises(NumericalError, match=match):
            propagate(p, rho0, t, method)
        with pytest.raises(NumericalError, match=match):
            stepped_propagate(p, rho0, t, 1, method)
    for res in (propagate(p, rho0, t), stepped_propagate(p, rho0, t, 8)):
        assert np.isfinite(res.rho_t).all()


@pytest.mark.parametrize("method", METHODS)
def test_a_route_whose_state_overflows_raises_without_warnings(method):
    """At kappa = 1e200 every route's state overflows: the closed forms and
    the series report it from propagate_sweep, the exact route's dense
    blocks from expm, and no numpy warning (an error in this suite) comes
    first."""
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=1e200, dim=6)
    with pytest.raises(NumericalError, match="produced non-finite entries"):
        propagate(p, fock_state(6, 1), 0.5, method)


def test_only_the_sweep_driver_evaluates_a_route():
    """In propagators, only propagate_sweep names the exact chain, the
    column driver and the three column kernels, and convergence_study
    reaches the routes through propagate_sweep alone."""
    kernels = {"_exact_chain", "_columns", "_series_pass", "_closed_form_pass",
               "_step_map_pass"}
    tree = ast.parse(Path(propagators.__file__).read_text(encoding="utf-8"))
    named = {}
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in kernels:
                named.setdefault(sub.id, set()).add(getattr(node, "name", None))
    assert named == {name: {"propagate_sweep"} for name in kernels}

    tree = ast.parse(Path(diagnostics.__file__).read_text(encoding="utf-8"))
    study = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "convergence_study")
    called = [node.func.attr for node in ast.walk(study)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "propagators"]
    assert set(called) == {"propagate_sweep"}
