"""Generator assembly: parameter validation, form agreement, trace rows."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible_params, random_density, stiff_models
from oracles import form_one, form_two, trace_exact_generator, weighted_sum
from qdamp import propagators
from qdamp.liouvillian import (ModelParams, PositivityError,
                               build_liouvillian,
                               build_liouvillian_trace_exact, generator_template)
from qdamp.vectorize import unvec, vec

FORM_TOL = 1e-12


def _three_forms(p: ModelParams) -> list:
    """Forms I and II (tests/oracles.py) and the program's form III."""
    return [form_one(p), form_two(p), build_liouvillian(p)]


def _trace_row(d: int) -> np.ndarray:
    """w with w @ vec(X) == trace(X)."""
    return vec(np.eye(d)).conj()


class TestModelParams:
    def test_accepts_numpy_scalars(self):
        p = ModelParams(omega=np.float64(1.0), mu=np.int64(1), nu=np.float32(0.5),
                        kappa=np.complex128(0.1j), dim=np.int64(8))
        assert isinstance(p.mu, float) and isinstance(p.dim, int)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, mu=-0.1, nu=0.2, kappa=0.0, dim=4)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, mu=0.1, nu=-0.2, kappa=0.0, dim=4)

    def test_rejects_complex_reals(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1j, mu=0.1, nu=0.2, kappa=0.0, dim=4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModelParams(omega=np.inf, mu=0.1, nu=0.2, kappa=0.0, dim=4)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, mu=0.1, nu=0.2, kappa=np.nan + 0j, dim=4)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, mu=0.1, nu=0.2, kappa=0.0, dim=1)

    def test_positivity_boundary_inclusive(self):
        p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.2, dim=4)
        assert p.positivity_satisfied  # mu*nu == |kappa|^2 exactly
        p.require_positivity()

    def test_positivity_violation_raises_with_numbers(self):
        p = ModelParams(omega=1.0, mu=0.1, nu=0.1, kappa=0.5, dim=4)
        assert not p.positivity_satisfied
        with pytest.raises(PositivityError, match="0.25"):
            p.require_positivity()


@settings(max_examples=200)
@given(scale=st.floats(-8.0, 6.0), mu=st.floats(0.05, 1.0), nu=st.floats(0.05, 1.0),
       phase=st.floats(-np.pi, np.pi))
def test_positivity_slack_is_relative_at_every_rate_scale(scale, mu, nu, phase):
    """Over rates from 1e-8 to 1e6, a model on the edge |kappa| =
    sqrt(mu nu) is admitted, and |kappa| 1e-9 above it, or nu = 0 with
    kappa != 0, is not."""
    mu, nu = mu * 10.0 ** scale, nu * 10.0 ** scale
    kappa = np.sqrt(mu * nu) * np.exp(1j * phase)
    edge = ModelParams(omega=1.0, mu=mu, nu=nu, kappa=kappa, dim=4)
    assert edge.positivity_satisfied
    assert not replace(edge, kappa=kappa * (1.0 + 1e-9)).positivity_satisfied
    assert not replace(edge, nu=0.0).positivity_satisfied


def _direct_rhs(p: ModelParams, rho: np.ndarray) -> np.ndarray:
    """Master-equation right-hand side by plain matrix products."""
    ops = p.fock_ops()
    a, ad = ops.a, ops.a_dag
    n = ad @ a
    n1 = a @ ad       # lowering-first product, differs from n+1 at the corner
    a2, ad2 = a @ a, ad @ ad
    k, kc = p.kappa, p.kappa.conjugate()
    out = -1j * p.omega * (n @ rho - rho @ n)
    out -= 0.5 * p.mu * (n @ rho + rho @ n - 2 * a @ rho @ ad)
    out -= 0.5 * p.nu * (n1 @ rho + rho @ n1 - 2 * ad @ rho @ a)
    out -= 0.5 * k * (a2 @ rho + rho @ a2 - 2 * a @ rho @ a)
    out -= 0.5 * kc * (ad2 @ rho + rho @ ad2 - 2 * ad @ rho @ ad)
    return out


def test_forms_agree_pairwise(rng):
    for _ in range(10):
        p = random_admissible_params(rng, dim=6)
        h1, h2, h3 = _three_forms(p)
        assert np.linalg.norm(h1 - h2) <= FORM_TOL
        assert np.linalg.norm(h2 - h3) <= FORM_TOL
        assert np.linalg.norm(h1 - h3) <= FORM_TOL


def test_generator_matches_direct_rhs_away_from_corner(rng):
    # interior states: the kron-assembled generator and plain matrix
    # arithmetic must give the same derivative, for every form; rtol=0
    # keeps the bar absolute, so a relative error in one generator shows
    d = 7
    for _ in range(5):
        p = random_admissible_params(rng, dim=d, theta=0.3)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho[-1, :] = 0.0
        rho[:, -1] = 0.0
        want = _direct_rhs(p, rho)
        for h in _three_forms(p):
            got = unvec(h @ vec(rho))
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        got = unvec(build_liouvillian_trace_exact(p) @ vec(rho))
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40)
@given(p=stiff_models(), top=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_trace_exact_generator_matches_direct_rhs_property(p, top, seed):
    # both sides keep a a+ as the truncated product, so they agree on
    # every state, top-level population included
    rho = random_density(p.dim, min(top, p.dim - 1), np.random.default_rng(seed))
    rate = max(p.omega, p.mu, p.nu, abs(p.kappa))
    got = unvec(build_liouvillian_trace_exact(p) @ vec(rho))
    err = np.max(np.abs(got - _direct_rhs(p, rho)))
    assert err <= 1e-13 * rate * p.dim, err


@settings(max_examples=40)
@given(p=stiff_models(max_dim=12))
def test_trace_exact_generator_never_couples_opposite_parities_property(p):
    """Every term moves n1 + n2 by 0 or +-2, so the exact route may
    exponentiate the even and odd blocks on their own."""
    levels = np.arange(p.dim)
    parity = np.add.outer(levels, levels).reshape(-1) % 2
    across = parity[:, None] != parity[None, :]
    gen = build_liouvillian_trace_exact(p)
    assert np.count_nonzero(gen[across]) == 0
    assert np.count_nonzero(gen[~across]) > 0


def test_cyclic_assembly_annihilates_trace(rng):
    for _ in range(5):
        p = random_admissible_params(rng, dim=6)
        h = build_liouvillian_trace_exact(p).toarray()
        row = _trace_row(6) @ h
        assert np.max(np.abs(row)) <= 1e-13 * np.linalg.norm(h)


def test_literal_form_trace_defect_is_nu_d_at_corner():
    # the number-convention forms leak trace only through the top corner
    # slot, at exactly -nu*d
    p = ModelParams(omega=0.7, mu=0.5, nu=0.2, kappa=0.1 + 0.05j, dim=6)
    d = p.dim
    for h in _three_forms(p):
        row = _trace_row(d) @ h
        corner = d * d - 1
        npt.assert_allclose(row[corner], -p.nu * d, atol=1e-12)
        off = np.delete(row, corner)
        assert np.max(np.abs(off)) <= 1e-13 * np.linalg.norm(h)


def test_cyclic_and_literal_difference_is_an_edge_diagonal():
    # the two assemblies differ by the pump channel's (N + 1) vs a a^dag,
    # a rank-one mismatch on the top level; as a superoperator that is the
    # diagonal (nu d / 2)(1[n1 = d-1] + 1[n2 = d-1]), i.e. it touches the
    # whole last row and column of rho, not just the corner slot.  The
    # cyclic generator is form III plus that diagonal by construction, so
    # the forms built without the shared generators are the inputs here.
    p = ModelParams(omega=0.7, mu=0.5, nu=0.2, kappa=0.1 + 0.05j, dim=6)
    d = p.dim
    edge = (np.arange(d) == d - 1).astype(float)
    want = -0.5 * p.nu * d * np.diag(np.add.outer(edge, edge).reshape(-1))
    cyclic = build_liouvillian_trace_exact(p)
    for literal in (form_one(p), form_two(p)):
        npt.assert_allclose(literal - cyclic, want, atol=1e-13)


def test_phase_absorbs_into_kappa():
    # rotating the ladder phase is the same as rotating kappa by exp(2i theta)
    p = ModelParams(omega=0.9, mu=0.5, nu=0.2, kappa=0.2 + 0.1j, dim=6,
                    theta=0.8)
    rotated = replace(p, theta=0.0, kappa=p.kappa * np.exp(2j * p.theta))
    gap = np.linalg.norm(build_liouvillian(p) - build_liouvillian(rotated))
    assert gap <= 1e-12


@st.composite
def _models_at_seams(draw):
    """One to four models at one d in 2..16 (both sides of the exact
    route's dense-block rule, d <= 10) and a drawn theta, each at a drawn
    seam: mu = nu, nu = 0 (no edge term), kappa = 0, omega = 0, or none."""
    d = draw(st.integers(2, 16))
    theta = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    models = []
    for _ in range(draw(st.integers(1, 4))):
        p = ModelParams(omega=draw(st.floats(-3.0, 3.0)), mu=draw(st.floats(0.0, 5.0)),
                        nu=draw(st.floats(0.0, 5.0)),
                        kappa=complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
                        dim=d, theta=theta)
        seam = draw(st.sampled_from(["mu=nu", "nu=0", "kappa=0", "omega=0", None]))
        models.append({"mu=nu": replace(p, nu=p.mu), "nu=0": replace(p, nu=0.0),
                       "kappa=0": replace(p, kappa=0.0), "omega=0": replace(p, omega=0.0),
                       None: p}[seam])
    return models


def _shifted_norm(m) -> float:
    """The 1-norm of the CSR block m shifted by its mean diagonal, from the
    dense matrix."""
    dense = m.toarray()
    shift = np.trace(dense) / dense.shape[0] * np.eye(dense.shape[0])
    return np.abs(dense - shift).sum(axis=0).max()


@settings(max_examples=60)
@given(models=_models_at_seams())
def test_template_entries_are_the_sequential_sum_bit_for_bit(models):
    """The generators, their parity blocks and the exact route's direct
    sums read off the cached template equal those of the sequential CSR
    sum (tests/oracles.py): equal arrays, not close ones.  Each direct
    sum is scipy's block_diag of its models' oracle blocks, and the
    groups follow the norm rule: ascending, each within
    DIRECT_SUM_NORM_RATIO of its first, each first beyond that of the
    group before."""
    d = models[0].dim
    size = d * d
    oracles = [trace_exact_generator(p) for p in models]
    for p, want in zip(models, oracles):
        assert np.array_equal(build_liouvillian_trace_exact(p).toarray(), want.toarray())
        assert np.array_equal(build_liouvillian(p), weighted_sum(p).toarray())
    ratio = propagators.DIRECT_SUM_NORM_RATIO
    for cls in generator_template(d, models[0].theta).classes:
        blocks = [build_liouvillian_trace_exact(p).data[cls.entries] for p in models]
        wants = [want[np.ix_(cls.slots, cls.slots)] for want in oracles]
        for block, want in zip(blocks, wants):
            assert np.array_equal(cls.direct_sum([block]).toarray(), want.toarray())
        norms = [_shifted_norm(want) for want in wants]
        sums = propagators._direct_sums(cls, blocks, size)
        # a sum's slots are cls.slots + j * size for each of its models j
        groups = [[int(i) // size for i in slots[::cls.slots.size]] for slots, _ in sums]
        assert sorted(j for group in groups for j in group) == list(range(len(models)))
        for (slots, block), group in zip(sums, groups):
            assert np.array_equal(slots, np.concatenate([cls.slots + j * size for j in group]))
            want = scipy.sparse.block_diag([wants[j] for j in group], format="csr")
            assert np.array_equal(block.toarray(), want.toarray())
            first = norms[group[0]]
            assert all(first * (1 - 1e-12) <= norms[j] <= ratio * first * (1 + 1e-12)
                       for j in group)
        firsts = [norms[group[0]] for group in groups]
        assert all(ratio * a * (1 - 1e-12) < b for a, b in zip(firsts, firsts[1:]))
