"""Generator assembly: parameter validation, form agreement, trace rows."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible_params, random_density, stiff_models
from qdamp.liouvillian import (ModelParams, PositivityError,
                               build_liouvillian,
                               build_liouvillian_trace_exact,
                               phase_equivalence_check)
from qdamp.vectorize import trace_functional, unvec, vec

FORM_TOL = 1e-12


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
        h1 = build_liouvillian(p, "I")
        h2 = build_liouvillian(p, "II")
        h3 = build_liouvillian(p, "III")
        assert np.linalg.norm(h1 - h2) <= FORM_TOL
        assert np.linalg.norm(h2 - h3) <= FORM_TOL
        assert np.linalg.norm(h1 - h3) <= FORM_TOL


def test_unknown_form_rejected():
    p = ModelParams(omega=1.0, mu=0.4, nu=0.2, kappa=0.0, dim=4)
    with pytest.raises(ValueError):
        build_liouvillian(p, "IV")


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
        for form in ("I", "II", "III"):
            got = unvec(build_liouvillian(p, form) @ vec(rho))
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
        h = build_liouvillian_trace_exact(p)
        row = trace_functional(6) @ h
        assert np.max(np.abs(row)) <= 1e-13 * np.linalg.norm(h)


def test_literal_form_trace_defect_is_nu_d_at_corner():
    # the number-convention forms leak trace only through the top corner
    # slot, at exactly -nu*d
    p = ModelParams(omega=0.7, mu=0.5, nu=0.2, kappa=0.1 + 0.05j, dim=6)
    d = p.dim
    for form in ("I", "II", "III"):
        h = build_liouvillian(p, form)
        row = trace_functional(d) @ h
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
    for form in ("I", "II"):
        npt.assert_allclose(build_liouvillian(p, form) - cyclic, want, atol=1e-13)


def test_phase_absorbs_into_kappa():
    p = ModelParams(omega=0.9, mu=0.5, nu=0.2, kappa=0.2 + 0.1j, dim=6,
                    theta=0.8)
    assert phase_equivalence_check(p) <= 1e-12
