"""State health metrics, distances, and the splitting-error study."""

import numpy as np
import pytest

from qdamp.diagnostics import (
    DiagnosticsRecord,
    NOISE_FLOOR,
    compare_states,
    convergence_study,
    state_diagnostics,
)
from qdamp.fock import fock_state, thermal_state
from qdamp.liouvillian import ModelParams


def test_fock_state_diagnostics():
    rec = state_diagnostics(fock_state(8, 2))
    assert isinstance(rec, DiagnosticsRecord)
    assert rec.trace == pytest.approx(1.0)
    assert rec.herm_residual == 0.0
    assert rec.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    assert rec.purity == pytest.approx(1.0)
    assert rec.mean_n == pytest.approx(2.0)
    assert rec.tail_mass == 0.0


def test_maximally_mixed_diagnostics():
    rec = state_diagnostics(np.eye(5) / 5.0)
    assert rec.purity == pytest.approx(0.2)
    assert rec.mean_n == pytest.approx(2.0)
    assert rec.min_eigenvalue == pytest.approx(0.2)


def test_tail_mass_window():
    rho = thermal_state(12, 1.5)
    diag = np.real(np.diag(rho))
    assert state_diagnostics(rho, margin=3).tail_mass == pytest.approx(diag[9:].sum())
    assert state_diagnostics(rho, margin=0).tail_mass == 0.0
    # a margin wider than the space counts everything
    assert state_diagnostics(rho, margin=40).tail_mass == pytest.approx(1.0)


def test_diagnostics_report_rather_than_repair():
    x = np.array([[0.5, 0.3], [0.1, 0.5 + 0.2j]])
    rec = state_diagnostics(x)
    assert rec.herm_residual == pytest.approx(np.linalg.norm(x - x.conj().T))
    assert rec.trace == pytest.approx(1.0 + 0.2j)


def test_diagnostics_input_validation():
    with pytest.raises(ValueError, match="square"):
        state_diagnostics(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="margin"):
        state_diagnostics(np.eye(3) / 3.0, margin=-1)
    with pytest.raises(ValueError, match="margin"):
        state_diagnostics(np.eye(3) / 3.0, margin=1.5)


def test_compare_states_basics():
    rho = fock_state(6, 1)
    assert compare_states(rho, rho) == (0.0, 0.0)
    frob, tdist = compare_states(fock_state(6, 0), fock_state(6, 3))
    assert frob == pytest.approx(np.sqrt(2.0))
    assert tdist == pytest.approx(1.0)   # orthogonal pure states
    with pytest.raises(ValueError, match="shape"):
        compare_states(fock_state(4, 0), fock_state(5, 0))


def test_compare_states_symmetry(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert compare_states(a, b) == pytest.approx(compare_states(b, a), abs=1e-13)


def test_convergence_local_mode_slope():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.12 + 0.06j, dim=10)
    tab = convergence_study(p, fock_state(10, 1), method="factorized",
                            t_values=(0.05, 0.1, 0.2, 0.4))
    assert tab.mode == "local_time" and tab.x_label == "t"
    assert tab.xs == (0.05, 0.1, 0.2, 0.4)
    assert len(tab.errors_frobenius) == 4
    assert all(e > 0 for e in tab.errors_frobenius)
    assert 1.5 <= tab.slope <= 2.3      # splitting error is second order locally
    assert not tab.exact_within_noise


def test_convergence_global_mode_slope():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.12 + 0.06j, dim=10)
    tab = convergence_study(p, fock_state(10, 1), method="factorized",
                            n_steps_values=(2, 4, 8, 16), t_final=1.0)
    assert tab.mode == "global_steps" and tab.x_label == "n_steps"
    assert -1.2 <= tab.slope <= -0.8    # first order in 1/n_steps
    # more steps, less error
    assert tab.errors_frobenius[-1] < tab.errors_frobenius[0]


def test_convergence_exact_within_noise_without_two_photon():
    # kappa == 0 makes the splitting exact, so every error sits at the
    # noise floor and no slope can honestly be fitted
    p = ModelParams(omega=1.0, mu=0.5, nu=0.1, kappa=0.0, dim=14)
    tab = convergence_study(p, fock_state(14, 0), method="factorized",
                            t_values=(0.2, 0.4))
    assert tab.exact_within_noise
    assert tab.slope is None and tab.fit_residual is None
    assert all(e < NOISE_FLOOR for e in tab.errors_frobenius)


def test_convergence_argument_validation():
    p = ModelParams(omega=1.0, mu=0.5, nu=0.1, kappa=0.0, dim=6)
    rho0 = fock_state(6, 0)
    with pytest.raises(ValueError, match="exactly one"):
        convergence_study(p, rho0)
    with pytest.raises(ValueError, match="exactly one"):
        convergence_study(p, rho0, t_values=(0.1, 0.2), n_steps_values=(2, 4))
    with pytest.raises(ValueError, match="two positive times"):
        convergence_study(p, rho0, t_values=(0.5,))
    with pytest.raises(ValueError, match="two positive times"):
        convergence_study(p, rho0, t_values=(0.0, 0.5))
    with pytest.raises(ValueError, match="t_final"):
        convergence_study(p, rho0, n_steps_values=(2, 4))
    with pytest.raises(ValueError, match="counts >= 1"):
        convergence_study(p, rho0, n_steps_values=(0, 4), t_final=1.0)
    with pytest.raises(ValueError, match="must be integers"):
        convergence_study(p, rho0, n_steps_values=[True, 2], t_final=1.0)
    with pytest.raises(ValueError, match="must be integers"):
        convergence_study(p, rho0, n_steps_values=[2.7, 4], t_final=1.0)
