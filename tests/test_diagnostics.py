"""State health metrics, distances, and the splitting-error study."""

import tracemalloc

import numpy as np
import pytest
from conftest import random_density
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import state_distance, state_record

from qdamp import propagators
from qdamp.diagnostics import (
    DiagnosticsRecord,
    NOISE_FLOOR,
    compare_states,
    convergence_study,
    state_diagnostics,
)
from qdamp.fock import coherent_state, fock_state, thermal_state
from qdamp.linalg import NumericalError
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


def test_diagnostics_and_distances_raise_when_a_value_overflows():
    """A finite state of entries near 1e200: its purity and the distance to
    its negative overflow a double, with no numpy warning first."""
    rho = np.full((4, 4), 1e200, dtype=complex)
    with pytest.raises(NumericalError, match="the state's purity overflowed"):
        state_diagnostics(rho)
    with pytest.raises(NumericalError, match="the distance between the states"):
        compare_states(rho, -rho)


def test_compare_states_symmetry(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert compare_states(a, b) == pytest.approx(compare_states(b, a), abs=1e-13)


def _bits(values) -> list:
    """Each value's repr: equal reprs are equal bits, -0.0 apart from 0.0."""
    return [repr(v) for v in values]


@st.composite
def _state_stacks(draw):
    """n = 1..12 states at one d = 2..40, each from a state builder
    (fock, coherent, thermal, random pure), some with a non-Hermitian
    perturbation; a margin; and a second stack to compare with."""
    d, n = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for _ in range(2):
        states = []
        for _ in range(n):
            kind = draw(st.sampled_from(["fock", "coherent", "thermal", "random"]))
            if kind == "fock":
                rho = fock_state(d, draw(st.integers(0, d - 1)))
            elif kind == "coherent":
                rho = coherent_state(d, complex(draw(st.floats(-2.0, 2.0)),
                                                draw(st.floats(-2.0, 2.0))))
            elif kind == "thermal":
                rho = thermal_state(d, draw(st.floats(0.0, 5.0)))
            else:
                rho = random_density(d, draw(st.integers(0, d - 1)), rng)
            noise = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
            states.append(rho + noise * (rng.normal(size=(d, d))
                                         + 1j * rng.normal(size=(d, d))))
        stacks.append(np.array(states))
    return stacks[0], stacks[1], draw(st.integers(0, d + 2))


@settings(max_examples=60)
@given(problem=_state_stacks())
def test_stacked_diagnostics_are_the_per_state_calls_bit_for_bit(problem):
    """A stack's records and distances have the bits of one call per
    state, and those the bits of one numpy call per value (the oracles)."""
    stack, other, margin = problem
    records = state_diagnostics(stack, margin=margin)
    pairs = compare_states(stack, other)
    assert len(records) == len(pairs) == len(stack)
    for rho, rho_b, rec, pair in zip(stack, other, records, pairs):
        one = state_diagnostics(rho, margin=margin)
        assert isinstance(one, DiagnosticsRecord)
        assert _bits(vars(rec).values()) == _bits(vars(one).values())
        assert _bits(vars(one).values()) == _bits(vars(state_record(rho, margin)).values())
        assert _bits(pair) == _bits(compare_states(rho, rho_b))
        assert _bits(pair) == _bits(state_distance(rho, rho_b))


def test_stacked_diagnostics_keep_the_error_paths():
    stack = np.array([fock_state(4, 0), thermal_state(4, 0.5)])
    with pytest.raises(ValueError, match="square"):
        state_diagnostics(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="margin"):
        state_diagnostics(stack, margin=-1)
    with pytest.raises(ValueError, match="2-dimensional"):
        state_diagnostics(np.zeros((1, 2, 3, 3)))
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 2, 3] = bad
        with pytest.raises(NumericalError, match="rho contains NaN or Inf"):
            state_diagnostics(broken)
        with pytest.raises(NumericalError, match="rho_b contains NaN or Inf"):
            compare_states(stack, broken)
    with pytest.raises(ValueError, match="shape"):
        compare_states(stack, stack[:1])
    with pytest.raises(ValueError, match="shape"):
        compare_states(stack, stack[0])
    huge = np.array([stack[0], np.full((4, 4), 1e200, dtype=complex)])
    with pytest.raises(NumericalError, match="the state's purity overflowed"):
        state_diagnostics(huge)
    with pytest.raises(NumericalError, match="the distance between the states"):
        compare_states(huge, -huge)
    # an empty stack has no records
    assert state_diagnostics(np.zeros((0, 3, 3))) == []
    assert compare_states(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))) == []


def test_stacked_diagnostics_take_bounded_passes(monkeypatch):
    """A stack is measured CLOSED_FORM_BLOCK_BYTES of states at a time:
    with room for two states a pass, five states take three passes and
    keep their bits."""
    rng = np.random.default_rng(7)
    stack = np.array([random_density(6, 5, rng) for _ in range(5)])
    whole = state_diagnostics(stack), compare_states(stack, stack[::-1])
    eigensolves = []
    solve = np.linalg.eigvalsh

    def counted(h):
        eigensolves.append(len(h))
        return solve(h)

    monkeypatch.setattr(propagators, "CLOSED_FORM_BLOCK_BYTES", 2 * 16 * 36 + 15)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    passes = state_diagnostics(stack), compare_states(stack, stack[::-1])
    assert eigensolves == [2, 2, 1] * 2
    assert [_bits(vars(r).values()) for r in passes[0]] == [
        _bits(vars(r).values()) for r in whole[0]]
    assert [_bits(p) for p in passes[1]] == [_bits(p) for p in whole[1]]


def test_stacked_diagnostics_hold_one_value_at_a_time():
    """A stacked call's temporaries peak at about one stack (state
    diagnostics) or two (the difference and its Hermitian part), not one
    per value: tracemalloc over 9 states at d = 32, a 147 kB stack."""
    rng = np.random.default_rng(7)
    a, b = (rng.normal(size=(9, 32, 32)) + 1j * rng.normal(size=(9, 32, 32))
            for _ in range(2))
    for call, args, stacks in ((state_diagnostics, (a,), 1),
                               (compare_states, (a, b), 2)):
        call(*args)
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stacks * a.nbytes + 16384, (call.__name__, peak)


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


def test_convergence_local_mode_is_one_sweep_per_method(monkeypatch):
    """The approximate and the exact states at every time come from one
    propagate_sweep call each, over the sorted distinct times."""
    from qdamp import propagators

    calls = []
    sweep = propagators.propagate_sweep

    def counted(models, rho0, times, method, *args):
        calls.append((method, list(times)))
        return sweep(models, rho0, times, method, *args)

    monkeypatch.setattr(propagators, "propagate_sweep", counted)
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.12 + 0.06j, dim=8)
    rho0 = fock_state(8, 1)
    tab = convergence_study(p, rho0, method="alternative",
                            t_values=(0.4, 0.1, 0.2, 0.1))
    assert calls == [("alternative", [0.1, 0.2, 0.4]), ("exact", [0.1, 0.2, 0.4])]
    assert tab.xs == (0.4, 0.1, 0.2, 0.1)
    assert tab.errors_frobenius[1] == tab.errors_frobenius[3]
    for t, frob, tdist in zip(tab.xs, tab.errors_frobenius, tab.errors_trace_distance):
        want = compare_states(propagators.propagate(p, rho0, t, "alternative").rho_t,
                              propagators.propagate(p, rho0, t, "exact").rho_t)
        assert (frob, tdist) == pytest.approx(want, rel=1e-9), t


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


@pytest.mark.parametrize("repeated", [{"t_values": (0.5, 0.5)},
                                      {"n_steps_values": (4, 4), "t_final": 1.0}],
                         ids=["local", "global"])
def test_convergence_fits_no_slope_through_one_distinct_x(repeated):
    # two points at one x give no line; polyfit on them is rank-deficient
    p = ModelParams(omega=1.0, mu=0.4, nu=0.1, kappa=0.1 + 0.05j, dim=8)
    tab = convergence_study(p, fock_state(8, 1), method="factorized", **repeated)
    assert tab.errors_frobenius[0] == tab.errors_frobenius[1] > 1e-6
    assert tab.slope is None and tab.fit_residual is None
    assert not tab.exact_within_noise


def test_convergence_global_mode_evaluates_each_distinct_n_once(monkeypatch):
    from qdamp import propagators

    calls = []
    sweep = propagators.propagate_sweep

    def counted(models, rho0, times, method, n_steps=1):
        calls.append((method, n_steps))
        return sweep(models, rho0, times, method, n_steps)

    monkeypatch.setattr(propagators, "propagate_sweep", counted)
    p = ModelParams(omega=1.0, mu=0.5, nu=0.2, kappa=0.12 + 0.06j, dim=8)
    tab = convergence_study(p, fock_state(8, 1), method="factorized",
                            n_steps_values=(4, 2, 4, 8), t_final=1.0)
    assert [n for m, n in calls if m == "factorized"] == [4, 2, 8]
    assert calls.count(("exact", 1)) == 1 and len(calls) == 4
    assert tab.xs == (4.0, 2.0, 4.0, 8.0)
    assert tab.errors_frobenius[0] == tab.errors_frobenius[2]
    assert -1.2 <= tab.slope <= -0.8


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
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
        convergence_study(p, rho0, n_steps_values=(0, 4), t_final=1.0)
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
        convergence_study(p, rho0, n_steps_values=[True, 2], t_final=1.0)
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
        convergence_study(p, rho0, n_steps_values=[2.7, 4], t_final=1.0)
