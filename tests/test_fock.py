"""Truncated ladder operators and standard states."""
import numpy as np
import numpy.testing as npt
import pytest

from qdamp.fock import (build_fock_ops, coherent_state, fock_state,
                        thermal_state)

ATOL = 1e-13


def test_lowering_action_on_basis():
    ops = build_fock_ops(6)
    for n in range(1, 6):
        ket = np.zeros(6, dtype=complex)
        ket[n] = 1.0
        out = ops.a @ ket
        expected = np.zeros(6, dtype=complex)
        expected[n - 1] = np.sqrt(n)
        npt.assert_allclose(out, expected, atol=ATOL)
    npt.assert_allclose(ops.a @ np.eye(6)[:, 0], np.zeros(6), atol=ATOL)


def test_raising_is_adjoint_of_lowering():
    ops = build_fock_ops(7, theta=0.4)
    npt.assert_allclose(ops.a_dag, ops.a.conj().T, atol=ATOL)


def test_phase_convention():
    plain = build_fock_ops(5)
    rotated = build_fock_ops(5, theta=0.7)
    npt.assert_allclose(rotated.a, np.exp(0.7j) * plain.a, atol=ATOL)


def test_number_operator_diagonal():
    ops = build_fock_ops(6)
    npt.assert_array_equal(ops.n_op, np.diag(np.arange(6.0)))
    npt.assert_allclose(ops.a_dag @ ops.a, ops.n_op, atol=ATOL)


def test_truncation_corner_of_commutator():
    # [a, a_dag] = 1 everywhere except the top corner, which picks up -d
    d = 6
    ops = build_fock_ops(d)
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] -= d
    npt.assert_allclose(comm, expected, atol=ATOL)


def test_nilpotency():
    d = 5
    ops = build_fock_ops(d)
    npt.assert_allclose(np.linalg.matrix_power(ops.a, d), np.zeros((d, d)),
                        atol=ATOL)


def test_build_rejects_bad_dim():
    with pytest.raises(ValueError):
        build_fock_ops(1)
    with pytest.raises(ValueError):
        build_fock_ops(0)


def test_fock_state():
    rho = fock_state(5, 2)
    assert rho[2, 2] == 1.0
    npt.assert_allclose(np.trace(rho), 1.0, atol=ATOL)
    npt.assert_array_equal(fock_state(5, np.int64(2)), rho)
    for n in (5, -1):
        with pytest.raises(ValueError, match=rf"^level n={n} outside 0\.\.4$"):
            fock_state(5, n)


@pytest.mark.parametrize("n", [True, False, 2.0, np.float64(1.0), "1", None])
def test_fock_state_level_must_be_an_integer(n):
    """A bool is not a level: numpy would read rho[True, True] as a mask."""
    with pytest.raises(ValueError, match=r"^level n must be an integer, got "):
        fock_state(4, n)


@pytest.mark.parametrize("build, arg", [(fock_state, 0), (coherent_state, 0.5),
                                        (thermal_state, 0.5)])
@pytest.mark.parametrize("dim", [1, 0, -3, True, 4.0])
def test_state_builders_reject_a_bad_dim(build, arg, dim):
    with pytest.raises(ValueError, match=r"^dim must be an integer >= 2, got "):
        build(dim, arg)


def test_coherent_state_moments():
    # far below truncation, mean occupation is |alpha|^2
    alpha = 0.8 + 0.3j
    rho = coherent_state(24, alpha)
    npt.assert_allclose(np.trace(rho), 1.0, atol=ATOL)
    n_op = np.diag(np.arange(24.0))
    npt.assert_allclose(np.trace(n_op @ rho).real, abs(alpha) ** 2, atol=1e-9)


def test_coherent_state_is_pure():
    rho = coherent_state(16, 1.1)
    npt.assert_allclose(np.trace(rho @ rho).real, 1.0, atol=ATOL)


def test_coherent_state_survives_deep_truncation():
    # amplitude recurrence must not overflow where n! leaves integer range
    rho = coherent_state(80, 2.0 - 1.0j)
    npt.assert_allclose(np.trace(rho), 1.0, atol=ATOL)
    n_op = np.diag(np.arange(80.0))
    npt.assert_allclose(np.trace(n_op @ rho).real, 5.0, atol=1e-9)


def test_thermal_state():
    rho = thermal_state(40, 0.5)
    npt.assert_allclose(np.trace(rho), 1.0, atol=ATOL)
    n_op = np.diag(np.arange(40.0))
    npt.assert_allclose(np.trace(n_op @ rho).real, 0.5, atol=1e-6)
    npt.assert_array_equal(thermal_state(8, 0.0), fock_state(8, 0))
    with pytest.raises(ValueError):
        thermal_state(8, -0.1)
