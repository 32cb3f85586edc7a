"""Numerics kernel: conversion, products, exponentials, eigensolves."""
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from qdamp.linalg import (NumericalError, as_complex_matrix, expm,
                          hermitian_eigenvalues)

ATOL = 1e-13


def test_as_complex_matrix_upcasts_real_input():
    m = as_complex_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == np.complex128
    assert m.flags["C_CONTIGUOUS"]
    npt.assert_array_equal(m, np.array([[1, 2], [3, 4]], dtype=complex))


def test_as_complex_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros(3), "vec")
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros((2, 2, 2)), "cube")
    with pytest.raises(NumericalError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 1]]), "nan")
    with pytest.raises(NumericalError):
        as_complex_matrix(np.array([[np.inf, 0], [0, 1]]), "inf")


def test_expm_nilpotent_closed_form():
    # exp of a strictly upper triangular 2x2 terminates after one power
    n = np.array([[0.0, 2.5], [0.0, 0.0]], dtype=complex)
    npt.assert_allclose(expm(n), np.eye(2) + n, atol=ATOL)


def test_expm_diagonal_closed_form():
    d = np.diag([1.0 + 2.0j, -0.5])
    npt.assert_allclose(expm(d), np.diag(np.exp(np.diag(d))), atol=ATOL)


def test_expm_matches_scipy_on_random(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    npt.assert_allclose(expm(m), scipy.linalg.expm(m), atol=1e-12)


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_hermitian_eigenvalues_sorted_and_correct(rng):
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = h + h.conj().T
    vals = hermitian_eigenvalues(h)
    npt.assert_allclose(vals, np.linalg.eigvalsh(h), atol=1e-12)
    assert np.all(np.diff(vals) >= 0)


def test_hermitian_eigenvalues_uses_hermitian_part(rng):
    # non-Hermitian input must be symmetrized, not rejected
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = 0.5 * (m + m.conj().T)
    npt.assert_allclose(hermitian_eigenvalues(m),
                        np.linalg.eigvalsh(herm), atol=1e-12)
