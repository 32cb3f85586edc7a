"""Numerics kernel: conversion, products, exponentials, eigensolves."""
import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from qdamp.coefficients import check_time
from qdamp.diagnostics import convergence_points
from qdamp.fock import build_fock_ops, coherent_state, thermal_state
from qdamp.linalg import (NumericalError, as_complex_matrix, check_complex,
                          check_real, direct_sum, entry_rows, expm,
                          hermitian_eigenvalues, shifted_norm)
from qdamp.liouvillian import ModelParams

ATOL = 1e-13


def _model(**changes):
    return ModelParams(**{"omega": 1.0, "mu": 0.5, "nu": 0.2, "kappa": 0.1,
                          "dim": 4, **changes})


# each library input that must be a finite number: (where, its name in
# the message, whether it may be complex, the call that takes it)
FINITE_INPUTS = [
    *((f"ModelParams.{name}", name, name == "kappa",
       lambda v, name=name: _model(**{name: v}))
      for name in ("omega", "mu", "nu", "theta", "kappa")),
    ("build_fock_ops", "theta", False, lambda v: build_fock_ops(4, v)),
    ("coherent_state", "alpha", True, lambda v: coherent_state(4, v)),
    ("thermal_state", "nbar", False, lambda v: thermal_state(4, v)),
    ("check_time", "t", False, check_time),
    ("t_values", "t_values", False, lambda v: convergence_points(t_values=[0.5, v])),
    ("t_final", "t_final", False,
     lambda v: convergence_points(n_steps_values=[2, 4], t_final=v)),
]
NOT_FINITE = [math.nan, math.inf, -math.inf, True, "0.5", None]


@pytest.mark.parametrize("where, name, is_complex, call", FINITE_INPUTS,
                         ids=[where for where, *_ in FINITE_INPUTS])
def test_every_number_input_rejects_what_is_not_finite(where, name, is_complex,
                                                       call):
    """Each input names itself in one ValueError for NaN, +-inf, a bool,
    a string or None, and a real input for a complex number too."""
    bad = NOT_FINITE + ([complex(0.1, math.nan), complex(math.inf, 0.0)]
                        if is_complex else [0.5j])
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call(value)


def test_check_real_and_check_complex_take_numpy_scalars():
    assert check_real(np.float32(0.5), "x") == 0.5
    assert type(check_real(np.int64(3), "x")) is float
    assert check_complex(np.complex128(1 - 2j), "x") == 1 - 2j
    assert type(check_complex(2, "x")) is complex
    with pytest.raises(ValueError, match=r"^x must be finite, got .*nan"):
        check_real(np.float64("nan"), "x")
    with pytest.raises(ValueError, match=r"^x must be >= 0, got inf$"):
        check_real(math.inf, "x", ">= 0")


@pytest.mark.parametrize("check", [check_real, check_complex])
def test_an_integer_beyond_the_double_range_is_not_finite(check):
    for value in (10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match=r"^x must be finite, got -?1000"):
            check(value, "x")
    assert check(2 ** 1023, "x") == 2.0 ** 1023
    # past the int-to-str digit limit the message shows the bit length
    with pytest.raises(ValueError, match=r"^x must be finite, got an integer of 16610 bits$"):
        check(10 ** 5000, "x")


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


@st.composite
def csr_blocks(draw, max_count=5, max_size=6):
    """(blocks, size): 1..max_count complex size x size CSR blocks of
    mixed nnz, each empty, sparse or full, or None."""
    size = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for density in draw(st.lists(st.sampled_from([None, 0.0, 0.3, 1.0]),
                                 min_size=1, max_size=max_count)):
        if density is None:
            blocks.append(None)
            continue
        dense = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        blocks.append(sp.csr_array(dense * (rng.random((size, size)) < density)))
    return blocks, size


@given(drawn=csr_blocks())
def test_direct_sum_is_block_diag(drawn):
    """The direct sum stores scipy's block_diag entries, a None block
    being zero, with 32-bit indices at these sizes."""
    blocks, size = drawn
    got = direct_sum(blocks, size)
    want = sp.block_diag([sp.csr_array((size, size)) if b is None else b
                          for b in blocks], format="csr")
    assert got.shape == want.shape == (len(blocks) * size,) * 2
    assert got.indices.dtype == got.indptr.dtype == np.int32
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@given(drawn=csr_blocks(max_size=9))
def test_shifted_norm_is_the_dense_shifted_1_norm(drawn):
    """From the stored entries and the diagonal, missing diagonal entries
    included: the 1-norm of M - mean(diag M) I."""
    blocks, size = drawn
    for m in (b for b in blocks if b is not None):
        dense = m.toarray()
        want = np.abs(dense - np.diag(dense).mean() * np.eye(size)).sum(axis=0).max()
        got = shifted_norm(m.data, m.indices, m.diagonal())
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * np.abs(dense).max())


@given(rows=st.integers(0, 9), cols=st.integers(1, 9),
       density=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_entry_rows_are_the_coo_rows(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    m = sp.csr_array(rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density))
    assert np.array_equal(entry_rows(m), sp.coo_array(m).row)
