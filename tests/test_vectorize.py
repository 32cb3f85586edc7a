"""Row-major vectorization, its slot layout, the sandwich identity and
the trace row."""
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdamp.vectorize import slot_levels, unvec, vec


def test_vec_is_row_major():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    npt.assert_array_equal(vec(x), np.array([1, 2, 3, 4], dtype=complex))


def test_vec_unvec_round_trip(rng):
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    npt.assert_array_equal(unvec(vec(x)), x)


@given(d=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_slot_levels_are_the_levels_of_vec_order(d, seed):
    """Slot k of vec(x) holds x[n1[k], n2[k]]."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    n1, n2 = slot_levels(d)
    assert n1.shape == n2.shape == (d * d,)
    assert np.array_equal(vec(x), x[n1, n2])


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5, dtype=complex))


def test_sandwich_identity_random_triples(rng):
    # vec(A X B) == (A kron B^T) vec(X), checked against direct products
    d = 6
    for _ in range(25):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = vec(a @ x @ b)
        rhs = np.kron(a, b.T) @ vec(x)
        scale = (np.linalg.norm(a) * np.linalg.norm(x) * np.linalg.norm(b))
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_trace_functional(rng):
    d = 4
    tau = vec(np.eye(d)).conj()
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    npt.assert_allclose(tau @ vec(x), np.trace(x), atol=1e-13)
