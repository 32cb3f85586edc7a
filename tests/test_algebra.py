"""Superoperator generator families and their commutation relations."""
import re

import numpy as np
import numpy.testing as npt
import pytest

import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import verify_algebra_by_rows
from qdamp.algebra import (_identity_table, build_generators, commutator,
                           interior_mask, projected_residual,
                           sparse_generators, verify_algebra)
from qdamp.fock import build_fock_ops

TOL = 1e-12

# The commutator [A, B] of each of the 23 identities, in report order.
IDENTITY_OPERANDS = (
    ("jump_z", "jump_plus"), ("jump_z", "jump_minus"), ("jump_plus", "jump_minus"),
    ("pair_z", "pair_plus"), ("pair_z", "pair_minus"), ("pair_plus", "pair_minus"),
    ("sym_z", "sym_plus"), ("sym_z", "sym_minus"), ("sym_plus", "sym_minus"),
    ("squeeze_z", "squeeze_plus"), ("squeeze_z", "squeeze_minus"),
    ("squeeze_plus", "squeeze_minus"),
    ("pair_plus", "sym_plus"), ("pair_minus", "sym_minus"),
    ("squeeze_z", "jump_z"), ("squeeze_z", "jump_plus"), ("squeeze_z", "jump_minus"),
    ("jump_z", "squeeze_plus"), ("jump_z", "squeeze_minus"),
    ("jump_plus", "squeeze_plus"), ("jump_plus", "squeeze_minus"),
    ("jump_minus", "squeeze_plus"), ("jump_minus", "squeeze_minus"),
)


def test_all_identities_hold_on_interior():
    report = verify_algebra(build_fock_ops(8), margin=2)
    assert report.all_within()
    assert report.max_residual <= TOL
    assert len(report.entries) == 23


def test_identities_hold_with_phase_convention():
    report = verify_algebra(build_fock_ops(8, theta=0.3), margin=2)
    assert report.all_within()


def test_verify_rejects_prebuilt_generators():
    # generators carry dim and theta too, so only the type check keeps them
    # from being verified as the canonical set of that (dim, theta)
    ops = build_fock_ops(6, theta=0.5)
    for gen in (build_generators(ops), sparse_generators(ops)):
        with pytest.raises(TypeError, match="needs FockOperators, got SuperOpGenerators"):
            verify_algebra(gen, margin=2)


def test_identity_table_is_built_once_per_dim_and_theta():
    # margins share the table; a report at another (dim, theta) in between
    # leaves the bytes as they were
    _identity_table.cache_clear()
    ops = build_fock_ops(7, theta=0.4)
    first = verify_algebra(ops, margin=2).to_text()
    verify_algebra(ops, margin=0)
    other = verify_algebra(build_fock_ops(5, theta=-1.1), margin=1).to_text()
    assert verify_algebra(ops, margin=2).to_text() == first
    assert verify_algebra(build_fock_ops(5, theta=-1.1), margin=1).to_text() == other
    info = _identity_table.cache_info()
    assert (info.misses, info.hits) == (2, 3)


def test_margin_zero_exposes_edge_artifacts():
    report = verify_algebra(build_fock_ops(8), margin=0)
    res = {e.label: e.residual for e in report.entries}
    # ladder-vs-ladder relations hit the truncation corner
    artifacts = [label for label, r in res.items() if r > TOL]
    assert len(artifacts) == 8
    assert res["[jump_plus, jump_minus] + 2 jump_z"] > 1.0
    # relations that only move weight down, or compare pure diagonals,
    # survive truncation exactly
    assert res["[squeeze_z, jump_plus]"] <= TOL
    assert res["[squeeze_z, jump_minus]"] <= TOL
    assert res["[squeeze_z, jump_z]"] <= TOL
    assert res["[pair_plus, sym_plus]"] <= TOL
    assert res["[pair_minus, sym_minus]"] <= TOL
    assert res["[jump_z, jump_plus] - jump_plus"] <= TOL


def test_interior_mask_semantics():
    m = interior_mask(4, 1)
    assert m.shape == (16,)
    # slot (n1, n2) is interior iff both indices stay below dim - margin
    expected = np.array([n1 < 3 and n2 < 3 for n1 in range(4)
                         for n2 in range(4)])
    npt.assert_array_equal(m, expected)
    assert interior_mask(4, 0).all()
    assert not interior_mask(4, 4).any()
    assert not interior_mask(4, 9).any()
    with pytest.raises(ValueError):
        interior_mask(4, -1)


def test_projected_residual_ignores_exterior_rows_and_columns():
    d = 4
    delta = np.zeros((16, 16), dtype=complex)
    delta[0, 15] = 7.0   # exterior column slot (3,3)
    delta[15, 0] = 7.0   # exterior row
    assert projected_residual(delta, d, 1) == 0.0
    delta[0, 5] = 3.0    # slot (1,1) -> interior at margin 1
    assert projected_residual(delta, d, 1) == pytest.approx(3.0)


def test_zero_margin_residual_is_plain_norm(rng):
    delta = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    assert projected_residual(delta, 3, 0) == pytest.approx(
        np.linalg.norm(delta))


def _dense_projected_residual(delta: np.ndarray, dim: int, margin: int) -> float:
    """Frobenius norm of the interior submatrix of a dense delta."""
    mask = interior_mask(dim, margin)
    return float(np.linalg.norm(delta[np.ix_(mask, mask)]))


def test_projected_residual_reads_sparse_input(rng):
    delta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    delta[rng.random(size=(16, 16)) < 0.7] = 0.0
    for margin in (0, 1, 3, 4):
        want = _dense_projected_residual(delta, 4, margin)
        for given_delta in (delta, sp.csr_array(delta)):
            assert projected_residual(given_delta, 4, margin) == pytest.approx(
                want, rel=1e-14, abs=0.0)


def test_projected_residual_reads_non_canonical_csr_like_its_dense_form(rng):
    # duplicate entries, unsorted indices within rows and explicit zeros:
    # the duplicates are summed before the interior entries are read
    d, n = 4, 16
    rows = rng.integers(0, n, size=120)
    cols = rng.integers(0, n, size=120)
    vals = rng.normal(size=120) + 1j * rng.normal(size=120)
    vals[::7] = 0.0
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    delta = sp.csr_array((vals[order], cols[order], indptr), shape=(n, n))
    assert not delta.has_canonical_format
    assert not delta.has_sorted_indices
    before = (delta.data.copy(), delta.indices.copy(), delta.indptr.copy())
    dense = delta.toarray()
    for margin in range(0, d + 1):
        assert projected_residual(delta, d, margin) == pytest.approx(
            _dense_projected_residual(dense, d, margin), rel=1e-14, abs=0.0), margin
    # the caller's array is summed on a copy, not in place
    for got, want in zip((delta.data, delta.indices, delta.indptr), before):
        npt.assert_array_equal(got, want)


def test_projected_residual_rejects_a_delta_of_the_wrong_size():
    for delta in (np.zeros((9, 9)), sp.csr_array((9, 9))):
        with pytest.raises(ValueError, match="16 x 16"):
            projected_residual(delta, 4, 1)


@settings(max_examples=60)
@given(st.data())
def test_grouped_report_is_the_per_identity_report_byte_for_byte(data):
    # one direct-sum product per row group, read from stored entries, prints
    # what one commutator and one fancy-indexed residual per row print,
    # truncation artifacts (margin < 2) and the empty interior included
    dim = data.draw(st.integers(2, 24), label="dim")
    theta = data.draw(st.floats(-np.pi, np.pi), label="theta")
    margin = data.draw(st.integers(0, dim), label="margin")
    ops = build_fock_ops(dim, theta)
    assert verify_algebra(ops, margin).to_text() == verify_algebra_by_rows(ops, margin).to_text()


def test_z_generators_coincide():
    # the pair, sym and squeeze families share one diagonal z generator
    g = build_generators(build_fock_ops(5))
    npt.assert_allclose(g.pair_z, g.sym_z, atol=1e-14)
    npt.assert_allclose(g.squeeze_z, g.pair_z, atol=1e-14)


def test_jump_z_diagonal_value():
    # jump_z carries (n1 + n2 + 1)/2 on slot (n1, n2)
    d = 4
    g = build_generators(build_fock_ops(d))
    n1, n2 = np.divmod(np.arange(d * d), d)
    npt.assert_allclose(np.diag(g.jump_z), (n1 + n2 + 1) / 2.0, atol=1e-14)
    npt.assert_allclose(g.jump_z, np.diag(np.diag(g.jump_z)), atol=1e-14)


def test_squeeze_z_diagonal_at_d2():
    # slots in row-major order: (0,0),(0,1),(1,0),(1,1)
    g = build_generators(build_fock_ops(2))
    npt.assert_allclose(np.diag(g.squeeze_z), [0.0, -0.5, 0.5, 0.0],
                        atol=1e-14)
    npt.assert_allclose(g.squeeze_z - np.diag(np.diag(g.squeeze_z)),
                        np.zeros((4, 4)), atol=1e-14)


def test_squeeze_is_pair_minus_sym():
    g = build_generators(build_fock_ops(6, theta=0.2))
    npt.assert_allclose(g.squeeze_plus, g.pair_plus - g.sym_plus, atol=1e-14)
    npt.assert_allclose(g.squeeze_minus, g.pair_minus - g.sym_minus,
                        atol=1e-14)


def _dense_kron_generators(ops):
    """The twelve generators by the dense np.kron formulas they replace."""
    a, ad, n, one = ops.a, ops.a_dag, ops.n_op, ops.identity
    a2, ad2 = a @ a, ad @ ad
    k = np.kron
    g = {
        "jump_z": 0.5 * (k(n, one) + k(one, n.T) + k(one, one)),
        "jump_plus": k(ad, a.T), "jump_minus": k(a, ad.T),
        "pair_z": 0.5 * (k(n, one) - k(one, n.T)),
        "pair_plus": k(ad, ad.T), "pair_minus": k(a, a.T),
        "sym_plus": 0.5 * (k(ad2, one) + k(one, ad2.T)),
        "sym_minus": 0.5 * (k(a2, one) + k(one, a2.T)),
    }
    g["squeeze_plus"] = g["pair_plus"] - g["sym_plus"]
    g["squeeze_minus"] = g["pair_minus"] - g["sym_minus"]
    g["sym_z"] = g["squeeze_z"] = g["pair_z"]
    return g


@pytest.mark.parametrize("dim", range(2, 13))
@pytest.mark.parametrize("theta", [0.0, 0.37, -1.3])
def test_dense_view_equals_the_kron_formulas_bitwise(dim, theta):
    ops = build_fock_ops(dim, theta)
    dense = build_generators(ops)
    sparse = sparse_generators(ops)
    for name, want in _dense_kron_generators(ops).items():
        got = getattr(dense, name)
        assert type(got) is np.ndarray and got.dtype == np.complex128, name
        assert np.array_equal(got, want), name
        assert sp.issparse(getattr(sparse, name)), name
        assert np.array_equal(getattr(sparse, name).toarray(), want), name


def test_sparse_generators_stay_sparse():
    # each generator is one Kronecker product of single-diagonal factors, or
    # a sum of at most three, so a row holds at most three nonzeros
    g = sparse_generators(build_fock_ops(16, theta=0.4))
    for name in ("jump_z", "jump_plus", "jump_minus", "pair_z", "pair_plus",
                 "pair_minus", "sym_plus", "sym_minus", "squeeze_plus",
                 "squeeze_minus"):
        m = getattr(g, name)
        assert m.format == "csr" and m.shape == (256, 256), name
        assert np.diff(m.indptr).max() <= 3, name


def test_commutator_helper(rng):
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    npt.assert_allclose(commutator(a, b), a @ b - b @ a, atol=1e-14)
    sparse = commutator(sp.csr_array(a), sp.csr_array(b))
    assert sp.issparse(sparse)
    npt.assert_allclose(sparse.toarray(), a @ b - b @ a, atol=1e-14)


def test_theta_scaling_laws():
    # jump_plus is phase-free; pair_plus and sym_plus pick up exp(-2i theta)
    theta = 0.9
    g0 = build_generators(build_fock_ops(7, 0.0))
    gt = build_generators(build_fock_ops(7, theta))
    ph = np.exp(-2j * theta)
    assert np.linalg.norm(gt.jump_plus - g0.jump_plus) <= 1e-13
    assert np.linalg.norm(gt.pair_plus - ph * g0.pair_plus) <= 1e-13
    assert np.linalg.norm(gt.sym_plus - ph * g0.sym_plus) <= 1e-13


def test_report_text_contains_verdict_and_labels():
    text = verify_algebra(build_fock_ops(6), margin=2).to_text()
    assert "verdict: PASS" in text
    assert "[jump_plus, jump_minus] + 2 jump_z" in text
    assert "max_residual" in text


def test_report_notes_empty_interior():
    report = verify_algebra(build_fock_ops(2), margin=2)
    assert report.empty_interior
    assert report.all_within()
    assert "empty" in report.to_text()


def test_report_fail_verdict_at_zero_margin():
    text = verify_algebra(build_fock_ops(8), margin=0).to_text()
    assert "verdict: FAIL" in text


@pytest.mark.parametrize("margin", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.3, -1.3, 2.9])
@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 24, 32])
def test_verdict_passes_from_margin_2_and_fails_at_margin_0(dim, theta, margin):
    # the bar scales with the operands, so roundoff passes at every d and
    # the truncation corner (margin 0) fails
    report = verify_algebra(build_fock_ops(dim, theta), margin=margin)
    *_, max_line, verdict_line = report.to_text().splitlines()
    verdict = re.fullmatch(r"verdict: (PASS|FAIL) \(threshold (\S+)\)", verdict_line)
    printed_pass = float(max_line.removeprefix("max_residual: ")) <= float(verdict.group(2))
    assert report.all_within() == printed_pass == (verdict.group(1) == "PASS")
    if margin >= 2:
        assert report.all_within(), (report.max_residual, report.threshold)
    if margin == 0:
        assert not report.all_within(), (report.max_residual, report.threshold)


@pytest.mark.parametrize("dim", [2, 5, 8, 13])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_threshold_is_2u_times_the_largest_operand_norm_product(dim, theta):
    ops = build_fock_ops(dim, theta)
    report = verify_algebra(ops, margin=2)
    assert [e.label[:e.label.index("]") + 1] for e in report.entries] == [
        f"[{a}, {b}]" for a, b in IDENTITY_OPERANDS]
    g = build_generators(ops)
    norm = {name: np.linalg.norm(getattr(g, name))
            for pair in IDENTITY_OPERANDS for name in pair}
    want = 2.0 ** -52 * max(norm[a] * norm[b] for a, b in IDENTITY_OPERANDS)
    assert report.threshold == pytest.approx(want, rel=1e-14)
