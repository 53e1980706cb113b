"""Permanents, multiphoton linear amplitudes, and the duality check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ptrsim import fock, linamp, scatter
from ptrsim.errors import DimensionOverflowError
from ptrsim.ptr import Circuit, LinearS, Pdc, PhaseI, build_ptr


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permanent_methods_agree_with_expansion(n):
    rng = np.random.default_rng(n)
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    expected = oracles.permanent_by_expansion(matrix)
    assert np.isclose(linamp.permanent(matrix), expected, rtol=1e-12)
    assert np.isclose(oracles.permanent_glynn(matrix), expected, rtol=1e-12)


def repeated_submatrix(matrix, row_counts, col_counts) -> np.ndarray:
    """Rows and columns repeated by occupation, as ``linear_fock_amplitude`` builds them."""
    rows = np.repeat(np.arange(matrix.shape[0]), row_counts)
    cols = np.repeat(np.arange(matrix.shape[1]), col_counts)
    return matrix[np.ix_(rows, cols)]


@st.composite
def occupied_submatrices(draw):
    modes = draw(st.integers(1, 8))
    photons = draw(st.integers(1, 8))
    occupation = st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons)
    row_counts = np.bincount(draw(occupation), minlength=modes)
    col_counts = np.bincount(draw(occupation), minlength=modes)
    unitary = haar(modes, draw(st.integers(0, 2**32 - 1)))
    return repeated_submatrix(unitary, row_counts, col_counts)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(occupied_submatrices())
def test_permanent_of_repeated_submatrices_matches_expansion(sub):
    expected = oracles.permanent_by_expansion(sub)
    assert abs(linamp.permanent(sub) - expected) <= 1e-11 * abs(expected)


def test_permanent_is_exact_on_repeated_integer_matrices():
    rng = np.random.default_rng(21)
    for row_counts, col_counts in [((3, 0, 2), (1, 4, 0)), ((2, 2, 1, 1), (0, 3, 3, 0)), ((6,), (6,))]:
        size = len(row_counts)
        base = rng.integers(-3, 4, size=(size, size)) + 1j * rng.integers(-3, 4, size=(size, size))
        sub = repeated_submatrix(base.astype(np.complex128), row_counts, col_counts)
        assert linamp.permanent(sub) == oracles.permanent_by_expansion(sub)


def test_permanent_sums_over_rows_when_they_need_fewer_terms():
    # one row repeated five times plus one more (2 * 6 = 12 terms) against
    # six distinct columns (2^6 = 64 terms): the transposed matrix is summed
    base = haar(6, 17)
    sub = repeated_submatrix(base, (5, 0, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1))
    _, row_mult = linamp._multiplicities(sub.T)
    _, col_mult = linamp._multiplicities(sub)
    assert linamp._terms(row_mult) < linamp._terms(col_mult)
    expected = oracles.permanent_by_expansion(sub)
    assert abs(linamp.permanent(sub) - expected) <= 1e-12 * abs(expected)


def test_permanent_of_distinct_16x16_matches_glynn_across_chunks():
    matrix = haar(16, 3)
    assert 2**16 > linamp.RYSER_CHUNK  # summed in several chunks
    expected = oracles.permanent_glynn(matrix)
    assert abs(linamp.permanent(matrix) - expected) <= 1e-10 * abs(expected)


def test_permanent_of_all_ones_is_factorial():
    for n in range(1, 11):
        assert linamp.permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12)


def test_permanent_empty_matrix_is_one():
    assert linamp.permanent(np.zeros((0, 0))) == 1.0


def test_permanent_row_and_column_permutation_invariance():
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    value = linamp.permanent(matrix)
    perm = rng.permutation(4)
    assert np.isclose(linamp.permanent(matrix[perm]), value, rtol=1e-12)
    assert np.isclose(linamp.permanent(matrix[:, perm]), value, rtol=1e-12)
    # transpose invariance too
    assert np.isclose(linamp.permanent(matrix.T), value, rtol=1e-12)


def test_permanent_2x2_closed_form():
    matrix = np.array([[1.0 + 2.0j, 3.0], [5.0, 7.0 - 1.0j]])
    assert linamp.permanent(matrix) == pytest.approx((1 + 2j) * (7 - 1j) + 3 * 5)


def test_permanent_rejects_oversized_input():
    with pytest.raises(DimensionOverflowError):
        linamp.permanent(np.ones((21, 21)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_fock_amplitude_matches_kron_oracle(seed):
    matrix = haar(2, seed)
    network = scatter.ScatteringMatrix.from_full(matrix, 1, 1)
    for occ_in, occ_out in [
        (((1,), (0,)), ((0,), (1,))),
        (((1,), (1,)), ((1,), (1,))),
        (((2,), (0,)), ((1,), (1,))),
        (((2,), (1,)), ((0,), (3,))),
    ]:
        expected = oracles.linear_network_amplitude(
            matrix, occ_in[0] + occ_in[1], occ_out[0] + occ_out[1], cutoff=4
        )
        got = linamp.linear_fock_amplitude(network, occ_in, occ_out)
        assert np.isclose(got, expected, atol=1e-12)


def test_linear_fock_amplitude_conserves_photon_number():
    network = scatter.ScatteringMatrix.from_full(haar(2, 5), 1, 1)
    assert linamp.linear_fock_amplitude(network, ((1,), (0,)), ((1,), (1,))) == 0


def test_hong_ou_mandel_coincidence_vanishes():
    t = math.sqrt(0.5)
    network = scatter.ScatteringMatrix.from_full(np.array([[t, t], [t, -t]]), 1, 1)
    amp = linamp.linear_fock_amplitude(network, ((1,), (1,)), ((1,), (1,)))
    assert abs(amp) < 1e-14


def test_ptr_amplitude_reproduces_single_device_closed_form():
    r = 0.75
    setup = build_ptr(Circuit(1, 1, (Pdc(0, 0, r),)))
    for out_s, out_i, in_s, in_i in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (3, 3, 1, 1)]:
        got = linamp.ptr_postselection_amplitude(setup, ((in_s,), (in_i,)), ((out_s,), (out_i,)))
        assert np.isclose(got, fock.pdc_fock_amplitude(r, out_s, out_i, in_s, in_i), atol=1e-13)


def test_duality_report_bookkeeping():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.4),))
    report = linamp.verify_duality(circuit, photon_budget=2, photon_cap=30)
    assert report.photon_budget == 2
    assert report.photon_cap == 30
    assert report.max_rel_residual < 1e-10
    assert report.max_abs_residual < 1e-10
    assert len(report.comparisons) > 0
    # every comparison respects the conserved photon difference
    for comp in report.comparisons:
        assert comp.input.difference == comp.output.difference


def test_duality_on_mixed_circuit_at_generous_cap():
    circuit = Circuit(
        2, 1, (Pdc(0, 0, 0.5), LinearS(haar(2, 9)), PhaseI(0, 0.3), Pdc(1, 0, 0.45))
    )
    report = linamp.verify_duality(circuit, photon_budget=2, photon_cap=40)
    assert report.max_rel_residual < 1e-8


def test_duality_subsampling_is_seeded():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.5),))
    a = linamp.verify_duality(circuit, photon_budget=3, photon_cap=30, sample_count=5, seed=7)
    b = linamp.verify_duality(circuit, photon_budget=3, photon_cap=30, sample_count=5, seed=7)
    assert len(a.comparisons) == 5
    assert [c.input for c in a.comparisons] == [c.input for c in b.comparisons]


@pytest.mark.parametrize("count", [0, -3])
def test_duality_refuses_a_sample_count_below_one(count):
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.5),))
    with pytest.raises(ValueError, match=f"sample count must be at least 1, got {count}"):
        linamp.verify_duality(circuit, photon_budget=2, photon_cap=30, sample_count=count)


def test_duality_refuses_a_cap_below_the_budget():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.5),))
    with pytest.raises(ValueError, match="photon cap 3 is below the photon budget 4"):
        linamp.verify_duality(circuit, photon_budget=4, photon_cap=3)


def test_four_photon_estimate_matches_submatrix_permanent():
    circuit = Circuit(2, 2, (Pdc(0, 0, 0.06), Pdc(1, 1, 0.06), LinearS(haar(2, 13))))
    setup = build_ptr(circuit)
    estimate = linamp.four_photon_awp_amplitude(setup, (0, 1), (0, 1))
    sub = setup.scattering.si[np.ix_((0, 1), (0, 1))]
    assert np.isclose(estimate, linamp.permanent(sub), rtol=1e-12)
