"""Permanents, multiphoton linear amplitudes, and the duality check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ptrsim import fock, harness, linamp, scatter
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
    """Rows and columns repeated by occupation: the matrix whose permanent is a Fock amplitude."""
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
    assert linamp.linear_fock_amplitude(network, ((0,), (0,)), ((0,), (0,))) == 1


def fock_norm(*counts) -> float:
    return math.sqrt(math.prod(math.factorial(int(n)) for c in counts for n in c))


def split(counts, n_s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    counts = tuple(int(n) for n in counts)
    return counts[:n_s], counts[n_s:]


@st.composite
def networks_and_occupations(draw):
    modes = draw(st.integers(2, 8))
    n_s = draw(st.integers(1, modes - 1))
    photons = draw(st.integers(0, 8))
    occupation = st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons)
    in_counts = np.bincount(draw(occupation), minlength=modes)
    out_counts = np.bincount(draw(occupation), minlength=modes)
    return haar(modes, draw(st.integers(0, 2**32 - 1))), n_s, in_counts, out_counts


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(networks_and_occupations())
def test_linear_fock_amplitude_matches_expansion_of_repeated_submatrix(case):
    unitary, n_s, in_counts, out_counts = case
    network = scatter.ScatteringMatrix.from_full(unitary, n_s, len(in_counts) - n_s)
    sub = repeated_submatrix(unitary, out_counts, in_counts)
    expected = oracles.permanent_by_expansion(sub) / fock_norm(in_counts, out_counts)
    got = linamp.linear_fock_amplitude(network, split(in_counts, n_s), split(out_counts, n_s))
    assert abs(got - expected) <= 1e-11 * abs(expected)


def test_linear_fock_amplitude_of_twelve_distinct_modes_matches_glynn_across_chunks():
    unitary = haar(12, 8)
    network = scatter.ScatteringMatrix.from_full(unitary, 6, 6)
    ones = ((1,) * 6, (1,) * 6)
    assert 2**12 > linamp.RYSER_CHUNK  # 4096 terms, summed in several chunks
    expected = oracles.permanent_glynn(unitary)
    assert abs(linamp.linear_fock_amplitude(network, ones, ones) - expected) <= 1e-10 * abs(expected)


def test_linear_fock_amplitude_refuses_more_photons_than_the_permanent_limit():
    network = scatter.ScatteringMatrix.from_full(haar(2, 6), 1, 1)
    photons = linamp.MAX_PERMANENT_SIZE + 1
    with pytest.raises(DimensionOverflowError):
        linamp.linear_fock_amplitude(network, ((photons,), (0,)), ((0,), (photons,)))


@pytest.mark.parametrize(
    "seed, swapped_in, swapped_out",
    [
        (2, (0, 2, 1, 0, 1, 0, 2, 0), (0, 0, 6, 0, 0, 0, 0, 0)),
        (10, (0, 2, 1, 0, 1, 0, 2, 0), (0, 6, 0, 0, 0, 0, 0, 0)),
    ],
)
def test_concentrated_output_is_summed_over_its_own_side(seed, swapped_in, swapped_out):
    # Six photons in one output mode against a spread input: summing over the
    # input side (36 terms of sixth powers) cancels badly here, by 5.6e-9 and
    # 1.5e-10 relative; the output side needs 7 terms and stays at roundoff.
    setup = build_ptr(harness.random_circuit(seed, 4, 4, 2, 0.8))
    s_in, i_out = split(swapped_in, 4)
    s_out, i_in = split(swapped_out, 4)
    got = linamp.ptr_postselection_amplitude(setup, (s_in, i_in), (s_out, i_out)) / setup.nc
    sub = repeated_submatrix(setup.scattering.full, swapped_out, swapped_in)
    expected = oracles.permanent_ryser_mp(sub) / fock_norm(swapped_in, swapped_out)
    assert abs(got - expected) <= 1e-12 * abs(expected)


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
    differences = report.occupations[:, 0] - report.occupations[:, 1]
    assert np.array_equal(differences[report.comparisons[:, 0]], differences[report.comparisons[:, 1]])
    assert report.comparisons.shape == (len(report.nonlinear), 2)
    for name in ("occupations", "comparisons", "nonlinear", "dual", "abs_residual", "rel_residual"):
        assert not getattr(report, name).flags.writeable, name


def report_of(abs_residuals, rel_residuals) -> linamp.DualityReport:
    """A report over the vacuum pair with the given residuals."""
    n = len(rel_residuals)
    amplitudes = np.ones(n, dtype=np.complex128)
    residuals = (np.array(abs_residuals, dtype=float), np.array(rel_residuals, dtype=float))
    return linamp.DualityReport(10, 1.0, np.zeros((1, 2), dtype=np.int64), np.zeros((n, 2), dtype=np.intp),
                                amplitudes, amplitudes, *residuals)


@pytest.mark.parametrize("residuals", [(0.1, math.nan), (math.nan, 0.1), (0.0, math.nan, 0.2)])
def test_duality_report_maxima_are_nan_if_any_residual_is(residuals):
    report = report_of(residuals, residuals)
    assert math.isnan(report.max_abs_residual)
    assert math.isnan(report.max_rel_residual)


def test_duality_report_maxima_of_finite_and_empty_reports():
    report = report_of((0.1, 0.2), (0.3, 0.1))
    assert (report.max_abs_residual, report.max_rel_residual) == (0.2, 0.3)
    empty = report_of((), ())
    assert (empty.max_rel_residual, empty.worst_pair) == (0.0, None)


@pytest.mark.parametrize("residuals, worst", [((0.1, 0.3, 0.2), 1), ((0.4, 0.2, math.nan, math.nan), 2)])
def test_duality_report_names_the_worst_pair_a_nan_first(residuals, worst):
    n = len(residuals)
    occupations = np.arange(2 * n).reshape(n, 2)
    comparisons = np.stack((np.arange(n), np.arange(n)[::-1]), axis=1)
    amplitudes = np.ones(n, dtype=np.complex128)
    report = linamp.DualityReport(10, 1.0, occupations, comparisons, amplitudes, amplitudes,
                                  np.array(residuals), np.array(residuals))
    a, b = comparisons[worst]
    assert report.worst_pair == (tuple(occupations[a].tolist()), tuple(occupations[b].tolist()))


def test_duality_keeps_a_nan_dual_amplitude_next_to_a_zero_brute_one(monkeypatch):
    # signal path 1 is idle, so brute force gives exactly 0 for 1,0;0 -> 0,1;0;
    # max(|brute|, |dual|) drops the NaN and alone would read "both below atol"
    # the dual side takes that pair as the swapped count rows 1,0,0 in and 0,1,0 out
    broken = (1, 0, 0), (0, 1, 0)
    dual = linamp._counts_amplitude

    def nan_on_one_pair(matrix, in_counts, out_counts):
        if (tuple(in_counts), tuple(out_counts)) == broken:
            return complex(math.nan, 0.0)
        return dual(matrix, in_counts, out_counts)

    monkeypatch.setattr(linamp, "_counts_amplitude", nan_on_one_pair)
    report = linamp.verify_duality(Circuit(2, 1, (Pdc(0, 0, 0.3),)), photon_budget=1, photon_cap=8)
    rows = report.occupations.tolist()
    (hit,) = [k for k, (a, b) in enumerate(report.comparisons) if (rows[a], rows[b]) == ([1, 0, 0], [0, 1, 0])]
    assert report.nonlinear[hit] == 0 and math.isnan(report.rel_residual[hit])
    assert math.isnan(report.max_rel_residual)
    assert report.worst_pair == ((1, 0, 0), (0, 1, 0))


def test_compare_amplitudes_reads_roundoff_scale_pairs_as_agreeing():
    # both magnitudes fall below ATOL: residual zero, whatever their ratio
    circuit = harness.random_circuit(2, 2, 2, 2, 0.01)
    report = linamp.compare_amplitudes(circuit, [(0, 0, 0, 0), (3, 2, 2, 3)], [(0, 1)], leak_tol=fock.DEFAULT_LEAK_TOL)
    assert report.photon_cap == fock.auto_photon_cap(10, circuit.total_gain)
    assert 0 < abs(report.nonlinear[0]) < linamp.ATOL and abs(report.dual[0]) < linamp.ATOL
    assert report.abs_residual[0] > 0 and report.rel_residual[0] == 0.0


def test_compare_amplitudes_matches_the_single_pair_arms():
    circuit = harness.random_circuit(5, 2, 1, 2, 0.5)
    rows = [(1, 0, 1), (0, 1, 1), (2, 0, 0)]
    pairs = [(0, 1), (1, 0), (0, 2), (2, 2)]
    report = linamp.compare_amplitudes(circuit, rows, pairs, photon_cap=20)
    assert np.array_equal(report.nonlinear, fock.postselection_amplitudes(circuit, rows, pairs, 20, None))
    setup = build_ptr(circuit)
    for k, (a, b) in enumerate(pairs):
        occ_in, occ_out = (rows[a][:2], rows[a][2:]), (rows[b][:2], rows[b][2:])
        assert report.dual[k] == linamp.ptr_postselection_amplitude(setup, occ_in, occ_out)
    # np.abs over the arrays, as compare_amplitudes takes it: Python's abs may differ from it in the last bit
    assert np.array_equal(report.abs_residual, np.abs(report.nonlinear - report.dual))
    assert report.nonlinear[2] == 0 and report.dual[2] == 0 and report.rel_residual[2] == 0
    assert report.max_rel_residual < 1e-10 and report.photon_budget == 2


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
    assert np.array_equal(a.comparisons, b.comparisons)


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
    # distinct and bunched detection pairs; bunching is the product of 2! per doubled path
    for s_pair, i_pair, bunching in [
        ((0, 1), (0, 1), 1),
        ((0, 0), (0, 1), 2),
        ((0, 1), (1, 1), 2),
        ((1, 1), (0, 0), 4),
    ]:
        estimate = linamp.four_photon_awp_amplitude(setup, s_pair, i_pair)
        sub = setup.scattering.si[np.ix_(s_pair, i_pair)]
        expected = oracles.permanent_by_expansion(sub) / math.sqrt(bunching)
        assert np.isclose(estimate, expected, rtol=1e-12)


@pytest.mark.parametrize("s_pair, bad", [((0, 5), "5"), ((0, 1.7), "1.7"), ((0, 1.0), "1.0"), ((-1, 0), "-1")])
def test_four_photon_estimate_refuses_paths_that_are_not_integers_in_range(s_pair, bad):
    setup = build_ptr(Circuit(2, 2, (Pdc(0, 0, 0.06), Pdc(1, 1, 0.06))))
    with pytest.raises(ValueError, match=rf"detection path {bad} is not an integer in 0\.\.1"):
        linamp.four_photon_awp_amplitude(setup, s_pair, (0, 1))


@pytest.mark.parametrize("s_pair, i_pair", [((0,), (0, 1)), ((0, 1, 1), (0, 1, 1)), ((0, 1), ()), ((), ())])
def test_four_photon_estimate_refuses_patterns_that_are_not_two_paths_per_side(s_pair, i_pair):
    setup = build_ptr(Circuit(2, 2, (Pdc(0, 0, 0.06), Pdc(1, 1, 0.06))))
    with pytest.raises(ValueError, match="a four-photon pattern has two signal and two idler paths"):
        linamp.four_photon_awp_amplitude(setup, s_pair, i_pair)


def test_occupation_counts_reject_negative_counts():
    with pytest.raises(ValueError, match=r"occupation counts must be nonnegative, got \(1, -1\)"):
        linamp._occupation_counts(((1, -1), (0,)), 2, 1)


def test_occupation_counts_accept_pairs_and_check_width():
    for form in (((1, 0), (2,)), [[1, 0], [2]], (np.array([1, 0]), np.array([2], dtype=np.int32))):
        counts = linamp._occupation_counts(form, 2, 1)
        assert counts == ((1, 0), (2,)) and all(type(n) is int for n in counts[0] + counts[1])
    with pytest.raises(ValueError, match=r"occupation has 1\+1 paths, expected 2\+1"):
        linamp._occupation_counts(((1,), (2,)), 2, 1)
    with pytest.raises(ValueError, match="occupation counts must be integers, got 1.5"):
        linamp._occupation_counts(((1.5, 0), (2,)), 2, 1)


@pytest.mark.parametrize("bad", [1.9, 2.0, np.float64(0.5), math.inf, math.nan])
def test_occupation_counts_must_be_integers(bad):
    setup = build_ptr(Circuit(2, 1, (Pdc(0, 0, 0.3),)))
    with pytest.raises(ValueError, match="occupation counts must be integers, got"):
        linamp.ptr_postselection_amplitude(setup, ((bad, 0), (0,)), ((1, 0), (0,)))
    with pytest.raises(ValueError, match="occupation counts must be integers, got"):
        linamp.linear_fock_amplitude(setup.scattering, ((1, 0), (0,)), ((0, 1), (bad,)))


#: the input forms an occupation may take at the library boundary
OCCUPATION_FORMS = {
    "tuple": lambda s, i: (tuple(s), tuple(i)),
    "list": lambda s, i: [list(s), list(i)],
    "numpy": lambda s, i: (np.array(s, dtype=np.int64), np.array(i, dtype=np.int32)),
}


@st.composite
def setups_and_pairs(draw):
    """A 1-4 + 1-4 path dual setup with one conserving (input, output) pair of count lists."""
    n_s, n_i = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    setup = build_ptr(harness.random_circuit(draw(st.integers(0, 2**31 - 1)), n_s, n_i, 2, 0.8))
    photons = draw(st.integers(0, 6))
    modes = st.lists(st.integers(0, n_s + n_i - 1), min_size=photons, max_size=photons)
    swapped_in = np.bincount(draw(modes), minlength=n_s + n_i).tolist()  # s_in + i_out
    swapped_out = np.bincount(draw(modes), minlength=n_s + n_i).tolist()  # s_out + i_in
    s_in, i_out = swapped_in[:n_s], swapped_in[n_s:]
    s_out, i_in = swapped_out[:n_s], swapped_out[n_s:]
    return setup, (s_in, i_in), (s_out, i_out)


def bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(setups_and_pairs())
def test_every_occupation_form_gives_bit_identical_amplitudes(case):
    setup, occ_in, occ_out = case
    forms = OCCUPATION_FORMS.values()
    dual = {bits(linamp.ptr_postselection_amplitude(setup, form(*occ_in), form(*occ_out))) for form in forms}
    network = setup.scattering
    linear = {bits(linamp.linear_fock_amplitude(network, form(*occ_in), form(*occ_out))) for form in forms}
    assert len(dual) == 1 and len(linear) == 1


@st.composite
def setups_and_bad_occupations(draw):
    """A dual setup and an occupation with a wrong path count on one side or a negative count."""
    n_s, n_i = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    setup = build_ptr(harness.random_circuit(draw(st.integers(0, 2**31 - 1)), n_s, n_i, 1, 0.5))
    widths = [n_s, n_i]
    if draw(st.booleans()):
        side = draw(st.integers(0, 1))
        widths[side] = draw(st.integers(0, 5).filter(lambda w: w != widths[side]))
    s_counts, i_counts = (draw(st.lists(st.integers(0, 3), min_size=w, max_size=w)) for w in widths)
    if widths == [n_s, n_i]:
        counts = draw(st.sampled_from([s_counts, i_counts]).filter(len))
        counts[draw(st.integers(0, len(counts) - 1))] = -draw(st.integers(1, 3))
    return setup, (s_counts, i_counts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(setups_and_bad_occupations())
def test_every_occupation_form_is_refused_with_the_same_message(case):
    setup, bad = case
    n_s, n_i = setup.scattering.n_s, setup.scattering.n_i
    good = ((0,) * n_s, (0,) * n_i)
    messages = set()
    for form in OCCUPATION_FORMS.values():
        for call in (
            lambda: linamp.ptr_postselection_amplitude(setup, form(*bad), good),
            lambda: linamp.ptr_postselection_amplitude(setup, good, form(*bad)),
            lambda: linamp.linear_fock_amplitude(setup.scattering, form(*bad), good),
            lambda: linamp.linear_fock_amplitude(setup.scattering, good, form(*bad)),
        ):
            with pytest.raises(ValueError) as refused:
                call()
            messages.add(str(refused.value))
    assert len(messages) == 1
