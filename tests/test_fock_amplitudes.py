"""Brute-force truncated evolution against independent dense oracles."""

import math

import numpy as np
import pytest

import oracles
from ptrsim import fock, harness, linamp
from ptrsim.errors import TruncationLeakError
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS


def single_pdc(r: float) -> Circuit:
    return Circuit(1, 1, (Pdc(0, 0, r),))


@pytest.mark.parametrize("r", [0.2, 0.7])
@pytest.mark.parametrize(
    "out_s,out_i,in_s,in_i",
    [(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 0, 1, 0), (2, 1, 1, 0), (3, 2, 2, 1)],
)
def test_single_squeezer_matches_dense_oracle(r, out_s, out_i, in_s, in_i):
    expected = oracles.two_mode_squeeze_amplitude(r, out_s, out_i, in_s, in_i, cutoff=36)
    got = fock.nonlinear_postselection_amplitude(
        single_pdc(r), ((in_s,), (in_i,)), ((out_s,), (out_i,)), photon_cap=40
    )
    assert np.isclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_single_squeezer_matches_closed_form(r):
    for out_s, out_i, in_s, in_i in [(0, 0, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (3, 1, 2, 0)]:
        closed = fock.pdc_fock_amplitude(r, out_s, out_i, in_s, in_i)
        brute = fock.nonlinear_postselection_amplitude(
            single_pdc(r), ((in_s,), (in_i,)), ((out_s,), (out_i,)), photon_cap=44
        )
        assert np.isclose(brute, closed, rtol=1e-10, atol=1e-12)


def test_pair_difference_mismatch_is_exactly_zero():
    amp = fock.nonlinear_postselection_amplitude(single_pdc(0.5), ((0,), (0,)), ((1,), (0,)))
    assert amp == 0


def test_vacuum_persistence_decreases_with_gain():
    amps = [
        abs(fock.nonlinear_postselection_amplitude(single_pdc(r), ((0,), (0,)), ((0,), (0,))))
        for r in (0.2, 0.5, 1.0)
    ]
    assert amps == sorted(amps, reverse=True)
    assert np.isclose(amps[1], 1 / math.cosh(0.5), atol=1e-12)


def test_truncated_evolution_is_exactly_unitary():
    # the truncated generator stays anti-Hermitian, so norms are preserved
    # even when the cap is aggressive
    space = fock.FockSpace(1, 1, 6, delta=0)
    state = oracles.one_hot(space, [(1, 1)])
    evolved = fock.apply_circuit(single_pdc(1.2), space, state, leak_tol=None)
    assert np.isclose(np.linalg.norm(evolved), 1.0, atol=1e-13)


def test_leak_guard_trips_on_tiny_cap():
    space = fock.FockSpace(1, 1, 4, delta=0)
    state = oracles.one_hot(space, [(0, 0)])
    with pytest.raises(TruncationLeakError):
        fock.apply_circuit(single_pdc(1.5), space, state)


def test_leak_guard_ignores_number_conserving_circuits_at_the_cap():
    # linear elements cannot leak, so a state sitting at the cap is fine
    space = fock.FockSpace(2, 1, 2)
    state = oracles.one_hot(space, [(1, 0, 1)])
    unitary = np.array([[0, 1], [1, 0]], dtype=complex)
    evolved = fock.apply_circuit(Circuit(2, 1, (LinearS(unitary),)), space, state)
    assert np.isclose(evolved[space.indices([(0, 1, 1)])[0], 0], 1.0, atol=1e-12)


def test_cap_below_occupations_rejected():
    with pytest.raises(ValueError):
        fock.nonlinear_postselection_amplitude(
            single_pdc(0.4), ((3,), (3,)), ((3,), (3,)), photon_cap=4
        )


def test_phase_elements_shift_amplitudes_by_pure_phases():
    r, phi = 0.6, 0.8
    base = fock.nonlinear_postselection_amplitude(
        single_pdc(r), ((0,), (0,)), ((2,), (2,)), photon_cap=30
    )
    for circuit, expected_phase in [
        (Circuit(1, 1, (Pdc(0, 0, r), PhaseS(0, phi))), np.exp(2j * phi)),
        (Circuit(1, 1, (Pdc(0, 0, r), PhaseI(0, phi))), np.exp(2j * phi)),
        (Circuit(1, 1, (PhaseS(0, phi), Pdc(0, 0, r))), 1.0),
    ]:
        amp = fock.nonlinear_postselection_amplitude(
            circuit, ((0,), (0,)), ((2,), (2,)), photon_cap=30
        )
        assert np.isclose(amp, base * expected_phase, atol=1e-12)


def test_signal_network_acts_by_its_matrix_on_one_photon():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    unitary, _ = np.linalg.qr(raw)
    circuit = Circuit(2, 1, (LinearS(unitary),))
    # one signal photon in path j exits in path k with amplitude U[k, j]
    for j in range(2):
        for k in range(2):
            occ_in = ((1 - j, j), (0,))
            occ_out = ((1 - k, k), (0,))
            amp = fock.nonlinear_postselection_amplitude(circuit, occ_in, occ_out, photon_cap=6)
            assert np.isclose(amp, unitary[k, j], atol=1e-12)


def test_multi_element_circuit_against_kron_oracle():
    # cross-check a squeezer sandwiched between phases on a 1+1 circuit
    r, phi = 0.45, 0.7
    circuit = Circuit(1, 1, (PhaseS(0, phi), Pdc(0, 0, r), PhaseI(0, -phi)))
    for occ_out in [((0,), (0,)), ((1,), (1,)), ((2,), (2,))]:
        expected = oracles.two_mode_squeeze_amplitude(
            r, occ_out[0][0], occ_out[1][0], 1, 1, cutoff=32
        ) * np.exp(1j * phi * (1 - occ_out[1][0]))
        got = fock.nonlinear_postselection_amplitude(circuit, ((1,), (1,)), occ_out, photon_cap=36)
        assert np.isclose(got, expected, atol=1e-11)


def test_state_vector_builds_normalized_superpositions():
    space = fock.FockSpace(1, 1, 4)
    vec = oracles.state_vector(
        space, {((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, normalize=True
    )
    assert np.isclose(np.linalg.norm(vec), 1.0)
    assert np.isclose(vec[space.indices([(0, 0)])[0]], 1 / math.sqrt(2))


def test_batched_amplitudes_equal_single_pair_ones_in_every_sector():
    circuit = Circuit(
        2, 1, (Pdc(0, 0, 0.4), LinearS(np.array([[0.6, 0.8j], [0.8j, 0.6]])), PhaseS(1, 0.5), Pdc(1, 0, 0.3))
    )
    keys = fock.occupations_upto(3, 3)
    pairs = [(a, b) for a in range(len(keys)) for b in range(len(keys))]
    batch = fock.postselection_amplitudes(circuit, keys, pairs, 20, None)
    agree = 0
    for (a, b), amplitude in zip(pairs, batch.tolist()):
        occ_in, occ_out = (keys[a][:2], keys[a][2:]), (keys[b][:2], keys[b][2:])
        if sum(occ_in[0]) - sum(occ_in[1]) != sum(occ_out[0]) - sum(occ_out[1]):
            assert amplitude == 0
            continue
        agree += 1
        single = fock.nonlinear_postselection_amplitude(circuit, occ_in, occ_out, photon_cap=20, leak_tol=None)
        assert amplitude == single, (keys[a], keys[b])
    assert 0 < agree < len(pairs) and np.count_nonzero(batch) == agree
    with pytest.raises(ValueError, match="photon cap below the requested occupations"):
        fock.postselection_amplitudes(circuit, keys + [(3, 0, 1)], [(0, 0)], 3, None)


def test_batched_amplitudes_refuse_counts_whose_sum_wraps():
    """2^62 + 2^62 wraps to a negative int64 total, which passed the cap check."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    with pytest.raises(ValueError, match="photon cap below the requested occupations"):
        fock.postselection_amplitudes(circuit, [(2**62, 2**62), (0, 0)], [(0, 1)], 20, None)


def test_batched_amplitudes_refuse_non_integer_counts():
    """A row like (1.9, 0.2) would otherwise be read as (1, 0)."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    with pytest.raises(ValueError, match="occupation counts must be integers, got 1.9"):
        fock.postselection_amplitudes(circuit, [(1.9, 0.2), (1, 0)], [(0, 1)], 20, None)


@pytest.mark.parametrize("pair", [(-1, 1), (0, 2)])
def test_batched_amplitudes_refuse_pairs_outside_the_occupations(pair):
    """A negative index would otherwise wrap to the last row."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    keys = [(0, 0), (1, 1)]
    assert fock.postselection_amplitudes(circuit, keys, [(0, 1)], 20, None)[0] != 0
    with pytest.raises(ValueError, match="outside the 2 occupations"):
        fock.postselection_amplitudes(circuit, keys, [(0, 1), pair], 20, None)


def test_batched_amplitudes_refuse_non_integer_pair_indices():
    """The pair (0.7, 1.2) would otherwise be read as (0, 1)."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    keys = [(0, 0), (1, 1)]
    expected = fock.postselection_amplitudes(circuit, keys, [(0, 1)], 20, None)
    for pairs in ([[0, 1]], np.array([[0, 1]], dtype=np.int32), np.array([[0, 1]], dtype=np.uint8)):
        assert np.array_equal(fock.postselection_amplitudes(circuit, keys, pairs, 20, None), expected)
    with pytest.raises(ValueError, match="pair indices must be integers, got 0.7"):
        fock.postselection_amplitudes(circuit, keys, [(0.7, 1.2)], 20, None)


@pytest.mark.parametrize(
    "occupations,pairs,message",
    [
        ([(0, 0), (1, 1)], [(0, 1), (0.7, 1)], "pair indices must be integers, got 0.7"),
        ([(1, 0), (1.5, 0)], [(0, 1)], "occupation counts must be integers, got 1.5"),
    ],
    ids=["pairs", "occupations"],
)
def test_batched_amplitudes_name_the_entry_that_is_not_an_integer(occupations, pairs, message):
    """numpy upcasts a mixed list to float, so the cast array would name the whole 0 or 1 first."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    with pytest.raises(ValueError, match=message):
        fock.postselection_amplitudes(circuit, occupations, pairs, 20, None)


@pytest.mark.parametrize(
    "occupations,pairs,message",
    [
        ([(2**70, 0), (0, 0)], [(0, 1)], "occupation counts must fit in 64 bits, got 1180591620717411303424"),
        ([(0, 0), (1, 1)], [(0, 2**64)], "pair indices must fit in 64 bits, got 18446744073709551616"),
    ],
    ids=["occupations", "pairs"],
)
def test_batched_amplitudes_name_the_entry_beyond_64_bits(occupations, pairs, message):
    """numpy holds such integers as objects; every entry is an int, so none fails the integer test."""
    circuit = harness.random_circuit(7, 1, 1, 1, 0.5)
    with pytest.raises(ValueError, match=message):
        fock.postselection_amplitudes(circuit, occupations, pairs, 20, None)


# ---------------------------------------------------------------------------
# outer linear layers: merged per side, applied on the queried photon numbers
# ---------------------------------------------------------------------------


def haar(dim: int, seed: int) -> np.ndarray:
    return harness.haar_unitary(dim, np.random.default_rng(seed))


def whole_circuit_amplitudes(circuit, rows, pairs, cap) -> np.ndarray:
    """<rows[b]| U |rows[a]> per pair, from apply_circuit of the whole circuit on each full sector."""
    n_s = circuit.n_s_paths
    rows = np.asarray(rows)
    deltas = rows[:, :n_s].sum(axis=1) - rows[:, n_s:].sum(axis=1)
    expected = np.zeros(len(pairs), dtype=np.complex128)
    for delta in np.unique(deltas).tolist():
        space = fock.FockSpace(n_s, circuit.n_i_paths, cap, delta=delta)
        where, members = space.indices(rows), np.flatnonzero(deltas == delta)
        block = np.zeros((space.dimension, len(rows)), dtype=np.complex128)
        block[where[members], members] = 1.0
        evolved = fock.apply_circuit(circuit, space, block, leak_tol=None)
        for k, (a, b) in enumerate(pairs):
            if deltas[a] == delta == deltas[b]:
                expected[k] = evolved[where[b], a]
    return expected


def two_sided_layers(seed: int) -> list:
    """Two non-commuting signal networks with an idler network between them."""
    return [LinearS(haar(2, seed)), LinearI(haar(2, seed + 1)), LinearS(haar(2, seed + 2))]


SPLIT_CASES = {
    # circuit, occupation budget, cap, most photons on an input row, on an output row
    "merge_order": (
        Circuit(2, 2, (
            *two_sided_layers(31), Pdc(0, 1, 0.4), LinearS(haar(2, 34)), Pdc(1, 0, 0.3), *two_sided_layers(35),
        )),
        3, 10, 3, 3,
    ),
    "outputs_fuller": (
        Circuit(2, 2, (*two_sided_layers(41), Pdc(0, 0, 0.5), Pdc(1, 1, 0.4), *two_sided_layers(44))),
        4, 10, 1, 4,
    ),
    "inputs_fuller": (
        Circuit(2, 2, (*two_sided_layers(51), Pdc(0, 0, 0.5), Pdc(1, 1, 0.4), *two_sided_layers(54))),
        4, 10, 4, 1,
    ),
    "no_source": (Circuit(2, 2, (*two_sided_layers(61), LinearI(haar(2, 64)))), 3, 6, 3, 3),
    "diagonal_outer_layers": (
        Circuit(2, 2, (
            PhaseS(0, 0.3), PhaseI(1, -0.5), Pdc(0, 0, 0.5), LinearS(haar(2, 71)), Pdc(1, 1, 0.4),
            PhaseS(1, 0.9), PhaseI(0, 0.2),
        )),
        3, 10, 3, 3,
    ),
    "one_source_4_4": (harness.random_circuit(81, 4, 4, 1, 0.3), 2, 8, 2, 2),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_outer_layers_on_queried_photon_numbers_match_whole_circuit(case):
    """Every pair of rows, read through the split circuit, equals the whole circuit on the full sector."""
    circuit, budget, cap, most_in, most_out = SPLIT_CASES[case]
    rows = fock.occupations_upto(circuit.n_s_paths + circuit.n_i_paths, budget)
    ins = [a for a, row in enumerate(rows) if sum(row) <= most_in]
    pairs = [(a, b) for a in ins for b, row in enumerate(rows) if sum(row) <= most_out]
    got = fock.postselection_amplitudes(circuit, rows, pairs, cap, None)
    expected = whole_circuit_amplitudes(circuit, rows, pairs, cap)
    assert np.count_nonzero(expected) and np.max(np.abs(got - expected)) <= 1e-13


def test_verify_evolves_each_sector_once_with_its_distinct_inputs_as_columns(monkeypatch):
    """The benchmark counts apply_circuit calls, columns and sector dimension times columns."""
    evolve, calls = fock.apply_circuit, []

    def spy(circuit, space, block, leak_tol=fock.DEFAULT_LEAK_TOL):
        calls.append((space, np.array(block)))
        return evolve(circuit, space, block, leak_tol=leak_tol)

    monkeypatch.setattr(fock, "apply_circuit", spy)
    circuit, cap = harness.random_circuit(1010, 2, 2, 1, 0.6), 32  # a criterion-05 circuit
    report = linamp.verify_duality(circuit, photon_budget=4, photon_cap=cap)
    inputs = report.occupations[np.unique(report.comparisons[:, 0])]  # lexicographic, as the rows are
    deltas = inputs[:, :2].sum(axis=1) - inputs[:, 2:].sum(axis=1)
    assert [space.delta for space, _ in calls] == sorted(set(deltas.tolist()))
    for space, block in calls:
        assert space is fock.sector_space(2, 2, cap, space.delta)
        assert block.shape == (space.dimension, np.count_nonzero(deltas == space.delta))
        # column j starts on the number block of the j-th input, in lexicographic order
        signal = space.counts[:, :2].sum(axis=1)
        for column, row in zip(block.T, inputs[deltas == space.delta]):
            assert np.isclose(np.linalg.norm(column), 1.0)
            assert np.all(column[signal != row[:2].sum()] == 0)
