"""Brute-force truncated evolution against independent dense oracles."""

import math

import numpy as np
import pytest

import oracles
from ptrsim import fock, harness
from ptrsim.errors import TruncationLeakError
from ptrsim.ptr import Circuit, LinearS, Pdc, PhaseI, PhaseS


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
    state = space.basis_vector(fock.OccupationVector((1,), (1,)))
    evolved = fock.apply_circuit(single_pdc(1.2), space, state, leak_tol=None)
    assert np.isclose(np.linalg.norm(evolved), 1.0, atol=1e-13)


def test_leak_guard_trips_on_tiny_cap():
    space = fock.FockSpace(1, 1, 4, delta=0)
    state = space.basis_vector(fock.OccupationVector((0,), (0,)))
    with pytest.raises(TruncationLeakError):
        fock.apply_circuit(single_pdc(1.5), space, state)


def test_leak_guard_ignores_number_conserving_circuits_at_the_cap():
    # linear elements cannot leak, so a state sitting at the cap is fine
    space = fock.FockSpace(2, 1, 2)
    state = space.basis_vector(fock.OccupationVector((1, 0), (1,)))
    unitary = np.array([[0, 1], [1, 0]], dtype=complex)
    evolved = fock.apply_circuit(Circuit(2, 1, (LinearS(unitary),)), space, state)
    assert np.isclose(
        evolved[space.index(fock.OccupationVector((0, 1), (1,)))], 1.0, atol=1e-12
    )


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
    assert np.isclose(vec[space.index(((0,), (0,)))], 1 / math.sqrt(2))


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
