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


def brute(circuit, row_in, row_out, photon_cap: int, leak_tol=fock.DEFAULT_LEAK_TOL) -> complex:
    """<row_out| U |row_in> from a one-pair batch of count rows."""
    return complex(fock.postselection_amplitudes(circuit, [row_in, row_out], [(0, 1)], photon_cap, leak_tol)[0])


@pytest.mark.parametrize("r", [0.2, 0.7])
@pytest.mark.parametrize(
    "out_s,out_i,in_s,in_i",
    [(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 0, 1, 0), (2, 1, 1, 0), (3, 2, 2, 1)],
)
def test_single_squeezer_matches_dense_oracle(r, out_s, out_i, in_s, in_i):
    expected = oracles.two_mode_squeeze_amplitude(r, out_s, out_i, in_s, in_i, cutoff=36)
    got = brute(single_pdc(r), (in_s, in_i), (out_s, out_i), 40)
    assert np.isclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_single_squeezer_matches_closed_form(r):
    for out_s, out_i, in_s, in_i in [(0, 0, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (3, 1, 2, 0)]:
        closed = fock.pdc_fock_amplitude(r, out_s, out_i, in_s, in_i)
        got = brute(single_pdc(r), (in_s, in_i), (out_s, out_i), 44)
        assert np.isclose(got, closed, rtol=1e-10, atol=1e-12)


def test_pair_difference_mismatch_is_exactly_zero():
    amp = brute(single_pdc(0.5), (0, 0), (1, 0), fock.auto_photon_cap(1, 0.5))
    assert amp == 0


def test_vacuum_persistence_decreases_with_gain():
    amps = [
        abs(brute(single_pdc(r), (0, 0), (0, 0), fock.auto_photon_cap(0, r)))
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
        brute(single_pdc(0.4), (3, 3), (3, 3), 4)


def test_phase_elements_shift_amplitudes_by_pure_phases():
    r, phi = 0.6, 0.8
    base = brute(single_pdc(r), (0, 0), (2, 2), 30)
    for circuit, expected_phase in [
        (Circuit(1, 1, (Pdc(0, 0, r), PhaseS(0, phi))), np.exp(2j * phi)),
        (Circuit(1, 1, (Pdc(0, 0, r), PhaseI(0, phi))), np.exp(2j * phi)),
        (Circuit(1, 1, (PhaseS(0, phi), Pdc(0, 0, r))), 1.0),
    ]:
        amp = brute(circuit, (0, 0), (2, 2), 30)
        assert np.isclose(amp, base * expected_phase, atol=1e-12)


def test_signal_network_acts_by_its_matrix_on_one_photon():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    unitary, _ = np.linalg.qr(raw)
    circuit = Circuit(2, 1, (LinearS(unitary),))
    # one signal photon in path j exits in path k with amplitude U[k, j]
    for j in range(2):
        for k in range(2):
            amp = brute(circuit, (1 - j, j, 0), (1 - k, k, 0), 6)
            assert np.isclose(amp, unitary[k, j], atol=1e-12)


def test_multi_element_circuit_against_kron_oracle():
    # cross-check a squeezer sandwiched between phases on a 1+1 circuit
    r, phi = 0.45, 0.7
    circuit = Circuit(1, 1, (PhaseS(0, phi), Pdc(0, 0, r), PhaseI(0, -phi)))
    for out_s, out_i in [(0, 0), (1, 1), (2, 2)]:
        expected = oracles.two_mode_squeeze_amplitude(r, out_s, out_i, 1, 1, cutoff=32) * np.exp(1j * phi * (1 - out_i))
        got = brute(circuit, (1, 1), (out_s, out_i), 36)
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
        if sum(keys[a][:2]) - keys[a][2] != sum(keys[b][:2]) - keys[b][2]:
            assert amplitude == 0
            continue
        agree += 1
        assert amplitude == brute(circuit, keys[a], keys[b], 20, leak_tol=None), (keys[a], keys[b])
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


def test_a_width_whose_union_passes_the_size_limit_is_split(monkeypatch):
    """With DIM_LIMIT between the largest sector and a width's union, the width evolves in several calls."""
    circuit, cap = harness.random_circuit(1010, 2, 2, 1, 0.6), 16
    rows = fock.occupations_upto(4, 4)
    pairs = [(a, b) for a in range(len(rows)) for b in range(len(rows))]
    evolve, spaces = fock.apply_circuit, []

    def spy(circuit, space, *args, **kwargs):
        spaces.append(space)
        return evolve(circuit, space, *args, **kwargs)

    monkeypatch.setattr(fock, "apply_circuit", spy)
    expected = fock.postselection_amplitudes(circuit, rows, pairs, cap, fock.DEFAULT_LEAK_TOL)
    grouped, spaces[:] = list(spaces), []
    largest = max(fock._sector_dimension(2, 2, cap, delta) for delta in range(-4, 5))
    assert max(space.dimension for space in grouped) > largest
    monkeypatch.setattr(fock, "DIM_LIMIT", largest)
    got = fock.postselection_amplitudes(circuit, rows, pairs, cap, fock.DEFAULT_LEAK_TOL)
    assert len(spaces) > len(grouped) and max(space.dimension for space in spaces) <= largest
    assert sorted(delta for space in spaces for delta in space.delta) == list(range(-4, 5))
    assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-14


def test_verify_evolves_each_sector_once_with_its_distinct_inputs_as_columns(monkeypatch):
    """The benchmark counts apply_circuit calls, columns and space dimension times columns.

    The sectors of one width (number of distinct inputs) share one call on the space of their union,
    column j holding each one's j-th input, so no column is padded and no state is evolved twice.
    """
    evolve, calls = fock.apply_circuit, []

    def spy(circuit, space, block, leak_tol=fock.DEFAULT_LEAK_TOL, **operators):
        calls.append((space, np.array(block)))
        return evolve(circuit, space, block, leak_tol=leak_tol, **operators)

    monkeypatch.setattr(fock, "apply_circuit", spy)
    circuit, cap = harness.random_circuit(1010, 2, 2, 1, 0.6), 32  # a criterion-05 circuit
    report = linamp.verify_duality(circuit, photon_budget=4, photon_cap=cap)
    inputs = report.occupations[np.unique(report.comparisons[:, 0])]  # lexicographic, as the rows are
    deltas = inputs[:, :2].sum(axis=1) - inputs[:, 2:].sum(axis=1)
    widths = dict(zip(*(values.tolist() for values in np.unique(deltas, return_counts=True))))
    assert sorted(block.shape[1] for _, block in calls) == sorted(set(widths.values()))  # one call per width
    assert sorted(delta for space, _ in calls for delta in space.delta) == sorted(widths)  # each sector once
    assert sum(space.dimension * block.shape[1] for space, block in calls) == sum(
        fock._sector_dimension(2, 2, cap, delta) * width for delta, width in widths.items()
    )
    for space, block in calls:
        assert space is fock.sector_space(2, 2, cap, space.delta)
        assert block.shape[0] == space.dimension
        signal = space.counts[:, :2].sum(axis=1)
        for delta in space.delta:
            assert widths[delta] == block.shape[1]
            rows = signal - space.counts[:, 2:].sum(axis=1) == delta
            # column j starts on the number block of the sector's j-th input, in lexicographic order
            for column, row in zip(block[rows].T, inputs[deltas == delta]):
                assert np.isclose(np.linalg.norm(column), 1.0)
                assert np.all(column[signal[rows] != row[:2].sum()] == 0)


# ---------------------------------------------------------------------------
# postselection plans: the layout of a call, shared by circuits of one shape
# ---------------------------------------------------------------------------


def plan_case():
    """Every budget-3 pair of a 2+2 criterion-05 circuit, its rows and pairs, and a second circuit of its shape."""
    rows, pairs = linamp._budget_pairs(2, 2, 3)
    return harness.random_circuit(1011, 2, 2, 2, 0.6), harness.random_circuit(1012, 2, 2, 3, 0.6), rows, pairs


def cold(circuit, rows, pairs, cap=20) -> np.ndarray:
    """Amplitudes from an empty plan cache."""
    fock._postselection_plan.cache_clear()
    return fock.postselection_amplitudes(circuit, rows, pairs, cap, fock.DEFAULT_LEAK_TOL)


def test_warm_calls_and_fresh_copies_read_the_cold_amplitudes_bit_for_bit():
    """The plan a call on one circuit leaves serves the other circuit too."""
    circuit, other, rows, pairs = plan_case()
    expected = [cold(c, rows, pairs).tobytes() for c in (circuit, other)]  # the second leaves its plan
    hits = fock._postselection_plan.cache_info().hits
    copies = [(rows, pairs), (rows.tolist(), pairs.tolist()), (rows.astype(np.int32), pairs.astype(np.uint16))]
    for rows_copy, pairs_copy in copies:
        for c, amplitudes in zip((circuit, other), expected):
            got = fock.postselection_amplitudes(c, rows_copy, pairs_copy, 20, fock.DEFAULT_LEAK_TOL)
            assert got.tobytes() == amplitudes
    assert fock._postselection_plan.cache_info().hits == hits + 2 * len(copies)


def test_changed_rows_pairs_or_cap_read_as_a_cold_call():
    """Each changed call runs right after the unchanged one, whose plan is then cached, and again on its own plan."""
    circuit, _, rows, pairs = plan_case()
    shuffled = np.random.default_rng(3).permutation(len(rows))
    rows_moved, pairs_moved = rows[shuffled], np.argsort(shuffled)[pairs]  # the same pairs, rows in another order
    for changed_rows, changed_pairs, cap in (
        (rows_moved, pairs_moved, 20),
        (rows, pairs[::-1], 20),
        (rows, pairs[: len(pairs) // 3], 20),
        (np.vstack((rows, [[0, 3, 0, 1]])), np.vstack((pairs, [[len(rows), 0], [len(rows), len(rows)]])), 20),
        (rows, pairs, 18),
    ):
        expected = cold(circuit, changed_rows, changed_pairs, cap)
        cold(circuit, rows, pairs)
        for _ in range(2):
            got = fock.postselection_amplitudes(circuit, changed_rows, changed_pairs, cap, fock.DEFAULT_LEAK_TOL)
            assert got.tobytes() == expected.tobytes()
    moved = fock.postselection_amplitudes(circuit, rows_moved, pairs_moved, 20, fock.DEFAULT_LEAK_TOL)
    assert np.max(np.abs(moved - cold(circuit, rows, pairs))) <= 1e-15


def test_bad_input_raises_on_every_call_even_after_a_plan_hit():
    circuit, _, rows, pairs = plan_case()
    fock.postselection_amplitudes(circuit, rows, pairs, 20, None)
    negative, outside = rows.copy(), pairs.copy()
    negative[1, 2] = -1
    outside[-1, 1] = len(rows)
    for bad_rows, bad_pairs, cap, message in (
        (rows.astype(float) + 0.5, pairs, 20, "must be integers"),
        (negative, pairs, 20, "must be nonnegative"),
        (rows, outside, 20, "indexes outside"),
        (rows, pairs.astype(float) / 2, 20, "pair indices must be integers"),
        (rows, pairs, 2, "photon cap below the requested occupations"),
    ):
        for _ in range(2):
            fock.postselection_amplitudes(circuit, rows, pairs, 20, None)  # a hit just before
            with pytest.raises(ValueError, match=message):
                fock.postselection_amplitudes(circuit, bad_rows, bad_pairs, cap, None)


def test_plan_arrays_are_read_only_and_hold_no_space():
    circuit, _, rows, pairs = plan_case()
    fock.postselection_amplitudes(circuit, rows, pairs, 20, None)
    plan = fock._postselection_plan(2, 2, 20, fock.DIM_LIMIT, rows.tobytes(), pairs.tobytes())
    assert fock._postselection_plan.cache_info().maxsize == fock.PLAN_CACHE_SIZE
    for group in plan:
        assert all(isinstance(delta, int) for delta in group.deltas)
        for array in (*group.seeded, *group.read):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
