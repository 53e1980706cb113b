"""The block engine against the dense generator oracle on random circuits."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ptrsim
from ptrsim import fock
from ptrsim.errors import TruncationLeakError
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS

#: largest basis handed to the dense oracle (one dense expm per element)
MAX_ORACLE_DIM = 160


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sector_size(n_s: int, n_i: int, cap: int, delta) -> int:
    if delta is None:
        return math.comb(cap + n_s + n_i, n_s + n_i)
    return sum(
        math.comb(k_s + n_s - 1, n_s - 1) * math.comb(k_s - delta + n_i - 1, n_i - 1)
        for k_s in range(max(0, delta), (cap + delta) // 2 + 1)
    )


@st.composite
def circuits_on_spaces(draw):
    n_s, n_i = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seeds = st.integers(0, 2**32 - 1)
    phases = st.floats(-math.pi, math.pi)
    layer = st.sampled_from(["linear_s", "linear_i", "phase_s", "phase_i", "none"])
    elements = []
    for slot in range(draw(st.integers(0, 3)) + 1):
        if slot:
            elements.append(
                Pdc(draw(st.integers(0, n_s - 1)), draw(st.integers(0, n_i - 1)), draw(st.floats(0.0, 1.5)))
            )
        for kind in draw(st.lists(layer, max_size=2)):
            if kind == "linear_s":
                elements.append(LinearS(haar(n_s, draw(seeds))))
            elif kind == "linear_i":
                elements.append(LinearI(haar(n_i, draw(seeds))))
            elif kind == "phase_s":
                elements.append(PhaseS(draw(st.integers(0, n_s - 1)), draw(phases)))
            elif kind == "phase_i":
                elements.append(PhaseI(draw(st.integers(0, n_i - 1)), draw(phases)))
    delta = draw(st.one_of(st.none(), st.integers(-3, 3)))
    # largest caps first: they cut the most ladders, and hypothesis favours early picks
    caps = [cap for cap in range(10, 1, -1) if 0 < sector_size(n_s, n_i, cap, delta) <= MAX_ORACLE_DIM]
    return Circuit(n_s, n_i, tuple(elements)), draw(st.sampled_from(caps)), delta, draw(seeds)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(circuits_on_spaces())
def test_engine_matches_dense_oracle(case):
    circuit, cap, delta, seed = case
    space = fock.FockSpace(circuit.n_s_paths, circuit.n_i_paths, cap, delta=delta)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(space.dimension, 2)) + 1j * rng.normal(size=(space.dimension, 2))
    block /= np.linalg.norm(block, axis=0)
    got = fock.apply_circuit(circuit, space, block.copy(), leak_tol=None)  # the block is evolved in place
    expected = oracles.nonlinear_operator(circuit, space) @ block
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize(
    "circuit,cap,delta",
    [
        (Circuit(1, 1, (Pdc(0, 0, 1.4),)), 6, 0),
        (Circuit(1, 1, (Pdc(0, 0, 1.2), PhaseI(0, 0.4), Pdc(0, 0, 0.9))), 9, 2),
        (Circuit(2, 2, (Pdc(0, 1, 1.3), LinearS(haar(2, 3)), Pdc(1, 0, 1.1), LinearI(haar(2, 4)))), 6, None),
        (Circuit(3, 2, (LinearI(haar(2, 5)), Pdc(2, 1, 1.5), LinearS(haar(3, 6)), Pdc(0, 0, 0.8))), 7, -1),
    ],
)
def test_engine_matches_oracle_where_ladders_are_cut(circuit, cap, delta):
    # gains this high push order-one weight onto the top rungs, so the
    # comparison exercises the cut ladder generator, not just its bottom
    space = fock.FockSpace(circuit.n_s_paths, circuit.n_i_paths, cap, delta=delta)
    block = np.eye(space.dimension, dtype=np.complex128)
    got = fock.apply_circuit(circuit, space, block, leak_tol=None)
    expected = oracles.nonlinear_operator(circuit, space)
    assert np.max(np.abs(got - expected)) <= 1e-12
    top = space.totals > cap - 2
    assert np.max(np.sum(np.abs(got[top]) ** 2, axis=0)) > 0.1


def ladder_block(diff: int, length: int, r: float) -> np.ndarray:
    """The engine's pair-source block on one ladder, applied to the identity."""
    block = np.eye(length, dtype=np.complex128)
    fock._apply_ladders(block, np.arange(length)[:, None], diff, r, fock._Operators())
    return block


#: gains of the ladder sweep; length L takes GAINS[(L + 2) % 6], so every
#: gain meets lengths up to 81 and the longest ladder takes the largest gain
GAINS = (0.05, 0.4, 1.0, 1.7, 2.3, 3.0)


@pytest.mark.parametrize("diff", range(7))
def test_ladder_block_matches_dense_expm(diff):
    for length in range(1, 82):
        eye = np.eye(length)
        r = GAINS[(length + 2) % len(GAINS)]
        got = ladder_block(diff, length, r)
        assert np.max(np.abs(got - oracles.ladder_exp(diff, length, r))) <= 1e-12, (length, r)
        assert np.max(np.abs(got.conj().T @ got - eye)) <= 1e-13, (length, r)
        assert np.max(np.abs(ladder_block(diff, length, 0.0) - eye)) <= 1e-13, length


@pytest.mark.parametrize(
    "diff,length,r", [(0, 200, 1.0), (3, 200, 3.0), (2, 200, 3.5), (1, 400, 1.7), (5, 400, 2.3), (7, 400, 3.5)]
)
def test_long_ladder_block_matches_dense_expm(diff, length, r):
    """High-gain checks need caps of several hundred photons, where the dense ladder decomposition is longest."""
    got = ladder_block(diff, length, r)
    assert np.max(np.abs(got - oracles.ladder_exp(diff, length, r))) <= 1e-12
    assert np.max(np.abs(got.conj().T @ got - np.eye(length))) <= 1e-13


def test_ladder_block_acts_on_every_ladder_and_column():
    rng = np.random.default_rng(11)
    block = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))
    idx = rng.permutation(60)[:45].reshape(9, 5)  # 5 ladders of 9 rungs, scattered rows
    expected = block.copy()
    expected[idx] = np.einsum("jk,kgc->jgc", oracles.ladder_exp(3, 9, 1.2), block[idx])
    fock._apply_ladders(block, idx, 3, 1.2, fock._Operators())
    assert np.max(np.abs(block - expected)) <= 1e-13


def test_ladder_modes_are_cached_read_only():
    values, vectors = fock._ladder_modes(4, 12)
    assert fock._ladder_modes(4, 12)[1] is vectors
    assert values.dtype == vectors.dtype == np.float64
    for array in (values, vectors):
        with pytest.raises(ValueError):
            array[0] = 0.0


#: (modes, largest photon number): for 1-4 modes the largest k with (k + 1)^modes
#: <= 1300, the size of the dense product space, and 5 modes at k <= 3
KRON_CASES = [(1, 1299), (2, 35), (3, 9), (4, 5), (5, 3)]


@pytest.mark.parametrize("n_modes,top", KRON_CASES)
def test_lifted_blocks_match_kronecker_oracle(n_modes, top):
    unitary = haar(n_modes, 40 + n_modes)
    dense = oracles.lifted_unitary(unitary, top)
    blocks = fock._lifted_blocks(unitary, top)
    # one mode: the oracle's own expm is 1.2e-12 off the 40-digit u^k at k = 1299
    tol = 2e-12 if n_modes == 1 else 1e-12
    for k in range(top + 1):
        index = [oracles.product_index(p, top) for p in fock.occupations_with_total(n_modes, k)]
        assert np.max(np.abs(blocks[k] - dense[np.ix_(index, index)])) <= tol, k
    if n_modes == 1:
        with mpmath.workdps(40):
            powers = [complex(mpmath.mpc(complex(unitary[0, 0])) ** k) for k in range(top + 1)]
        assert max(abs(blocks[k][0, 0] - powers[k]) for k in range(top + 1)) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_lifted_blocks_stay_unitary_at_high_photon_numbers(seed):
    # two-mode sides reach k ~ 97 at caps 128-192; a recursion that peels one
    # fixed photon of the input loses digits geometrically in k
    blocks = fock._lifted_blocks(haar(2, seed), 192)
    for k in (64, 128, 192):
        assert np.max(np.abs(blocks[k].conj().T @ blocks[k] - np.eye(k + 1))) <= 1e-12, k


def test_photon_plans_are_cached_read_only():
    rank, root = fock._photon_plan(3, 4)
    assert fock._photon_plan(3, 4)[0] is rank
    fewer = fock.occupations_with_total(3, 3)
    for p, pattern in enumerate(fock.occupations_with_total(3, 4)):
        for i, count in enumerate(pattern):
            lowered = tuple(n - (j == i) for j, n in enumerate(pattern))
            assert rank[p, i] == (fewer.index(lowered) if count else len(fewer))
            assert root[p, i] == math.sqrt(count)
    for array in (rank, root):
        with pytest.raises(ValueError):
            array[0, 0] = 0


@pytest.mark.parametrize("cap,delta", [(6, 0), (6, 2)])
def test_four_plus_four_linear_networks_match_dense_oracle(cap, delta):
    # the amp benchmark's largest class; the property test stops at 3 paths per side
    networks = [LinearS(haar(4, 21)), LinearI(haar(4, 22)), LinearS(haar(4, 23)), LinearI(haar(4, 24))]
    circuit = Circuit(4, 4, (*networks[:2], Pdc(1, 2, 0.9), *networks[2:]))
    space = fock.FockSpace(4, 4, cap, delta=delta)
    block = np.eye(space.dimension, dtype=np.complex128)
    got = fock.apply_circuit(circuit, space, block, leak_tol=None)
    assert np.max(np.abs(got - oracles.nonlinear_operator(circuit, space))) <= 1e-12


def test_leak_guard_regression():
    # two cascaded sources and a signal splitter from vacuum leave 5e-3 of
    # the weight within two photons of cap 6, and 1e-7 near cap 20
    circuit = Circuit(2, 1, (Pdc(0, 0, 0.7), LinearS(haar(2, 9)), Pdc(1, 0, 0.5)))
    small = fock.FockSpace(2, 1, 6, delta=0)
    vacuum = oracles.one_hot(small, [(0, 0, 0)])
    with pytest.raises(TruncationLeakError):
        fock.apply_circuit(circuit, small, vacuum.copy(), leak_tol=1e-3)
    fock.apply_circuit(circuit, small, vacuum, leak_tol=None)
    adequate = fock.FockSpace(2, 1, 20, delta=0)
    out = fock.apply_circuit(circuit, adequate, oracles.one_hot(adequate, [(0, 0, 0)]), leak_tol=1e-3)
    assert np.isclose(np.linalg.norm(out), 1.0, atol=1e-13)


def test_leak_guard_reads_each_sector_of_a_grouped_call_apart():
    """Sectors evolved in one block raise exactly when one of them would raise alone, so a clipped sector
    is never diluted by the converged ones that share its columns."""
    circuit = Circuit(2, 1, (Pdc(0, 0, 0.7), LinearS(haar(2, 9)), Pdc(1, 0, 0.5)))
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 0, 2), (1, 1, 0)]
    pairs = [(a, a) for a in range(len(rows))]  # sectors -2, -1 and 0 hold one input each, 1 and 2 two each

    def raises(pairs, cap):
        try:
            fock.postselection_amplitudes(circuit, rows, pairs, cap, 1e-3)
        except TruncationLeakError:
            return True
        return False

    fired = []
    for cap in (6, 8, 11, 12, 14, 20):
        fired.append([raises([pair], cap) for pair in pairs])
        assert raises(pairs, cap) == any(fired[-1]), cap
    assert all(fired[0]) and not any(fired[-1])
    assert any(sum(alone) == 2 for alone in fired)  # at cap 12 only the two-photon idler and signal pairs


@pytest.mark.parametrize("pair", [(0, 0), (1, 2)], ids=["vacuum", "one_signal_photon"])
def test_leak_guard_regression_with_outer_networks(pair):
    """The same circuit and caps wrapped in signal splitters, which act outside apply_circuit's core."""
    core = (Pdc(0, 0, 0.7), LinearS(haar(2, 9)), Pdc(1, 0, 0.5))
    circuit = Circuit(2, 1, (LinearS(haar(2, 5)), *core, LinearS(haar(2, 7))))
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(TruncationLeakError):
        fock.postselection_amplitudes(circuit, rows, [pair], 6, 1e-3)
    fock.postselection_amplitudes(circuit, rows, [pair], 6, None)
    assert fock.postselection_amplitudes(circuit, rows, [pair], 20, 1e-3)[0] != 0


@st.composite
def phase_plate_runs(draw, n_s: int, n_i: int) -> list:
    """One to three phase plates with up to two Haar networks shuffled in."""
    phases, seeds = st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1)
    plates = [
        PhaseS(draw(st.integers(0, n_s - 1)), draw(phases)) if draw(st.booleans())
        else PhaseI(draw(st.integers(0, n_i - 1)), draw(phases))
        for _ in range(draw(st.integers(1, 3)))
    ]
    networks = [
        LinearS(haar(n_s, draw(seeds))) if side == "s" else LinearI(haar(n_i, draw(seeds)))
        for side in draw(st.lists(st.sampled_from("si"), max_size=2))
    ]
    return list(draw(st.permutations(plates + networks)))


@st.composite
def phase_plate_circuits(draw):
    """Runs of phase plates before the first source, between sources and after the last."""
    n_s, n_i = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    elements = draw(phase_plate_runs(n_s, n_i))
    for _ in range(draw(st.integers(1, 2))):
        elements.append(Pdc(draw(st.integers(0, n_s - 1)), draw(st.integers(0, n_i - 1)), draw(st.floats(0.0, 1.2))))
        elements += draw(phase_plate_runs(n_s, n_i))
    caps = [cap for cap in range(10, 2, -1) if sector_size(n_s, n_i, cap, None) <= MAX_ORACLE_DIM]
    return Circuit(n_s, n_i, tuple(elements)), draw(st.sampled_from(caps))


def assert_amplitudes_match_dense_oracle(circuit, cap: int, budget: int = 3) -> None:
    """Every pair of rows within ``budget`` photons, through postselection_amplitudes, against the dense operator."""
    rows = fock.occupations_upto(circuit.n_s_paths + circuit.n_i_paths, budget)
    pairs = [(a, b) for a in range(len(rows)) for b in range(len(rows))]
    got = fock.postselection_amplitudes(circuit, rows, pairs, cap, None)
    space = fock.FockSpace(circuit.n_s_paths, circuit.n_i_paths, cap)
    where = space.indices(rows)
    dense = oracles.nonlinear_operator(circuit, space)
    expected = np.array([dense[where[b], where[a]] for a, b in pairs])
    assert np.count_nonzero(expected) and np.max(np.abs(got - expected)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(phase_plate_circuits())
def test_amplitudes_with_phase_plate_runs_match_dense_oracle(case):
    assert_amplitudes_match_dense_oracle(*case)


def test_amplitudes_with_a_head_diagonal_on_one_side_only_match_dense_oracle():
    """Before the first source the signal side holds only phase plates and the idler side a Haar network,
    after the last the other way round: each end rephases its rows on one side and evolves the other."""
    circuit = Circuit(2, 2, (
        PhaseS(0, 0.7), LinearI(haar(2, 91)), PhaseS(1, -1.1), PhaseI(0, 0.4),
        Pdc(0, 1, 0.6), PhaseS(1, 0.3), Pdc(1, 0, 0.5),
        LinearS(haar(2, 92)), PhaseI(1, 2.2), PhaseI(0, -0.6),
    ))
    assert_amplitudes_match_dense_oracle(circuit, 4)


def test_leak_guard_leaves_the_evolved_block_unchanged():
    """The guard only reads the block: with it on, apply_circuit returns the same bits as with it off."""
    circuit = Circuit(2, 1, (PhaseS(1, 0.4), Pdc(0, 0, 0.5), PhaseI(0, 1.3), LinearS(haar(2, 9)), Pdc(1, 0, 0.4)))
    space = fock.FockSpace(2, 1, 24, delta=0)
    block = oracles.one_hot(space, [(0, 0, 0), (1, 0, 1), (0, 1, 1)])
    guarded = fock.apply_circuit(circuit, space, block.copy(), leak_tol=1e-3)  # the block is evolved in place
    assert np.array_equal(guarded, fock.apply_circuit(circuit, space, block, leak_tol=None))


def imported_names(module) -> set[str]:
    """Every dotted-name part a module imports, at module level or inside a function."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        imported.update(part for name in names for part in name.split("."))
    return imported


def test_brute_side_borrows_nothing_from_the_dual_side():
    """fock.py imports neither permanents (linamp) nor scattering maths (scatter),
    at module level or inside a function, so the two arms fail independently."""
    imported = imported_names(fock)
    assert "ptr" in imported  # the walk sees the local import of the element types
    assert not imported & {"linamp", "scatter"}


#: the package and every module in it
PACKAGE_MODULES = [ptrsim] + [
    importlib.import_module(f"ptrsim.{info.name}") for info in pkgutil.iter_modules(ptrsim.__path__)
]


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda module: module.__name__)
def test_star_fold_and_gaussian_arm_import_no_scipy(module):
    """The runtime is numpy only, in every module.  A scipy LAPACK call on the
    Q-function path faults in scipy's bundled BLAS, and importing scipy.linalg
    alone roughly triples the package's import time and doubles its peak RSS."""
    assert "scipy" not in imported_names(module)


def test_apply_circuit_consumes_a_complex_block_and_converts_any_other():
    """A writable C-ordered complex128 block is evolved in place and returned; any other block is left as it was."""
    circuit = Circuit(2, 1, (PhaseS(1, 0.4), Pdc(0, 0, 0.5), LinearS(haar(2, 9))))
    space = fock.FockSpace(2, 1, 16, delta=0)
    block = oracles.one_hot(space, [(0, 0, 0), (1, 0, 1)])
    others = [block.real.copy(), np.asfortranarray(block), block.copy()]
    others[2].flags.writeable = False
    expected = fock.apply_circuit(circuit, space, block.copy(), leak_tol=None)
    assert fock.apply_circuit(circuit, space, block, leak_tol=None) is block
    assert np.array_equal(block, expected)
    for other in others:
        kept = other.copy()
        assert np.array_equal(fock.apply_circuit(circuit, space, other, leak_tol=None), expected)
        assert np.array_equal(other, kept)
