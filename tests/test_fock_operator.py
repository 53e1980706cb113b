"""Lifted operators against dense Kronecker-product oracles."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from ptrsim import fock
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseS


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_oracle_operator(matrix: np.ndarray, space: fock.FockSpace, cutoff: int) -> np.ndarray:
    """Map the kron-space operator of `matrix` into the package's basis order."""
    generator = scipy.linalg.logm(matrix)
    lifted = scipy.linalg.expm(oracles.lift_one_body(generator, cutoff))
    dim = space.dimension
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col, src in enumerate(space.states):
        for row, dst in enumerate(space.states):
            out[row, col] = lifted[
                oracles.product_index(dst.key(), cutoff),
                oracles.product_index(src.key(), cutoff),
            ]
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_linear_operator_matches_kron_oracle(seed):
    """A one-sided network lifted by the engine, against the Kronecker oracle
    of the same unitary embedded block-diagonally on all three paths."""
    unitary = haar(2, seed)
    for element, n_s, n_i in [(LinearS(unitary), 2, 1), (LinearI(unitary), 1, 2)]:
        space = fock.FockSpace(n_s, n_i, 3)
        embedded = np.eye(3, dtype=np.complex128)
        lo = 0 if element.side == "s" else 1
        embedded[lo : lo + 2, lo : lo + 2] = unitary
        ours = fock.apply_circuit(
            Circuit(n_s, n_i, (element,)), space, np.eye(space.dimension), leak_tol=None
        )
        theirs = dense_oracle_operator(embedded, space, cutoff=3)
        assert np.allclose(ours, theirs, atol=1e-12)


def test_number_generator_diagonal_counts_photons():
    space = fock.FockSpace(2, 1, 3)
    coeff = np.diag([1.0, 2.0, 3.0]).astype(complex)
    gen = oracles.number_generator(space, coeff).toarray()
    expected = space.counts @ np.array([1.0, 2.0, 3.0])
    assert np.allclose(np.diag(gen), expected)
    assert np.allclose(gen, np.diag(expected))


def test_number_generator_rejects_side_mixing_on_delta_sector():
    space = fock.FockSpace(1, 1, 4, delta=0)
    coeff = np.zeros((2, 2), dtype=complex)
    coeff[0, 1] = 1.0  # signal <- idler hop breaks the conserved difference
    with pytest.raises(ValueError):
        oracles.number_generator(space, coeff)


def test_annihilation_matrix_matches_kron_oracle():
    space = fock.FockSpace(1, 1, 3)
    cutoff = 3
    a = oracles.lowering(cutoff)
    eye = np.eye(cutoff + 1)
    for side, path, kron_op in [("s", 0, np.kron(a, eye)), ("i", 0, np.kron(eye, a))]:
        ours = fock.annihilation_matrix(space, side, path).toarray()
        for col, src in enumerate(space.states):
            for row, dst in enumerate(space.states):
                expected = kron_op[
                    oracles.product_index(dst.key(), cutoff),
                    oracles.product_index(src.key(), cutoff),
                ]
                assert abs(ours[row, col] - expected) < 1e-13


def test_annihilation_matrix_validates_arguments():
    space = fock.FockSpace(2, 1, 3)
    with pytest.raises(ValueError):
        fock.annihilation_matrix(space, "s", 2)
    with pytest.raises(ValueError):
        fock.annihilation_matrix(space, "i", -1)
    with pytest.raises(ValueError):
        fock.annihilation_matrix(fock.FockSpace(1, 1, 3, delta=0), "s", 0)


def test_nonlinear_operator_matches_column_evolution():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.4), PhaseS(0, 0.3)))
    space = fock.FockSpace(1, 1, 8, delta=0)
    op = oracles.nonlinear_operator(circuit, space)
    for occ in [((0,), (0,)), ((2,), (2,))]:
        column = fock.apply_circuit(circuit, space, space.basis_vector(occ), leak_tol=None)
        assert np.allclose(op[:, space.index(occ)], column, atol=1e-12)


def test_product_state_vector_and_observables():
    space = fock.FockSpace(1, 1, 6)
    s_amp = {(0,): 1 / np.sqrt(2), (1,): 1 / np.sqrt(2)}
    i_amp = {(0,): 1.0}
    vec = fock.product_state_vector(space, s_amp, i_amp)
    assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-12)
    # signal number observable restricted to the zero- and one-photon sector
    number = fock.joint_observable(
        space, np.array([[0.0, 0.0], [0.0, 1.0]]), [(0,), (1,)], np.eye(1), [(0,)]
    )
    idle = Circuit(1, 1, (Pdc(0, 0, 0.0),))
    assert np.isclose(fock.observable_expectation(idle, space, vec, number), 0.5, atol=1e-12)


def test_observable_expectation_counts_generated_pairs():
    r = 0.6
    space = fock.FockSpace(1, 1, 40)
    vacuum = space.basis_vector(fock.OccupationVector((0,), (0,)))
    number = fock.annihilation_matrix(space, "s", 0)
    number = (number.conj().T @ number).tocsr()
    circuit = Circuit(1, 1, (Pdc(0, 0, r),))
    mean = fock.observable_expectation(circuit, space, vacuum, number)
    assert np.isclose(mean, np.sinh(r) ** 2, atol=1e-10)
