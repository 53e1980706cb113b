"""Lifted operators against dense Kronecker-product oracles, and states read off evolved columns."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracles
from ptrsim import fock, harness
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
    for col, src in enumerate(space.counts.tolist()):
        for row, dst in enumerate(space.counts.tolist()):
            out[row, col] = lifted[
                oracles.product_index(dst, cutoff),
                oracles.product_index(src, cutoff),
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


def test_mean_field_matches_truncated_coherent_closed_form():
    """<a> of a truncated coherent drive is sum_n sqrt(n) conj(c_{n-1}) c_n, on
    whichever path carries it; a path in vacuum or a Fock state reads zero."""
    gamma = 0.4 * np.exp(0.7j)
    drive = harness.truncated_coherent(gamma, 8)
    c = np.array([drive[(n,)] for n in range(9)])
    closed = np.sum(np.sqrt(np.arange(1, 9)) * c[:-1].conj() * c[1:])
    space = fock.FockSpace(2, 1, 12)
    idler = {(0,): 0.6, (2,): 0.8}
    signal = {((0, n), i): c_n * a for (n,), c_n in drive.items() for i, a in idler.items()}
    on_signal = oracles.state_vector(space, signal)
    on_idler = oracles.state_vector(space, {((1, 0), n): c_n for n, c_n in drive.items()})
    block = np.stack([on_signal, on_idler], axis=1)
    assert abs(closed) > 0.3
    assert abs(harness._mean_field(space, block, 1)[0] - closed) < 1e-14
    assert abs(harness._mean_field(space, block, 2)[1] - closed) < 1e-14
    assert np.all(harness._mean_field(space, block, 0) == 0)


def test_mean_field_refuses_a_difference_sector():
    space = fock.FockSpace(1, 1, 3, delta=0)
    with pytest.raises(ValueError, match="difference sector"):
        harness._mean_field(space, np.zeros((space.dimension, 1), dtype=complex), 0)


def test_nonlinear_operator_matches_column_evolution():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.4), PhaseS(0, 0.3)))
    space = fock.FockSpace(1, 1, 8, delta=0)
    op = oracles.nonlinear_operator(circuit, space)
    rows = [(0, 0), (2, 2)]
    columns = fock.apply_circuit(circuit, space, oracles.one_hot(space, rows), leak_tol=None)
    assert np.allclose(op[:, space.indices(rows)], columns, atol=1e-12)


def test_evolved_vacuum_holds_sinh_squared_signal_photons():
    r = 0.6
    space = fock.FockSpace(1, 1, 40)
    vacuum = oracles.one_hot(space, [(0, 0)])[:, 0]
    evolved = fock.apply_circuit(Circuit(1, 1, (Pdc(0, 0, r),)), space, vacuum)
    mean = np.sum(np.abs(evolved) ** 2 * space.counts[:, 0])
    assert np.isclose(mean, np.sinh(r) ** 2, atol=1e-10)


def test_import_leaves_scipy_sparse_unloaded():
    """The runtime is numpy only, so importing the package loads no scipy module, sparse or other."""
    src = Path(fock.__file__).parents[1]
    probe = "import sys, ptrsim; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"
