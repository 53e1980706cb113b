"""Gaussian (coherent-state) arm: symplectic maps, Q functions, dualities."""

import math

import numpy as np
import pytest

import oracles
from ptrsim import gaussian
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS, circuit_transfer


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit_2x2(seed: int) -> Circuit:
    return Circuit(
        2,
        2,
        (
            Pdc(0, 0, 0.5),
            LinearS(haar(2, seed)),
            PhaseI(1, 0.7),
            Pdc(1, 1, 0.35),
            LinearI(haar(2, seed + 50)),
            PhaseS(0, -0.2),
        ),
    )


def test_vacuum_state_structure():
    state = gaussian.GaussianState.vacuum(2)
    assert state.n_modes == 2
    assert np.allclose(state.displacement, 0)
    assert np.allclose(state.covariance, np.eye(4) / 2)


def test_coherent_state_displacement_structure():
    alphas = np.array([0.3 + 0.2j, -0.1j])
    state = gaussian.GaussianState.coherent(alphas)
    assert np.allclose(state.displacement[:2], alphas)
    assert np.allclose(state.displacement[2:], alphas.conj())
    assert np.allclose(state.covariance, np.eye(4) / 2)


def test_state_validation_rejects_malformed_input():
    with pytest.raises(ValueError):
        gaussian.GaussianState(np.zeros(3), np.eye(3) / 2)  # odd doubled length
    with pytest.raises(ValueError):
        gaussian.GaussianState(np.array([1.0, 2.0]), np.eye(2) / 2)  # not (a, a*)
    bad_cov = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        gaussian.GaussianState(np.zeros(2), bad_cov)  # not Hermitian


def test_single_source_map_has_cosh_sinh_blocks():
    r = 0.6
    f = gaussian.symplectic_from_transfer(circuit_transfer(Circuit(1, 1, (Pdc(0, 0, r),))))
    matrix = f.matrix
    c, s = math.cosh(r), math.sinh(r)
    assert np.isclose(matrix[0, 0], c) and np.isclose(matrix[1, 1], c)
    assert np.isclose(matrix[2, 2], c) and np.isclose(matrix[3, 3], c)
    assert np.isclose(matrix[0, 3], s) and np.isclose(matrix[3, 0], s)
    assert np.isclose(matrix[1, 2], s) and np.isclose(matrix[2, 1], s)


@pytest.mark.parametrize("seed", [0, 1])
def test_symplectic_invariants_on_random_circuits(seed):
    f = gaussian.symplectic_from_transfer(circuit_transfer(random_circuit_2x2(seed)))
    assert gaussian.conjugation_defect(f) < 1e-12
    assert gaussian.metric_preservation_defect(f) < 1e-12


def test_symplectic_map_composes_like_the_transfer_product():
    first = Circuit(1, 1, (Pdc(0, 0, 0.4),))
    second = Circuit(1, 1, (PhaseS(0, 0.9), Pdc(0, 0, 0.3)))
    combined = Circuit(1, 1, first.elements + second.elements)
    f_first = gaussian.symplectic_from_transfer(circuit_transfer(first))
    f_second = gaussian.symplectic_from_transfer(circuit_transfer(second))
    f_combined = gaussian.symplectic_from_transfer(circuit_transfer(combined))
    assert np.allclose((f_second @ f_first).matrix, f_combined.matrix, atol=1e-13)


def test_evolved_vacuum_covariance_diagonal():
    r = 0.5
    f = gaussian.symplectic_from_transfer(circuit_transfer(Circuit(1, 1, (Pdc(0, 0, r),))))
    state = gaussian.evolve(f, gaussian.GaussianState.vacuum(2))
    assert np.allclose(np.diag(state.covariance).real, math.cosh(2 * r) / 2, atol=1e-13)


def test_q_function_of_vacuum_and_coherent_states():
    vacuum = gaussian.GaussianState.vacuum(2)
    assert np.isclose(gaussian.q_function(vacuum, [0, 0], []), 1 / math.pi**2)
    beta = np.array([0.4 + 0.1j, -0.3j])
    expected = math.exp(-float(np.sum(np.abs(beta) ** 2))) / math.pi**2
    assert np.isclose(gaussian.q_function(vacuum, beta[:1], beta[1:]), expected, rtol=1e-12)
    coherent = gaussian.GaussianState.coherent(beta)
    assert np.isclose(gaussian.q_function(coherent, beta[:1], beta[1:]), 1 / math.pi**2, rtol=1e-12)


def test_q_function_batch_shape_and_normalization():
    state = gaussian.GaussianState.vacuum(1)
    grid = np.arange(-4.5, 4.5, 0.1)
    xs, ys = np.meshgrid(grid, grid)
    points = (xs + 1j * ys).ravel()[:, None]
    values = gaussian.q_function(state, points, np.zeros((points.shape[0], 0)))
    assert values.shape == (points.shape[0],)
    assert np.isclose(oracles.grid_quadrature_2d(values, 0.1), 1.0, atol=1e-4)


def test_mean_photon_number_from_q_moments():
    # anti-normal ordering: Int Q(beta) (|beta|^2 - 1) = <n> = sinh(r)^2
    r = 0.4
    state = gaussian.evolve(gaussian.single_mode_squeezer_map(r), gaussian.GaussianState.vacuum(1))
    grid = np.arange(-5.0, 5.0, 0.08)
    xs, ys = np.meshgrid(grid, grid)
    points = (xs + 1j * ys).ravel()[:, None]
    values = gaussian.q_function(state, points, np.zeros((points.shape[0], 0)))
    moment = oracles.grid_quadrature_2d(values * (np.abs(points.ravel()) ** 2 - 1.0), 0.08)
    assert np.isclose(moment, math.sinh(r) ** 2, atol=1e-4)


def test_coherent_overlap_closed_form():
    rng = np.random.default_rng(3)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    overlap = gaussian.coherent_overlap(u, v)
    assert np.isclose(abs(overlap) ** 2, math.exp(-float(np.sum(np.abs(u - v) ** 2))), rtol=1e-12)
    assert np.isclose(gaussian.coherent_overlap(u, u), 1.0, rtol=1e-12)


def test_coherent_overlap_matches_fock_series():
    u, v = 0.7 - 0.2j, -0.4 + 0.5j
    series = np.vdot(oracles.coherent_vector(u, 60), oracles.coherent_vector(v, 60))
    assert np.isclose(gaussian.coherent_overlap([u], [v]), series, rtol=1e-12)


def test_q_duality_single_source():
    residual = gaussian.q_duality_residual(
        Circuit(1, 1, (Pdc(0, 0, 0.8),)),
        np.array([0.3 + 0.2j]),
        np.array([-0.1 + 0.4j]),
        np.array([[0.2 - 0.3j]]),
        np.array([[0.5j]]),
    )
    assert residual < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_q_duality_random_circuits(seed):
    rng = np.random.default_rng(seed + 400)
    circuit = random_circuit_2x2(seed)
    alpha_s = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    alpha_i = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    beta_s = 0.5 * (rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))
    beta_i = 0.5 * (rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))
    assert gaussian.q_duality_residual(circuit, alpha_s, alpha_i, beta_s, beta_i) < 1e-12


@pytest.mark.parametrize("r", [0.3, 0.8])
def test_sms_coherent_duality(r):
    rng = np.random.default_rng(17)
    for _ in range(5):
        alpha, beta = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.5
        assert gaussian.sms_coherent_duality_residual(r, alpha, beta) < 1e-12


@pytest.mark.parametrize("r", [0.3, 0.8])
def test_squeezed_vacuum_q_closed_form_matches_fock_series(r):
    rng = np.random.default_rng(23)
    for _ in range(4):
        beta = complex(*rng.normal(size=2)) * 0.6
        closed = gaussian.squeezed_vacuum_q_closed_form(r, beta)
        brute = oracles.single_mode_squeeze_q(r, beta, cutoff=140)
        assert np.isclose(closed, brute, rtol=1e-10, atol=1e-13)
        state = gaussian.evolve(
            gaussian.single_mode_squeezer_map(r), gaussian.GaussianState.vacuum(1)
        )
        assert np.isclose(
            gaussian.q_function(state, [beta], []), closed, rtol=1e-12
        )


def test_vacuum_q_determinant_identity():
    assert gaussian.vacuum_q_determinant_defect(random_circuit_2x2(4)) < 1e-12


def high_gain_circuit() -> Circuit:
    """3+2 paths, four r = 3 sources each followed by a Haar signal layer."""
    elements = []
    for seed, (s_path, i_path) in enumerate([(0, 0), (1, 1), (2, 0), (0, 1)]):
        elements += [Pdc(s_path, i_path, 3.0), LinearS(haar(3, seed))]
    return Circuit(3, 2, tuple(elements))


def test_q_duality_holds_at_high_gain():
    # covariance entries reach ~1e7, so their roundoff fails an absolute 1e-9 check
    rng = np.random.default_rng(0)
    alpha_s = 0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    alpha_i = 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    beta_s = 0.6 * (rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3)))
    beta_i = 0.6 * (rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)))
    residual = gaussian.q_duality_residual(high_gain_circuit(), alpha_s, alpha_i, beta_s, beta_i)
    assert residual <= 1e-8


def test_singular_q_covariance_rejected():
    state = gaussian.GaussianState(np.zeros(2), -np.eye(2) / 2)
    with pytest.raises(ValueError):
        gaussian.q_function(state, [0.0], [])
