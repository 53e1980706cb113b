"""Scattering composition, transfer conversion, and their invariants."""

import math

import numpy as np
import pytest

from ptrsim import scatter
from ptrsim.errors import SingularCavityError
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseS, circuit_transfer


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_scatterings(seed: int, count: int, n_s: int = 2, n_i: int = 2):
    """Unitary scattering factors, the kind the star product actually composes."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        choice = k % 3
        if choice == 0:
            out.append(scatter.hypothetical_bs(rng.uniform(0.2, 1.0), rng.integers(n_s), rng.integers(n_i), n_s, n_i))
        elif choice == 1:
            out.append(scatter.embed_linear(haar(n_s, seed + 100 + k), "s", n_s, n_i))
        else:
            out.append(scatter.embed_linear(haar(n_i, seed + 200 + k), "i", n_s, n_i))
    return out


def test_identity_is_neutral_for_star():
    (factor,) = random_scatterings(0, 1)
    eye = scatter.ScatteringMatrix.identity(factor.n_s, factor.n_i)
    assert np.allclose(scatter.star(eye, factor).full, factor.full, atol=1e-14)
    assert np.allclose(scatter.star(factor, eye).full, factor.full, atol=1e-14)


def test_full_matrix_is_built_once_and_read_only():
    (factor,) = random_scatterings(5, 1)
    transfer = circuit_transfer(Circuit(2, 2, (Pdc(0, 1, 0.4),)))
    for matrix in (factor, transfer):
        assert matrix.full is matrix.full
        with pytest.raises(ValueError):
            matrix.full[0, 0] = 0.0
        with pytest.raises(ValueError):
            matrix.ss[0, 0] = 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_is_associative(seed):
    a, b, c = random_scatterings(seed, 3)
    left = scatter.star(scatter.star(a, b), c)
    right = scatter.star(a, scatter.star(b, c))
    assert np.allclose(left.full, right.full, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_star_preserves_unitarity(seed):
    a, b, c = random_scatterings(seed, 3)
    combined = scatter.star(scatter.star(a, b), c)
    assert scatter.unitarity_defect(combined) < 1e-12


def test_hypothetical_bs_blocks():
    r = 0.7
    bs = scatter.hypothetical_bs(r, 1, 0, 2, 2)
    t, refl = 1 / math.cosh(r), math.tanh(r)
    assert np.isclose(bs.ss[1, 1], t) and np.isclose(bs.ss[0, 0], 1.0)
    assert np.isclose(bs.ii[0, 0], t) and np.isclose(bs.ii[1, 1], 1.0)
    assert np.isclose(bs.si[1, 0], refl)
    assert np.isclose(bs.is_[0, 1], -refl)
    assert np.isclose(t**2 + refl**2, 1.0)
    assert scatter.unitarity_defect(bs) < 1e-15


def test_embed_linear_transposes_idler_side():
    unitary = haar(2, 9)
    embedded = scatter.embed_linear(unitary, "i", 1, 2)
    assert np.allclose(embedded.ii, unitary.T)
    assert np.allclose(embedded.ss, np.eye(1))
    embedded_s = scatter.embed_linear(unitary, "s", 2, 1)
    assert np.allclose(embedded_s.ss, unitary)


def test_singular_cavity_raises():
    si = np.array([[1.0]])
    first = scatter.ScatteringMatrix(np.array([[0.0]]), si, np.array([[0.0]]), np.array([[0.0]]))
    second = scatter.ScatteringMatrix(np.array([[0.0]]), np.array([[0.0]]), si, np.array([[0.0]]))
    with pytest.raises(SingularCavityError):
        scatter.star(first, second)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scattering_transfer_round_trip(seed):
    a, b, c = random_scatterings(seed, 3)
    combined = scatter.star(scatter.star(a, b), c)
    transfer = scatter.scattering_to_transfer(combined)
    back = scatter.transfer_to_scattering(transfer)
    assert np.allclose(back.full, combined.full, atol=1e-13)


def test_transfer_composition_is_matrix_product():
    # scattering factors compose by star; their transfers compose by plain
    # multiplication, later factor on the left
    a, b = random_scatterings(7, 2)
    starred = scatter.scattering_to_transfer(scatter.star(a, b))
    product = scatter.scattering_to_transfer(b) @ scatter.scattering_to_transfer(a)
    assert np.allclose(starred.full, product.full, atol=1e-12)


def test_bs_transfer_matches_scattering_conversion():
    r = 0.55
    direct = scatter.bs_transfer(r, 0, 1, 2, 2)
    via = scatter.scattering_to_transfer(scatter.hypothetical_bs(r, 0, 1, 2, 2))
    assert np.allclose(direct.full, via.full, atol=1e-14)
    assert np.isclose(direct.ss[0, 0], math.cosh(r))
    assert np.isclose(direct.si[0, 1], math.sinh(r))


def test_linear_transfer_conjugates_idler_side():
    unitary = haar(2, 21)
    direct = scatter.linear_transfer(unitary, "i", 1, 2)
    via = scatter.scattering_to_transfer(scatter.embed_linear(unitary, "i", 1, 2))
    assert np.allclose(direct.full, via.full, atol=1e-14)
    assert np.allclose(direct.ii, unitary.conj())


def sample_circuits():
    yield Circuit(1, 1, (Pdc(0, 0, 0.8),))
    yield Circuit(2, 2, (Pdc(0, 0, 0.5), LinearS(haar(2, 31)), Pdc(1, 1, 0.7), LinearI(haar(2, 32))))
    yield Circuit(2, 1, (PhaseS(1, 0.4), Pdc(0, 0, 0.9), Pdc(1, 0, 0.3)))


@pytest.mark.parametrize("index,circuit", list(enumerate(sample_circuits())))
def test_transfer_invariants_on_circuits(index, circuit):
    transfer = circuit_transfer(circuit)
    assert scatter.symplectic_defect(transfer) < 1e-12
    assert scatter.block_relation_defect(transfer) < 1e-12
    assert scatter.gram_inverse_defect(transfer) < 1e-12


def test_transfer_determinant_has_unit_modulus():
    for circuit in sample_circuits():
        det = np.linalg.det(circuit_transfer(circuit).full)
        assert np.isclose(abs(det), 1.0, atol=1e-12)


def test_block_shape_validation():
    with pytest.raises(ValueError):
        scatter.ScatteringMatrix(np.eye(2), np.eye(2), np.eye(2), np.eye(3))
