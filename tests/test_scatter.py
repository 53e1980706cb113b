"""Scattering composition, transfer conversion, and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
            out.append(oracles.embed_linear(haar(n_s, seed + 100 + k), "s", n_s, n_i))
        else:
            out.append(oracles.embed_linear(haar(n_i, seed + 200 + k), "i", n_s, n_i))
    return out


def test_identity_is_neutral_for_star():
    (factor,) = random_scatterings(0, 1)
    eye = scatter.ScatteringMatrix.identity(factor.n_s, factor.n_i)
    assert np.allclose(scatter.star(eye, factor).full, factor.full, atol=1e-14)
    assert np.allclose(scatter.star(factor, eye).full, factor.full, atol=1e-14)


def test_full_matrix_is_built_once_and_read_only():
    given = haar(3, 5)
    blocks = (given[:2, :2], given[:2, 2:], given[2:, :2], given[2:, 2:])
    source = scatter.bs_transfer(0.4, 1, 0, 2, 1)
    matrices = [
        scatter.ScatteringMatrix(*blocks),
        scatter.TransferMatrix(*blocks),
        scatter.ScatteringMatrix.from_full(given, 2, 1),
        scatter.TransferMatrix.from_full(given, 2, 1),
        scatter.ScatteringMatrix.identity(2, 1),
        scatter.TransferMatrix.identity(2, 1),
        scatter.hypothetical_bs(0.4, 1, 0, 2, 1),
        source,
        scatter.linear_transfer(haar(1, 6), "i", 2, 1),
        scatter.star(*random_scatterings(5, 2, 2, 1)),
        source @ scatter.linear_transfer(haar(2, 7), "s", 2, 1),
        circuit_transfer(Circuit(2, 2, (Pdc(0, 1, 0.4),))),
    ]
    for matrix in matrices:
        assert matrix.full is matrix.full
        with pytest.raises(ValueError):
            matrix.full[0, 0] = 0.0
        for block in (matrix.ss, matrix.si, matrix.is_, matrix.ii):
            assert np.shares_memory(block, matrix.full)
            assert not block.flags.writeable
        with pytest.raises(AttributeError):
            matrix.ss = matrix.ii
    given[0, 0] = 0.0  # from_full copied it


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_star_is_associative(seed):
    a, b, c = random_scatterings(seed, 3)
    left = scatter.star(scatter.star(a, b), c)
    right = scatter.star(a, scatter.star(b, c))
    assert np.allclose(left.full, right.full, atol=1e-12)


@st.composite
def scattering_layers(draw, n_s: int, n_i: int):
    """One pair source (beamsplitter stand-in) or one Haar network on either side."""
    kind = draw(st.sampled_from(["pdc", "s", "i"]))
    if kind == "pdc":
        r = draw(st.floats(0.0, 1.5))
        s_path, i_path = draw(st.integers(0, n_s - 1)), draw(st.integers(0, n_i - 1))
        return scatter.hypothetical_bs(r, s_path, i_path, n_s, n_i)
    dim = n_s if kind == "s" else n_i
    return oracles.embed_linear(haar(dim, draw(st.integers(0, 2**32 - 1))), kind, n_s, n_i)


@st.composite
def three_devices(draw):
    """Three devices, each the star product of one to three random layers."""
    n_s, n_i = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    devices = []
    for _ in range(3):
        layers = draw(st.lists(scattering_layers(n_s, n_i), min_size=1, max_size=3))
        device = layers[0]
        for layer in layers[1:]:
            device = scatter.star(device, layer)
        devices.append(device)
    return devices


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(three_devices())
def test_star_is_associative_property(devices):
    a, b, c = devices
    left = scatter.star(scatter.star(a, b), c)
    right = scatter.star(a, scatter.star(b, c))
    assert np.max(np.abs(left.full - right.full)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(three_devices())
def test_scattering_transfer_round_trip_property(devices):
    combined = scatter.star(scatter.star(*devices[:2]), devices[2])
    back = oracles.transfer_to_scattering(scatter.scattering_to_transfer(combined))
    assert np.max(np.abs(back.full - combined.full)) <= 1e-12


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
    embedded = oracles.embed_linear(unitary, "i", 1, 2)
    assert np.allclose(embedded.ii, unitary.T)
    assert np.allclose(embedded.ss, np.eye(1))
    embedded_s = oracles.embed_linear(unitary, "s", 2, 1)
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
    back = oracles.transfer_to_scattering(transfer)
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
    via = scatter.scattering_to_transfer(oracles.embed_linear(unitary, "i", 1, 2))
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
    with pytest.raises(ValueError):
        scatter.TransferMatrix(np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)), np.eye(1))
    with pytest.raises(ValueError):
        scatter.ScatteringMatrix.from_full(np.eye(3), 2, 2)
    with pytest.raises(ValueError):
        scatter.linear_transfer(np.eye(1), "i", 2, 2)


@pytest.mark.parametrize("builder", [scatter.hypothetical_bs, scatter.bs_transfer])
@pytest.mark.parametrize("s_path,i_path", [(-1, 0), (2, 0), (0, -1), (0, 1)])
def test_pair_source_paths_are_checked(builder, s_path, i_path):
    with pytest.raises(ValueError):
        builder(0.5, s_path, i_path, 2, 1)


def test_transfer_product_takes_only_transfer_matrices():
    transfer = scatter.bs_transfer(0.5, 0, 0, 1, 1)
    with pytest.raises(TypeError):
        transfer @ scatter.hypothetical_bs(0.5, 0, 0, 1, 1)
