"""Scattering composition, transfer conversion, and their invariants."""

import copy
import math
import pickle

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
    # next to the identity both coupling products are zero, so star skips both
    # loops and only multiplies by exact ones and zeros
    factors = random_scatterings(0, 3, 3, 2) + [scatter.star(*random_scatterings(1, 3, 3, 2)[:2])]
    for factor in factors:
        eye = scatter.ScatteringMatrix.identity(factor.n_s, factor.n_i)
        assert np.array_equal(scatter.star(eye, factor).full, factor.full)
        assert np.array_equal(scatter.star(factor, eye).full, factor.full)


def test_full_matrix_is_built_once_and_read_only():
    given = haar(3, 5)
    blocks = (given[:2, :2], given[:2, 2:], given[2:, :2], given[2:, 2:])
    source = oracles.bs_transfer(0.4, 1, 0, 2, 1)
    matrices = [
        scatter.ScatteringMatrix(*blocks),
        scatter.TransferMatrix(*blocks),
        scatter.ScatteringMatrix.from_full(given, 2, 1),
        scatter.TransferMatrix.from_full(given, 2, 1),
        scatter.ScatteringMatrix.identity(2, 1),
        scatter.TransferMatrix.identity(2, 1),
        scatter.hypothetical_bs(0.4, 1, 0, 2, 1),
        source,
        oracles.linear_transfer(haar(1, 6), "i", 2, 1),
        scatter.star(*random_scatterings(5, 2, 2, 1)),
        source @ oracles.linear_transfer(haar(2, 7), "s", 2, 1),
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


@pytest.mark.parametrize("exponent,singular", [(39, False), (40, True)])
def test_cavity_guard_bounds_the_one_norm_condition_number(exponent, singular):
    # both loops are diag(1, 2^-exponent): condition number 2^39 = 5.5e11 passes, 2^40 = 1.1e12 does not
    zero = np.zeros((2, 2))
    first = scatter.ScatteringMatrix(zero, np.diag([0.0, 1.0 - 2.0**-exponent]), zero, zero)
    second = scatter.ScatteringMatrix(zero, zero, np.eye(2), zero)
    assert (2.0**exponent > scatter.COND_LIMIT) == singular
    if singular:
        with pytest.raises(SingularCavityError, match="signal-side cavity loop has condition number 1.100e"):
            scatter.star(first, second)
    else:
        assert np.isfinite(scatter.star(first, second).full).all()


def test_singular_ii_block_raises():
    blocks = (np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(SingularCavityError, match="scattering ii block"):
        scatter.scattering_to_transfer(scatter.ScatteringMatrix(*blocks))
    with pytest.raises(SingularCavityError, match="transfer ii block"):
        scatter.v_matrix(scatter.TransferMatrix(*blocks))


@pytest.mark.parametrize("cls", [scatter.ScatteringMatrix, scatter.TransferMatrix])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_two_ports_are_refused(cls, bad):
    full = np.eye(2, dtype=np.complex128)
    full[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cls.from_full(full, 1, 1)
    with pytest.raises(ValueError, match="non-finite"):
        cls(full[:1, :1], full[:1, 1:], full[1:, :1], full[1:, 1:])


@pytest.mark.parametrize(
    "build",
    [
        lambda: scatter.hypothetical_bs(math.nan, 0, 0, 1, 1),
        lambda: oracles.bs_transfer(math.inf, 0, 0, 1, 1),
        lambda: oracles.linear_transfer(np.array([[math.nan]]), "i", 1, 1),
    ],
)
def test_two_port_builders_refuse_non_finite_parameters(build):
    with pytest.raises(ValueError, match="non-finite"):
        build()


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
    direct = oracles.bs_transfer(r, 0, 1, 2, 2)
    via = scatter.scattering_to_transfer(scatter.hypothetical_bs(r, 0, 1, 2, 2))
    assert np.allclose(direct.full, via.full, atol=1e-14)
    assert np.isclose(direct.ss[0, 0], math.cosh(r))
    assert np.isclose(direct.si[0, 1], math.sinh(r))


def test_linear_transfer_conjugates_idler_side():
    unitary = haar(2, 21)
    direct = oracles.linear_transfer(unitary, "i", 1, 2)
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
        oracles.linear_transfer(np.eye(1), "i", 2, 2)


#: two-ports with fewer than one signal or one idler path
BELOW_ONE_PATH = {
    "from_full-1+3": lambda cls: cls.from_full(np.eye(2), -1, 3),
    "from_full2+0": lambda cls: cls.from_full(np.eye(2), 2, 0),
    "identity0+2": lambda cls: cls.identity(0, 2),
    "identity2+0": lambda cls: cls.identity(2, 0),
    "blocks0+2": lambda cls: cls(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2)),
}


@pytest.mark.parametrize("cls", [scatter.ScatteringMatrix, scatter.TransferMatrix])
@pytest.mark.parametrize("make", BELOW_ONE_PATH.values(), ids=list(BELOW_ONE_PATH))
def test_path_counts_below_one_are_refused(cls, make):
    with pytest.raises(ValueError, match="at least one signal and one idler path"):
        make(cls)


@pytest.mark.parametrize(
    "copy_of", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["copy", "deepcopy", "pickle"]
)
def test_copies_keep_one_read_only_full_matrix(copy_of):
    for matrix in (scatter.hypothetical_bs(0.3, 0, 0, 1, 1), oracles.bs_transfer(0.3, 1, 0, 2, 1)):
        twin = copy_of(matrix)
        assert type(twin) is type(matrix) and (twin.n_s, twin.n_i) == (matrix.n_s, matrix.n_i)
        assert np.array_equal(twin.full, matrix.full)
        assert not twin.full.flags.writeable
        for block in (twin.ss, twin.si, twin.is_, twin.ii):
            assert np.shares_memory(block, twin.full)


@pytest.mark.parametrize("builder", [scatter.hypothetical_bs, oracles.bs_transfer])
@pytest.mark.parametrize("s_path,i_path", [(-1, 0), (2, 0), (0, -1), (0, 1)])
def test_pair_source_paths_are_checked(builder, s_path, i_path):
    with pytest.raises(ValueError):
        builder(0.5, s_path, i_path, 2, 1)


def test_transfer_product_takes_only_transfer_matrices():
    transfer = oracles.bs_transfer(0.5, 0, 0, 1, 1)
    with pytest.raises(TypeError):
        transfer @ scatter.hypothetical_bs(0.5, 0, 0, 1, 1)
