"""Hypothetical-network construction and its closed-form special cases."""

import math

import numpy as np
import pytest

import oracles
from ptrsim import harness, scatter
from ptrsim.ptr import (
    Circuit,
    LinearI,
    LinearS,
    Pdc,
    PhaseI,
    PhaseS,
    build_ptr,
    circuit_transfer,
    looping_series_defect,
    nc_determinant_defect,
    phase_matrix,
    special_cancellation_circuit,
    special_cancellation_expected,
    su11_circuit,
    su11_expected,
    verify_special_cancellation,
)
from test_gaussian import high_gain_circuit


def haar(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_single_source_setup():
    r = 0.8
    setup = build_ptr(Circuit(1, 1, (Pdc(0, 0, r),)))
    expected = scatter.hypothetical_bs(r, 0, 0, 1, 1)
    assert np.allclose(setup.scattering.full, expected.full, atol=1e-14)
    assert np.isclose(setup.nc, 1 / math.cosh(r), atol=1e-14)
    assert np.isclose(setup.t_product, 1 / math.cosh(r), atol=1e-14)
    assert setup.beta_factors == (1.0,)


def test_collinear_cascade_adds_gains():
    # two pair sources on the same paths compose like a single one with
    # the summed gain; the cavity factor supplies the cosh addition rule
    r1, r2 = 0.45, 0.6
    setup = build_ptr(Circuit(1, 1, (Pdc(0, 0, r1), Pdc(0, 0, r2))))
    expected = scatter.hypothetical_bs(r1 + r2, 0, 0, 1, 1)
    assert np.allclose(setup.scattering.full, expected.full, atol=1e-13)
    assert np.isclose(setup.nc, 1 / math.cosh(r1 + r2), atol=1e-14)
    beta = 1.0 / (1.0 + math.tanh(r1) * math.tanh(r2))
    assert np.allclose(setup.beta_factors, (1.0, beta), atol=1e-14)
    assert np.isclose(setup.t_product * beta, setup.nc, atol=1e-14)


def test_nc_is_gain_prefactor_times_cavity_factors():
    circuit = Circuit(
        2, 2, (Pdc(0, 0, 0.5), LinearS(haar(2, 3)), Pdc(1, 1, 0.7), LinearI(haar(2, 4)), Pdc(0, 1, 0.4))
    )
    setup = build_ptr(circuit)
    assert np.isclose(
        setup.nc, setup.t_product * np.prod(setup.beta_factors), atol=1e-13
    )
    assert np.isclose(
        setup.t_product, 1 / (math.cosh(0.5) * math.cosh(0.7) * math.cosh(0.4)), atol=1e-14
    )


@pytest.mark.parametrize("block", ["ss", "ii"])
def test_nc_matches_both_block_determinants(block):
    circuit = Circuit(
        2, 2, (Pdc(0, 0, 0.6), LinearS(haar(2, 8)), Pdc(1, 0, 0.8), PhaseI(1, 0.9), Pdc(0, 1, 0.3))
    )
    assert nc_determinant_defect(build_ptr(circuit), block=block) < 1e-12


def test_setup_network_is_unitary():
    circuit = Circuit(2, 2, (Pdc(0, 0, 0.9), Pdc(1, 1, 0.7), LinearS(haar(2, 5))))
    assert scatter.unitarity_defect(build_ptr(circuit).scattering) < 1e-12


def test_substituted_factors_rebuild_the_network():
    circuit = Circuit(2, 1, (Pdc(0, 0, 0.5), LinearS(haar(2, 6)), Pdc(1, 0, 0.6)))
    setup = build_ptr(circuit)
    factors = oracles.substituted_factors(circuit)
    combined = factors[0]
    for factor in factors[1:]:
        combined = scatter.star(combined, factor)
    assert np.allclose(combined.full, setup.scattering.full, atol=1e-13)


def determinant_oracle(circuit: Circuit):
    """Star fold of the substituted factors; each cavity factor is 1/det of its feedback loop."""
    current = scatter.ScatteringMatrix.identity(circuit.n_s_paths, circuit.n_i_paths)
    betas = []
    for factor in oracles.substituted_factors(circuit):
        if factor.is_.any():  # a nonzero-gain source's beamsplitter; one-sided and zero-gain factors have no is_ block
            loop = np.eye(circuit.n_s_paths) - current.si @ factor.is_
            betas.append(1.0 / np.linalg.det(loop))
        current = scatter.star(current, factor)
    t_product = math.prod(1 / math.cosh(el.r) for el in circuit.elements if isinstance(el, Pdc) and el.r)
    return current.full, t_product * np.prod(betas), betas


def oracle_circuits():
    for seed, (n_s, n_i) in enumerate([(1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 2)]):
        for max_r in (0.5, 1.2):
            yield harness.random_circuit(seed, n_s, n_i, 3, max_r)
    yield high_gain_circuit()
    # build_ptr folds one-sided networks by multiplication; each way one can sit around the sources
    s, i = LinearS, LinearI
    yield Circuit(2, 2, (Pdc(0, 1, 0.6), s(haar(2, 11)), Pdc(1, 0, 0.0), i(haar(2, 12)), Pdc(1, 1, 0.5)))
    same_side_runs = (s(haar(2, 13)), s(haar(2, 14)), Pdc(0, 0, 0.7), i(haar(2, 15)), i(haar(2, 16)), i(haar(2, 17)))
    yield Circuit(2, 2, (*same_side_runs, Pdc(1, 1, 0.4), s(haar(2, 18)), s(haar(2, 19))))
    idler_head = (i(haar(3, 20)), i(haar(3, 21)))
    yield Circuit(2, 3, (*idler_head, Pdc(0, 2, 0.8), s(haar(2, 22)), Pdc(1, 0, 0.5), i(haar(3, 23))))
    yield Circuit(2, 2, (s(haar(2, 24)), i(haar(2, 25)), s(haar(2, 26))))
    yield Circuit(1, 2, (i(haar(2, 27)), Pdc(0, 1, 0.0), s(haar(1, 28))))
    plates = (PhaseI(1, 0.3), PhaseS(0, -1.1), Pdc(0, 1, 0.9), PhaseS(1, 2.0), PhaseS(0, 0.4), PhaseI(0, -2.5))
    yield Circuit(2, 2, (*plates, Pdc(1, 1, 0.6), PhaseI(1, 1.7)))


@pytest.mark.parametrize("circuit", list(oracle_circuits()))
def test_closed_form_cavity_factors_match_loop_determinants(circuit):
    full, nc, betas = determinant_oracle(circuit)
    setup = build_ptr(circuit)
    assert np.abs(setup.scattering.full - full).max() <= 1e-13
    assert abs(setup.nc - nc) <= 1e-13 * abs(nc)
    assert len(setup.beta_factors) == len(betas) == sum(1 for el in circuit.elements if isinstance(el, Pdc) and el.r)
    assert np.all(np.abs(np.subtract(setup.beta_factors, betas)) <= 1e-13 * np.abs(betas))


def test_circuit_transfer_matches_scattering_conversion():
    circuit = Circuit(2, 2, (Pdc(0, 0, 0.5), LinearI(haar(2, 7)), Pdc(1, 1, 0.8)))
    via_scatter = scatter.scattering_to_transfer(build_ptr(circuit).scattering)
    direct = circuit_transfer(circuit)
    assert np.allclose(direct.full, via_scatter.full, atol=1e-12)


def test_phase_matrix_is_a_diagonal_phase():
    matrix = phase_matrix(1, 0.7, 3)
    assert np.allclose(matrix, np.diag([1.0, np.exp(0.7j), 1.0]))


def test_phase_plates_are_stored_as_diagonal_networks():
    plate_s, plate_i = Circuit(2, 2, (PhaseS(1, 0.7), PhaseI(0, -1.2))).elements
    assert type(plate_s) is LinearS and type(plate_i) is LinearI
    assert np.array_equal(plate_s.matrix, np.diag([1, np.exp(0.7j)]))
    assert np.array_equal(plate_i.matrix, np.diag([np.exp(-1.2j), 1]))


def test_network_angles_are_cached_from_a_read_only_matrix():
    plate = Circuit(2, 1, (PhaseS(1, 0.7),)).elements[0]
    assert np.allclose(plate.angles, [0.0, 0.7]) and plate.angles is plate.angles
    assert LinearI(np.diag([1j, -1])).angles.tolist() == [math.pi / 2, math.pi]
    assert LinearS(haar(2, 3)).angles is None
    for array in (plate.matrix, plate.angles):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_su11_expected_matches_built_network():
    r, phi_s, phi_i = 0.5, 0.9, -0.4
    setup = build_ptr(su11_circuit(r, phi_s, phi_i))
    expected_matrix, expected_nc = su11_expected(r, phi_s, phi_i)
    assert np.allclose(setup.scattering.full, expected_matrix, atol=1e-13)
    assert np.isclose(setup.nc, expected_nc, atol=1e-13)


def test_su11_balanced_phase_cancels_the_gain():
    # at total phase pi the second source undoes the first: only the phase
    # plates remain, signal and idler decouple, and no gain prefactor is left
    r = 0.65
    for phi_s, phi_i in [(math.pi, 0.0), (math.pi / 2, math.pi / 2)]:
        setup = build_ptr(su11_circuit(r, phi_s, phi_i))
        full = setup.scattering.full
        assert np.allclose(full, np.diag(np.diag(full)), atol=1e-12)
        assert np.allclose(np.abs(np.diag(full)), 1.0, atol=1e-12)
        assert np.isclose(abs(setup.nc), 1.0, atol=1e-12)


def test_special_cancellation_decouples_the_port():
    result = verify_special_cancellation(0.9, 0.85)
    assert result["matrix_defect"] < 1e-12
    assert result["nc_defect"] < 1e-12
    assert abs(result["decoupled_entry"]) < 1e-12
    circuit = special_cancellation_circuit(0.9, 0.85)
    expected_matrix, expected_nc = special_cancellation_expected(0.9, 0.85)
    setup = build_ptr(circuit)
    assert np.allclose(setup.scattering.full, expected_matrix, atol=1e-12)
    assert np.isclose(setup.nc, expected_nc, atol=1e-12)


def test_special_cancellation_needs_reachable_gains():
    with pytest.raises(ValueError):
        special_cancellation_circuit(0.3, 0.9)  # needs tanh r1 / tanh r2 >= 1


def test_looping_series_converges_only_well_inside_the_disk():
    assert looping_series_defect(0.3) < 1e-15
    assert looping_series_defect(0.65) < 1e-10
    assert looping_series_defect(0.65 * np.exp(0.7j)) < 1e-10
    # 60 alternating terms are nowhere near 1e-10 by |loop| = 0.9
    assert looping_series_defect(0.9) > 1e-6


def test_circuit_validation():
    for n_s, n_i, element, message in [
        (1, 1, Pdc(1, 0, 0.5), "signal path 1 out of range"),
        (1, 1, Pdc(0, 1, 0.5), "idler path 1 out of range"),
        (1, 1, PhaseS(-1, 0.5), "signal path -1 out of range"),
        (1, 1, PhaseI(2, 0.5), "idler path 2 out of range"),
        (2, 2, LinearS(haar(3, 2)), "signal matrix shape mismatch"),
        (2, 1, LinearI(haar(2, 2)), "idler matrix shape mismatch"),
    ]:
        with pytest.raises(ValueError, match=message):
            Circuit(n_s, n_i, (element,))
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.5), Pdc(0, 0, 0.25)))
    assert circuit.pdc_count == 2
    assert np.isclose(circuit.total_gain, 0.75)


def test_negative_gain_source_rejected():
    with pytest.raises(ValueError):
        Pdc(0, 0, -0.1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pdc(0, 0, math.nan),
        lambda: Pdc(0, 0, math.inf),
        lambda: PhaseS(0, math.inf),
        lambda: PhaseI(0, math.nan),
        lambda: LinearS([[math.nan]]),
        lambda: LinearI([[1, 0], [0, complex(math.inf, 0)]]),
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()
