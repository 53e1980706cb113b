"""Scenario generators, reports, and the worked demonstrations."""

import math

import numpy as np
import pytest

from ptrsim import fock, harness, scatter
from ptrsim.errors import TruncationLeakError
from ptrsim.ptr import build_ptr


def test_haar_unitary_is_unitary_and_seeded():
    a = harness.haar_unitary(4, np.random.default_rng(5))
    b = harness.haar_unitary(4, np.random.default_rng(5))
    assert np.allclose(a, b)
    assert np.abs(a.conj().T @ a - np.eye(4)).max() < 1e-12


def test_random_circuit_is_deterministic_and_bounded():
    a = harness.random_circuit(42, 2, 2, 3, 0.8)
    b = harness.random_circuit(42, 2, 2, 3, 0.8)
    assert a.pdc_count == 3
    assert a.n_s_paths == 2 and a.n_i_paths == 2
    assert np.isclose(a.total_gain, b.total_gain)
    assert a.total_gain <= 3 * 0.8
    setup_a, setup_b = build_ptr(a), build_ptr(b)
    assert np.allclose(setup_a.scattering.full, setup_b.scattering.full)
    assert scatter.unitarity_defect(setup_a.scattering) < 1e-12


def test_random_circuit_rejects_out_of_range_requests():
    with pytest.raises(ValueError):
        harness.random_circuit(0, harness.MAX_PATHS + 1, 1, 1, 0.5)
    with pytest.raises(ValueError):
        harness.random_circuit(0, 1, 1, harness.MAX_PDCS + 1, 0.5)
    with pytest.raises(ValueError):
        harness.random_circuit(0, 1, 1, 1, harness.MAX_RANDOM_GAIN + 0.1)


def test_truncated_coherent_weights():
    gamma = 0.4 + 0.3j
    amplitudes = harness.truncated_coherent(gamma, 5)
    total = sum(abs(a) ** 2 for a in amplitudes.values())
    assert np.isclose(total, 1.0, atol=1e-12)
    ratio = amplitudes[(1,)] / amplitudes[(0,)]
    assert np.isclose(ratio, gamma, rtol=1e-12)
    assert np.isclose(amplitudes[(2,)] / amplitudes[(0,)], gamma**2 / math.sqrt(2), rtol=1e-12)


def test_verification_report_pass_logic():
    report = harness.VerificationReport(
        scenario="demo",
        parameters={"r": 0.5},
        residuals={"a": 1e-9, "b": 5e-3},
        tolerances={"a": 1e-8, "b": 1e-2},
        runtime_seconds=0.1,
    )
    assert report.passed
    assert "PASS" in report.summary()
    failing = harness.VerificationReport("demo", {}, {"a": 1e-3}, {"a": 1e-8}, 0.1)
    assert not failing.passed and "FAIL" in failing.summary()
    # a residual without a declared tolerance can never pass silently
    missing = harness.VerificationReport("demo", {}, {"a": 1e-20}, {}, 0.1)
    assert not missing.passed
    assert isinstance(report.as_dict()["residuals"]["a"], float)


def test_cascade_scenario_passes_at_closed_form_precision():
    report = harness.cascade_scenario()
    assert report.passed
    assert max(report.residuals.values()) < 1e-13


def test_su11_scenario_grid_and_duality():
    report = harness.su11_scenario()
    assert report.passed
    assert report.residuals["matrix_defect"] < 1e-12
    assert report.residuals["nc_at_pi_defect"] < 1e-10


def test_decoupled_port_scenario_small_instance():
    report = harness.decoupled_port_scenario(r1=0.6, r2=0.5, photon_cap=56, seeds=(5,))
    assert report.passed, report.summary()
    assert report.residuals["mean_photon_number"] < 1e-8
    assert report.residuals["mean_field"] < 1e-8


def test_four_photon_ratio_identity_and_deviation():
    ratio = harness.four_photon_ratio(0.05)
    nc = build_ptr(harness._awp_scenario_circuit(0.05)).nc
    assert abs(ratio / nc - 1.0) < 1e-10
    assert 1e-4 < abs(ratio - 1.0) < 1e-2


def test_awp_sweep_deviation_scales_quadratically():
    report = harness.awp_sweep_scenario()
    assert report.passed
    gains = report.parameters["gains"]
    deviations = report.parameters["deviations"]
    slope = np.polyfit(np.log(gains), np.log(deviations), 1)[0]
    assert slope > 1.9
    assert report.residuals["subquadratic_excess"] == 0.0


def test_expectation_duality_on_small_random_circuit():
    circuit = harness.random_circuit(310, 1, 1, 2, 0.5)
    rng = np.random.default_rng(8)
    s_state = {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)}
    i_state = {(0,): math.sqrt(0.8), (2,): math.sqrt(0.2)}
    herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs_s = (herm + herm.conj().T) / 2
    obs_i = np.diag([0.0, 1.0, 2.0]).astype(complex)
    basis = [(0,), (1,), (2,)]
    residual = harness.expectation_duality_residual(circuit, s_state, i_state, obs_s, basis, obs_i, basis)
    assert residual < 1e-8


def test_expectation_duality_guards_each_input_column():
    """At cap 32 the (1; 2) input column keeps 3.5e-3 of its weight in the top band,
    although the weighted superposition of all four columns stays below the guard."""
    circuit = harness.random_circuit(310, 1, 1, 2, 0.5)
    s_state = {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)}
    i_state = {(0,): math.sqrt(0.8), (2,): math.sqrt(0.2)}
    basis = [(0,), (1,), (2,)]
    obs = np.diag([0.0, 1.0, 2.0]).astype(complex)
    with pytest.raises(TruncationLeakError, match="raise the photon cap"):
        harness.expectation_duality_residual(circuit, s_state, i_state, obs, basis, obs, basis, photon_cap=32)


def test_expectation_duality_refuses_occupations_above_the_cap():
    circuit = harness.random_circuit(310, 1, 1, 2, 0.5)
    basis = [(0,), (1,), (2,)]
    obs = np.diag([0.0, 1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="photon cap below the requested occupations"):
        harness.expectation_duality_residual(
            circuit, {(0,): 1.0}, {(0,): 1.0}, obs, basis, obs, basis, photon_cap=3, leak_tol=None
        )


def test_expectation_duality_requires_hermitian_observables():
    circuit = harness.random_circuit(311, 1, 1, 1, 0.4)
    basis = [(0,), (1,)]
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        harness.expectation_duality_residual(
            circuit, {(0,): 1.0}, {(0,): 1.0}, skew, basis, np.eye(2), basis
        )
    # asymmetry 1e-9 against entries of 2e6 is roundoff, not a defect
    large = np.array([[1e6, 1.0], [1.0 + 1e-9j, 2e6]])
    residual = harness.expectation_duality_residual(
        circuit, {(0,): 1.0}, {(0,): 1.0}, large, basis, np.eye(2), basis
    )
    assert residual < 1e-8


def test_expectation_duality_refuses_an_observable_of_the_wrong_shape():
    circuit = harness.random_circuit(310, 1, 1, 2, 0.5)
    basis = [(0,), (1,), (2,)]
    obs = np.diag([0.0, 1.0, 2.0]).astype(complex)
    for obs_s, obs_i in [(obs[:2, :2], obs), (obs, obs[:2, :2])]:
        with pytest.raises(ValueError, match="observable shape does not match its occupation list"):
            harness.expectation_duality_residual(
                circuit, {(0,): 1.0}, {(0,): 1.0}, obs_s, basis, obs_i, basis, photon_cap=20
            )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_expectation_duality_rejects_non_finite_input(bad):
    circuit = harness.random_circuit(310, 1, 1, 2, 0.5)
    basis = [(0,), (1,), (2,)]
    obs = np.diag([0.0, 1.0, 2.0]).astype(complex)
    good = {
        "obs_s": obs,
        "obs_i": obs,
        "s_state": {(0,): 1.0},
        "i_state": {(0,): 1.0},
    }
    broken = {
        "obs_s": np.diag([0.0, 1.0, bad]),
        "obs_i": np.diag([0.0, 1.0, bad]),
        "s_state": {(0,): 1.0, (1,): bad},
        "i_state": {(0,): complex(1.0, bad)},
    }
    for name, value in broken.items():
        args = {**good, name: value}
        with pytest.raises(ValueError, match=name):
            harness.expectation_duality_residual(
                circuit,
                args["s_state"],
                args["i_state"],
                args["obs_s"],
                basis,
                args["obs_i"],
                basis,
                photon_cap=20,
            )


def test_teleportation_circuit_structure():
    circuit = harness.teleportation_circuit(0.05, 1.0, 0.0)
    assert circuit.n_s_paths == 4 and circuit.n_i_paths == 3
    assert circuit.pdc_count == 3


def test_teleportation_demo_is_faithful_at_low_gain():
    report = harness.teleportation_demo(0.05, (0.6, 0.8j))
    assert report.passed, report.summary()
    assert report.residuals["worst_bright_infidelity"] < 1e-12
    assert report.residuals["dark_over_bright_weight"] < 1e-6


def test_teleportation_demo_validates_inputs():
    with pytest.raises(ValueError):
        harness.teleportation_demo(0.05, (1.0, 1.0))  # not normalized
    with pytest.raises(ValueError):
        harness.teleportation_demo(0.5, (1.0, 0.0))  # gain outside the regime


def test_teleportation_awp_deviation_scales_quadratically():
    gains = [0.02, 0.05, 0.1]
    deviations = [
        harness.teleportation_demo(r, (1 / math.sqrt(2), 1j / math.sqrt(2))).residuals[
            "awp_ratio_deviation"
        ]
        for r in gains
    ]
    slope = np.polyfit(np.log(gains), np.log(deviations), 1)[0]
    assert slope > 1.9


def test_run_reference_examples_all_pass():
    reports = harness.run_reference_examples()
    names = [report.scenario for report in reports]
    assert len(reports) == 4 and len(set(names)) == 4
    for report in reports:
        assert report.passed, report.summary()


def test_reports_serialize_with_seeds():
    report = harness.decoupled_port_scenario(r1=0.5, r2=0.4, photon_cap=36, seeds=(3,))
    payload = report.as_dict()
    assert payload["scenario"] == report.scenario
    assert "runtime_seconds" in payload
