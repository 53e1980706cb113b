"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py`` (plain ``pytest`` includes it).
The random-circuit portfolio (criterion 5) dominates the runtime at roughly
two minutes; everything else finishes in seconds.
"""

import math

import numpy as np

import oracles
from ptrsim import fock, gaussian, harness, linamp, scatter
from ptrsim.ptr import (
    Circuit,
    Pdc,
    build_ptr,
    circuit_transfer,
    looping_series_defect,
    nc_determinant_defect,
    su11_circuit,
)


def _report(number: int, name: str, pairs) -> None:
    """Print one status line, then fail the test if any bound is violated."""
    ok = all(residual < bound for _, residual, bound in pairs)
    detail = ", ".join(f"{label} {residual:.2e} (tol {bound:.0e})" for label, residual, bound in pairs)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_single_device_duality():
    budget, cap = 4, 72
    worst_rel, worst_abs = 0.0, 0.0
    for r in (0.2, 0.5, 1.0):
        circuit = Circuit(1, 1, (Pdc(0, 0, r),))
        setup = build_ptr(circuit)
        for delta in range(-budget, budget + 1):
            space = fock.FockSpace(1, 1, cap, delta=delta)
            counts = [(s, i) for s, i in space.counts.tolist() if s <= budget and i <= budget]
            # the closed-form comparison below detects truncation directly,
            # so the coarse state-level leak guard is not needed here
            evolved = fock.apply_circuit(circuit, space, oracles.one_hot(space, counts), leak_tol=None)
            for col, (s_in, i_in) in enumerate(counts):
                for row, (s_out, i_out) in zip(space.indices(counts), counts):
                    brute = evolved[row, col]
                    closed = fock.pdc_fock_amplitude(r, s_out, i_out, s_in, i_in)
                    dual = linamp.ptr_postselection_amplitude(setup, ((s_in,), (i_in,)), ((s_out,), (i_out,)))
                    assert abs(dual - closed) < 1e-12
                    scale = max(abs(brute), abs(dual))
                    if scale > 1e-8:
                        worst_rel = max(worst_rel, abs(brute - dual) / scale)
                    else:
                        worst_abs = max(worst_abs, abs(brute - dual))
    _report(
        1,
        "single-device duality",
        [("rel residual", worst_rel, 1e-8), ("abs residual near zeros", worst_abs, 1e-10)],
    )


def test_criterion_02_cascade_closed_form():
    report = harness.cascade_scenario()
    worst = max(report.residuals.values())
    _report(2, "cascade closed form", [("entrywise + nc defect", worst, 1e-12)])


def test_criterion_03_su11_interferometer():
    report = harness.su11_scenario()
    _report(
        3,
        "SU(1,1) interferometer",
        [
            ("grid matrix defect", report.residuals["matrix_defect"], 1e-12),
            ("nc at pi", report.residuals["nc_at_pi_defect"], 1e-10),
            ("duality residual", report.residuals["duality_residual"], 1e-8),
        ],
    )


def test_criterion_04_decoupled_port():
    report = harness.decoupled_port_scenario()
    closed_form = max(
        report.residuals["matrix_defect"],
        report.residuals["nc_defect"],
        report.residuals["decoupled_entry"],
    )
    brute = max(report.residuals["mean_photon_number"], report.residuals["mean_field"])
    _report(
        4,
        "decoupled-port cancellation",
        [("network closed form", closed_form, 1e-10), ("brute-force emptiness", brute, 1e-8)],
    )


def test_criterion_05_random_circuit_portfolio():
    portfolio = (
        [(seed, 1, 1, 1 + seed % 3, 1.0, 160) for seed in range(6)]
        + [(6 + seed, 2, 1, 1 + seed % 3, 0.8, 64) for seed in range(4)]
        + [(10 + seed, 2, 2, 1 + seed % 3, 0.6, 32) for seed in range(5)]
        + [(15 + seed, 3, 2, 2 + seed % 2, 0.5, 24) for seed in range(3)]
        + [(18 + seed, 3, 3, 2 + seed % 2, 0.35, 20) for seed in range(2)]
    )
    assert len(portfolio) == 20
    worst = 0.0
    for offset, n_s, n_i, n_pdc, max_r, cap in portfolio:
        circuit = harness.random_circuit(1000 + offset, n_s, n_i, n_pdc, max_r)
        report = linamp.verify_duality(circuit, photon_budget=4, photon_cap=cap)
        worst = max(worst, report.max_rel_residual)
    _report(5, "random-circuit portfolio (20 seeds)", [("max rel residual", worst, 1e-6)])


def test_criterion_06_looping_photon_series():
    # single-cavity loop values realizable at r <= 1.0 stay below tanh(1)^2;
    # the admissibility bound |loop| <= 0.9 is never binding there
    worst = 0.0
    instances = []
    for r1, r2 in [(0.45, 0.6), (0.8, 0.5), (0.9, 0.75), (1.0, 1.0)]:
        setup = build_ptr(Circuit(1, 1, (Pdc(0, 0, r1), Pdc(0, 0, r2))))
        loop = math.tanh(r1) * math.tanh(r2)
        instances.append(loop)
        assert abs(setup.beta_factors[-1] - 1.0 / (1.0 + loop)) < 1e-13
    for r in (0.5, 1.0):
        instances.append(math.tanh(r) ** 2)
    for loop in instances + [0.65, -0.6, 0.6j]:
        assert abs(loop) <= 0.9
        worst = max(worst, looping_series_defect(loop, terms=60))
    _report(6, "looping-photon series (60 terms)", [("series vs closed form", worst, 1e-10)])


def test_criterion_07_transfer_identities():
    worst_gram, worst_blocks = 0.0, 0.0
    for seed in range(100):
        circuit = harness.random_circuit(
            seed, 1 + seed % 3, 1 + (seed // 3) % 3, 1 + seed % 4, 1.0
        )
        transfer = circuit_transfer(circuit)
        worst_gram = max(worst_gram, scatter.gram_inverse_defect(transfer))
        worst_blocks = max(
            worst_blocks,
            scatter.block_relation_defect(transfer),
            scatter.symplectic_defect(transfer),
        )
    _report(
        7,
        "transfer-matrix identities (100 seeds)",
        [("gram inverse", worst_gram, 1e-10), ("block relations", worst_blocks, 1e-10)],
    )


def test_criterion_08_q_function_duality():
    worst = 0.0
    worst_det = 0.0
    for k in range(10):
        n_s, n_i = 1 + k % 3, 1 + (k + 1) % 3
        circuit = harness.random_circuit(500 + k, n_s, n_i, 1 + k % 3, 0.8)
        rng = np.random.default_rng(900 + k)
        alpha_s = 0.4 * (rng.normal(size=n_s) + 1j * rng.normal(size=n_s))
        alpha_i = 0.4 * (rng.normal(size=n_i) + 1j * rng.normal(size=n_i))
        beta_s = 0.5 * (rng.normal(size=(50, n_s)) + 1j * rng.normal(size=(50, n_s)))
        beta_i = 0.5 * (rng.normal(size=(50, n_i)) + 1j * rng.normal(size=(50, n_i)))
        worst = max(worst, gaussian.q_duality_residual(circuit, alpha_s, alpha_i, beta_s, beta_i))
        worst_det = max(worst_det, nc_determinant_defect(build_ptr(circuit), block="ii"))
    _report(
        8,
        "Q-function duality (10 circuits x 50 points)",
        [("worst residual", worst, 1e-8), ("|nc| vs |det ii|", worst_det, 1e-8)],
    )


def test_criterion_09_squeezed_vacuum_q():
    worst_closed = 0.0
    grid = np.linspace(-1.0, 1.0, 5)
    for r in (0.3, 0.8):
        state = gaussian.evolve(
            gaussian.single_mode_squeezer_map(r), gaussian.GaussianState.vacuum(1)
        )
        for re in grid:
            for im in grid:
                beta = complex(re, im)
                closed = gaussian.squeezed_vacuum_q_closed_form(r, beta)
                computed = gaussian.q_function(state, [beta], [])
                worst_closed = max(worst_closed, abs(computed - closed) / closed)
    rng = np.random.default_rng(33)
    worst_coherent = 0.0
    for _ in range(25):
        r = rng.uniform(0.1, 0.9)
        alpha, beta = 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        worst_coherent = max(worst_coherent, gaussian.sms_coherent_duality_residual(r, alpha, beta))
    _report(
        9,
        "squeezed-vacuum Q and coherent duality",
        [("closed form (25 pts, 2 gains)", worst_closed, 1e-10), ("coherent duality", worst_coherent, 1e-9)],
    )


def test_criterion_10_four_photon_awp():
    report = harness.awp_sweep_scenario()
    _report(
        10,
        "four-photon coincidence estimate",
        [
            ("ratio deviation at r=0.05", report.residuals["ratio_deviation_mid"], 1e-2),
            ("subquadratic excess", report.residuals["subquadratic_excess"], 1e-12),
        ],
    )


def test_criterion_11_teleportation_fidelity():
    rng = np.random.default_rng(77)
    worst_infidelity = 0.0
    for _ in range(5):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        c_h, c_v = raw / np.linalg.norm(raw)
        report = harness.teleportation_demo(0.05, (c_h, c_v))
        assert report.passed, report.summary()
        worst_infidelity = max(worst_infidelity, report.residuals["worst_bright_infidelity"])
    _report(
        11,
        "polarization teleportation (5 random states)",
        [("worst postselected infidelity", worst_infidelity, 1e-3)],
    )


def test_criterion_12_permanent_kernels():
    worst_factorial = 0.0
    for n in range(1, 11):
        value = linamp.permanent(np.ones((n, n)))
        worst_factorial = max(worst_factorial, abs(value - math.factorial(n)) / math.factorial(n))
    rng = np.random.default_rng(4)
    exact = True
    for n in range(1, 7):
        matrix = rng.integers(-3, 4, size=(n, n)) + 1j * rng.integers(-3, 4, size=(n, n))
        matrix = matrix.astype(np.complex128)
        ryser = linamp.permanent(matrix)
        glynn = oracles.permanent_glynn(matrix)
        naive = oracles.permanent_by_expansion(matrix)
        exact = exact and (ryser == glynn == naive)
    print(
        f"[{'PASS' if exact else 'FAIL'}] criterion 12b permanent methods: "
        f"ryser = glynn = naive exactly on integer matrices n <= 6"
    )
    _report(12, "permanent kernels", [("all-ones vs factorial", worst_factorial, 1e-12)])
    assert exact


def test_criterion_13_expectation_duality():
    recipe = [
        (0, 1, 1, 1, 0.6, 32),
        (1, 1, 1, 2, 0.5, 32),
        (2, 2, 1, 1, 0.6, 28),
        (3, 2, 1, 2, 0.5, 28),
        (4, 1, 1, 3, 0.4, 32),
    ]
    worst = 0.0
    for idx, n_s, n_i, n_pdc, max_r, cap in recipe:
        circuit = harness.random_circuit(300 + idx, n_s, n_i, n_pdc, max_r)
        rng = np.random.default_rng(42 + idx)
        s_support = fock.occupations_upto(n_s, 1)
        i_support = fock.occupations_upto(n_i, 1)
        s_raw = rng.normal(size=len(s_support)) + 1j * rng.normal(size=len(s_support))
        i_raw = rng.normal(size=len(i_support)) + 1j * rng.normal(size=len(i_support))
        s_state = dict(zip(s_support, s_raw / np.linalg.norm(s_raw)))
        i_state = dict(zip(i_support, i_raw / np.linalg.norm(i_raw)))
        s_basis = fock.occupations_upto(n_s, 2)
        i_basis = fock.occupations_upto(n_i, 2)
        for _ in range(2):
            raw_s = rng.normal(size=(len(s_basis), len(s_basis))) + 1j * rng.normal(
                size=(len(s_basis), len(s_basis))
            )
            raw_i = rng.normal(size=(len(i_basis), len(i_basis))) + 1j * rng.normal(
                size=(len(i_basis), len(i_basis))
            )
            obs_s = (raw_s + raw_s.conj().T) / 2
            obs_i = (raw_i + raw_i.conj().T) / 2
            residual = harness.expectation_duality_residual(
                circuit, s_state, i_state, obs_s, s_basis, obs_i, i_basis, photon_cap=cap
            )
            worst = max(worst, residual)
    _report(
        13,
        "separable-observable expectation duality (10 observables)",
        [("worst rel residual", worst, 1e-7)],
    )
