"""Known faults that the duality checks must catch.

Each fault replaces one function at a module boundary with ``monkeypatch``;
the package itself has no hook for them.  A check that still passes under a
fault it should see has gone blind, for example because both arms came to
share the faulty factor.  The unpatched readings (in the comments) sit at
roundoff, the patched ones many orders above the tolerance.

Some checks are blind to some of these faults by construction, so no case
asserts a catch there:

* the expectation check reads every amplitude quadratically, as M conj(M),
  so the phase of ``nc`` cancels (it reads 8e-16 under ``nc_modulus``);
* conjugating a cavity factor keeps its modulus, so ``beta_conjugated``
  changes only the phase of ``nc``; the expectation check is blind to it for
  the reason above, and the Q-function check reads ``nc`` only as |nc|^2;
* negating every gain multiplies an amplitude by (-1) to the number of
  signal photons in plus out; the teleportation demo reads only amplitudes
  from vacuum to two signal photons, so it passes under ``gain_negated``;
* for the same reason the decoupled-port scenario passes under
  ``gain_negated`` (5.1e-9, as unpatched): its inputs hold no signal
  photon, and it reads photon numbers and the modulus of a mean field
  between states one signal photon apart, which that sign cannot change.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest

from ptrsim import cli, fock, gaussian, harness, linamp, ptr
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc
from ptrsim.scatter import ScatteringMatrix

VERIFY_TOL = 1e-6  # criterion 05
EXPECTATION_TOL = 1e-7  # criterion 13
PORT_TOL = 1e-8  # criterion 04
QFUNC_TOL = 1e-8  # criterion 08


def nc_modulus(build_ptr):
    """The dual setup with |nc| for nc: drops the phase the cavity factors give nc."""

    def patched(circuit):
        setup = build_ptr(circuit)
        return dataclasses.replace(setup, nc=complex(abs(setup.nc)))

    return patched


def si_conjugated(build_ptr):
    """The dual setup with its si[0, 0] coupling conjugated."""

    def patched(circuit):
        setup = build_ptr(circuit)
        full, n_s = np.array(setup.scattering.full), setup.scattering.n_s
        full[0, n_s] = full[0, n_s].conj()
        return dataclasses.replace(setup, scattering=ScatteringMatrix.from_full(full, n_s, setup.scattering.n_i))

    return patched


def beta_conjugated(build_ptr):
    """The dual setup with its first cavity factor of nonzero phase conjugated, nc rebuilt from the factors."""

    def patched(circuit):
        setup = build_ptr(circuit)
        betas = list(setup.beta_factors)
        if phased := [j for j, beta in enumerate(betas) if beta.imag]:
            betas[phased[0]] = betas[phased[0]].conjugate()
        nc = complex(setup.t_product * np.prod(betas))
        return dataclasses.replace(setup, nc=nc, beta_factors=tuple(betas))

    return patched


def gain_negated(apply_ladders):
    """Every pair source of the brute arm run at gain -r."""

    def patched(block, idx, diff, r, operators):
        return apply_ladders(block, idx, diff, -r, operators)

    return patched


def merge_reversed(side_layers):
    """The one-sided networks before the first source and after the last merged in reverse order."""

    def patched(elements, n_s, rows):
        return side_layers(elements[::-1], n_s, rows)

    return patched


def top_short(side_layers):
    """Every outer layer applied up to one photon fewer than the queried rows hold on its side."""

    def patched(elements, n_s, rows):
        return [(lo, hi, unitary, top - 1) for lo, hi, unitary, top in side_layers(elements, n_s, rows)]

    return patched


def diagonal_skipped(phases):
    """The brute arm with its diagonal networks (phase plates) left out, before, between and after the sources."""

    def patched(counts, angles):
        return phases(counts, np.zeros_like(angles))

    return patched


def binomials_unsigned(signed_binomials):
    """The dual kernels' Ryser weights without their signs (-1)^(m - k): the batched pass's and the single-pair grids'."""
    return np.abs(signed_binomials)


def map_transposed(symplectic_from_transfer):
    """The Gaussian arm's doubled-space map transposed."""

    def patched(transfer):
        return gaussian.SymplecticMap(symplectic_from_transfer(transfer).matrix.T)

    return patched


FAULTS = {
    "nc_modulus": (ptr, "build_ptr", nc_modulus),
    "si_conjugated": (ptr, "build_ptr", si_conjugated),
    "beta_conjugated": (ptr, "build_ptr", beta_conjugated),
    "gain_negated": (fock, "_apply_ladders", gain_negated),
    "merge_reversed": (fock, "_side_layers", merge_reversed),
    "top_short": (fock, "_side_layers", top_short),
    "diagonal_skipped": (fock, "_phases", diagonal_skipped),
    "map_transposed": (gaussian, "symplectic_from_transfer", map_transposed),
    "binomials_unsigned": (linamp, "_SIGNED_BINOMIALS", binomials_unsigned),
}
AMPLITUDE_FAULTS = ["nc_modulus", "si_conjugated", "beta_conjugated", "gain_negated", "binomials_unsigned"]


def apply_fault(monkeypatch, name):
    module, attribute, fault = FAULTS[name]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    if attribute == "_SIGNED_BINOMIALS":
        # the single-pair kernel caches its grids with their weights (its row plans hold none): a fresh cache,
        # dropped on undo, so no grid made before the patch hides the fault and none made under it outlives it
        monkeypatch.setattr(linamp, "_cached_ryser_grid", functools.lru_cache(maxsize=128)(linamp._ryser_grid))


def verify_circuit():
    """2+2 paths, two sources; nc has a phase of 5.4e-2 rad."""
    return harness.random_circuit(3, 2, 2, 2, 0.8)


def expectation_residual():
    circuit = harness.random_circuit(301, 1, 1, 2, 0.5)
    rng = np.random.default_rng(43)
    support, basis = fock.occupations_upto(1, 1), fock.occupations_upto(1, 2)
    states = []
    for _ in range(2):
        raw = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        states.append(dict(zip(support, raw / np.linalg.norm(raw))))
    observables = []
    for _ in range(2):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        observables.append((raw + raw.conj().T) / 2)
    s_state, i_state = states
    obs_s, obs_i = observables
    return harness.expectation_duality_residual(circuit, s_state, i_state, obs_s, basis, obs_i, basis, photon_cap=32)


def outer_layer_circuit():
    """Two signal and one idler network before the sources, two and one after: each merge has an order."""
    rng = np.random.default_rng(11)
    u0, u1, u2, u3, v0, v1 = (harness.haar_unitary(2, rng) for _ in range(6))
    head, tail = (LinearS(u0), LinearS(u1), LinearI(v0)), (LinearS(u2), LinearS(u3), LinearI(v1))
    return Circuit(2, 2, (*head, Pdc(0, 1, 0.5), Pdc(1, 0, 0.4), *tail))


def circuit_file(tmp_path, circuit) -> str:
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(cli.circuit_to_document(circuit)))
    return str(path)


@pytest.mark.parametrize("name", AMPLITUDE_FAULTS)
def test_verify_reads_a_mismatch(monkeypatch, name):
    """Unpatched 2.7e-10; patched 5.4e-2 (nc), 0.82 (si), 0.11 (beta), 2.0 (gain) and 1.34 (binomial signs)."""
    assert linamp.verify_duality(verify_circuit(), 2, photon_cap=24).max_rel_residual < VERIFY_TOL
    apply_fault(monkeypatch, name)
    assert linamp.verify_duality(verify_circuit(), 2, photon_cap=24).max_rel_residual > 1e4 * VERIFY_TOL


@pytest.mark.parametrize("name", AMPLITUDE_FAULTS)
def test_verify_command_exits_one_not_three(monkeypatch, tmp_path, capsys, name):
    """A real fault is a mismatch (exit 1), never a pass or a truncation verdict."""
    argv = ["verify", "--circuit", circuit_file(tmp_path, verify_circuit()), "--max-photons", "2", "--cutoff", "24"]
    assert cli.main(argv) == cli.EXIT_PASS
    apply_fault(monkeypatch, name)
    assert cli.main(argv) == cli.EXIT_RESIDUAL
    capsys.readouterr()


@pytest.mark.parametrize("name", AMPLITUDE_FAULTS)
def test_amp_command_exits_one_not_three(monkeypatch, tmp_path, capsys, name):
    """One pair takes the single-pair kernel: unpatched 2.2e-11; patched 5.4e-2 (nc), 0.66 (si), 0.11 (beta),
    2.0 (gain) and 1.5 (binomial signs)."""
    path = circuit_file(tmp_path, verify_circuit())
    argv = ["amp", "--circuit", path, "--input", "1,0;0,0", "--output", "1,1;1,0", "--cutoff", "24"]
    assert cli.main(argv) == cli.EXIT_PASS
    apply_fault(monkeypatch, name)
    assert cli.main(argv) == cli.EXIT_RESIDUAL
    capsys.readouterr()


@pytest.mark.parametrize("name", ["si_conjugated", "gain_negated"])
def test_expectation_check_reads_a_mismatch(monkeypatch, name):
    """Unpatched 2.1e-16; patched 0.36 (si) and 0.22 (gain).  Blind to nc's phase, see above."""
    assert expectation_residual() < EXPECTATION_TOL
    apply_fault(monkeypatch, name)
    assert expectation_residual() > 1e5 * EXPECTATION_TOL



@pytest.mark.parametrize("name", ["merge_reversed", "top_short"])
def test_outer_layers_read_a_mismatch(monkeypatch, tmp_path, capsys, name):
    """Unpatched 1.5e-9; patched 1.98 (merge order) and 1.75 (one photon short), exit 1 from verify."""
    path = circuit_file(tmp_path, outer_layer_circuit())
    argv = ["verify", "--circuit", path, "--max-photons", "3", "--cutoff", "24"]
    assert linamp.verify_duality(outer_layer_circuit(), 3, photon_cap=24).max_rel_residual < VERIFY_TOL
    assert cli.main(argv) == cli.EXIT_PASS
    apply_fault(monkeypatch, name)
    assert linamp.verify_duality(outer_layer_circuit(), 3, photon_cap=24).max_rel_residual > 1e4 * VERIFY_TOL
    assert cli.main(argv) == cli.EXIT_RESIDUAL
    capsys.readouterr()


def port_readings():
    """Mean photon number and mean field left on the decoupled path."""
    residuals = harness.decoupled_port_scenario(r1=0.6, r2=0.5, photon_cap=56, seeds=(5,)).residuals
    return residuals["mean_photon_number"], residuals["mean_field"]


def test_decoupled_port_reads_skipped_phase_plates(monkeypatch):
    """Its pi plate makes the cancellation: unpatched 5.1e-9 (number) and 1.6e-9 (field), patched 2.48 and 0.65."""
    assert max(port_readings()) < PORT_TOL
    apply_fault(monkeypatch, "diagonal_skipped")
    assert min(port_readings()) > 1e6 * PORT_TOL


def test_qfunc_command_reads_a_transposed_map(monkeypatch, tmp_path, capsys):
    """The 50 default probes of seed 0 read 4.3e-16 unpatched and 0.79 patched."""
    argv = ["qfunc", "--circuit", circuit_file(tmp_path, harness.random_circuit(7, 2, 2, 2, 0.8)), "--json"]
    assert cli.main(argv) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["max_rel_residual"] < QFUNC_TOL
    apply_fault(monkeypatch, "map_transposed")
    assert cli.main(argv) == cli.EXIT_RESIDUAL
    assert json.loads(capsys.readouterr().out)["max_rel_residual"] > 1e6 * QFUNC_TOL
