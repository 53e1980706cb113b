"""Known faults that the duality checks must catch.

Each fault replaces one function at a module boundary with ``monkeypatch``;
the package itself has no hook for them.  A check that still passes under a
fault it should see has gone blind, for example because both arms came to
share the faulty factor.  The unpatched readings (in the comments) sit at
roundoff, the patched ones many orders above the tolerance.

Two checks are blind to some of these faults by construction, so no case
asserts a catch there:

* the expectation check reads every amplitude quadratically, as M conj(M),
  so the phase of ``nc`` cancels (it reads 8e-16 under ``nc_modulus``);
* negating every gain multiplies an amplitude by (-1) to the number of
  signal photons in plus out; the teleportation demo reads only amplitudes
  from vacuum to two signal photons, so it passes under ``gain_negated``.
"""

import dataclasses
import json

import numpy as np
import pytest

from ptrsim import cli, fock, harness, linamp, ptr
from ptrsim.scatter import ScatteringMatrix

VERIFY_TOL = 1e-6  # criterion 05
EXPECTATION_TOL = 1e-7  # criterion 13


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


def gain_negated(apply_ladders):
    """Every pair source of the brute arm run at gain -r."""

    def patched(block, idx, diff, r):
        return apply_ladders(block, idx, diff, -r)

    return patched


FAULTS = {
    "nc_modulus": (ptr, "build_ptr", nc_modulus),
    "si_conjugated": (ptr, "build_ptr", si_conjugated),
    "gain_negated": (fock, "_apply_ladders", gain_negated),
}


def apply_fault(monkeypatch, name):
    module, attribute, fault = FAULTS[name]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))


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


@pytest.mark.parametrize("name", FAULTS)
def test_verify_reads_a_mismatch(monkeypatch, name):
    """Unpatched 2.7e-10; patched 5.4e-2 (nc), 0.82 (si) and 2.0 (gain)."""
    assert linamp.verify_duality(verify_circuit(), 2, photon_cap=24).max_rel_residual < VERIFY_TOL
    apply_fault(monkeypatch, name)
    assert linamp.verify_duality(verify_circuit(), 2, photon_cap=24).max_rel_residual > 1e4 * VERIFY_TOL


@pytest.mark.parametrize("name", FAULTS)
def test_verify_command_exits_one_not_three(monkeypatch, tmp_path, capsys, name):
    """A real fault is a mismatch (exit 1), never a pass or a truncation verdict."""
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(cli.circuit_to_document(verify_circuit())))
    argv = ["verify", "--circuit", str(path), "--max-photons", "2", "--cutoff", "24"]
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

