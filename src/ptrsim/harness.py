"""End-to-end verification scenarios.

Each scenario pits an independently derived closed form, a brute-force
truncated-Fock computation, or both against the linear network produced by
the partial-time-reversal construction, and packages the residuals in a
:class:`VerificationReport`.  Reports are deterministic given (scenario,
parameters, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import fock, linamp
from .fock import FockSpace
from .ptr import (
    Circuit,
    LinearI,
    LinearS,
    Pdc,
    PhaseI,
    build_ptr,
    special_cancellation_circuit,
    su11_circuit,
    su11_expected,
    verify_special_cancellation,
)
from .scatter import hypothetical_bs

MAX_PATHS = 4
MAX_PDCS = 4
MAX_RANDOM_GAIN = 1.2
#: default photon cap of :func:`four_photon_ratio` and ``ptrsim awp --cutoff``
AWP_PHOTON_CAP = 14


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from a QR-orthonormalized Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, upper = np.linalg.qr(z)
    d = np.diagonal(upper)
    return q * (d / np.abs(d))


def random_circuit(seed: int, n_s: int, n_i: int, n_pdc: int, max_r: float) -> Circuit:
    """Seed-deterministic circuit: a linear layer, then (PDC, linear layer) blocks.

    Gains are uniform in (0, max_r]; mode unitaries are Haar random.
    """
    if not 1 <= n_s <= MAX_PATHS or not 1 <= n_i <= MAX_PATHS:
        raise ValueError(f"path counts must be between 1 and {MAX_PATHS}")
    if not 0 <= n_pdc <= MAX_PDCS:
        raise ValueError(f"PDC count must be between 0 and {MAX_PDCS}")
    if not 0 < max_r <= MAX_RANDOM_GAIN:
        raise ValueError(f"max gain must be in (0, {MAX_RANDOM_GAIN}]")
    rng = np.random.default_rng(seed)
    elements: list = [LinearS(haar_unitary(n_s, rng)), LinearI(haar_unitary(n_i, rng))]
    for _ in range(n_pdc):
        r = max_r * (1.0 - rng.random())  # uniform in (0, max_r]
        elements.append(Pdc(int(rng.integers(n_s)), int(rng.integers(n_i)), r))
        elements.append(LinearS(haar_unitary(n_s, rng)))
        elements.append(LinearI(haar_unitary(n_i, rng)))
    return Circuit(n_s, n_i, tuple(elements))


def truncated_coherent(gamma: complex, max_photons: int) -> dict[tuple[int, ...], complex]:
    """Single-path coherent amplitudes cut at ``max_photons`` and renormalized."""
    amps = np.array(
        [gamma**n / math.sqrt(math.factorial(n)) for n in range(max_photons + 1)],
        dtype=np.complex128,
    )
    amps /= np.linalg.norm(amps)
    return {(n,): complex(a) for n, a in enumerate(amps)}


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of one scenario against its tolerances.

    ``passed`` is strict: every residual must have a tolerance and sit
    within it, and every declared tolerance must have been measured.
    Informational numbers belong in ``parameters`` instead.
    """

    scenario: str
    parameters: Mapping[str, object]
    residuals: Mapping[str, float]
    tolerances: Mapping[str, float]
    runtime_seconds: float
    seed: int | None = None

    @property
    def passed(self) -> bool:
        if set(self.residuals) != set(self.tolerances):
            return False
        return all(self.residuals[key] <= bound for key, bound in self.tolerances.items())

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "parameters": {k: repr(v) if isinstance(v, complex) else v for k, v in self.parameters.items()},
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "passed": self.passed,
            "runtime_seconds": self.runtime_seconds,
            "seed": self.seed,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = max(self.residuals.values()) if self.residuals else 0.0
        return f"[{status}] {self.scenario}: worst residual {worst:.3e} ({self.runtime_seconds:.2f}s)"


def _timed_report(scenario, parameters, residuals, tolerances, start, seed=None):
    return VerificationReport(
        scenario=scenario,
        parameters=parameters,
        residuals=residuals,
        tolerances=tolerances,
        runtime_seconds=time.perf_counter() - start,
        seed=seed,
    )


def cascade_scenario(r1: float = 0.45, r2: float = 0.6) -> VerificationReport:
    """Two cascaded pair sources collapse to a single one of summed gain."""
    start = time.perf_counter()
    cascade = Circuit(1, 1, (Pdc(0, 0, r1), Pdc(0, 0, r2)))
    setup = build_ptr(cascade)
    merged = hypothetical_bs(r1 + r2, 0, 0, 1, 1)
    matrix_defect = float(np.abs(setup.scattering.full - merged.full).max())
    nc_defect = float(abs(setup.nc - 1 / math.cosh(r1 + r2)))
    reflect_defect = float(
        abs(setup.scattering.si[0, 0] - math.tanh(r1 + r2))
    )
    return _timed_report(
        "cascade-closed-form",
        {"r1": r1, "r2": r2},
        {
            "matrix_defect": matrix_defect,
            "nc_defect": nc_defect,
            "reflectance_defect": reflect_defect,
        },
        {"matrix_defect": 1e-12, "nc_defect": 1e-12, "reflectance_defect": 1e-12},
        start,
    )


def su11_scenario(r: float = 0.5, grid_points: int = 16, photon_cap: int = 44) -> VerificationReport:
    """Two-gain interferometer: closed-form network on a phase grid, and the
    total-cancellation point where the normalization coefficient returns to one."""
    start = time.perf_counter()
    matrix_defect = 0.0
    for k in range(grid_points):
        phi = 2 * math.pi * (k + 0.5) / grid_points
        setup = build_ptr(su11_circuit(r, phi, 0.0))
        expected, expected_nc = su11_expected(r, phi, 0.0)
        matrix_defect = max(
            matrix_defect,
            float(np.abs(setup.scattering.full - expected).max()),
            float(abs(setup.nc - expected_nc)),
        )
    pi_circuit = su11_circuit(r, math.pi, 0.0)
    pi_setup = build_ptr(pi_circuit)
    nc_at_pi_defect = float(abs(pi_setup.nc - 1.0))
    report = linamp.verify_duality(pi_circuit, photon_budget=3, photon_cap=photon_cap)
    return _timed_report(
        "su11-interferometer",
        {"r": r, "grid_points": grid_points, "photon_cap": photon_cap},
        {
            "matrix_defect": matrix_defect,
            "nc_at_pi_defect": nc_at_pi_defect,
            "duality_residual": report.max_rel_residual,
        },
        {"matrix_defect": 1e-12, "nc_at_pi_defect": 1e-10, "duality_residual": 1e-8},
        start,
    )


def decoupled_port_scenario(
    r1: float = 0.9,
    r2: float = 0.85,
    photon_cap: int = 80,
    seeds: Sequence[int] = (101, 102, 103),
) -> VerificationReport:
    """A second signal path that ends up completely dark.

    The network check is closed-form; the Fock check drives vacuum signal
    with truncated-coherent idlers and measures the mean photon number and
    mean field left on the decoupled path.  The input (0, 0; n) reaches only
    the states with n more idler than signal photons, so one
    :func:`fock.postselection_amplitudes` call reads every such amplitude
    for n = 0..4, and each drive weighs them by its c_n.  Both checks are
    Bogoliubov-level statements: the output operator of that path contains
    no idler component at all.
    """
    start = time.perf_counter()
    closed = verify_special_cancellation(r1, r2)
    circuit = special_cancellation_circuit(r1, r2)
    gammas, drives = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        gamma = (0.25 + 0.25 * rng.random()) * np.exp(2j * np.pi * rng.random())
        gammas.append(gamma)
        drives.append(list(truncated_coherent(gamma, 4).values()))
    space = FockSpace(2, 1, photon_cap)  # unrestricted, in the order _mean_field reads
    idler_excess = space.counts[:, 2] - space.counts[:, :2].sum(axis=1)
    reached = np.flatnonzero((idler_excess >= 0) & (idler_excess <= 4))
    rows = np.concatenate(([(0, 0, n) for n in range(5)], space.counts[reached]))
    pairs = np.stack((idler_excess[reached], 5 + np.arange(len(reached))), axis=1)
    amplitudes = fock.postselection_amplitudes(circuit, rows, pairs, photon_cap, leak_tol=None)
    out = np.zeros((space.dimension, len(seeds)), dtype=np.complex128)
    out[reached] = amplitudes[:, None] * np.array(drives).T[idler_excess[reached]]
    number_residual = float(((np.abs(out) ** 2) * space.counts[:, 0][:, None]).sum(axis=0).max())
    field_residual = np.abs(_mean_field(space, out, 0)).max()
    return _timed_report(
        "decoupled-port",
        {"r1": r1, "r2": r2, "photon_cap": photon_cap, "drives": [repr(g) for g in gammas]},
        {
            "matrix_defect": closed["matrix_defect"],
            "nc_defect": closed["nc_defect"],
            "decoupled_entry": closed["decoupled_entry"],
            "mean_photon_number": number_residual,
            "mean_field": float(field_residual),
        },
        {
            "matrix_defect": 1e-10,
            "nc_defect": 1e-10,
            "decoupled_entry": 1e-10,
            "mean_photon_number": 1e-8,
            "mean_field": 1e-8,
        },
        start,
        seed=seeds[0],
    )


def _mean_field(space: FockSpace, block: np.ndarray, mode: int) -> np.ndarray:
    """<a_mode> of every column of ``block``: the sum of sqrt(n_m) conj(psi[n - e_m]) psi[n]
    over the states n with photons in ``mode`` (signal paths first).

    Lowering leaves any difference sector, so ``space`` must be unrestricted.
    """
    if space.delta is not None:
        raise ValueError("lowering leaves a difference sector; use an unrestricted space")
    occupied = np.flatnonzero(space.counts[:, mode] > 0)
    lowered = space.counts[occupied] - np.eye(space.counts.shape[1], dtype=np.int64)[mode]
    roots = np.sqrt(space.counts[occupied, mode])[:, None]
    return (block[space.indices(lowered)].conj() * roots * block[occupied]).sum(axis=0)


def _awp_scenario_circuit(r: float, seed: int = 20) -> Circuit:
    rng = np.random.default_rng(seed)
    return Circuit(
        2,
        2,
        (
            Pdc(0, 0, r),
            Pdc(1, 1, r),
            LinearS(haar_unitary(2, rng)),
            LinearI(haar_unitary(2, rng)),
        ),
    )


def four_photon_ratio(r: float, seed: int = 20, photon_cap: int = AWP_PHOTON_CAP) -> complex:
    """Brute-force four-fold amplitude over its product-form estimate.

    The estimate drops the normalization coefficient on purpose — that is
    the classical advanced-wave bookkeeping — so the ratio approaches one
    only in the low-gain limit, quadratically in r.  A gain r <= 0 raises
    ``ValueError``: both amplitudes vanish at r = 0.
    """
    if not r > 0:
        raise ValueError(f"four-photon ratio needs a positive gain, got {r}")
    circuit = _awp_scenario_circuit(r, seed)
    setup = build_ptr(circuit)
    estimate = linamp.four_photon_awp_amplitude(setup, (0, 1), (0, 1))
    rows = [(0, 0, 0, 0), (1, 1, 1, 1)]
    brute = fock.postselection_amplitudes(circuit, rows, [(0, 1)], photon_cap, fock.DEFAULT_LEAK_TOL)
    return complex(brute[0]) / estimate


def awp_sweep_scenario(
    gains: Sequence[float] = (0.02, 0.05, 0.1), seed: int = 20
) -> VerificationReport:
    """Four-photon coincidence ratio sweep: deviation from one falls as r^2."""
    start = time.perf_counter()
    deviations = [abs(four_photon_ratio(r, seed) - 1.0) for r in gains]
    slope = np.polyfit(np.log(gains), np.log(deviations), 1)[0]
    return _timed_report(
        "four-photon-awp",
        {"gains": list(gains), "deviations": [float(d) for d in deviations]},
        {
            "ratio_deviation_mid": float(deviations[1]),
            "subquadratic_excess": float(max(0.0, 1.9 - slope)),
        },
        {"ratio_deviation_mid": 1e-2, "subquadratic_excess": 0.0},
        start,
        seed=seed,
    )


def run_reference_examples() -> list[VerificationReport]:
    """The four closed-form scenarios: cascade, interferometer, decoupled
    port with its Fock checks, and the four-photon sweep."""
    return [
        cascade_scenario(),
        su11_scenario(),
        decoupled_port_scenario(),
        awp_sweep_scenario(),
    ]


# ---------------------------------------------------------------------------
# separable-observable expectation duality
# ---------------------------------------------------------------------------


def expectation_duality_residual(
    circuit: Circuit,
    s_state: Mapping[tuple[int, ...], complex],
    i_state: Mapping[tuple[int, ...], complex],
    obs_s: np.ndarray,
    s_basis: Sequence[tuple[int, ...]],
    obs_i: np.ndarray,
    i_basis: Sequence[tuple[int, ...]],
    photon_cap: int | None = None,
    leak_tol: float | None = fock.DEFAULT_LEAK_TOL,
) -> float:
    """Relative defect of the separable-observable expectation duality.

    Both sides read the amplitudes A[(a, c), (b, x)] = <b, x| U |a, c> from
    one :func:`linamp.compare_amplitudes` call: every product of the listed
    input occupations a (signal) and c (idler) in, every product of the basis
    occupations b and x out.  With M[b, x] = sum_{a,c} s[a] i[c] A[(a, c),
    (b, x)], each side is Re tr(O_s M conj(O_i) M^+), the sum over both
    eigenbases of eigenvalue-weighted squared amplitudes, regrouped.  The
    left side takes A by brute-force Fock evolution, the right side from the
    dual arm alone (nc times a permanent of the hypothetical-beamsplitter
    network between the swapped occupations); no Fock-space operator is
    built.  The cap defaults to :func:`fock.auto_photon_cap` of the fullest
    input product.  An occupation above the cap raises ``ValueError``, and
    ``leak_tol`` guards each evolved input column on its own
    (:class:`TruncationLeakError`).  Inputs should be normalized;
    observables are Hermitian, relative to their largest entry, over the
    listed occupation bases.  Non-finite observables or amplitudes, and an
    observable whose shape does not match its occupation list, raise
    ``ValueError``.
    """
    obs_s = np.asarray(obs_s, dtype=np.complex128)
    obs_i = np.asarray(obs_i, dtype=np.complex128)
    inputs = {
        "obs_s": obs_s,
        "obs_i": obs_i,
        "s_state": np.array(list(s_state.values()), dtype=np.complex128),
        "i_state": np.array(list(i_state.values()), dtype=np.complex128),
    }
    for name, values in inputs.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has a non-finite entry")
    if obs_s.shape != (len(s_basis), len(s_basis)) or obs_i.shape != (len(i_basis), len(i_basis)):
        raise ValueError("observable shape does not match its occupation list")
    for obs in (obs_s, obs_i):
        scale = max(1.0, np.abs(obs).max(initial=0.0))
        if np.abs(obs - obs.conj().T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("observables must be Hermitian")
    if photon_cap is None:
        max_in = max(sum(occ) for occ in s_state) + max(sum(occ) for occ in i_state)
        photon_cap = fock.auto_photon_cap(max_in, circuit.total_gain)

    ins = [(*s_in, *i_in) for s_in in s_state for i_in in i_state]
    outs = [(*s_out, *i_out) for s_out in s_basis for i_out in i_basis]
    pairs = [(a, len(ins) + b) for a in range(len(ins)) for b in range(len(outs))]
    report = linamp.compare_amplitudes(circuit, ins + outs, pairs, photon_cap, leak_tol)
    weights = np.outer(inputs["s_state"], inputs["i_state"]).ravel()

    def contract(amplitudes: np.ndarray) -> float:
        m = (weights @ amplitudes.reshape(len(ins), len(outs))).reshape(len(s_basis), len(i_basis))
        return np.trace(obs_s @ m @ obs_i.conj() @ m.conj().T).real

    lhs, rhs = contract(report.nonlinear), contract(report.dual)
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))


# ---------------------------------------------------------------------------
# polarization teleportation
# ---------------------------------------------------------------------------

# Path bookkeeping: polarization doubles the spatial paths.
_S1H, _S1V, _S2H, _S2V = 0, 1, 2, 3
_I1H, _I2H, _I2V = 0, 1, 2


def teleportation_circuit(r: float, c_h: complex, c_v: complex) -> Circuit:
    """Two-crystal teleportation layout with the state preparation inlined.

    Crystal 1 pumps the heralding pair on the H paths; a waveplate carries
    its signal photon to the prepared polarization; crystal 2 is a pair of
    crossed-polarization PDCs with a relative pi phase, emitting the
    polarization singlet; a balanced splitter mixes the two signal arms
    polarization by polarization.
    """
    prep = np.array([[c_h, -np.conj(c_v)], [c_v, np.conj(c_h)]], dtype=np.complex128)
    prep_full = np.eye(4, dtype=np.complex128)
    prep_full[np.ix_((_S1H, _S1V), (_S1H, _S1V))] = prep
    splitter = np.zeros((4, 4), dtype=np.complex128)
    for pol_pair in ((_S1H, _S2H), (_S1V, _S2V)):
        a, b = pol_pair
        splitter[a, a] = splitter[a, b] = splitter[b, a] = 1 / math.sqrt(2)
        splitter[b, b] = -1 / math.sqrt(2)
    return Circuit(
        4,
        3,
        (
            Pdc(_S1H, _I1H, r),
            LinearS(prep_full),
            Pdc(_S2H, _I2V, r),
            Pdc(_S2V, _I2H, r),
            PhaseI(_I2H, math.pi),
            LinearS(splitter),
        ),
    )


def teleportation_demo(
    r: float, prepared_state: Sequence[complex], photon_cap: int = 8
) -> VerificationReport:
    """Four-fold postselected polarization teleportation at low gain.

    Brute-forces the full two-crystal layout from vacuum, postselects one
    photon in each splitter output port plus the herald, and reads the
    conditional polarization state left on the far idler.  Reports the
    worst bright-outcome infidelity, the detector-insensitive incoherent
    mixture infidelity, the relative weight of the outcomes that the
    interference should darken, and the product-form cross-check of the
    brightest four-photon amplitude.
    """
    c_h, c_v = complex(prepared_state[0]), complex(prepared_state[1])
    if abs(abs(c_h) ** 2 + abs(c_v) ** 2 - 1.0) > 1e-10:
        raise ValueError("prepared polarization must be normalized")
    if not 0 < r <= 0.1:
        raise ValueError("teleportation demo expects low gain, 0 < r <= 0.1")
    start = time.perf_counter()
    circuit = teleportation_circuit(r, c_h, c_v)
    ports = {"H1": _S1H, "V1": _S1V, "H2": _S2H, "V2": _S2V}
    outcomes = [(mu, nu) for mu in "HV" for nu in "HV"]
    # vacuum in, then per outcome two four-fold rows: herald plus far idler H or V (idlers after 4 signal paths)
    rows = [[0] * 7]
    for mu, nu in outcomes:
        for i_path in (_I2H, _I2V):
            rows.append([0] * 7)
            for path in (ports[mu + "1"], ports[nu + "2"], 4 + _I1H, 4 + i_path):
                rows[-1][path] += 1
    pairs = [(0, k) for k in range(1, len(rows))]
    amplitudes = fock.postselection_amplitudes(circuit, rows, pairs, photon_cap, leak_tol=None)

    chi = np.array([c_h, c_v])
    bright, dark_weight, bright_weight = [], 0.0, 0.0
    mixture = np.zeros((2, 2), dtype=np.complex128)
    setup = build_ptr(circuit)
    best_amp, best_pattern = 0.0, None
    for (mu, nu), conditional in zip(outcomes, amplitudes.reshape(len(outcomes), 2)):
        for amp, i_path in zip(conditional, (_I2H, _I2V)):
            estimate = linamp.four_photon_awp_amplitude(setup, (ports[mu + "1"], ports[nu + "2"]), (_I1H, i_path))
            if abs(estimate) > best_amp:
                best_amp, best_pattern = abs(estimate), (amp, estimate)
        weight = float(np.linalg.norm(conditional) ** 2)
        mixture += np.outer(conditional, conditional.conj())
        if mu != nu:
            bright.append((mu + nu, conditional, weight))
            bright_weight += weight
        else:
            dark_weight += weight

    worst_bright_infidelity = max(
        1.0 - abs(np.vdot(chi, cond)) ** 2 / w for _, cond, w in bright
    )
    mixture /= np.trace(mixture).real
    mixture_infidelity = float(1.0 - np.vdot(chi, mixture @ chi).real)
    awp_ratio_deviation = float(abs(best_pattern[0] / best_pattern[1] - 1.0))
    return _timed_report(
        "teleportation",
        {"r": r, "c_h": repr(c_h), "c_v": repr(c_v), "photon_cap": photon_cap},
        {
            "worst_bright_infidelity": float(worst_bright_infidelity),
            "mixture_infidelity": mixture_infidelity,
            "dark_over_bright_weight": float(dark_weight / bright_weight),
            "awp_ratio_deviation": awp_ratio_deviation,
        },
        {
            "worst_bright_infidelity": 1e-3,
            "mixture_infidelity": 1e-3,
            "dark_over_bright_weight": 1e-2,
            "awp_ratio_deviation": 1e-2,
        },
        start,
    )
