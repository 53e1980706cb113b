"""Seeded inputs and one checked operation for each benchmark workload.

Importing this module imports ptrsim, so the benchmark's set-up time counts
it.  Every ``make_*`` function turns a seed into a list of operations; each
operation calls the library with those inputs only, checks the result, and
returns an :class:`Outcome`.  Library entry points are reached through their
modules (``linamp.verify_duality``, not a bound name) so that the trace
wrappers see every call.

Why each workload exists:

* ``portfolio`` -- ``verify_duality`` on criterion-05 circuits.  Many input
  columns share each sector evolution; brute-force evolution dominates.
* ``amp`` -- one ``ptrsim amp`` query per operation, leak guard on.  A fresh
  sector basis per query with one evolved column, so basis construction
  weighs more than in ``portfolio``; the only workload that runs ``cli``.
* ``dual_columns`` -- one column of the dual arm: every output pattern of a
  fixed swapped input, permanents only, no Fock evolution.  Two kinds of
  column: few modes with many photons (many repeated rows and columns) and
  many modes with few photons.
* ``qfunc`` -- ``q_duality_residual`` on a batch of probe points.  Neither
  Fock evolution nor permanents; the star fold and the Gaussian kernels
  carry the weight.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ptrsim import cli, fock, gaussian, harness, linamp, ptr


@dataclass(frozen=True)
class Outcome:
    """Result of one checked operation."""

    items: int
    residual: float
    passed: bool


Op = Callable[[], Outcome]


def _circuit_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1 << 31, size=count)]


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------

#: criterion-05 rows (n_s, n_i, pdc count, max gain, photon cap), alternated.
#: The two cheapest rows keep a run at about 35 operations.  Rows with more
#: paths or three sources are left out: about one circuit in a hundred there
#: has a near-zero amplitude (|a| ~ 3e-8) whose relative residual passes
#: 1e-6 although the arms agree to 1e-13, which would fail runs at random.
PORTFOLIO_CLASSES = ((1, 1, 1, 1.0, 160), (1, 1, 2, 1.0, 160))
PORTFOLIO_BUDGET = 4
PORTFOLIO_TOL = 1e-6  # criterion 05
PORTFOLIO_POOL = 64


def _portfolio_op(circuit, cap: int) -> Outcome:
    report = linamp.verify_duality(circuit, photon_budget=PORTFOLIO_BUDGET, photon_cap=cap)
    residual = report.max_rel_residual
    return Outcome(len(report.comparisons), residual, residual <= PORTFOLIO_TOL)


def make_portfolio(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for k, circuit_seed in enumerate(_circuit_seeds(seed, PORTFOLIO_POOL)):
        n_s, n_i, n_pdc, max_r, cap = PORTFOLIO_CLASSES[k % len(PORTFOLIO_CLASSES)]
        circuit = harness.random_circuit(circuit_seed, n_s, n_i, n_pdc, max_r)
        ops.append(partial(_portfolio_op, circuit, cap))
    return ops


# ---------------------------------------------------------------------------
# amp
# ---------------------------------------------------------------------------

#: (n_s, n_i, most photons per side, pdc count, max gain), taken in turn.
#: Total gain stays at most 0.06, so the CLI's automatic cap is 12 or 13 and
#: the 4+4 sector basis stays near 12k states.  At total gains of 0.07-0.13
#: the truncation error at the automatic cap already reaches 7e-9 relative
#: on small amplitudes, next to the 1e-8 tolerance.  Each class steps
#: through its (signal, idler) photon totals in a fixed order, so every seed
#: runs the same mix of sector sizes and only the circuits and modes differ.
AMP_CLASSES = ((2, 2, 3, 2, 0.03), (3, 3, 2, 2, 0.03), (4, 4, 1, 1, 0.06))
AMP_POOL = 108


def _occupation_text(counts, n_s: int) -> str:
    return ",".join(map(str, counts[:n_s])) + ";" + ",".join(map(str, counts[n_s:]))


def _spread(rng, photons: int, paths: int) -> list[int]:
    return [int(c) for c in rng.multinomial(photons, np.full(paths, 1.0 / paths))]


def _amp_op(path: Path, occ_in: str, occ_out: str) -> Outcome:
    argv = ["amp", "--circuit", str(path), "--input", occ_in, "--output", occ_out, "--json"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    try:
        residual = float(json.loads(sink.getvalue())["rel_residual"])
    except (ValueError, KeyError):
        residual = math.inf
    return Outcome(1, residual, code == 0)


def make_amp(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, circuit_seed in enumerate(_circuit_seeds(seed, AMP_POOL)):
        n_s, n_i, most, n_pdc, max_r = AMP_CLASSES[k % len(AMP_CLASSES)]
        circuit = harness.random_circuit(circuit_seed, n_s, n_i, n_pdc, max_r)
        path = workdir / f"amp-{k}.json"
        path.write_text(json.dumps(cli.circuit_to_document(circuit)), encoding="utf-8")
        k_s, k_i = divmod(k // len(AMP_CLASSES) % most**2, most)
        k_s, k_i = k_s + 1, k_i + 1
        occ_in = _spread(rng, k_s, n_s) + _spread(rng, k_i, n_i)
        occ_out = _spread(rng, k_s, n_s) + _spread(rng, k_i, n_i)
        ops.append(
            partial(_amp_op, path, _occupation_text(occ_in, n_s), _occupation_text(occ_out, n_s))
        )
    return ops


# ---------------------------------------------------------------------------
# dual_columns
# ---------------------------------------------------------------------------

#: (n_s, n_i, photons): few modes with many photons, many modes with few.
#: Columns of 2+2 paths with 12 photons and of 4+4 with 7 take about 11 s
#: and 3 s on a 2-vCPU x86-64 VM, too long for a run of 20 operations; these
#: take 0.6-0.7 s and 0.9 s.  The repeated-row class still needs only about
#: 17% of Ryser's 2^N terms once multiplicities are used, the other 60-75%.
DUAL_CLASSES = ((2, 2, 9), (4, 4, 6))
DUAL_PDCS, DUAL_MAX_GAIN = 2, 0.8
DUAL_POOL = 64


def column_tolerance(photons: int, outputs: int) -> float:
    """Roundoff scale for ``|sum |amp|^2 / |nc|^2 - 1|`` over one column.

    Ryser's formula adds 2^N products of N row sums, so each amplitude
    carries a relative rounding error of order N 2^N eps; the column sum
    adds ``outputs`` such terms.  A dropped output pattern or a wrong
    bosonic normalisation moves the sum by far more.
    """
    return outputs * photons * 2.0**photons * float(np.finfo(float).eps)


def dual_column(circuit, s_in, i_out) -> tuple[list[complex], complex]:
    """Dual-arm amplitudes of every output with the swapped input (s_in, i_out).

    The outputs run over all swapped patterns (s_out, i_in) of the same
    photon number; the returned list follows ``fock.occupations_with_total``.
    """
    setup = ptr.build_ptr(circuit)
    n_s = circuit.n_s_paths
    photons = sum(s_in) + sum(i_out)
    amps = []
    for pattern in fock.occupations_with_total(n_s + circuit.n_i_paths, photons):
        s_out, i_in = pattern[:n_s], pattern[n_s:]
        amps.append(linamp.ptr_postselection_amplitude(setup, (s_in, i_in), (s_out, i_out)))
    return amps, setup.nc


def _dual_column_op(circuit, s_in, i_out) -> Outcome:
    amps, nc = dual_column(circuit, s_in, i_out)
    weight = sum(abs(a) ** 2 for a in amps) / abs(nc) ** 2
    residual = abs(weight - 1.0)
    tol = column_tolerance(sum(s_in) + sum(i_out), len(amps))
    return Outcome(len(amps), residual, residual <= tol)


def make_dual_columns(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k, circuit_seed in enumerate(_circuit_seeds(seed, DUAL_POOL)):
        n_s, n_i, photons = DUAL_CLASSES[k % len(DUAL_CLASSES)]
        circuit = harness.random_circuit(circuit_seed, n_s, n_i, DUAL_PDCS, DUAL_MAX_GAIN)
        swapped = _spread(rng, photons, n_s + n_i)
        ops.append(partial(_dual_column_op, circuit, tuple(swapped[:n_s]), tuple(swapped[n_s:])))
    return ops


# ---------------------------------------------------------------------------
# qfunc
# ---------------------------------------------------------------------------

QFUNC_POINTS = 50
QFUNC_MAX_GAIN = 0.8  # criterion 08
QFUNC_TOL = 1e-8  # criterion 08
QFUNC_POOL = 96  # two circuits for each of 16 path layouts x 3 pdc counts


def _qfunc_op(circuit, alpha_s, alpha_i, beta_s, beta_i) -> Outcome:
    residual = gaussian.q_duality_residual(circuit, alpha_s, alpha_i, beta_s, beta_i)
    return Outcome(len(beta_s), residual, residual <= QFUNC_TOL)


def _complex_normal(rng, scale: float, *shape: int) -> np.ndarray:
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def make_qfunc(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k, circuit_seed in enumerate(_circuit_seeds(seed, QFUNC_POOL)):
        n_s, n_i, n_pdc = 1 + k % 4, 1 + (k // 4) % 4, 1 + (k // 16) % 3
        circuit = harness.random_circuit(circuit_seed, n_s, n_i, n_pdc, QFUNC_MAX_GAIN)
        # coherent inputs and probe points scaled as in criterion 08
        alpha_s, alpha_i = _complex_normal(rng, 0.4, n_s), _complex_normal(rng, 0.4, n_i)
        beta_s = _complex_normal(rng, 0.5, QFUNC_POINTS, n_s)
        beta_i = _complex_normal(rng, 0.5, QFUNC_POINTS, n_i)
        ops.append(partial(_qfunc_op, circuit, alpha_s, alpha_i, beta_s, beta_i))
    return ops


@dataclass(frozen=True)
class Workload:
    """How to build a workload's operations from a seed and a scratch directory."""

    make: Callable[[int, Path], list[Op]]
    #: operations in each pass of a traced run; fixed so its counts repeat.
    trace_ops: int


WORKLOADS = {
    "portfolio": Workload(make_portfolio, 16),
    "amp": Workload(make_amp, 48),
    "dual_columns": Workload(make_dual_columns, 12),
    "qfunc": Workload(make_qfunc, 4000),
}
