"""Multiphoton amplitudes of linear networks and the duality verifier.

Postselected Fock amplitudes of a linear network are matrix permanents of
row/column-repeated submatrices, evaluated by Ryser's formula summed over
the repeats.  The verifier pits those permanents, scaled by the
normalization coefficient of the dual setup, against brute-force
truncated Fock-space amplitudes of the nonlinear circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import fock, ptr
from .errors import DimensionOverflowError
from .fock import OccupationVector
from .ptr import Circuit, PtrSetup
from .scatter import ScatteringMatrix

MAX_PERMANENT_SIZE = 20
#: Ryser terms evaluated per matmul; grids this small are also cached.
RYSER_CHUNK = 1 << 10


def _multiplicities(matrix: np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    """First index and length of each run of equal adjacent columns."""
    repeats = (matrix[:, 1:] == matrix[:, :-1]).all(axis=0).tolist()
    starts = [0] + [j + 1 for j, repeat in enumerate(repeats) if not repeat]
    return starts, tuple(b - a for a, b in zip(starts, starts[1:] + [matrix.shape[1]]))


def _terms(multiplicities: tuple[int, ...]) -> int:
    return math.prod(m + 1 for m in multiplicities)


def _ryser_grid(multiplicities: tuple[int, ...], start: int, stop: int):
    """Terms start..stop-1 of the mixed-radix grid k in prod [0, m_j], with weights.

    Returns the grid as a complex (J, stop - start) matrix and the weights
    (-1)^(n - |k|) prod_j C(m_j, k_j), n = sum m_j.
    """
    radices = np.array(multiplicities) + 1
    strides = np.cumprod(np.concatenate(([1], radices[:-1])))
    digits = (np.arange(start, stop)[None, :] // strides[:, None]) % radices[:, None]
    signed_binom = np.zeros((len(multiplicities), radices.max()))
    for j, m in enumerate(multiplicities):
        signed_binom[j, : m + 1] = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
    weights = signed_binom[np.arange(len(multiplicities))[:, None], digits].prod(axis=0)
    grid, weights = digits.astype(np.complex128), weights.astype(np.complex128)
    grid.setflags(write=False)  # one-chunk grids are cached and shared
    weights.setflags(write=False)
    return grid, weights


_cached_ryser_grid = lru_cache(maxsize=128)(_ryser_grid)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix by Ryser's formula.

    Runs of equal adjacent columns (or rows, whichever side needs fewer
    terms) are summed by multiplicity, so a matrix whose distinct columns
    repeat m_j times costs prod(m_j + 1) terms instead of 2^n; the terms
    are evaluated in chunks of ``RYSER_CHUNK``, each one matmul.  Sizes
    above ``MAX_PERMANENT_SIZE`` are refused.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("permanent needs a square matrix")
    n = matrix.shape[0]
    if n > MAX_PERMANENT_SIZE:
        raise DimensionOverflowError(f"permanent of size {n} exceeds {MAX_PERMANENT_SIZE}")
    if n == 0:
        return 1.0 + 0.0j
    # Ryser's formula summed by multiplicity: a subset takes k = 0..m copies
    # of a column repeated m times, in C(m, k) ways (Chin & Huh 2018).
    col_starts, col_mult = _multiplicities(matrix)
    row_starts, row_mult = _multiplicities(matrix.T)
    if _terms(row_mult) < _terms(col_mult):
        matrix, col_starts, col_mult = matrix.T, row_starts, row_mult  # perm A = perm A^T
    distinct, terms = matrix[:, col_starts], _terms(col_mult)
    if terms <= RYSER_CHUNK:
        grid, weights = _cached_ryser_grid(col_mult, 0, terms)
        return complex(np.prod(distinct @ grid, axis=0) @ weights)
    total = 0.0 + 0.0j
    for start in range(0, terms, RYSER_CHUNK):
        grid, weights = _ryser_grid(col_mult, start, min(start + RYSER_CHUNK, terms))
        total += np.prod(distinct @ grid, axis=0) @ weights
    return complex(total)


def linear_fock_amplitude(matrix, input_occ, output_occ) -> complex:
    """<output| L |input> for a photon-number-conserving linear network.

    ``matrix`` scatters creation operators over the concatenated
    (signal, idler) path index; occupations repeat its columns (input) and
    rows (output).  Zero when the total photon number changes.
    """
    if isinstance(matrix, ScatteringMatrix):
        n_s, n_i = matrix.n_s, matrix.n_i
        matrix = matrix.full
    else:
        matrix = np.asarray(matrix, dtype=np.complex128)
        n_s, n_i = matrix.shape[0], 0
    if n_i:
        input_occ = fock.as_occupation(input_occ, n_s, n_i)
        output_occ = fock.as_occupation(output_occ, n_s, n_i)
        in_counts = input_occ.key()
        out_counts = output_occ.key()
    else:
        if isinstance(input_occ, OccupationVector):
            input_occ = input_occ.key()
        if isinstance(output_occ, OccupationVector):
            output_occ = output_occ.key()
        in_counts = tuple(int(n) for n in input_occ)
        out_counts = tuple(int(n) for n in output_occ)
    if sum(in_counts) != sum(out_counts):
        return 0.0 + 0.0j
    cols = np.repeat(np.arange(matrix.shape[1]), in_counts)
    rows = np.repeat(np.arange(matrix.shape[0]), out_counts)
    sub = matrix[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(n) for n in in_counts) * math.prod(
        math.factorial(n) for n in out_counts
    )
    return permanent(sub) / math.sqrt(norm)


def ptr_postselection_amplitude(setup: PtrSetup, input_occ, output_occ) -> complex:
    """Dual-picture prediction of <output| U |input> for the nonlinear circuit.

    The idler occupations swap roles between input and output (partial time
    reversal), the linear amplitude of the dual setup is taken there, and
    the normalization coefficient scales the result.  Fock states have real
    coefficients, so no conjugation appears.
    """
    n_s, n_i = setup.scattering.n_s, setup.scattering.n_i
    input_occ = fock.as_occupation(input_occ, n_s, n_i)
    output_occ = fock.as_occupation(output_occ, n_s, n_i)
    if input_occ.difference != output_occ.difference:
        return 0.0 + 0.0j
    swapped_in = OccupationVector(input_occ.s_counts, output_occ.i_counts)
    swapped_out = OccupationVector(output_occ.s_counts, input_occ.i_counts)
    return setup.nc * linear_fock_amplitude(setup.scattering, swapped_in, swapped_out)


@dataclass(frozen=True)
class AmplitudeComparison:
    """One brute-force versus dual-picture amplitude pair."""

    input: OccupationVector
    output: OccupationVector
    nonlinear: complex
    dual: complex
    abs_residual: float
    rel_residual: float


@dataclass(frozen=True)
class DualityReport:
    """Result of sweeping the duality over a photon budget."""

    photon_budget: int
    photon_cap: int
    nc: complex
    comparisons: tuple[AmplitudeComparison, ...]

    @property
    def max_abs_residual(self) -> float:
        return max((c.abs_residual for c in self.comparisons), default=0.0)

    @property
    def max_rel_residual(self) -> float:
        return max((c.rel_residual for c in self.comparisons), default=0.0)


def _occupations(n_s: int, n_i: int, budget: int) -> list[OccupationVector]:
    return [
        OccupationVector(counts[:n_s], counts[n_s:])
        for counts in fock.occupations_upto(n_s + n_i, budget)
    ]


def verify_duality(
    circuit: Circuit,
    photon_budget: int,
    photon_cap: int | None = None,
    sample_count: int | None = None,
    seed: int = 0,
    atol: float = 1e-12,
    leak_tol: float | None = None,
    dim_limit: int = fock.DEFAULT_DIM_LIMIT,
) -> DualityReport:
    """Compare brute force against the dual picture over occupation pairs.

    All conservation-allowed (input, output) pairs with at most
    ``photon_budget`` photons on each side are enumerated in lexicographic
    order; ``sample_count`` draws a seeded subsample without replacement
    (enumeration order is preserved).  The brute-force side batches all
    inputs of one difference sector into a single evolution.  Amplitude
    pairs whose magnitudes both fall below ``atol`` count as residual zero.

    The dual side involves no truncation, so any truncation damage on the
    brute side shows up directly in the reported residuals; the state-level
    leak guard is therefore off by default.  Pass ``leak_tol`` to fail fast
    on obviously undersized caps instead of reading it off the residuals.
    """
    if photon_budget < 0:
        raise ValueError("photon budget must be nonnegative")
    setup = ptr.build_ptr(circuit)
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    occupations = _occupations(n_s, n_i, photon_budget)
    pairs = [
        (occ_in, occ_out)
        for occ_in in occupations
        for occ_out in occupations
        if occ_in.difference == occ_out.difference
    ]
    if sample_count is not None and sample_count < len(pairs):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(pairs), size=sample_count, replace=False))
        pairs = [pairs[int(k)] for k in chosen]
    if photon_cap is None:
        photon_cap = fock.auto_photon_cap(photon_budget, circuit.total_gain)

    # one batched evolution per difference sector
    nonlinear: dict[tuple[OccupationVector, OccupationVector], complex] = {}
    deltas = sorted({occ_in.difference for occ_in, _ in pairs})
    for delta in deltas:
        sector_pairs = [(a, b) for a, b in pairs if a.difference == delta]
        sector_inputs = sorted({a for a, _ in sector_pairs}, key=OccupationVector.key)
        space = fock.enumerate_basis(n_s, n_i, photon_cap, delta=delta, dim_limit=dim_limit)
        block = np.zeros((space.dimension, len(sector_inputs)), dtype=np.complex128)
        col_of = {}
        for col, occ in enumerate(sector_inputs):
            block[space.index(occ), col] = 1.0
            col_of[occ] = col
        evolved = fock.apply_circuit(circuit, space, block, leak_tol=leak_tol)
        for occ_in, occ_out in sector_pairs:
            nonlinear[(occ_in, occ_out)] = complex(
                evolved[space.index(occ_out), col_of[occ_in]]
            )

    comparisons = []
    for occ_in, occ_out in pairs:
        brute = nonlinear[(occ_in, occ_out)]
        dual = ptr_postselection_amplitude(setup, occ_in, occ_out)
        abs_res = abs(brute - dual)
        denom = max(abs(brute), abs(dual))
        rel_res = 0.0 if denom < atol else abs_res / denom
        comparisons.append(
            AmplitudeComparison(occ_in, occ_out, brute, dual, abs_res, rel_res)
        )
    return DualityReport(photon_budget, photon_cap, setup.nc, tuple(comparisons))


def four_photon_awp_amplitude(setup, s_pair: Sequence[int], i_pair: Sequence[int]) -> complex:
    """Leading-order four-photon coincidence amplitude in the advanced-wave picture.

    ``s_pair`` and ``i_pair`` name the two signal and two idler detection
    paths (repeats allowed).  From the pumped vacuum, the amplitude is the
    permanent of the relevant 2x2 slice of the signal-to-idler coupling
    block with bosonic bunching factors, which reduces to three closed
    forms; the normalization coefficient is deliberately omitted, so at low
    gain the ratio against brute force approaches one like the gain squared.
    """
    matrix = setup.scattering if isinstance(setup, PtrSetup) else setup
    if not isinstance(matrix, ScatteringMatrix):
        raise TypeError("expected a PtrSetup or ScatteringMatrix")
    (k1, k2), (l1, l2) = tuple(s_pair), tuple(i_pair)
    coupling = matrix.si
    if k1 != k2 and l1 != l2:
        return complex(coupling[k1, l1] * coupling[k2, l2] + coupling[k2, l1] * coupling[k1, l2])
    if k1 == k2 and l1 != l2:
        return complex(math.sqrt(2.0) * coupling[k1, l1] * coupling[k1, l2])
    if k1 != k2 and l1 == l2:
        return complex(math.sqrt(2.0) * coupling[k1, l1] * coupling[k2, l1])
    return complex(coupling[k1, l1] ** 2)
