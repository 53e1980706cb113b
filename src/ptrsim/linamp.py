"""Multiphoton amplitudes of linear networks and the duality verifier.

Postselected Fock amplitudes of a linear network are permanents of the
network's submatrix over the occupied modes, rows and columns repeated by
their counts.  Ryser's formula is summed over the repeats, with each
distinct row raised to the power of its multiplicity, so the dual arm
never builds the repeated submatrix.  The amplitudes work on plain count
tuples from the one occupation check in :mod:`fock` on; an
:class:`~ptrsim.fock.OccupationVector` is built only where a report holds
one.  The verifier pits those amplitudes, scaled by the normalization
coefficient of the dual setup, against brute-force truncated Fock-space
amplitudes of the nonlinear circuit, ranking each occupation once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
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
_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_PERMANENT_SIZE + 1))


def _multiplicities(matrix: np.ndarray) -> tuple[list[int], tuple[int, ...]]:
    """First index and length of each run of equal adjacent columns."""
    repeats = (matrix[:, 1:] == matrix[:, :-1]).all(axis=0).tolist()
    starts = [0] + [j + 1 for j, repeat in enumerate(repeats) if not repeat]
    return starts, tuple(b - a for a, b in zip(starts, starts[1:] + [matrix.shape[1]]))


def _terms(multiplicities: tuple[int, ...]) -> int:
    return math.prod([m + 1 for m in multiplicities])


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


def _repeated_permanent(distinct: np.ndarray, row_mult: tuple[int, ...], col_mult: tuple[int, ...]) -> complex:
    """Permanent of ``distinct`` with row r repeated row_mult[r] times, column j col_mult[j].

    Ryser's formula summed by multiplicity: a subset takes k = 0..m copies
    of a column repeated m times, in C(m, k) ways (Chin & Huh 2018), and a
    row repeated m times enters as its row sum to the power m.  The sum
    runs over the side with fewer prod(m + 1) terms (perm A = perm A^T), in
    chunks of ``RYSER_CHUNK`` terms, each one matmul.
    """
    row_terms, terms = _terms(row_mult), _terms(col_mult)
    if row_terms < terms:
        distinct, row_mult, col_mult = distinct.T, col_mult, row_mult
        row_terms, terms = terms, row_terms
    # prod(m + 1) is 2^rows only if no row repeats; every power is then 1 and is skipped
    powers = None if row_terms == 1 << len(row_mult) else np.array(row_mult)[:, None]
    grid_of = _cached_ryser_grid if terms <= RYSER_CHUNK else _ryser_grid
    total = 0.0 + 0.0j
    for start in range(0, terms, RYSER_CHUNK):
        grid, weights = grid_of(col_mult, start, min(start + RYSER_CHUNK, terms))
        sums = distinct.dot(grid)
        total += np.multiply.reduce(sums if powers is None else sums ** powers, axis=0).dot(weights)
    return complex(total)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix by Ryser's formula.

    Runs of equal adjacent columns and rows are summed by multiplicity
    (:func:`_repeated_permanent`).  Sizes above ``MAX_PERMANENT_SIZE`` are refused.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("permanent needs a square matrix")
    n = matrix.shape[0]
    if n > MAX_PERMANENT_SIZE:
        raise DimensionOverflowError(f"permanent of size {n} exceeds {MAX_PERMANENT_SIZE}")
    if n == 0:
        return 1.0 + 0.0j
    col_starts, col_mult = _multiplicities(matrix)
    row_starts, row_mult = _multiplicities(matrix.T)
    return _repeated_permanent(matrix[row_starts][:, col_starts], row_mult, col_mult)


def _counts_amplitude(matrix: np.ndarray, in_counts: tuple[int, ...], out_counts: tuple[int, ...]) -> complex:
    """<out_counts| L |in_counts>: the occupied modes are the distinct rows and columns."""
    photons = sum(in_counts)
    if photons != sum(out_counts):
        return 0.0 + 0.0j
    if photons > MAX_PERMANENT_SIZE:
        raise DimensionOverflowError(f"permanent of size {photons} exceeds {MAX_PERMANENT_SIZE}")
    if photons == 0:
        return 1.0 + 0.0j
    cols = list(compress(range(len(in_counts)), in_counts))
    rows = list(compress(range(len(out_counts)), out_counts))
    col_mult, row_mult = tuple(filter(None, in_counts)), tuple(filter(None, out_counts))
    norm = math.prod(map(_FACTORIALS.__getitem__, col_mult + row_mult))
    return _repeated_permanent(matrix.take(rows, 0).take(cols, 1), row_mult, col_mult) / math.sqrt(norm)


def linear_fock_amplitude(network: ScatteringMatrix, input_occ, output_occ) -> complex:
    """<output| L |input> for a photon-number-conserving linear network.

    ``network.full`` scatters creation operators over the concatenated
    (signal, idler) path index; occupations repeat its columns (input) and
    rows (output).  Zero when the total photon number changes.
    """
    in_s, in_i = fock._occupation_counts(input_occ, network.n_s, network.n_i)
    out_s, out_i = fock._occupation_counts(output_occ, network.n_s, network.n_i)
    return _counts_amplitude(network.full, in_s + in_i, out_s + out_i)


def ptr_postselection_amplitude(setup: PtrSetup, input_occ, output_occ) -> complex:
    """Dual-picture prediction of <output| U |input> for the nonlinear circuit.

    The idler occupations swap roles between input and output (partial time
    reversal), the linear amplitude of the dual setup is taken there, and
    the normalization coefficient scales the result.  Fock states have real
    coefficients, so no conjugation appears.
    """
    n_s, n_i = setup.scattering.n_s, setup.scattering.n_i
    s_in, i_in = fock._occupation_counts(input_occ, n_s, n_i)
    s_out, i_out = fock._occupation_counts(output_occ, n_s, n_i)
    if sum(s_in) - sum(i_in) != sum(s_out) - sum(i_out):
        return 0.0 + 0.0j
    return setup.nc * _counts_amplitude(setup.scattering.full, s_in + i_out, s_out + i_in)


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
    """Result of sweeping the duality over a photon budget; a NaN residual makes its maxima NaN."""

    photon_budget: int
    photon_cap: int
    nc: complex
    comparisons: tuple[AmplitudeComparison, ...]

    @property
    def max_abs_residual(self) -> float:
        return float(np.max([c.abs_residual for c in self.comparisons], initial=0.0))

    @property
    def max_rel_residual(self) -> float:
        return float(np.max([c.rel_residual for c in self.comparisons], initial=0.0))


def _basis_rows(space: fock.FockSpace, codes: np.ndarray, picks: np.ndarray, occupations) -> np.ndarray:
    """Basis index of the occupations ``picks``, ranked in ``codes``; all must lie inside the basis."""
    wanted = codes[picks]
    rows = np.searchsorted(space._codes, wanted)
    missing = np.flatnonzero(space._codes.take(rows, mode="clip") != wanted)
    if missing.size:
        raise ValueError(f"{occupations[picks[missing[0]]]} is not in this truncated basis")
    return rows


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
    order; ``sample_count`` (at least one) draws a seeded subsample without
    replacement (enumeration order is preserved).  The brute-force side
    batches all inputs of one difference sector into a single evolution on
    the shared space of :func:`fock.sector_space`; ``photon_cap`` may not be
    below ``photon_budget``, or inputs would fall outside it.  Amplitude
    pairs whose magnitudes both fall below ``atol`` count as residual zero.

    The dual side involves no truncation, so truncation damage on the brute
    side shows up directly in the residuals and the state-level leak guard is
    off by default; ``leak_tol`` fails fast on obviously undersized caps.
    """
    if photon_budget < 0:
        raise ValueError("photon budget must be nonnegative")
    if sample_count is not None and sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    if photon_cap is None:
        photon_cap = fock.auto_photon_cap(photon_budget, circuit.total_gain)
    if photon_cap < photon_budget:
        raise ValueError(f"photon cap {photon_cap} is below the photon budget {photon_budget}")
    setup = ptr.build_ptr(circuit)
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    keys = fock.occupations_upto(n_s + n_i, photon_budget)
    occupations = [OccupationVector(key[:n_s], key[n_s:]) for key in keys]
    # every sector space ranks its rows the same way, so rank the occupations once
    codes = fock._lex_rank(np.array(keys, dtype=np.int64), photon_cap)
    differences = [occ.difference for occ in occupations]
    pairs = [(a, b) for a, d_a in enumerate(differences) for b, d_b in enumerate(differences) if d_a == d_b]
    if sample_count is not None and sample_count < len(pairs):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(pairs), size=sample_count, replace=False))
        pairs = [pairs[int(k)] for k in chosen]

    # one batched evolution per difference sector
    sectors: dict[int, list[int]] = {}
    for k, (a, _) in enumerate(pairs):
        sectors.setdefault(differences[a], []).append(k)
    index_pairs = np.array(pairs, dtype=np.intp)
    nonlinear = np.empty(len(pairs), dtype=np.complex128)
    for delta in sorted(sectors):
        members = sectors[delta]
        inputs, cols = np.unique(index_pairs[members, 0], return_inverse=True)  # in lexicographic order
        space = fock.sector_space(n_s, n_i, photon_cap, delta, dim_limit=dim_limit)
        block = np.zeros((space.dimension, len(inputs)), dtype=np.complex128)
        block[_basis_rows(space, codes, inputs, occupations), np.arange(len(inputs))] = 1.0
        evolved = fock.apply_circuit(circuit, space, block, leak_tol=leak_tol)
        nonlinear[members] = evolved[_basis_rows(space, codes, index_pairs[members, 1], occupations), cols]

    comparisons = []
    for (a, b), brute in zip(pairs, nonlinear.tolist()):
        occ_in, occ_out = occupations[a], occupations[b]
        dual = ptr_postselection_amplitude(setup, occ_in, occ_out)
        abs_res = abs(brute - dual)
        denom = max(abs(brute), abs(dual))  # may drop a NaN amplitude; abs_res keeps it
        rel_res = abs_res if math.isnan(abs_res) else 0.0 if denom < atol else abs_res / denom
        comparisons.append(AmplitudeComparison(occ_in, occ_out, brute, dual, abs_res, rel_res))
    return DualityReport(photon_budget, photon_cap, setup.nc, tuple(comparisons))


def four_photon_awp_amplitude(setup: PtrSetup, s_pair: Sequence[int], i_pair: Sequence[int]) -> complex:
    """Leading-order four-photon coincidence amplitude in the advanced-wave picture.

    ``s_pair`` and ``i_pair`` name the two signal and two idler detection
    paths (repeats allowed).  From the pumped vacuum, the amplitude is the
    permanent of the relevant 2x2 slice of the signal-to-idler coupling
    block with bosonic bunching factors, a two-photon linear amplitude of
    that block; the normalization coefficient is deliberately omitted, so at
    low gain the ratio against brute force approaches one like the gain squared.
    """
    coupling = setup.scattering.si
    s_counts, i_counts = _path_counts(s_pair, coupling.shape[0]), _path_counts(i_pair, coupling.shape[1])
    return _counts_amplitude(coupling, i_counts, s_counts)


def _path_counts(paths: Sequence[int], n_paths: int) -> list[int]:
    """Photons on each of ``n_paths`` paths; every entry of ``paths`` must be an integer in range."""
    bad = [path for path in paths if not (isinstance(path, (int, np.integer)) and 0 <= path < n_paths)]
    if bad:
        raise ValueError(f"detection path {bad[0]!r} is not an integer in 0..{n_paths - 1}")
    return [sum(path == j for path in paths) for j in range(n_paths)]
