"""Multiphoton amplitudes of linear networks and the duality verifier.

Postselected Fock amplitudes of a linear network are permanents of the
network's submatrix over the occupied modes, rows and columns repeated by
their counts.  Ryser's formula is summed over the repeats, with each
distinct row raised to the power of its multiplicity, so the dual arm
never builds the repeated submatrix.  The amplitudes work on plain count
tuples once :func:`_occupation_counts` has checked them.  Only the two
single-pair entries here take the (signal counts, idler counts) pair form,
which the dual arm's idler swap needs; everything else takes count rows.
:func:`compare_amplitudes` pits those amplitudes, scaled by the
normalization coefficient of the dual setup, against brute-force truncated
Fock-space amplitudes of the nonlinear circuit from
:func:`ptrsim.fock.postselection_amplitudes`; both the budget sweep
:func:`verify_duality` and the single-pair ``ptrsim amp`` go through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Sequence

import numpy as np

from . import fock, ptr
from .errors import DimensionOverflowError
from .ptr import Circuit, PtrSetup
from .scatter import ScatteringMatrix

MAX_PERMANENT_SIZE = 20
#: Ryser terms evaluated per matmul; grids this small are also cached.
RYSER_CHUNK = 1 << 10
_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_PERMANENT_SIZE + 1))
#: amplitude pairs whose magnitudes both fall below this count as residual zero.
ATOL = 1e-12


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


def _occupation_counts(value, n_s_paths: int, n_i_paths: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Checked (signal, idler) count tuples of the pair ``value``: integers, none negative, on the given paths."""
    s_counts, i_counts = value
    try:
        s_counts, i_counts = tuple(map(operator.index, s_counts)), tuple(map(operator.index, i_counts))
    except TypeError:
        raise fock._integer_error((*s_counts, *i_counts)) from None
    for counts in (s_counts, i_counts):
        if counts and min(counts) < 0:
            raise ValueError(f"occupation counts must be nonnegative, got {counts}")
    if len(s_counts) != n_s_paths or len(i_counts) != n_i_paths:
        raise ValueError(
            f"occupation has {len(s_counts)}+{len(i_counts)} paths, "
            f"expected {n_s_paths}+{n_i_paths}"
        )
    return s_counts, i_counts


def linear_fock_amplitude(network: ScatteringMatrix, input_occ, output_occ) -> complex:
    """<output| L |input> for a photon-number-conserving linear network.

    ``network.full`` scatters creation operators over the concatenated
    (signal, idler) path index; occupations repeat its columns (input) and
    rows (output).  Zero when the total photon number changes.
    """
    in_s, in_i = _occupation_counts(input_occ, network.n_s, network.n_i)
    out_s, out_i = _occupation_counts(output_occ, network.n_s, network.n_i)
    return _counts_amplitude(network.full, in_s + in_i, out_s + out_i)


def ptr_postselection_amplitude(setup: PtrSetup, input_occ, output_occ) -> complex:
    """Dual-picture prediction of <output| U |input> for the nonlinear circuit.

    The idler occupations swap roles between input and output (partial time
    reversal), the linear amplitude of the dual setup is taken there, and
    the normalization coefficient scales the result.  Fock states have real
    coefficients, so no conjugation appears.  Photon differences that
    disagree leave the swapped rows with different totals, which read zero.
    """
    n_s, n_i = setup.scattering.n_s, setup.scattering.n_i
    s_in, i_in = _occupation_counts(input_occ, n_s, n_i)
    s_out, i_out = _occupation_counts(output_occ, n_s, n_i)
    return setup.nc * _counts_amplitude(setup.scattering.full, s_in + i_out, s_out + i_in)


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Brute-force against dual-picture amplitudes over index pairs of occupation rows.

    ``occupations`` holds count rows, signal paths first.  Row k of the
    (P, 2) array ``comparisons`` holds the input and output row indices of
    pair k, whose amplitudes and residuals are entry k of ``nonlinear``,
    ``dual``, ``abs_residual`` and ``rel_residual``.  Every array is
    read-only.  A NaN residual makes the maxima NaN and is the worst pair.
    """

    photon_cap: int
    nc: complex
    occupations: np.ndarray
    comparisons: np.ndarray
    nonlinear: np.ndarray
    dual: np.ndarray
    abs_residual: np.ndarray
    rel_residual: np.ndarray

    @property
    def photon_budget(self) -> int:
        """Most photons on any occupation row."""
        return int(self.occupations.sum(axis=1).max(initial=0))

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(self.abs_residual, initial=0.0))

    @property
    def max_rel_residual(self) -> float:
        return float(np.max(self.rel_residual, initial=0.0))

    @property
    def worst_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Count rows in and out at the largest relative residual, a NaN first; None without pairs."""
        if not len(self.rel_residual):
            return None
        a, b = self.comparisons[int(np.argmax(self.rel_residual))]  # argmax stops at the first NaN
        return tuple(self.occupations[a].tolist()), tuple(self.occupations[b].tolist())


def compare_amplitudes(
    circuit: Circuit,
    occupations,
    pairs,
    photon_cap: int | None = None,
    leak_tol: float | None = None,
) -> DualityReport:
    """Brute force against the dual picture on every index pair (a, b) of ``pairs``.

    ``occupations`` holds count rows, signal paths first; pair (a, b) takes
    row a in and row b out.  The brute-force side comes from
    :func:`fock.postselection_amplitudes`, which checks the rows and pairs;
    the dual side takes the same swapped-row permanents as
    :func:`ptr_postselection_amplitude` on those rows, once per pair, with
    no second check.  The cap defaults to :func:`fock.auto_photon_cap` of
    the fullest row.  Amplitude pairs whose magnitudes both fall below
    ``ATOL`` count as residual zero; a NaN amplitude leaves a NaN residual.
    """
    if photon_cap is None:
        photon_cap = fock.auto_photon_cap(max(map(sum, occupations), default=0), circuit.total_gain)
    nonlinear = fock.postselection_amplitudes(circuit, occupations, pairs, photon_cap, leak_tol)
    setup = ptr.build_ptr(circuit)
    n_s = circuit.n_s_paths
    counts = np.asarray(occupations, dtype=np.int64).reshape(len(occupations), n_s + circuit.n_i_paths)
    comparisons = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    swapped = counts[comparisons]  # (P, 2, modes): each pair's input and output rows, checked above
    swapped[:, :, n_s:] = swapped[:, ::-1, n_s:]  # partial time reversal swaps the idler counts
    full, nc = setup.scattering.full, setup.nc
    # the Python complex product, as ptr_postselection_amplitude takes it: numpy's may differ in the last bit
    dual = np.array([nc * _counts_amplitude(full, *rows) for rows in swapped.tolist()], dtype=np.complex128)
    abs_residual = np.abs(nonlinear - dual)
    scale = np.maximum(np.abs(nonlinear), np.abs(dual))  # NaN next to a NaN amplitude, so the residual stays NaN
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_residual = np.where(scale < ATOL, 0.0, abs_residual / scale)
    arrays = (counts, comparisons, nonlinear, dual, abs_residual, rel_residual)
    return DualityReport(photon_cap, setup.nc, *map(fock._frozen, arrays))


def verify_duality(
    circuit: Circuit,
    photon_budget: int,
    photon_cap: int | None = None,
    sample_count: int | None = None,
    seed: int = 0,
    leak_tol: float | None = None,
) -> DualityReport:
    """Compare brute force against the dual picture over occupation pairs.

    All conservation-allowed (input, output) pairs with at most
    ``photon_budget`` photons on each side are enumerated in lexicographic
    order; ``sample_count`` (at least one) draws a seeded subsample without
    replacement (enumeration order is preserved).  The pairs go to
    :func:`compare_amplitudes`, one brute-force evolution per difference
    sector; ``photon_cap`` defaults as there and may not be below
    ``photon_budget``, or inputs would fall outside it.

    The dual side involves no truncation, so truncation damage on the brute
    side shows up directly in the residuals and the state-level leak guard is
    off by default; ``leak_tol`` fails fast on obviously undersized caps.
    """
    if photon_budget < 0:
        raise ValueError("photon budget must be nonnegative")
    if sample_count is not None and sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    if photon_cap is not None and photon_cap < photon_budget:
        raise ValueError(f"photon cap {photon_cap} is below the photon budget {photon_budget}")
    n_s = circuit.n_s_paths
    keys = fock.occupations_upto(n_s + circuit.n_i_paths, photon_budget)
    differences = [sum(key[:n_s]) - sum(key[n_s:]) for key in keys]
    pairs = [(a, b) for a, d_a in enumerate(differences) for b, d_b in enumerate(differences) if d_a == d_b]
    if sample_count is not None and sample_count < len(pairs):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(pairs), size=sample_count, replace=False))
        pairs = [pairs[int(k)] for k in chosen]
    return compare_amplitudes(circuit, keys, pairs, photon_cap, leak_tol)


def four_photon_awp_amplitude(setup: PtrSetup, s_pair: Sequence[int], i_pair: Sequence[int]) -> complex:
    """Leading-order four-photon coincidence amplitude in the advanced-wave picture.

    ``s_pair`` and ``i_pair`` name the two signal and two idler detection
    paths (repeats allowed); a pattern of any other length is refused.  From the pumped vacuum, the amplitude is the
    permanent of the relevant 2x2 slice of the signal-to-idler coupling
    block with bosonic bunching factors, a two-photon linear amplitude of
    that block; the normalization coefficient is deliberately omitted, so at
    low gain the ratio against brute force approaches one like the gain squared.
    """
    if len(s_pair) != 2 or len(i_pair) != 2:
        raise ValueError(f"a four-photon pattern has two signal and two idler paths, got {s_pair} and {i_pair}")
    coupling = setup.scattering.si
    s_counts, i_counts = _path_counts(s_pair, coupling.shape[0]), _path_counts(i_pair, coupling.shape[1])
    return _counts_amplitude(coupling, i_counts, s_counts)


def _path_counts(paths: Sequence[int], n_paths: int) -> list[int]:
    """Photons on each of ``n_paths`` paths; every entry of ``paths`` must be an integer in range."""
    bad = [path for path in paths if not (isinstance(path, (int, np.integer)) and 0 <= path < n_paths)]
    if bad:
        raise ValueError(f"detection path {bad[0]!r} is not an integer in 0..{n_paths - 1}")
    return [sum(path == j for path in paths) for j in range(n_paths)]
