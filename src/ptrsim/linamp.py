"""Multiphoton amplitudes of linear networks and the duality verifier.

Postselected Fock amplitudes of a linear network are permanents of the
network's submatrix over the occupied modes, rows and columns repeated by
their counts.  Ryser's formula is summed over the repeats of one side by
multiplicity (Chin & Huh 2018), so only the other side is repeated.  Two
kernels evaluate it.  The single-pair kernel (:func:`_counts_amplitude`)
serves :func:`ptr_postselection_amplitude` and
:func:`four_photon_awp_amplitude`, on plain count tuples once
:func:`_occupation_counts` has checked them; those callers ask for one
amplitude at a time, where its small fixed cost wins.  Its core
:func:`_ryser` also serves :func:`permanent`.  The batched kernel
:func:`dual_amplitudes` evaluates every index pair of a set of count rows
in one numpy pass (a call of only a few pairs goes pair by pair through the
single-pair kernel).  Its layout of pairs, terms and passes does not depend
on the matrix: :func:`_dual_plan` keeps it, keyed by the paths, the pass
size and the bytes of the checked int64 rows and pairs, for the
``DUAL_PLAN_CACHE_SIZE`` (8) most recent keys.  It holds per-pair arrays
and pass edges, no circuit data and no Ryser weight, so every pass still
forms its digits and reads its weights from ``_SIGNED_BINOMIALS``.  Only :func:`ptr_postselection_amplitude` takes the
(signal counts, idler counts) pair form, which the dual arm's idler swap
needs; everything else takes count rows.  :func:`compare_amplitudes` pits
the batched amplitudes, scaled by the normalization coefficient of the
dual setup, against brute-force truncated Fock-space amplitudes of the
nonlinear circuit from :func:`ptrsim.fock.postselection_amplitudes`; both
the budget sweep :func:`verify_duality` and the single-pair ``ptrsim amp``
go through it.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import fock, ptr
from .errors import DimensionOverflowError
from .ptr import Circuit, PtrSetup

MAX_PERMANENT_SIZE = 20
#: Ryser terms evaluated per matmul; grids this small are also cached.
RYSER_CHUNK = 1 << 10
#: row-sum products per pass of :func:`dual_amplitudes`, which takes DUAL_CHUNK // modes^2 (pair, term)
#: entries at a time, at least one: 8 MiB of products whatever the number of modes
DUAL_CHUNK = 1 << 19
#: calls of fewer pairs take the single-pair kernel pair by pair: on budget-4 pairs the batched pass costs 60-75 us
#: at one pair against 14 us, 105 against 101 at 16 and 107 against 120 at 20 (2-vCPU x86-64 VM, one BLAS thread)
_BATCH_MIN_PAIRS = 16
_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_PERMANENT_SIZE + 1))
#: m + 1 at [0, m] and m! at [1, m]: the Ryser terms and the norm that m photons in one mode contribute.
_COUNT_TABLE = np.array([[m + 1 for m in range(MAX_PERMANENT_SIZE + 1)], _FACTORIALS], dtype=float)
#: (-1)^(m - k) C(m, k) at [m, k]: the Ryser weight of taking k of the m repeats of a summed column.
_SIGNED_BINOMIALS = np.array(
    [[(-1) ** (m - k) * math.comb(m, k) for k in range(MAX_PERMANENT_SIZE + 1)] for m in range(MAX_PERMANENT_SIZE + 1)],
    dtype=float,
)
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
    (-1)^(n - |k|) prod_j C(m_j, k_j), n = sum m_j, read from ``_SIGNED_BINOMIALS``.
    """
    mult = np.array(multiplicities)
    radices = mult + 1
    strides = np.cumprod(np.concatenate(([1], radices[:-1])))
    digits = (np.arange(start, stop)[None, :] // strides[:, None]) % radices[:, None]
    weights = _SIGNED_BINOMIALS[mult[:, None], digits].prod(axis=0)
    grid, weights = digits.astype(np.complex128), weights.astype(np.complex128)
    grid.setflags(write=False)  # one-chunk grids are cached and shared
    weights.setflags(write=False)
    return grid, weights


_cached_ryser_grid = lru_cache(maxsize=128)(_ryser_grid)


def _ryser(sub: np.ndarray, multiplicities: tuple[int, ...], terms: int) -> complex:
    """Permanent of ``sub`` with column j repeated multiplicities[j] times; its rows come repeated already.

    Ryser's formula summed by multiplicity: a subset takes k = 0..m copies of a column repeated m times, in
    C(m, k) ways (Chin & Huh 2018).  Its ``terms`` = prod(m + 1) terms are taken ``RYSER_CHUNK`` at a time.
    """
    grid_of = _cached_ryser_grid if terms <= RYSER_CHUNK else _ryser_grid
    total = 0.0 + 0.0j
    for start in range(0, terms, RYSER_CHUNK):
        grid, weights = grid_of(multiplicities, start, min(start + RYSER_CHUNK, terms))
        total += np.multiply.reduce(sub.dot(grid), axis=0).dot(weights)
    return complex(total)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix by Ryser's formula.

    Runs of equal adjacent columns, or of equal adjacent rows where they
    need fewer terms (perm A = perm A^T), are summed by multiplicity
    (:func:`_ryser`).  Sizes above ``MAX_PERMANENT_SIZE`` are refused.
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
    if _terms(row_mult) < _terms(col_mult):
        matrix, col_starts, col_mult = matrix.T, row_starts, row_mult
    return _ryser(matrix[:, col_starts], col_mult, _terms(col_mult))


class _RowPlan(NamedTuple):
    """What the single-pair kernel reads of one count row; shared, but writable: ``take`` copies a read-only index."""

    modes: np.ndarray  # the occupied modes
    multiplicities: tuple[int, ...]  # their counts
    repeated: np.ndarray  # each occupied mode as often as it is occupied
    terms: int  # prod(m + 1): the Ryser terms of summing over this row
    norm: int  # prod(m!): the row's part of the Fock normalisation


@lru_cache(maxsize=1 << 12)  # every row of a 4+4-path column of 6 photons (1,716) fits, with the rows it pairs with
def _row_plan(counts: tuple[int, ...]) -> _RowPlan:
    """The plan of one checked count row; cached, since the rows of a column recur across its amplitudes."""
    multiplicities = tuple(filter(None, counts))
    modes = np.array([j for j, n in enumerate(counts) if n], dtype=np.intp)
    terms, norm = math.prod([m + 1 for m in multiplicities]), math.prod([_FACTORIALS[m] for m in multiplicities])
    return _RowPlan(modes, multiplicities, np.repeat(modes, multiplicities), terms, norm)


def _counts_amplitude(matrix: np.ndarray, in_counts: tuple[int, ...], out_counts: tuple[int, ...]) -> complex:
    """<out_counts| L |in_counts>, the single-pair kernel: Ryser's sum over the input side's multiplicities, the
    output rows repeated, or over the output side's only if it has strictly fewer prod(m + 1) terms."""
    photons = sum(in_counts)
    if photons != sum(out_counts):
        return 0.0 + 0.0j
    if photons > MAX_PERMANENT_SIZE:
        raise DimensionOverflowError(f"permanent of size {photons} exceeds {MAX_PERMANENT_SIZE}")
    if photons == 0:
        return 1.0 + 0.0j
    cols, rows = _row_plan(in_counts), _row_plan(out_counts)
    if rows.terms < cols.terms:  # the permanent of the transpose, its columns the output modes
        sub, summed = matrix.take(cols.repeated, 1).take(rows.modes, 0).T, rows
    else:
        sub, summed = matrix.take(rows.repeated, 0).take(cols.modes, 1), cols
    return _ryser(sub, summed.multiplicities, summed.terms) / math.sqrt(cols.norm * rows.norm)


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


def ptr_postselection_amplitude(setup: PtrSetup, input_occ, output_occ) -> complex:
    """Dual-picture prediction of <output| U |input> for the nonlinear circuit.

    The idler occupations swap roles between input and output (partial time
    reversal), the linear amplitude of the dual setup is taken there, and
    the normalization coefficient scales the result.  Fock states have real
    coefficients, so no conjugation appears.  Photon differences that
    disagree leave the swapped rows with different totals, which read zero.

    This is the single-pair kernel: one amplitude per call, as callers that
    walk the outputs of a column one at a time ask for them.  A one-pair
    :func:`dual_amplitudes` call agrees with it to roundoff but costs several
    times more (65 against 9 us, 2-vCPU x86-64 VM, numpy 2.4, one BLAS thread).
    """
    n_s, n_i = setup.scattering.n_s, setup.scattering.n_i
    s_in, i_in = _occupation_counts(input_occ, n_s, n_i)
    s_out, i_out = _occupation_counts(output_occ, n_s, n_i)
    return setup.nc * _counts_amplitude(setup.scattering.full, s_in + i_out, s_out + i_in)


def _swapped_rows(counts: np.ndarray, pairs: np.ndarray, n_s: int) -> np.ndarray:
    """(P, 2, modes): each pair's input and output rows, their idler counts swapped (partial time reversal)."""
    swapped = counts[pairs]
    swapped[:, :, n_s:] = swapped[:, ::-1, n_s:]
    return swapped


class _DualPlan(NamedTuple):
    """The layout of a batched :func:`dual_amplitudes` call, which depends on its rows and pairs alone; read-only."""

    order: np.ndarray  # the pairs, those summed over their input side first
    bounds: np.ndarray  # pair j (in ``order``) holds entries bounds[j] .. bounds[j + 1] - 1
    per_pair: np.ndarray  # (strides, grid, powers) x mode x pair: the summed side's radices, digits' range, powers
    norms: np.ndarray  # sqrt(prod m!) over both swapped rows of each pair
    passes: tuple[tuple[int, int, int, int, int, bool], ...]  # (lo, hi, first, last, split, carry) per pass


#: batched layouts kept by :func:`_dual_plan`, least recently used dropped first.
DUAL_PLAN_CACHE_SIZE = 8


@lru_cache(maxsize=DUAL_PLAN_CACHE_SIZE)
def _dual_plan(n_s: int, n_modes: int, step: int, rows: bytes, index_pairs: bytes, /) -> _DualPlan:
    """The layout of every (pair, term) entry of a batched call on these checked int64 count ``rows`` and
    (P, 2) ``index_pairs``, as bytes, in passes of ``step`` entries.

    It holds per-pair arrays and pass edges only: each pass forms its own digits and reads its weights from
    ``_SIGNED_BINOMIALS``.  A pair of more than ``MAX_PERMANENT_SIZE`` photons raises
    :class:`DimensionOverflowError`; an error is never cached, so it recurs on every call.
    """
    counts = np.frombuffer(rows, dtype=np.int64).reshape(-1, n_modes)
    swapped = _swapped_rows(counts, np.frombuffer(index_pairs, dtype=np.int64).reshape(-1, 2), n_s)
    photons = swapped.sum(axis=2)
    valid = photons[:, 0] == photons[:, 1]
    if photons.max(initial=0) > MAX_PERMANENT_SIZE and (oversized := photons[valid, 0] > MAX_PERMANENT_SIZE).any():
        size = photons[valid, 0][oversized][0]
        raise DimensionOverflowError(f"permanent of size {size} exceeds {MAX_PERMANENT_SIZE}")
    if not valid.all():
        swapped[~valid] = 0  # no term is formed for these; zeroed, their counts index the tables safely
    # arrays run over modes first from here, so a sum over modes is a few whole-array steps
    per_side = _COUNT_TABLE[:, swapped.transpose(2, 0, 1)].prod(axis=1)  # (term count or norm, pair, side)
    (in_terms, out_terms), (in_norm, out_norm) = per_side.transpose(0, 2, 1)
    flip = out_terms < in_terms
    order = np.argsort(flip, kind="stable")  # pairs summed over their input side first
    n_in = len(order) - np.count_nonzero(flip)
    swapped = swapped[order].transpose(1, 2, 0)  # (side, mode, pair)
    swapped[:, :, n_in:] = swapped[::-1, :, n_in:]  # each pair as [summed side, power side]
    bounds = np.zeros(len(order) + 1, dtype=np.int64)
    (np.minimum(in_terms, out_terms) * valid)[order].cumsum(dtype=np.int64, out=bounds[1:])
    radices = swapped[0] + 1
    per_pair = np.concatenate(((radices.cumprod(axis=0) // radices)[None], swapped))  # strides, grid, powers
    edges, passes = bounds.tolist(), []
    for lo in range(0, edges[-1], step):
        hi = min(lo + step, edges[-1])
        first, last = bisect.bisect_right(edges, lo) - 1, bisect.bisect_left(edges, hi)  # pairs first..last-1
        # entries before ``split`` sum their input side; the first pair began in an earlier pass if ``carry``
        passes.append((lo, hi, first, last, min(max(edges[n_in] - lo, 0), hi - lo), edges[first] < lo))
    norms = np.sqrt((in_norm * out_norm)[order])
    return _DualPlan(*map(fock._frozen, (order, bounds, per_pair, norms)), tuple(passes))


def dual_amplitudes(setup: PtrSetup, counts: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """:func:`ptr_postselection_amplitude` of every index pair (a, b) of ``pairs``, in one numpy pass.

    ``counts`` holds count rows, signal paths first, and ``pairs`` a (P, 2)
    array of row indices; pair (a, b) takes row a in and row b out, with
    their idler counts swapped.  Both are checked as
    :func:`fock.postselection_amplitudes` checks them, on every call:
    counts that are not integers, or negative, and pair indices that are not
    integers or fall outside ``counts`` raise ``ValueError``.  Each pair sums
    Ryser's formula over the side :func:`_counts_amplitude` would pick: the
    output side only if it has strictly fewer prod(m + 1) terms.  All
    (pair, term) entries are laid out flat, pairs summed over their input
    side first, and evaluated in passes of ``DUAL_CHUNK // modes^2`` entries
    (at least one), so a large call holds a bounded amount at a time.  That
    layout does not depend on the matrix: :func:`_dual_plan` keeps it for
    the ``DUAL_PLAN_CACHE_SIZE`` (8) most recent (rows, pairs, pass size)
    keys.  An entry's digits k pick its signed binomial weights from a
    table, on every call; its row sums are k times the
    transposed dual matrix (input side summed) or the matrix (output side);
    its term is the product over all modes of the row sums raised to the
    other side's counts.  ``bincount`` adds the terms of each pair in entry
    order, a pass carrying on the partial sum of a pair the last pass cut,
    and the row sums are taken in mode order rather than by a matmul, whose
    rounding of a row can depend on the rows next to it: the result does not
    depend on ``DUAL_CHUNK``.  The sums are divided by the factorial norm
    and scaled by ``nc``.  Pairs whose dual totals differ read exactly zero;
    a pair of more than ``MAX_PERMANENT_SIZE`` photons raises
    :class:`DimensionOverflowError` before any term is formed.

    The pass makes a few dozen numpy calls whatever the number of pairs, so
    a single pair costs several times what the single-pair kernel takes
    (about 65 against 9 us).  A call of fewer than ``_BATCH_MIN_PAIRS``
    pairs (``ptrsim amp`` asks for one) therefore takes that kernel pair by
    pair, with the same results as :func:`ptr_postselection_amplitude`;
    callers that ask for one amplitude at a time call that entry directly.
    """
    full, n_s = setup.scattering.full, setup.scattering.n_s
    counts, pairs = fock._checked_pairs(counts, pairs, n_s + setup.scattering.n_i)  # a negative count would wrap
    if len(pairs) < _BATCH_MIN_PAIRS:
        swapped = _swapped_rows(counts, pairs, n_s).tolist()
        # the Python complex product, as ptr_postselection_amplitude takes it: numpy's may differ in the last bit
        amplitudes = [setup.nc * _counts_amplitude(full, tuple(a), tuple(b)) for a, b in swapped]
        return np.array(amplitudes, dtype=np.complex128)
    step = max(1, DUAL_CHUNK // full.size)
    plan = _dual_plan(n_s, len(full), step, counts.tobytes(), pairs.tobytes())
    bounds = plan.bounds
    sums = np.zeros(len(plan.order), dtype=np.complex128)
    for lo, hi, first, last, split, carry in plan.passes:
        cut = np.minimum(np.maximum(bounds[first : last + 1], lo), hi)
        pair = np.repeat(np.arange(first, last), cut[1:] - cut[:-1])
        strides, grid, powers = plan.per_pair[:, :, pair]
        digits = (np.arange(lo, hi) - bounds[pair]) // strides % (grid + 1)
        # a digit on mode m weighs row m of the transposed matrix (input side summed) or of the matrix
        # (output side), summed in mode order whatever the chunk: a matmul may round an entry by its neighbours
        row_sums = np.empty(digits.shape, dtype=np.complex128)
        for start, stop, matrix in ((0, split, full.T), (split, hi - lo, full)):
            if start < stop:
                row_sums[:, start:stop] = (digits[:, None, start:stop] * matrix[:, :, None]).sum(axis=0)
        # a product over the modes of each entry, taken row by row: across rows numpy may associate it otherwise
        terms = np.multiply.reduce(np.ascontiguousarray((row_sums**powers).T), axis=1)
        values = terms * _SIGNED_BINOMIALS[grid, digits].prod(axis=0)
        label = pair - first
        if carry:  # the first pair began in an earlier pass: carry its partial sum on
            label, values = np.concatenate(([0], label)), np.concatenate((sums[first : first + 1], values))
        sums.real[first:last] = np.bincount(label, values.real, last - first)
        sums.imag[first:last] = np.bincount(label, values.imag, last - first)
    amplitudes = np.empty(len(plan.order), dtype=np.complex128)
    amplitudes[plan.order] = sums / plan.norms * setup.nc
    return amplitudes


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
    the dual side from one :func:`dual_amplitudes` call.  The cap defaults
    to :func:`fock.auto_photon_cap` of the fullest row.  Amplitude pairs whose magnitudes both fall below
    ``ATOL`` count as residual zero; a NaN amplitude leaves a NaN residual.
    """
    if photon_cap is None:
        photon_cap = fock.auto_photon_cap(int(max(map(sum, occupations), default=0)), circuit.total_gain)
    nonlinear = fock.postselection_amplitudes(circuit, occupations, pairs, photon_cap, leak_tol)
    setup = ptr.build_ptr(circuit)
    counts = np.asarray(occupations, dtype=np.int64).reshape(len(occupations), circuit.n_s_paths + circuit.n_i_paths)
    comparisons = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    dual = dual_amplitudes(setup, counts, comparisons)
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
    keys, pairs = _budget_pairs(circuit.n_s_paths, circuit.n_i_paths, photon_budget)
    if sample_count is not None and sample_count < len(pairs):
        rng = np.random.default_rng(seed)
        pairs = pairs[np.sort(rng.choice(len(pairs), size=sample_count, replace=False))]
    return compare_amplitudes(circuit, keys, pairs, photon_cap, leak_tol)


@lru_cache(maxsize=8)
def _budget_pairs(n_s: int, n_i: int, photon_budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Count rows of at most ``photon_budget`` photons, lexicographic, and every (a, b) index pair of
    rows with equal photon differences, in row-major order.  Read-only and cached: a sweep verifies
    many circuits of one shape at one budget."""
    keys = fock._compositions(n_s + n_i + 1, photon_budget)[:, : n_s + n_i]  # the last mode takes the unused budget
    differences = keys[:, :n_s].sum(axis=1) - keys[:, n_s:].sum(axis=1)
    return fock._frozen(keys), fock._frozen(np.argwhere(differences[:, None] == differences[None, :]))


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


def _path_counts(paths: Sequence[int], n_paths: int) -> tuple[int, ...]:
    """Photons on each of ``n_paths`` paths; every entry of ``paths`` must be an integer in range."""
    bad = [path for path in paths if not (isinstance(path, (int, np.integer)) and 0 <= path < n_paths)]
    if bad:
        raise ValueError(f"detection path {bad[0]!r} is not an integer in 0..{n_paths - 1}")
    return tuple(sum(path == j for path in paths) for j in range(n_paths))
