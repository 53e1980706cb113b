"""Truncated Fock-space engine for multipath parametric circuits.

The basis holds the occupation vectors over all signal and idler paths whose
*total* photon number is at most a global cap, in lexicographic order; every
element conserves signal minus idler photon number, so it may be restricted
to one such sector, or to a union of them whose sectors never mix.  States
are located by an arithmetic rank of that order (the combinatorial number
system), so index maps are numpy work.

Every element acts block-diagonally on the truncated basis, and
:func:`apply_circuit` applies it block by block:

* a pair source on paths (s, i) moves photons along ladders of fixed n_s - n_i
  and fixed other paths, cut at the cap.  The ladder generator does not
  depend on the gain, so one cached eigendecomposition per (|n_s - n_i|,
  length) gives the exponential at every gain; it acts in factored form.
* a one-sided linear network conserves the photon number k on its side; one
  k-photon block, built photon by photon from the unitary, serves every other side.
* a diagonal network (a phase plate) multiplies each state by a phase.  A
  run of them, signal and idler alike, commutes, so it acts as one phase per
  state from its summed angles; the run ends at a pair source or at a network
  that mixes paths.  Each network's diagonal test and angles are taken once
  and cached on the element.

Blocks act by gather, matrix products and scatter.  Truncation is
validated, never assumed: callers get a measured norm defect and a hard
error once it crosses the configured leak tolerance.

Every brute-force amplitude, single or batched, comes from
:func:`postselection_amplitudes`, so the ranking format stays in this module.
The module takes count rows only, signal paths first, with index pairs into
them.  It evolves the sectors with equally many distinct inputs as one block
on the space of their union, column j holding each one's j-th input, and
builds every ladder decomposition and lifted block once per call, whatever
the number of blocks.  Which sectors evolve together, and which cells of
their blocks are seeded and read, depends on the paths, rows, pairs, cap
and ``DIM_LIMIT`` alone: :func:`_postselection_plan` keeps that layout,
keyed by those (the rows and pairs as the bytes of their checked int64
arrays), for the ``PLAN_CACHE_SIZE`` (8) most recent keys.  A plan holds
index arrays and sector keys only, no circuit data and no space, so each
circuit of one shape checked on the same pairs builds only its operators
and evolves.  It applies the one-sided networks outside the pair
sources, which keep each side's photon number, only on the photon numbers the
queried rows hold; where a side holds only diagonal ones there, they merely
rephase each queried row, so they become one phase per row and no sector
evolves them.  Its sector spaces are shared within a process.
:func:`sector_space` keeps the ``SECTOR_CACHE_SIZE`` (32) most recently used
spaces, keyed by (signal paths, idler paths, cap, delta or tuple of deltas),
which is all a space depends on; so circuits of one shape and cap reuse its
rows, ranks and the ladder, number-block, occupation and sector plans it
builds on first use, while :class:`FockSpace` and :func:`enumerate_basis`
build a new one per call.  Every array of a space, of its plans and of a
postselection plan is read-only: the next caller evolves on the same
object, so a write would change its results.  No space holds more than
``DIM_LIMIT`` states; the size is counted by formula before anything is
built.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionOverflowError, TruncationLeakError

#: largest basis, full or one sector, the package will materialise before
#: declaring the instance out of desk scale.
DIM_LIMIT = 4_000_000

#: default tolerance on the measured norm defect of evolved columns.
DEFAULT_LEAK_TOL = 1e-3


def _integer_error(values, what: str = "occupation counts") -> ValueError:
    """The error naming the first entry of ``values`` that is not an integer, or else not a 64-bit one."""
    values = list(values)
    bad = next((n for n in values if not isinstance(n, (int, np.integer))), None)
    if bad is None:  # numpy holds integers beyond 64 bits as objects
        bad = next(n for n in values if not -(2**63) <= n < 2**63)
        return ValueError(f"{what} must fit in 64 bits, got {bad!r}")
    return ValueError(f"{what} must be integers, got {bad!r}")


def _count_rows(rows, what: str = "occupation counts") -> np.ndarray:
    """``rows`` as an int64 array; an entry that is not an integer, or not a 64-bit one, raises ``ValueError``."""
    counts = np.asarray(rows)
    if counts.size and (counts.dtype.kind not in "biu" or counts.dtype.kind == "u" and counts.max() >= 2**63):
        # the caller's entries, not ``counts``: numpy upcasts whole entries next to a bad one
        raise _integer_error(np.ravel(np.asarray(rows, dtype=object)), what)
    return counts.astype(np.int64, copy=False)


def _compositions(n_modes: int, total: int) -> np.ndarray:
    """Rows of photon counts on ``n_modes >= 1`` modes summing to ``total``, lexicographic.

    A row is a choice of n_modes - 1 bar positions among total + n_modes - 1
    slots (stars and bars); ``itertools.combinations`` lists the choices in
    lexicographic order, which is the order of the rows.
    """
    slots, n_bars = total + n_modes - 1, n_modes - 1
    count = math.comb(slots, n_bars)
    flat = itertools.chain.from_iterable(itertools.combinations(range(slots), n_bars))
    bars = np.fromiter(flat, dtype=np.int64, count=count * n_bars).reshape(count, n_bars)
    edges = np.hstack((np.full((count, 1), -1), bars, np.full((count, 1), slots)))
    return np.diff(edges, axis=1) - 1


def occupations_upto(n_modes: int, budget: int) -> list[tuple[int, ...]]:
    """Occupation tuples on ``n_modes`` modes with total <= budget (lexicographic)."""
    slack = _compositions(n_modes + 1, budget)  # the last mode takes the unused budget
    return [tuple(row) for row in slack[:, :n_modes].tolist()]


def occupations_with_total(n_modes: int, total: int) -> list[tuple[int, ...]]:
    """Occupation tuples on ``n_modes`` modes with total == total (lexicographic)."""
    return [tuple(row) for row in _compositions(n_modes, total).tolist()]


@lru_cache(maxsize=256)
def _stars_and_bars(budget: int, n_modes: int) -> np.ndarray:
    """table[b, k] = C(b + k, k): the number of k-mode rows with total <= b."""
    table = np.ones((budget + 1, n_modes + 1), dtype=np.int64)
    for k in range(1, n_modes + 1):
        table[:, k] = np.cumsum(table[:, k - 1])
    table.flags.writeable = False  # cached and shared
    return table


def _lex_rank(counts: np.ndarray, cap: int) -> np.ndarray:
    """Position of each row among all rows of its width with total <= cap, lexicographically.

    The rows below ``c`` that first differ from it at mode j hold v < c_j
    there and any tail on the k modes after j within the budget b left
    before j, so they number sum_v C(b - v + k, k) = C(b + k + 1, k + 1) -
    C(b - c_j + k + 1, k + 1).  Rows must be nonnegative with total <= cap.
    """
    n_modes = counts.shape[1]
    table = _stars_and_bars(cap, n_modes)
    after = np.arange(n_modes, 0, -1)  # k + 1 for each mode
    budget = np.cumsum(counts, axis=1)  # updated in place: ranks are taken over many rows at once
    budget -= counts
    np.subtract(cap, budget, out=budget)
    rank = table[budget, after]
    budget -= counts
    rank -= table[budget, after]
    return rank.sum(axis=1)


@lru_cache(maxsize=1024)
def _sector_dimension(n_s: int, n_i: int, cap: int, delta: int | None) -> int:
    if delta is None:
        return math.comb(cap + n_s + n_i, n_s + n_i)
    return sum(
        math.comb(k_s + n_s - 1, n_s - 1) * math.comb(k_s - delta + n_i - 1, n_i - 1)
        for k_s in _signal_totals(cap, delta)
    )


def _signal_totals(cap: int, delta: int) -> range:
    """Signal photon numbers k_s of a sector: k_s - delta >= 0 idlers, 2 k_s - delta <= cap."""
    return range(max(0, delta), (cap + delta) // 2 + 1)


def _sector_rows(n_s: int, n_i: int, cap: int, delta: int) -> np.ndarray:
    """Occupation rows of one difference sector, in lexicographic order.

    Each signal row, taken in lexicographic order, is followed by every
    idler row of k_s - delta photons in lexicographic order, so the
    concatenated rows are lexicographic too.
    """
    k_s = _signal_totals(cap, delta)
    if not k_s:
        return np.zeros((0, n_s + n_i), dtype=np.int64)
    s_rows = _compositions(n_s + 1, k_s[-1])[:, :n_s]
    s_rows = s_rows[s_rows.sum(axis=1) >= k_s[0]]
    # idler rows grouped by total, lexicographic within each group
    i_rows = _compositions(n_i + 1, k_s[-1] - delta)[:, :n_i]
    i_totals = i_rows.sum(axis=1)
    i_rows = i_rows[np.argsort(i_totals, kind="stable")]
    first = np.searchsorted(np.sort(i_totals), np.arange(k_s[-1] - delta + 2))
    need = s_rows.sum(axis=1) - delta
    size = first[need + 1] - first[need]
    within = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    return np.hstack((np.repeat(s_rows, size, axis=0), i_rows[np.repeat(first[need], size) + within]))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only because it is cached or shared."""
    array.setflags(write=False)
    return array


class FockSpace:
    """Bijection between occupations under a global photon cap and indices.

    ``counts`` holds one row of photon counts per basis state, signal paths
    first, and :meth:`indices` maps such rows back to positions.

    Args:
        n_s_paths: number of signal paths.
        n_i_paths: number of idler paths.
        photon_cap: largest allowed total photon number (signal plus idler).
        delta: optional restriction to one conserved signal-minus-idler
            sector, or to the union of a tuple of them.

    Raises:
        DimensionOverflowError: the basis would exceed ``DIM_LIMIT`` states.
    """

    def __init__(
        self, n_s_paths: int, n_i_paths: int, photon_cap: int, delta: int | tuple[int, ...] | None = None
    ) -> None:
        if n_s_paths < 1 or n_i_paths < 1:
            raise ValueError("need at least one signal and one idler path")
        if photon_cap < 0:
            raise ValueError("photon cap must be nonnegative")
        if math.comb(photon_cap + n_s_paths + n_i_paths, n_s_paths + n_i_paths) >= 2**63:
            raise DimensionOverflowError("states of this cap and path count do not rank in 64 bits")
        deltas = None if delta is None else sorted(set(np.atleast_1d(delta).tolist()))
        if deltas is None:
            expected = _sector_dimension(n_s_paths, n_i_paths, photon_cap, None)
        else:
            expected = sum(_sector_dimension(n_s_paths, n_i_paths, photon_cap, d) for d in deltas)
        if expected > DIM_LIMIT:
            raise DimensionOverflowError(
                f"basis of {expected} states exceeds the limit of {DIM_LIMIT}; "
                "lower the cap or restrict to a difference sector"
            )
        self.n_s_paths = n_s_paths
        self.n_i_paths = n_i_paths
        self.photon_cap = photon_cap
        self.delta = delta
        self._deltas = deltas
        if deltas is None:
            n_modes = n_s_paths + n_i_paths
            counts = np.ascontiguousarray(_compositions(n_modes + 1, photon_cap)[:, :n_modes])
        else:
            counts = np.concatenate([_sector_rows(n_s_paths, n_i_paths, photon_cap, d) for d in deltas])
        codes = _lex_rank(counts, photon_cap)
        if deltas is not None:  # each sector's rows are lexicographic, so a stable sort merges them
            order = np.argsort(codes, kind="stable")
            counts, codes = counts[order], codes[order]
        # read-only like every plan below: a space may be shared, see sector_space
        self.counts = _frozen(counts)
        self.totals = _frozen(counts.sum(axis=1))
        self._codes = _frozen(codes)  # increasing: the rows are lexicographic
        self._plans: dict[tuple, object] = {}
        assert len(self.counts) == expected

    @property
    def dimension(self) -> int:
        return len(self.counts)

    def indices(self, counts) -> np.ndarray:
        """Basis index of every occupation row of ``counts`` (checked by :func:`_count_rows`); -1 outside the basis."""
        n_s = self.n_s_paths
        counts = _count_rows(counts).reshape(-1, n_s + self.n_i_paths)
        inside = (counts.min(axis=1) >= 0) & (counts.max(axis=1) <= self.photon_cap)  # no row sum wraps
        inside &= counts.sum(axis=1) <= self.photon_cap
        if self._deltas is not None:
            inside &= np.isin(counts[:, :n_s].sum(axis=1) - counts[:, n_s:].sum(axis=1), self._deltas)
        found = np.full(len(counts), -1, dtype=np.int64)
        rows = counts if inside.all() else counts[inside]
        found[inside] = np.searchsorted(self._codes, _lex_rank(rows, self.photon_cap))
        return found

    def _ranked_rows(self, codes: np.ndarray, picks: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Basis index of the rows ``picks`` of ``counts``, ranked ``codes`` at this cap; all must lie inside."""
        wanted = codes[picks]
        rows = np.searchsorted(self._codes, wanted)
        missing = np.flatnonzero(self._codes.take(rows, mode="clip") != wanted)
        if missing.size:
            raise ValueError(f"{tuple(counts[picks[missing[0]]].tolist())} is not in this truncated basis")
        return rows

    def _ladders(self, s_path: int, i_path: int) -> list[tuple[int, np.ndarray]]:
        """Pair-source ladders on (s_path, i_path) with at least two rungs.

        Returns (|n_s - n_i|, idx) per group of equally long ladders with the
        same difference; column g of the (rungs, ladders) array ``idx`` walks
        ladder g upwards from its foot, where n_s or n_i is zero.
        """
        key = ("pdc", s_path, i_path)
        if key in self._plans:
            return self._plans[key]
        a, b = s_path, self.n_s_paths + i_path
        feet = np.flatnonzero(np.minimum(self.counts[:, a], self.counts[:, b]) == 0)
        diff = np.abs(self.counts[feet, a] - self.counts[feet, b])
        rungs = (self.photon_cap - self.totals[feet]) // 2 + 1
        order = np.lexsort((rungs, diff))  # stable, so each group keeps its feet in row order
        order = order[rungs[order] > 1]
        feet, diff, rungs = feet[order], diff[order], rungs[order]
        # the groups of equal (difference, length), and their ladder states, each group's rung by rung, in
        # one array, so that one lookup ranks them all
        start = np.flatnonzero(np.diff(diff, prepend=-1) | np.diff(rungs, prepend=-1))
        size = np.diff(start, append=len(feet))
        length, end = rungs[start], np.cumsum(rungs[start] * size)
        group = np.repeat(np.arange(len(start)), length * size)
        rung, column = np.divmod(np.arange(len(group)) - (end - length * size)[group], size[group])
        states = self.counts[feet[start[group] + column]]
        states[:, a] += rung
        states[:, b] += rung
        found = self.indices(states)
        plan = self._plans[key] = [
            (d, _frozen(found[stop - n * count : stop].reshape(n, count)))
            for d, n, count, stop in zip(diff[start].tolist(), length.tolist(), size.tolist(), end.tolist())
        ]
        return plan

    def _number_blocks(self, lo: int, hi: int) -> list[tuple[int, np.ndarray]]:
        """Photon-number blocks of the modes ``lo:hi``.

        Returns (k, idx) for every k > 0 present: ``idx[p, q]`` is the state
        with the p-th k-photon pattern of :func:`_compositions` on those modes
        and the q-th configuration of the other modes.
        """
        key = ("number", lo, hi)
        if key in self._plans:
            return self._plans[key]
        n_modes = self.counts.shape[1]
        rest = np.r_[0:lo, hi:n_modes]
        photons = self.counts[:, lo:hi].sum(axis=1)
        plan = self._plans[key] = []
        for k in np.unique(photons[photons > 0]).tolist():
            patterns = _compositions(hi - lo, k)
            # every (pattern, other) pair is a state, so the states holding the
            # first pattern, all k photons in mode hi - 1, list each other once
            others = self.counts[(photons == k) & (self.counts[:, hi - 1] == k)][:, rest]
            states = np.empty((len(patterns), len(others), n_modes), dtype=np.int64)
            states[:, :, lo:hi] = patterns[:, None, :]
            states[:, :, rest] = others[None, :, :]
            plan.append((k, _frozen(self.indices(states).reshape(states.shape[:2]))))
        return plan

    def _occupations(self) -> np.ndarray:
        """Photon counts as a float array, one row per state."""
        key = ("occupation",)
        if key not in self._plans:
            self._plans[key] = _frozen(self.counts.astype(np.float64))
        return self._plans[key]

    def _sectors(self) -> np.ndarray:
        """A label per state: twice the position of its difference sector in the space plus
        one within two photons of the cap.  An unrestricted space counts as a single sector."""
        key = ("sector",)
        if key not in self._plans:
            labels = (self.totals > self.photon_cap - 2).astype(np.int16)
            if self._deltas is not None:
                n_s = self.n_s_paths
                delta = self.counts[:, :n_s].sum(axis=1) - self.counts[:, n_s:].sum(axis=1)
                labels += 2 * np.searchsorted(self._deltas, delta).astype(np.int16)
            self._plans[key] = _frozen(labels)
        return self._plans[key]


def enumerate_basis(
    n_s_paths: int, n_i_paths: int, photon_cap: int, delta: int | tuple[int, ...] | None = None
) -> FockSpace:
    """Build a new truncated basis on every call; see :class:`FockSpace`.

    Deliberately uncached, so the caller owns the result; the evolution
    entry points share read-only spaces through :func:`sector_space`.
    """
    return FockSpace(n_s_paths, n_i_paths, photon_cap, delta=delta)


#: sector spaces kept by :func:`sector_space`, least recently used dropped first.
SECTOR_CACHE_SIZE = 32


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def sector_space(n_s_paths: int, n_i_paths: int, photon_cap: int, delta: int | tuple[int, ...] | None, /) -> FockSpace:
    """Shared read-only :class:`FockSpace`, built once per (paths, cap, delta).

    ``delta`` is one difference sector or a tuple of them, whose union the
    space then holds in lexicographic order; :func:`postselection_amplitudes`
    asks for the increasing tuple of the sectors it evolves as one block.
    The space and the plans it accumulates are shared by every later caller
    with the same key, so none of its arrays may be written.  A request over
    the size limit raises before anything is built or cached.  The arguments
    are positional only: the cache would key a keyword call apart.
    """
    return FockSpace(n_s_paths, n_i_paths, photon_cap, delta=delta)


def auto_photon_cap(requested_photons: int, total_gain: float) -> int:
    """Default cap heuristic: requested photons plus a gain-dependent margin.

    Weight above the cap falls off roughly like tanh(gain)^margin for a
    single squeezer, so the margin targets a ~1e-8 tail at this gain.  This
    is a floor, not a guarantee: cascades can amplify intermediate states
    beyond what the summed gain suggests, so accuracy must be checked
    against the measured leak or a higher-cap rerun.
    """
    if total_gain <= 0:
        return max(12, requested_photons)
    decay = -math.log(math.tanh(total_gain)) if total_gain < 20.0 else 0.0
    margin = math.ceil(18.5 / max(decay, 0.35))
    return max(12, requested_photons + margin)


# ---------------------------------------------------------------------------
# element blocks
# ---------------------------------------------------------------------------


#: i^j for j mod 4: the diagonal that turns a ladder generator into a real symmetric one.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


#: ladder decompositions :func:`_ladder_modes` keeps across calls: criterion 05's portfolio
#: builds 324 distinct (difference, length) keys, and each dense ``eigh`` is O(length^3).
#: Within one call :class:`_Operators` holds every key the call uses, so a call that needs
#: more keys than this still decomposes each only once.
LADDER_CACHE_SIZE = 512


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _ladder_modes(diff: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of the ladder matrix S, read-only.

    S is real symmetric tridiagonal with S[j, j-1] = S[j-1, j] =
    sqrt(j (j + diff)): rung j of a ladder of ``length`` rungs, cut at the
    top, holds (diff + j, j) photons on the pair (either order).  numpy's
    dense ``eigh`` decomposes it, once per key and process.  A matrix of more
    than ``DIM_LIMIT`` entries raises :class:`DimensionOverflowError` before it is built.
    """
    if length * length > DIM_LIMIT:
        raise DimensionOverflowError(
            f"pair-source ladder of {length} rungs needs a {length}x{length} matrix, "
            f"over the limit of {DIM_LIMIT} entries; lower the cap"
        )
    rung = np.arange(1, length)
    off = np.sqrt(rung * (rung + diff))
    values, vectors = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    return _frozen(values), _frozen(vectors)


def _apply_ladders(block: np.ndarray, idx: np.ndarray, diff: int, r: float, operators: _Operators) -> None:
    """block[idx] <- exp[r(a+_s a+_i - a_s a_i)] block[idx] on every ladder (column) of ``idx``.

    On a ladder the generator J is real antisymmetric tridiagonal with
    J[j, j-1] = -J[j-1, j] = S[j, j-1]; with D = diag(i^j), D^-1 J D = -i S,
    so exp(rJ) = D Q exp(-i r Lambda) Q^T D^-1 for S = Q Lambda Q^T.  The real Q
    acts on the real and imaginary parts in one real matrix product.  The
    decomposition comes from ``operators``.
    """
    values, vectors = operators.ladder(diff, len(idx))
    turns = _QUARTER_TURNS[np.arange(len(idx)) % 4, None]
    rows = block[idx].reshape(len(idx), -1)  # a gathered copy, reused in place below
    rows *= turns.conj()
    modes = vectors.T @ rows.view(np.float64)
    phased = modes.view(np.complex128)
    phased *= np.exp(-1j * r * values)[:, None]
    np.matmul(vectors, modes, out=rows.view(np.float64))
    rows *= turns
    block[idx] = rows.reshape(idx.shape + block.shape[1:])


@lru_cache(maxsize=512)
def _photon_plan(n_modes: int, photons: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rank[p, i] of p - e_i among the (k-1)-photon patterns (a sentinel one
    past the last where p_i = 0) and root[p, i] = sqrt(p_i), over the k-photon patterns p."""
    patterns, fewer = _compositions(n_modes, photons), _compositions(n_modes, photons - 1)
    lowered = np.maximum(patterns[:, None, :] - np.eye(n_modes, dtype=np.int64), 0)  # p_i = 0 stays p
    rank = np.searchsorted(_lex_rank(fewer, photons), _lex_rank(lowered.reshape(-1, n_modes), photons))
    rank = np.where(patterns > 0, rank.reshape(patterns.shape), len(fewer))
    return _frozen(rank), _frozen(np.sqrt(patterns))


def _lifted_blocks(unitary: np.ndarray, top: int, blocks: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Blocks B_k[p, q] = <p| U |q> of the lifted ``unitary``, k = 0..top, patterns of :func:`_compositions`.

    U a+_j U^-1 = sum_i U_ij a+_i adds a photon on each side; averaged over the k photons of q,
    B_k[p, q] = (1/k) sum_ij sqrt(p_i q_j) U_ij B_{k-1}[p - e_i, q - e_j].  The average keeps
    the blocks unitary to roundoff at large k, where peeling a fixed photon of q loses digits.
    Given ``blocks``, the first of them for this unitary, that list is extended in place.
    """
    n_modes = len(unitary)
    blocks = [np.ones((1, 1), dtype=np.complex128)] if blocks is None else blocks
    for k in range(len(blocks), top + 1):
        rank, root = _photon_plan(n_modes, k)
        prev = np.zeros((len(blocks[-1]) + 1,) * 2, dtype=np.complex128)
        prev[:-1, :-1] = blocks[-1]  # the zero row and column are the sentinel
        # mixed[i, r, q] = sum_j U_ij sqrt(q_j) B_{k-1}[r, q - e_j], one matmul over j
        mixed = unitary @ (prev[:, rank] * root).reshape(-1, n_modes).T
        mixed = mixed.reshape(n_modes, len(prev), len(rank))
        blocks.append(sum(root[:, i, None] * mixed[i][rank[:, i]] for i in range(n_modes)) / k)
    return blocks


def _apply_block(block: np.ndarray, idx: np.ndarray, matrix: np.ndarray) -> None:
    """block[idx[p]] <- sum_p' matrix[p, p'] block[idx[p']] for every column of ``idx``."""
    rows = block[idx]
    block[idx] = (matrix @ rows.reshape(len(idx), -1)).reshape(rows.shape)


class _Operators:
    """The operators of one call, each built once however many blocks the call evolves.

    Ladder decompositions are held by (difference, length); they come from
    :func:`_ladder_modes`, whose cache carries them across calls but would evict
    them cyclically within a call that needs more keys than it holds.  The
    lifted blocks of each network are extended to the most photons any block
    asks of it.
    """

    def __init__(self) -> None:
        self._ladders: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._lifted: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}  # by id, the unitary kept alive

    def ladder(self, diff: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        if (diff, length) not in self._ladders:
            self._ladders[diff, length] = _ladder_modes(diff, length)
        return self._ladders[diff, length]

    def lifted(self, unitary: np.ndarray, top: int) -> list[np.ndarray]:
        held = self._lifted.get(id(unitary))
        blocks = _lifted_blocks(unitary, top, None if held is None else held[1])
        self._lifted[id(unitary)] = (unitary, blocks)
        return blocks


def _apply_unitary(
    space: FockSpace, lo: int, hi: int, matrix: np.ndarray, block: np.ndarray, operators: _Operators, top=math.inf
) -> None:
    """Lifted action of the unitary ``matrix`` on the modes ``lo:hi``; may skip rows of over ``top`` photons there."""
    plan = [(photons, idx) for photons, idx in space._number_blocks(lo, hi) if photons <= top]
    blocks = operators.lifted(matrix, plan[-1][0] if plan else 0)
    for photons, idx in plan:
        _apply_block(block, idx, blocks[photons])


def _weights(labels: np.ndarray, count: int, block: np.ndarray) -> np.ndarray:
    """The weight |block|^2 of every column of ``block`` on the states of each label 0..count - 1."""
    rows = (labels == np.arange(count, dtype=labels.dtype)[:, None]).astype(np.float64)
    parts = block.view(np.float64)  # real and imaginary parts side by side
    return (rows @ np.square(parts)).reshape(count, -1, 2).sum(axis=2)


def _phases(counts: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(i counts @ angles): the phase that diagonal networks of these ``angles`` give each count row."""
    return np.exp(1j * (counts @ angles))


def _side_modes(side: str, n_s: int, n_modes: int) -> tuple[int, int]:
    """(lo, hi): the modes of the signal (``"s"``) or idler side."""
    return (0, n_s) if side == "s" else (n_s, n_modes)


def _summed_angles(networks, n_s: int, n_modes: int) -> np.ndarray:
    """Angles over all modes of the product of the diagonal one-sided ``networks``, which commute."""
    angles = np.zeros(n_modes)
    for network in networks:
        lo, hi = _side_modes(network.side, n_s, n_modes)
        angles[lo:hi] += network.angles
    return angles


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def apply_circuit(
    circuit,
    space: FockSpace,
    block: np.ndarray,
    leak_tol: float | None = DEFAULT_LEAK_TOL,
    *,
    operators: _Operators | None = None,
) -> np.ndarray:
    """Apply the full nonlinear operator of ``circuit`` to a block of columns.

    Elements act in circuit order, each by its exact blocks (see the module
    docstring), so only the requested columns are ever formed.  A run of
    consecutive diagonal networks, signal and idler alike, acts as one phase
    per state from its summed angles: diagonal operators commute, so the run
    breaks only at a pair source or a network that mixes paths.  Operators
    come from ``operators``, which a caller evolving several blocks shares
    between them, or else from a new :class:`_Operators`.  The block is
    consumed: a writable C-ordered complex128 array is evolved in place and
    returned, anything else is first converted to a new one.  A caller that
    reads the block again passes a copy; :func:`postselection_amplitudes`
    builds each block for one call and saves the copy and its memory.

    Truncation is guarded two ways when ``leak_tol`` is set, on each
    difference sector of each column apart, since a column of a space of
    several sectors holds one state per sector that never mixes with the
    others: the norm defect (catches numerical breakdown; every block is
    unitary, so exact arithmetic preserves norms) and, for circuits
    containing pair production, the final weight within two photons of the
    cap (an unconvergence flag: a cap that clips the state leaves order-one
    weight there, a converged one leaves only the exponential tail).  A
    defect above ``leak_tol`` raises :class:`TruncationLeakError`.  The
    guard is a necessary condition, not an error bound; quoted accuracies
    come from higher-cap reruns.
    """
    from . import ptr  # local import: ptr depends on scatter only

    if circuit.n_s_paths != space.n_s_paths or circuit.n_i_paths != space.n_i_paths:
        raise ValueError("circuit and space disagree on path counts")
    block = np.require(block, np.complex128, ["C", "W"])  # evolved in place
    squeeze = block.ndim == 1
    if squeeze:
        block = block[:, None]
    operators = _Operators() if operators is None else operators
    if leak_tol is not None:
        labels = space._sectors()  # even: a sector's states below the band near the cap; odd: in it
        count = 2 * (1 if space._deltas is None else len(space._deltas))
        weights_in = _weights(labels, count, block)
    n_s, n_modes = space.n_s_paths, space.counts.shape[1]
    for diagonal, run in itertools.groupby(
        circuit.elements, key=lambda element: not isinstance(element, ptr.Pdc) and element.angles is not None
    ):
        if diagonal:
            block *= _phases(space._occupations(), _summed_angles(run, n_s, n_modes))[:, None]
            continue
        for element in run:
            if isinstance(element, ptr.Pdc):
                for diff, idx in space._ladders(element.s_path, element.i_path):
                    _apply_ladders(block, idx, diff, element.r, operators)
            else:
                _apply_unitary(space, *_side_modes(element.side, n_s, n_modes), element.matrix, block, operators)
    if leak_tol is not None:
        weights = _weights(labels, count, block)
        norms_in, norms_out = (np.sqrt(w[0::2] + w[1::2]) for w in (weights_in, weights))
        defect = float(np.max(np.abs(norms_out - norms_in) / np.maximum(norms_in, 1e-300), initial=0.0))
        if circuit.pdc_count:
            fractions = weights[1::2] / np.maximum(norms_out**2, 1e-300)
            defect = max(defect, float(np.max(fractions, initial=0.0)))
        if defect > leak_tol:
            raise TruncationLeakError(
                f"truncation leak estimate {defect:.3e} exceeds tolerance {leak_tol:.1e};"
                " raise the photon cap"
            )
    return block[:, 0] if squeeze else block


# ---------------------------------------------------------------------------
# closed-form single-device amplitudes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bs_amp(t: float, r: float, out_s: int, out_i: int, in_s: int, in_i: int) -> float:
    if in_i == 0:
        # seed: a two-output binomial expansion of the transmitted column
        return (
            math.sqrt(math.factorial(in_s) / (math.factorial(out_s) * math.factorial(out_i)))
            * t**out_s
            * (-r) ** out_i
        )
    total = 0.0
    if out_s > 0:
        total += math.sqrt(out_s / in_i) * r * _bs_amp(t, r, out_s - 1, out_i, in_s, in_i - 1)
    if out_i > 0:
        total += math.sqrt(out_i / in_i) * t * _bs_amp(t, r, out_s, out_i - 1, in_s, in_i - 1)
    return total


def bs_fock_amplitude(t: float, r: float, out_s: int, out_i: int, in_s: int, in_i: int) -> float:
    """<out_s, out_i| B |in_s, in_i> for the two-path beamsplitter.

    B maps a+_s -> t a+_s - r a+_i and a+_i -> r a+_s + t a+_i (reflection
    from signal to idler picks up the pi phase).  Evaluated by a recurrence
    that peels one idler input photon at a time, seeded by the binomial
    closed form of the idler-vacuum column; no matrix exponential involved.
    """
    for n in (out_s, out_i, in_s, in_i):
        if n < 0 or int(n) != n:
            raise ValueError("photon counts must be nonnegative integers")
    if out_s + out_i != in_s + in_i:
        return 0.0
    return _bs_amp(float(t), float(r), int(out_s), int(out_i), int(in_s), int(in_i))


def pdc_fock_amplitude(r: float, out_s: int, out_i: int, in_s: int, in_i: int) -> float:
    """<out_s, out_i| G |in_s, in_i> for one parametric pair source, gain r.

    Closed form: sech(r) times the beamsplitter amplitude with the idler
    input and output exchanged (the partial time reversal of the idler arm)
    and t = sech(r), reflectance tanh(r).  Zero unless the signal-minus-idler
    photon difference is conserved.
    """
    if out_s - out_i != in_s - in_i:
        return 0.0
    t = 1.0 / math.cosh(r)
    return t * bs_fock_amplitude(t, math.tanh(r), out_s, in_i, in_s, out_i)


def _side_layers(elements, n_s: int, rows: np.ndarray) -> list[tuple[int, int, np.ndarray, int]]:
    """(lo, hi, unitary, top) per side the one-sided ``elements`` act on: the product of that side's
    matrices in application order, and the most photons any count row of ``rows`` holds there."""
    layers = []
    for side, lo, hi in (("s", 0, n_s), ("i", n_s, rows.shape[1])):
        if matrices := [element.matrix for element in elements if element.side == side]:
            top = int(rows[:, lo:hi].sum(axis=1).max(initial=0))
            layers.append((lo, hi, reduce(lambda done, matrix: matrix @ done, matrices), top))
    return layers


def _width_groups(
    n_s: int, n_i: int, cap: int, deltas: list[int], widths: list[int], limit: int
) -> list[tuple[int, list[int]]]:
    """(width, positions in ``deltas``) per group: the sectors of each width, in increasing order, packed
    into groups of at most ``limit`` states.  A sector over the limit alone is a group of one, which
    raises once its space is asked for."""
    groups: list[tuple[int, list[int]]] = []
    for width, delta, position in sorted(zip(widths, deltas, range(len(deltas)))):
        dimension = _sector_dimension(n_s, n_i, cap, delta)
        if not groups or groups[-1][0] != width or states + dimension > limit:
            groups.append((width, []))
            states = 0
        groups[-1][1].append(position)
        states += dimension
    return groups


def _checked_pairs(occupations, pairs, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """``occupations`` as int64 count rows on ``n_modes`` modes and ``pairs`` as (P, 2) int64 indices into them.

    Counts that are not integers, or negative, and pair indices that are not
    integers or fall outside ``occupations`` raise ``ValueError``.
    """
    counts = _count_rows(occupations).reshape(len(occupations), n_modes)
    if counts.size and counts.min() < 0:
        raise ValueError("occupation counts must be nonnegative")
    pairs = _count_rows(pairs, "pair indices").reshape(len(pairs), 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= len(counts)):
        outside = ((pairs < 0) | (pairs >= len(counts))).any(axis=1)
        raise ValueError(f"pair {tuple(pairs[outside][0].tolist())} indexes outside the {len(counts)} occupations")
    return counts, pairs


class _Group(NamedTuple):
    """One evolution of a postselection plan: the sectors ``deltas`` evolved together on ``width`` columns."""

    width: int
    deltas: tuple[int, ...]  # the key of their :func:`sector_space`, never the space itself
    seeded: tuple[np.ndarray, np.ndarray]  # (row, column) of the cells that start at one
    read: tuple[np.ndarray, np.ndarray, np.ndarray]  # (pair, row, column): the cell each pair reads out


#: postselection plans kept by :func:`_postselection_plan`, least recently used dropped first.
PLAN_CACHE_SIZE = 8


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _postselection_plan(
    n_s: int, n_i: int, cap: int, limit: int, rows: bytes, index_pairs: bytes, /
) -> tuple[_Group, ...]:
    """The evolutions of a :func:`postselection_amplitudes` call on these checked int64 count ``rows`` and
    (P, 2) ``index_pairs``, as bytes, at this cap and size ``limit``; read-only.

    None of it depends on the circuit, so circuits of one shape queried on the same rows and pairs share
    it.  Rows above the cap raise ``ValueError``, and a sector over the limit raises once its space is
    asked for; an error is never cached, so it recurs on every call.
    """
    counts = np.frombuffer(rows, dtype=np.int64).reshape(-1, n_s + n_i)
    pairs = np.frombuffer(index_pairs, dtype=np.int64).reshape(-1, 2)
    if counts.size and (counts.max() > cap or counts.sum(axis=1).max() > cap):  # no sum wraps
        raise ValueError("photon cap below the requested occupations")
    codes = _lex_rank(counts, cap)
    differences = counts[:, :n_s].sum(axis=1) - counts[:, n_s:].sum(axis=1)
    members = np.flatnonzero(differences[pairs[:, 0]] == differences[pairs[:, 1]])
    ins, outs = pairs[members].T
    # the distinct inputs in lexicographic order (ranks increase with it), then each one's sector and column
    _, first, which = np.unique(codes[ins], return_index=True, return_inverse=True)
    deltas, sector, widths = np.unique(differences[ins[first]], return_inverse=True, return_counts=True)
    order = np.argsort(sector, kind="stable")  # sector by sector, lexicographic within each
    column = np.empty(len(first), dtype=np.int64)
    column[order] = np.arange(len(first)) - np.repeat(np.cumsum(widths) - widths, widths)
    groups = _width_groups(n_s, n_i, cap, deltas.tolist(), widths.tolist(), limit)
    label = np.empty(len(deltas), dtype=np.int64)
    for g, (_, positions) in enumerate(groups):
        label[positions] = g
    label = label[sector]  # the group of each distinct input
    plan = []
    for g, (width, positions) in enumerate(groups):
        key = tuple(deltas[positions].tolist())
        space = sector_space(n_s, n_i, cap, key)
        chosen = label == g
        seeded = space._ranked_rows(codes, ins[first[chosen]], counts), column[chosen]
        read = np.flatnonzero(chosen[which])
        cells = members[read], space._ranked_rows(codes, outs[read], counts), column[which[read]]
        plan.append(_Group(width, key, tuple(map(_frozen, seeded)), tuple(map(_frozen, cells))))
    return tuple(plan)


def postselection_amplitudes(circuit, occupations, pairs, photon_cap: int, leak_tol: float | None) -> np.ndarray:
    """<occupations[b]| U |occupations[a]> for every index pair (a, b) of ``pairs``, by brute force.

    ``occupations`` holds count rows, signal paths first; each row is ranked
    once.  A pair whose photon differences disagree reads exactly zero.
    Every other pair is read from an evolved block.  A sector's width is the
    number of distinct inputs its pairs hold; the sectors of one width
    evolve together in one :func:`apply_circuit` call on the
    :func:`sector_space` of their union, whose column j starts on every
    such sector's j-th input in lexicographic order.  Sectors never mix, so
    no column is padded and no state is evolved twice; a width whose union
    would pass ``DIM_LIMIT`` is split over several calls.  That layout
    depends on the rows, pairs, cap and limit alone, never on the circuit:
    :func:`_postselection_plan` keeps it for the ``PLAN_CACHE_SIZE`` (8)
    most recent keys.  All calls share one :class:`_Operators`, so each
    ladder decomposition and lifted block is built at most once per call of
    this function.  Each evolution runs the circuit from its first pair
    source to its last; the one-sided networks around them, merged per
    side, act only on the photon numbers the queried rows hold.  A side
    whose networks there are all diagonal only rephases a row: its angles,
    summed, give each pair the phase exp(i counts . angles) of its input row
    (before the first source) or output row (after the last), computed once
    per call.  Counts that are not integers, or negative, or above the cap,
    and pair indices that are not integers or fall outside ``occupations``
    raise ``ValueError`` on every call.
    """
    from . import ptr  # local import: ptr depends on scatter only
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    counts, pairs = _checked_pairs(occupations, pairs, n_s + n_i)
    groups = _postselection_plan(n_s, n_i, photon_cap, DIM_LIMIT, counts.tobytes(), pairs.tobytes())
    elements, n_modes = circuit.elements, counts.shape[1]
    sources = [j for j, element in enumerate(elements) if isinstance(element, ptr.Pdc)] or [len(elements)]
    core = ptr.Circuit(n_s, n_i, elements[sources[0] : sources[-1] + 1])
    # the networks before the first source act on the input rows, those after the last on the outputs
    outer, rephased = [], []
    for networks, rows in ((elements[: sources[0]], pairs[:, 0]), (elements[sources[-1] + 1 :], pairs[:, 1])):
        mixing = {element.side for element in networks if element.angles is None}  # sides not merely rephased
        angles = _summed_angles([element for element in networks if element.side not in mixing], n_s, n_modes)
        if angles.any():  # a side of diagonal networks only rephases each queried row
            rephased.append(_phases(counts, angles)[rows])
        outer.append(_side_layers([element for element in networks if element.side in mixing], n_s, counts[rows]))
    head, tail = outer
    operators = _Operators()
    amplitudes = np.zeros(len(pairs), dtype=np.complex128)
    for group in groups:
        space = sector_space(n_s, n_i, photon_cap, group.deltas)
        block = np.zeros((space.dimension, group.width), dtype=np.complex128)
        block[group.seeded] = 1.0
        for lo, hi, unitary, top in head:
            _apply_unitary(space, lo, hi, unitary, block, operators, top)
        evolved = apply_circuit(core, space, block, leak_tol=leak_tol, operators=operators)
        for lo, hi, unitary, top in tail:
            _apply_unitary(space, lo, hi, unitary, evolved, operators, top)
        target, row, column = group.read
        amplitudes[target] = evolved[row, column]
    for phases in rephased:
        amplitudes *= phases
    return amplitudes
