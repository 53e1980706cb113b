"""Truncated Fock-space engine for multipath parametric circuits.

The basis holds the occupation vectors over all signal and idler paths whose
*total* photon number is at most a global cap, in lexicographic order; every
element conserves signal minus idler photon number, so it may be restricted
to one such sector.  States are located by an arithmetic rank of that order
(the combinatorial number system), so index maps are numpy work.

Every element acts block-diagonally on the truncated basis, and
:func:`apply_circuit` applies it block by block:

* a pair source on paths (s, i) moves photons along ladders of fixed n_s - n_i
  and fixed other paths; each distinct (|n_s - n_i|, length, gain) ladder is
  one small dense ``expm`` of its tridiagonal generator, cut at the cap.
* a one-sided linear network conserves the photon number k on its side; one
  k-photon block (exp of its lifted Hermitian log) serves every other side.
* phase plates and diagonal networks multiply each state by a phase.

Blocks act by gather, one matrix product and scatter.  Truncation is
validated, never assumed: callers get a measured norm defect and a hard
error once it crosses the configured leak tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, schur

from .errors import DimensionOverflowError, TruncationLeakError

#: largest basis the package will materialise before declaring the instance
#: out of desk scale.
DEFAULT_DIM_LIMIT = 4_000_000

#: largest basis for which a dense operator matrix is built.
DENSE_OPERATOR_LIMIT = 3_000

#: default tolerance on the measured norm defect of evolved columns.
DEFAULT_LEAK_TOL = 1e-3


@dataclass(frozen=True)
class OccupationVector:
    """Photon counts on every signal path and every idler path."""

    s_counts: tuple[int, ...]
    i_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for counts in (self.s_counts, self.i_counts):
            if counts and min(counts) < 0:
                raise ValueError(f"occupation counts must be nonnegative, got {counts}")

    @property
    def total_s(self) -> int:
        return sum(self.s_counts)

    @property
    def total_i(self) -> int:
        return sum(self.i_counts)

    @property
    def total(self) -> int:
        return self.total_s + self.total_i

    @property
    def difference(self) -> int:
        """Conserved signal-minus-idler photon number."""
        return self.total_s - self.total_i

    def key(self) -> tuple[int, ...]:
        """Concatenated counts, signal paths first."""
        return self.s_counts + self.i_counts


def as_occupation(value, n_s_paths: int, n_i_paths: int) -> OccupationVector:
    """Coerce ``value`` (OccupationVector or pair of sequences) and check path counts."""
    if isinstance(value, OccupationVector):
        occ = value
    else:
        s_counts, i_counts = value
        occ = OccupationVector(tuple(int(n) for n in s_counts), tuple(int(n) for n in i_counts))
    if len(occ.s_counts) != n_s_paths or len(occ.i_counts) != n_i_paths:
        raise ValueError(
            f"occupation has {len(occ.s_counts)}+{len(occ.i_counts)} paths, "
            f"expected {n_s_paths}+{n_i_paths}"
        )
    return occ


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


def _exact_compositions(n_modes: int, total: int) -> Iterator[tuple[int, ...]]:
    if n_modes == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _exact_compositions(n_modes - 1, total - head):
            yield (head,) + tail


def occupations_with_total(n_modes: int, total: int) -> list[tuple[int, ...]]:
    """Occupation tuples on ``n_modes`` modes with total == total (lexicographic)."""
    return list(_exact_compositions(n_modes, total))


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
    budget = cap - np.cumsum(counts, axis=1) + counts
    after = np.arange(n_modes, 0, -1)  # k + 1 for each mode
    return (table[budget, after] - table[budget - counts, after]).sum(axis=1)


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


class FockSpace:
    """Bijection between occupation vectors under a global photon cap and indices.

    Args:
        n_s_paths: number of signal paths.
        n_i_paths: number of idler paths.
        photon_cap: largest allowed total photon number (signal plus idler).
        delta: optional restriction to one conserved signal-minus-idler sector.
        dim_limit: hard bound on the basis size.

    Raises:
        DimensionOverflowError: the basis would exceed ``dim_limit``.
    """

    def __init__(
        self,
        n_s_paths: int,
        n_i_paths: int,
        photon_cap: int,
        delta: int | None = None,
        dim_limit: int = DEFAULT_DIM_LIMIT,
    ) -> None:
        if n_s_paths < 1 or n_i_paths < 1:
            raise ValueError("need at least one signal and one idler path")
        if photon_cap < 0:
            raise ValueError("photon cap must be nonnegative")
        n_modes = n_s_paths + n_i_paths
        if math.comb(photon_cap + n_modes, n_modes) >= 2**63:
            raise DimensionOverflowError("states of this cap and path count do not rank in 64 bits")
        expected = _sector_dimension(n_s_paths, n_i_paths, photon_cap, delta)
        if expected > dim_limit:
            raise DimensionOverflowError(
                f"basis of {expected} states exceeds the limit of {dim_limit}; "
                "lower the cap, restrict to a difference sector, or raise dim_limit"
            )
        self.n_s_paths = n_s_paths
        self.n_i_paths = n_i_paths
        self.photon_cap = photon_cap
        self.delta = delta
        if delta is None:
            self.counts = np.ascontiguousarray(_compositions(n_modes + 1, photon_cap)[:, :n_modes])
        else:
            self.counts = _sector_rows(n_s_paths, n_i_paths, photon_cap, delta)
        self.totals = self.counts.sum(axis=1)
        self._codes = _lex_rank(self.counts, photon_cap)  # increasing: the rows are lexicographic
        self._plans: dict[tuple, list] = {}
        assert len(self.counts) == expected

    @property
    def dimension(self) -> int:
        return len(self.counts)

    @cached_property
    def states(self) -> tuple[OccupationVector, ...]:
        n_s = self.n_s_paths
        return tuple(OccupationVector(tuple(row[:n_s]), tuple(row[n_s:])) for row in self.counts.tolist())

    def indices(self, counts) -> np.ndarray:
        """Basis index of every occupation row of ``counts``; -1 for rows outside the basis."""
        n_s = self.n_s_paths
        counts = np.asarray(counts, dtype=np.int64).reshape(-1, n_s + self.n_i_paths)
        inside = (counts.min(axis=1) >= 0) & (counts.sum(axis=1) <= self.photon_cap)
        if self.delta is not None:
            inside &= counts[:, :n_s].sum(axis=1) - counts[:, n_s:].sum(axis=1) == self.delta
        found = np.full(len(counts), -1, dtype=np.int64)
        found[inside] = np.searchsorted(self._codes, _lex_rank(counts[inside], self.photon_cap))
        return found

    def __contains__(self, occ) -> bool:
        return self.indices(as_occupation(occ, self.n_s_paths, self.n_i_paths).key())[0] >= 0

    def index(self, occ) -> int:
        occ = as_occupation(occ, self.n_s_paths, self.n_i_paths)
        j = int(self.indices(occ.key())[0])
        if j < 0:
            raise ValueError(f"{occ} is not in this truncated basis")
        return j

    def basis_vector(self, occ) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.complex128)
        vec[self.index(occ)] = 1.0
        return vec

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
        step = np.zeros(self.counts.shape[1], dtype=np.int64)
        step[[a, b]] = 1
        plan = self._plans[key] = []
        for d, length in sorted(set(zip(diff.tolist(), rungs.tolist()))):
            if length > 1:
                group = self.counts[feet[(diff == d) & (rungs == length)]]
                ladder = group + np.arange(length)[:, None, None] * step
                plan.append((d, self.indices(ladder).reshape(length, len(group))))
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
            plan.append((k, self.indices(states).reshape(states.shape[:2])))
        return plan


def enumerate_basis(
    n_s_paths: int,
    n_i_paths: int,
    photon_cap: int,
    delta: int | None = None,
    dim_limit: int = DEFAULT_DIM_LIMIT,
) -> FockSpace:
    """Build the truncated basis; see :class:`FockSpace`."""
    return FockSpace(n_s_paths, n_i_paths, photon_cap, delta=delta, dim_limit=dim_limit)


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


def _ladder_exp(diff: int, length: int, r: float) -> np.ndarray:
    """exp[r(a+_s a+_i - a_s a_i)] on one ladder of ``length`` rungs, cut at the top.

    Rung j holds (diff + j, j) photons on the pair (either order), so the
    step up from rung j - 1 has matrix element sqrt(j (j + diff)).
    """
    rung = np.arange(1, length)
    up = r * np.sqrt(rung * (rung + diff))
    return expm(np.diag(up, -1) - np.diag(up, 1))


def _hermitian_log(unitary: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = ``unitary``, from its Schur form.

    A unitary is normal, so its complex Schur form is diagonal and the
    Schur vectors are eigenvectors.
    """
    diagonal, vectors = schur(unitary, output="complex")
    return (vectors * np.angle(np.diagonal(diagonal))) @ vectors.conj().T


def _lifted_exp(generator: np.ndarray, photons: int) -> np.ndarray:
    """k-photon block of exp(i sum_jl H_jl a+_j a_l), patterns as in :func:`_compositions`."""
    n_modes = len(generator)
    patterns = _compositions(n_modes, photons)
    eye = np.eye(n_modes, dtype=np.int64)
    # a+_j a_l takes pattern p to p + e_j - e_l, for j != l and p_l > 0
    p, j, l = np.nonzero((patterns[:, None, :] > 0) & (eye == 0))
    hopped = patterns[p] + eye[j] - eye[l]
    dst = np.searchsorted(_lex_rank(patterns, photons), _lex_rank(hopped, photons))
    lifted = np.diag((patterns @ np.diagonal(generator)).astype(np.complex128))
    lifted[dst, p] = generator[j, l] * np.sqrt(patterns[p, l] * (patterns[p, j] + 1.0))
    values, vectors = np.linalg.eigh(lifted)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def _apply_block(block: np.ndarray, idx: np.ndarray, matrix: np.ndarray) -> None:
    """block[idx[p]] <- sum_p' matrix[p, p'] block[idx[p']] for every column of ``idx``."""
    rows = block[idx]
    block[idx] = (matrix @ rows.reshape(len(idx), -1)).reshape(rows.shape)


def _apply_unitary(space: FockSpace, lo: int, hi: int, matrix: np.ndarray, block: np.ndarray) -> None:
    """Lifted action of the unitary ``matrix`` on the modes ``lo:hi``."""
    if not np.any(matrix[~np.eye(len(matrix), dtype=bool)]):  # diagonal: a phase per state
        block *= np.exp(1j * (space.counts[:, lo:hi] @ np.angle(np.diagonal(matrix))))[:, None]
        return
    generator = _hermitian_log(matrix)
    for photons, idx in space._number_blocks(lo, hi):
        _apply_block(block, idx, _lifted_exp(generator, photons))


def _apply_element(space: FockSpace, element, block: np.ndarray) -> None:
    from . import ptr  # local import: ptr depends on scatter only

    n_s, n_modes = space.n_s_paths, space.n_s_paths + space.n_i_paths
    if isinstance(element, ptr.Pdc):
        for diff, idx in space._ladders(element.s_path, element.i_path):
            _apply_block(block, idx, _ladder_exp(diff, len(idx), element.r))
        return
    lo, hi = (0, n_s) if isinstance(element, (ptr.LinearS, ptr.PhaseS)) else (n_s, n_modes)
    if isinstance(element, (ptr.PhaseS, ptr.PhaseI)):
        _apply_unitary(space, lo, hi, ptr.phase_matrix(element.path, element.phase, hi - lo), block)
    else:
        _apply_unitary(space, lo, hi, element.matrix, block)


def _columns(block) -> tuple[np.ndarray, bool]:
    """Private complex copy of ``block`` as a 2-D array, and whether it was 1-D."""
    block = np.array(block, dtype=np.complex128)
    return (block[:, None], True) if block.ndim == 1 else (block, False)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def apply_circuit(
    circuit,
    space: FockSpace,
    block: np.ndarray,
    leak_tol: float | None = DEFAULT_LEAK_TOL,
) -> np.ndarray:
    """Apply the full nonlinear operator of ``circuit`` to a block of columns.

    Elements act in circuit order, each by its exact blocks (see the module
    docstring), so only the requested columns are ever formed.

    Truncation is guarded two ways when ``leak_tol`` is set: the column
    norm defect (catches numerical breakdown; every block is unitary, so
    exact arithmetic preserves norms) and, for circuits containing pair
    production, the final weight within two photons of the cap (an
    unconvergence flag: a cap that clips the state leaves order-one weight
    there, a converged one leaves only the exponential tail).  A defect
    above ``leak_tol`` raises :class:`TruncationLeakError`.  The guard is a
    necessary condition, not an error bound; quoted accuracies come from
    higher-cap reruns.
    """
    from . import ptr  # local import: ptr depends on scatter only

    if circuit.n_s_paths != space.n_s_paths or circuit.n_i_paths != space.n_i_paths:
        raise ValueError("circuit and space disagree on path counts")
    block, squeeze = _columns(block)
    norms_in = np.linalg.norm(block, axis=0)
    for element in circuit.elements:
        _apply_element(space, element, block)
    if leak_tol is not None:
        norms_out = np.linalg.norm(block, axis=0)
        defect = float(np.max(np.abs(norms_out - norms_in) / np.maximum(norms_in, 1e-300)))
        if any(isinstance(element, ptr.Pdc) for element in circuit.elements):
            band = space.totals > space.photon_cap - 2
            if np.any(band):
                band_weight = np.sum(np.abs(block[band, :]) ** 2, axis=0)
                fractions = band_weight / np.maximum(norms_out**2, 1e-300)
                defect = max(defect, float(np.max(fractions)))
        if defect > leak_tol:
            raise TruncationLeakError(
                f"truncation leak estimate {defect:.3e} exceeds tolerance {leak_tol:.1e};"
                " raise the photon cap"
            )
    return block[:, 0] if squeeze else block


def apply_linear(matrix: np.ndarray, space: FockSpace, block: np.ndarray) -> np.ndarray:
    """Action of a photon-number-conserving network on a block of columns.

    ``matrix`` scatters creation operators over the concatenated
    (signal, idler) path index and may mix the two sides, so the space must
    be unrestricted; the operator fixes the vacuum, so no truncation leak occurs.
    """
    n_modes = space.n_s_paths + space.n_i_paths
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n_modes, n_modes):
        raise ValueError(f"network matrix must be {n_modes}x{n_modes}")
    if space.delta is not None:
        raise ValueError("a network on all paths needs an unrestricted space")
    block, squeeze = _columns(block)
    _apply_unitary(space, 0, n_modes, matrix, block)
    return block[:, 0] if squeeze else block


def linear_operator(matrix: np.ndarray, space: FockSpace) -> np.ndarray:
    """Dense Fock-space operator of :func:`apply_linear`, for small spaces."""
    dim = space.dimension
    if dim > DENSE_OPERATOR_LIMIT:
        raise DimensionOverflowError(f"dense operator on {dim} states refused; use apply_linear instead")
    return apply_linear(matrix, space, np.eye(dim, dtype=np.complex128))


# ---------------------------------------------------------------------------
# states and observables
# ---------------------------------------------------------------------------


def _product_rows(s_rows: Sequence, i_rows: Sequence) -> np.ndarray:
    """Every concatenation s + i as a (len(s_rows), len(i_rows), modes) count array."""
    s_rows = np.asarray(s_rows, dtype=np.int64).reshape(len(s_rows), 1, -1)
    i_rows = np.asarray(i_rows, dtype=np.int64).reshape(1, len(i_rows), -1)
    s_part = np.repeat(s_rows, i_rows.shape[1], axis=1)
    return np.concatenate((s_part, np.repeat(i_rows, s_rows.shape[0], axis=0)), axis=2)


def product_state_vector(
    space: FockSpace,
    s_amplitudes: Mapping[tuple[int, ...], complex],
    i_amplitudes: Mapping[tuple[int, ...], complex],
    normalize: bool = True,
) -> np.ndarray:
    """Embed a product of a signal-side and an idler-side state.

    Components whose total photon number exceeds the cap are dropped, so the
    inputs should live far below it; ``normalize`` restores unit norm.
    """
    vec = np.zeros(space.dimension, dtype=np.complex128)
    idx = space.indices(_product_rows(list(s_amplitudes), list(i_amplitudes))).ravel()
    amps = np.outer(list(s_amplitudes.values()), list(i_amplitudes.values())).ravel()
    inside = idx >= 0
    np.add.at(vec, idx[inside], amps[inside])
    if normalize:
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("product state has no support inside the cap")
        vec /= norm
    return vec


def joint_observable(
    space: FockSpace,
    obs_s: np.ndarray,
    s_basis: Sequence[tuple[int, ...]],
    obs_i: np.ndarray,
    i_basis: Sequence[tuple[int, ...]],
) -> sp.csr_matrix:
    """Embed O_s (x) O_i into the truncated joint basis.

    The observables are given as matrices over explicit occupation lists for
    each side; everything outside those lists is treated as zero, i.e. the
    embedded operator includes the projection onto the listed sectors.
    """
    obs_s = np.asarray(obs_s, dtype=np.complex128)
    obs_i = np.asarray(obs_i, dtype=np.complex128)
    if obs_s.shape != (len(s_basis), len(s_basis)) or obs_i.shape != (len(i_basis), len(i_basis)):
        raise ValueError("observable shape does not match its occupation list")
    idx = space.indices(_product_rows(s_basis, i_basis)).reshape(len(s_basis), len(i_basis))
    values = np.einsum("ac,bd->abcd", obs_s, obs_i)  # <a_s|O_s|b_s> <a_i|O_i|b_i>
    rows, cols = np.broadcast_arrays(idx[:, :, None, None], idx[None, None, :, :])
    keep = (values != 0) & (rows >= 0) & (cols >= 0)
    dim = space.dimension
    return sp.csr_matrix((values[keep], (rows[keep], cols[keep])), shape=(dim, dim))


def annihilation_matrix(space: FockSpace, side: str, path: int) -> sp.csr_matrix:
    """Sparse annihilation operator for one path of the truncated basis.

    Lowering leaves any difference sector, so this is only available on
    unrestricted spaces.
    """
    if space.delta is not None:
        raise ValueError("annihilation is not closed on a difference sector")
    if side not in ("s", "i"):
        raise ValueError("side must be 's' or 'i'")
    limit = space.n_s_paths if side == "s" else space.n_i_paths
    if not 0 <= path < limit:
        raise ValueError(f"path {path} out of range")
    col = path if side == "s" else space.n_s_paths + path
    src = np.flatnonzero(space.counts[:, col] > 0)
    lowered = space.counts[src].copy()
    lowered[:, col] -= 1
    vals = np.sqrt(space.counts[src, col]).astype(np.complex128)
    dim = space.dimension
    return sp.csr_matrix((vals, (space.indices(lowered), src)), shape=(dim, dim))


def observable_expectation(
    circuit,
    space: FockSpace,
    state: np.ndarray,
    operator: sp.spmatrix | np.ndarray,
    leak_tol: float | None = DEFAULT_LEAK_TOL,
) -> complex:
    """<state| U+ (operator) U |state> with U the nonlinear circuit operator."""
    evolved = apply_circuit(circuit, space, state, leak_tol=leak_tol)
    return complex(np.vdot(evolved, operator @ evolved))


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


def nonlinear_postselection_amplitude(
    circuit,
    input_occ,
    output_occ,
    photon_cap: int | None = None,
    leak_tol: float | None = DEFAULT_LEAK_TOL,
    dim_limit: int = DEFAULT_DIM_LIMIT,
) -> complex:
    """<output| U |input> by brute-force evolution in the truncated basis.

    Returns exactly zero when the conserved photon difference of input and
    output disagree.  The cap defaults to :func:`auto_photon_cap`; accuracy
    improves geometrically as the cap is raised above the occupations.
    """
    input_occ = as_occupation(input_occ, circuit.n_s_paths, circuit.n_i_paths)
    output_occ = as_occupation(output_occ, circuit.n_s_paths, circuit.n_i_paths)
    if input_occ.difference != output_occ.difference:
        return 0.0 + 0.0j
    if photon_cap is None:
        photon_cap = auto_photon_cap(max(input_occ.total, output_occ.total), circuit.total_gain)
    if photon_cap < max(input_occ.total, output_occ.total):
        raise ValueError("photon cap below the requested occupations")
    space = enumerate_basis(
        circuit.n_s_paths,
        circuit.n_i_paths,
        photon_cap,
        delta=input_occ.difference,
        dim_limit=dim_limit,
    )
    column = apply_circuit(circuit, space, space.basis_vector(input_occ), leak_tol=leak_tol)
    return complex(column[space.index(output_occ)])
