"""Basis enumeration, indexing, and shape bookkeeping."""

import math

import numpy as np
import pytest

from ptrsim import fock
from ptrsim.errors import DimensionOverflowError


@pytest.mark.parametrize("n_modes,total", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 2)])
def test_occupations_with_total_matches_stars_and_bars(n_modes, total):
    found = fock.occupations_with_total(n_modes, total)
    assert len(found) == math.comb(total + n_modes - 1, n_modes - 1)
    assert all(sum(occ) == total and len(occ) == n_modes for occ in found)
    assert len(set(found)) == len(found)
    assert found == sorted(found)  # lexicographic order


def test_occupations_upto_is_union_of_exact_totals():
    upto = set(fock.occupations_upto(2, 3))
    exact = set()
    for total in range(4):
        exact.update(fock.occupations_with_total(2, total))
    assert upto == exact


@pytest.mark.parametrize("n_s,n_i,cap", [(1, 1, 6), (2, 1, 5), (2, 2, 4)])
def test_full_space_dimension_is_binomial(n_s, n_i, cap):
    space = fock.FockSpace(n_s, n_i, cap)
    n_modes = n_s + n_i
    assert space.dimension == math.comb(cap + n_modes, n_modes)


@pytest.mark.parametrize("n_s,n_i,cap", [(1, 1, 6), (2, 2, 5), (3, 2, 4)])
def test_delta_sectors_partition_the_full_space(n_s, n_i, cap):
    full = fock.FockSpace(n_s, n_i, cap)
    sector_total = 0
    seen = set()
    for delta in range(-cap, cap + 1):
        sector = fock.FockSpace(n_s, n_i, cap, delta=delta)
        sector_total += sector.dimension
        for row in sector.counts.tolist():
            assert sum(row[:n_s]) - sum(row[n_s:]) == delta
            assert sum(row) <= cap
            seen.add(tuple(row))
    assert sector_total == full.dimension
    assert seen == set(map(tuple, full.counts.tolist()))


@pytest.mark.parametrize("deltas", [(-1, 1), (-2, 0, 3)])
def test_a_union_of_sectors_holds_their_rows_in_lexicographic_order(deltas):
    union = fock.FockSpace(2, 2, 6, delta=deltas)
    rows = np.concatenate([fock.FockSpace(2, 2, 6, delta=delta).counts for delta in deltas])
    assert union.dimension == len(rows)
    assert union.counts.tolist() == sorted(rows.tolist())
    assert union.indices(union.counts).tolist() == list(range(union.dimension))
    assert np.all(union.indices(fock.FockSpace(2, 2, 6, delta=2).counts) == -1)  # a sector not in the union


def test_index_round_trips_and_contains():
    space = fock.FockSpace(2, 1, 4, delta=1)
    assert space.indices(space.counts).tolist() == list(range(space.dimension))
    for i, row in enumerate(space.counts.tolist()):
        assert space.indices([row]).tolist() == [i]
    assert space.indices([(0, 0, 1), (3, 0, 2)]).tolist() == [-1, -1]  # delta = -1, and above the cap


HUGE = "occupation counts must fit in 64 bits, got 1180591620717411303424"


def test_indices_name_a_count_beyond_64_bits():
    """The int64 cast alone would end in OverflowError: Python int too large to convert to C long."""
    space = fock.FockSpace(1, 1, 4)
    with pytest.raises(ValueError, match=HUGE):
        space.indices([(1, 1), (2**70, 0)])


def test_indices_refuse_counts_that_are_not_integers():
    """The int64 cast alone would read the row (1.9, 0.2) as (1, 0), index 5."""
    space = fock.FockSpace(1, 1, 4)
    with pytest.raises(ValueError, match="occupation counts must be integers, got 1.9"):
        space.indices([[1.9, 0.2]])
    with pytest.raises(ValueError, match="occupation counts must be integers, got 0.5"):
        space.indices([[1, 1], [0.5, 0]])  # the entry itself, not the 1.0 numpy upcasts first
    assert space.indices(np.array([[1, 0]], dtype=np.uint8)).tolist() == [space.counts.tolist().index([1, 0])]


def test_indices_refuse_unsigned_counts_beyond_int64():
    """numpy holds 2^63 as uint64, whose int64 cast wraps to -2^63."""
    with pytest.raises(ValueError, match="occupation counts must fit in 64 bits, got 9223372036854775808"):
        fock.FockSpace(1, 1, 4).indices([(2**63, 0)])


def test_indices_do_not_wrap_row_sums():
    """2^62 + 2^62 wraps to a negative int64 total, which passed as below the cap."""
    space = fock.FockSpace(1, 1, 4)
    assert space.indices([(2**62, 2**62), (1, 1)]).tolist() == [-1, space.counts.tolist().index([1, 1])]


def test_counts_and_totals_arrays_agree_with_states():
    space = fock.FockSpace(2, 2, 3)
    assert space.counts.shape == (space.dimension, 4)
    assert list(map(tuple, space.counts.tolist())) == fock.occupations_upto(4, 3)  # lexicographic
    assert space.totals.tolist() == space.counts.sum(axis=1).tolist()


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        fock.FockSpace(1, 1, -1)


def test_dim_limit_overflow_raises():
    # 3+3 paths at cap 60 hold 9.1e7 states; the limit is counted, not built
    assert math.comb(66, 6) > fock.DIM_LIMIT
    with pytest.raises(DimensionOverflowError, match=f"exceeds the limit of {fock.DIM_LIMIT}"):
        fock.FockSpace(3, 3, 60)


def test_ranked_rows_refuse_an_occupation_outside_the_sector():
    counts = np.array([[1, 0, 1], [1, 0, 0]])
    codes = fock._lex_rank(counts, 6)
    space = fock.sector_space(2, 1, 6, 0)
    assert space._ranked_rows(codes, np.array([0]), counts).tolist() == space.indices([(1, 0, 1)]).tolist()
    with pytest.raises(ValueError, match=r"\(1, 0, 0\) is not in this truncated basis"):
        space._ranked_rows(codes, np.array([0, 1]), counts)


def test_auto_photon_cap_monotone_and_floored():
    assert fock.auto_photon_cap(0, 0.0) == 12
    caps = [fock.auto_photon_cap(4, g) for g in (0.1, 0.3, 0.6, 1.0, 2.0)]
    assert caps == sorted(caps)
    assert all(cap >= 12 for cap in caps)
    assert fock.auto_photon_cap(40, 0.0) == 40
