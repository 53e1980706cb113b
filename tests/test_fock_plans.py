"""The shared sector spaces: reuse, read-only plans, limits and bounds."""

import numpy as np
import pytest

import oracles
from ptrsim import fock, linamp
from ptrsim.errors import DimensionOverflowError
from ptrsim.ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS
from test_fock_engine import haar


def two_source_circuit() -> Circuit:
    return Circuit(
        2, 1, (LinearS(haar(2, 21)), Pdc(0, 0, 0.45), LinearS(haar(2, 22)), PhaseI(0, 0.7), Pdc(1, 0, 0.35))
    )


def plan_arrays(space: fock.FockSpace) -> list[np.ndarray]:
    arrays = [space.counts, space.totals, space._codes]
    for plan in space._plans.values():
        arrays.extend([plan] if isinstance(plan, np.ndarray) else [idx for _, idx in plan])
    return arrays


def test_cold_and_warm_verification_are_bitwise_identical():
    circuit = two_source_circuit()
    fock.sector_space.cache_clear()
    cold = linamp.verify_duality(circuit, photon_budget=3, photon_cap=40)
    hits = fock.sector_space.cache_info().hits
    warm = linamp.verify_duality(circuit, photon_budget=3, photon_cap=40)
    assert fock.sector_space.cache_info().hits > hits
    assert (warm.photon_cap, warm.nc) == (cold.photon_cap, cold.nc)
    for name in ("occupations", "comparisons", "nonlinear", "dual", "abs_residual", "rel_residual"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
    assert cold.max_rel_residual < 1e-10
    # each sector of the report was evolved on its own space
    for delta in range(-3, 4):
        assert fock.sector_space(2, 1, 40, delta).delta == delta


def test_cached_space_and_plans_are_read_only():
    linamp.verify_duality(two_source_circuit(), photon_budget=2, photon_cap=30)
    space = fock.sector_space(2, 1, 30, 0)
    kinds = {key[0] for key in space._plans}
    assert kinds == {"pdc", "number", "occupation"}
    for array in plan_arrays(space):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_over_limit_requests_raise_before_anything_is_built(monkeypatch):
    # 4+4 paths at cap 40 hold 1.1e7 states in the delta = 0 sector alone
    assert fock._sector_dimension(4, 4, 40, 0) > fock.DIM_LIMIT
    linamp.verify_duality(two_source_circuit(), photon_budget=2, photon_cap=30)
    cached = fock.sector_space.cache_info().currsize
    kept = fock.sector_space(2, 1, 30, 0)

    def refuse_to_build(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(fock, "_sector_rows", refuse_to_build)
    circuit = Circuit(4, 4, (Pdc(0, 0, 0.3), Pdc(3, 3, 0.2)))
    vacuum = ((0,) * 4, (0,) * 4)
    for request in (
        lambda: fock.FockSpace(4, 4, 40, delta=0),
        lambda: fock.sector_space(4, 4, 40, 0),
        lambda: linamp.verify_duality(circuit, photon_budget=1, photon_cap=40),
        lambda: fock.nonlinear_postselection_amplitude(circuit, vacuum, vacuum, photon_cap=40),
    ):
        with pytest.raises(DimensionOverflowError, match=f"exceeds the limit of {fock.DIM_LIMIT}"):
            request()
    assert fock.sector_space.cache_info().currsize == cached
    assert fock.sector_space(2, 1, 30, 0) is kept


def test_direct_construction_stays_uncached():
    shared = fock.sector_space(2, 1, 6, 0)
    first, second = fock.enumerate_basis(2, 1, 6, delta=0), fock.enumerate_basis(2, 1, 6, delta=0)
    assert first is not second and shared is not first and shared is not second
    assert fock.FockSpace(2, 1, 6, delta=0) is not fock.FockSpace(2, 1, 6, delta=0)
    assert np.array_equal(first.counts, shared.counts)


def test_the_cache_is_bounded():
    maxsize = fock.sector_space.cache_info().maxsize
    assert maxsize == fock.SECTOR_CACHE_SIZE and 0 < maxsize <= 64
    for cap in range(maxsize + 4):
        fock.sector_space(1, 1, cap, 0)
    assert fock.sector_space.cache_info().currsize == maxsize


def test_sector_space_takes_its_key_positionally():
    # lru_cache keys a keyword call apart from a positional one, which would build a second copy
    with pytest.raises(TypeError, match="positional-only"):
        fock.sector_space(1, 1, 4, delta=0)


def test_phase_plates_between_haar_layers_match_the_dense_oracle():
    circuit = Circuit(
        2,
        2,
        (
            PhaseS(0, 0.3),
            LinearS(haar(2, 31)),
            PhaseI(1, -1.2),
            Pdc(0, 1, 0.7),
            LinearI(haar(2, 32)),
            PhaseS(1, 2.1),
            PhaseI(0, 0.4),
            Pdc(1, 0, 0.5),
            LinearS(haar(2, 33)),
            PhaseI(1, 0.9),
        ),
    )
    space = fock.sector_space(2, 2, 9, 1)  # 70 states
    expected = oracles.nonlinear_operator(circuit, space)
    block = np.eye(space.dimension, dtype=np.complex128)
    for _ in range(2):  # plans built, then reused
        got = fock.apply_circuit(circuit, space, block, leak_tol=None)
        assert np.max(np.abs(got - expected)) <= 1e-12
