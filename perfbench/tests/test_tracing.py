import numpy as np
import pytest

import tracing
from ptrsim import gaussian, harness, ptr


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("outer")  # t = 0
    clock.now = 1.0
    tracer.enter("middle")
    clock.now = 2.0
    tracer.enter("inner")
    clock.now = 5.0
    tracer.exit()  # inner: 3 s
    clock.now = 6.0
    tracer.exit()  # middle: 5 s, 2 s self
    tracer.enter("middle")
    clock.now = 8.0
    tracer.exit()  # middle again: 2 s
    clock.now = 10.0
    tracer.exit()  # outer: 10 s, minus 5 + 2
    stats = tracer.stats
    assert stats["inner"].self_s == pytest.approx(3.0)
    assert stats["middle"].self_s == pytest.approx(4.0)
    assert stats["middle"].calls == 2
    assert stats["outer"].self_s == pytest.approx(3.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_span_counts_errors_and_reraises():
    tracer = tracing.Tracer(FakeClock())
    with pytest.raises(KeyError):
        with tracer.span("layer"):
            raise KeyError("x")
    assert tracer.stats["layer"].errors == 1
    assert tracer.stats["layer"].calls == 1


def test_ryser_and_multiset_terms():
    assert tracing.ryser_terms(0) == 1
    assert tracing.ryser_terms(12) == 4096
    # four copies of one column: 5 terms instead of 16
    column = np.array([[0.3], [0.1 + 0.2j], [0.5], [0.7]])
    assert tracing.multiset_terms(np.repeat(column, 4, axis=1)) == 5
    # columns with multiplicities (2, 1, 3): 3 * 2 * 4
    rng = np.random.default_rng(0)
    distinct = rng.normal(size=(6, 3))
    assert tracing.multiset_terms(np.repeat(distinct, [2, 1, 3], axis=1)) == 24
    # all distinct: every subset is needed
    assert tracing.multiset_terms(rng.normal(size=(5, 5))) == 32


def test_install_wraps_every_binding_and_restores():
    circuit = harness.random_circuit(3, 2, 2, 2, 0.5)
    original = ptr.build_ptr
    assert gaussian.build_ptr is original  # imported by name
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert ptr.build_ptr is not original and gaussian.build_ptr is not original
        z = np.zeros((3, 2))
        gaussian.q_duality_residual(circuit, z[0], z[0], z, z)
    finally:
        handle.remove()
    assert ptr.build_ptr is original and gaussian.build_ptr is original
    values = tracing.layer_values(tracer.stats)
    assert values["gaussian.q_duality.calls"] == 1
    assert values["gaussian.q_duality.points"] == 3
    assert values["ptr.build.calls"] == 1
    assert values["ptr.transfer.calls"] == 1
    assert values["scatter.star.calls"] >= 2
    assert values["fock.evolve.calls"] == 0
    assert handle.unmeasured == []


def test_missing_entry_point_is_unmeasured_not_fatal():
    layers = tracing.LAYERS + (tracing.Layer("fock.gone", "ptrsim.fock", "enumerate_nothing"),)
    handle = tracing.install(tracing.Tracer(), layers)
    handle.remove()
    assert handle.unmeasured == ["fock.gone"]


def test_basis_construction_is_counted_through_the_class():
    from ptrsim import fock

    init = fock.FockSpace.__init__
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        space = fock.enumerate_basis(2, 1, 6, delta=0)
    finally:
        handle.remove()
    assert fock.FockSpace.__init__ is init
    values = tracing.layer_values(tracer.stats)
    assert values["fock.basis.calls"] == 1
    assert values["fock.basis.states"] == space.dimension


def test_counter_failure_loses_the_count_not_the_call():
    def broken(stats, args, kwargs, result):
        raise IndexError("argument moved")

    circuit = harness.random_circuit(4, 1, 1, 1, 0.5)
    tracer = tracing.Tracer()
    handle = tracing.install(tracer, (tracing.Layer("ptr.build", "ptrsim.ptr", "build_ptr", broken),))
    try:
        setup = ptr.build_ptr(circuit)
    finally:
        handle.remove()
    assert abs(setup.nc) > 0
    assert tracer.stats["ptr.build"].calls == 1
    assert tracer.stats["ptr.build"].uncounted == 1
