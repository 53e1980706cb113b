"""Spans around ptrsim's public entry points, recorded from outside the library.

A :class:`Tracer` keeps a stack of open spans.  Each span's self time is its
duration minus the durations of its direct children, so nested layers
(``linamp.verify`` -> ``fock.evolve``, ``ptr.build`` -> ``scatter.star``)
are never counted twice.  :func:`install` swaps each entry point named in
:data:`LAYERS` for a timing wrapper in every ``ptrsim`` module that binds
it (``gaussian`` and ``cli`` import ``build_ptr`` by name, for example) and
returns a handle that puts the originals back.  A name that no longer
exists is reported as an unmeasured layer rather than raising, so the
benchmark keeps running when a later version renames or deletes it.

Work done by the benchmark itself while a span is open (counting permanent
terms, say) runs in a ``bench`` child span, so it lands in ``bench.self_s``
and not in the layer that called it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BENCH = "bench"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    uncounted: int = 0  # calls whose arguments the counter could not read
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


class Tracer:
    """In-memory span stack with per-layer self time, calls and errors."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [layer, start, time covered by children]

    def layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, error: bool = False) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        stats = self.layer(name)
        stats.calls += 1
        stats.self_s += duration - children
        stats.errors += int(error)
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.tracer.enter(self.name)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.exit(error=exc_type is not None)
        return False


# ---------------------------------------------------------------------------
# counters computed from each call's arguments and result
# ---------------------------------------------------------------------------


def ryser_terms(n: int) -> int:
    """Subsets Ryser's formula visits for an n x n permanent."""
    return 1 << n


def multiset_terms(matrix) -> int:
    """prod(m_j + 1) over the distinct columns of ``matrix``, m_j their multiplicities.

    That is the number of terms Ryser's formula needs once repeated columns
    are summed by multiplicity instead of one subset at a time.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 1
    _, multiplicities = np.unique(matrix, axis=1, return_counts=True)
    return math.prod(int(m) + 1 for m in multiplicities)


def _count_evolve(stats, args, kwargs, result):
    space, block = args[1], np.asarray(args[2])
    columns = 1 if block.ndim == 1 else block.shape[1]
    stats.add("columns", columns)
    stats.add("state_columns", space.dimension * columns)


def _count_basis(stats, args, kwargs, result):
    stats.add("states", args[0].dimension)


def _count_permanent(stats, args, kwargs, result):
    matrix = np.asarray(args[0])
    n = matrix.shape[0]
    stats.peak("size_max", n)
    stats.add("ryser_terms", ryser_terms(n))
    stats.add("multiset_terms", multiset_terms(matrix))


def _count_verify(stats, args, kwargs, result):
    stats.add("pairs", len(result.comparisons))


def _count_points(stats, args, kwargs, result):
    beta_s = np.asarray(args[3] if len(args) > 3 else kwargs["beta_s"])
    stats.add("points", 1 if beta_s.ndim <= 1 else beta_s.shape[0])


def _count_exit(stats, args, kwargs, result):
    stats.add("exit_nonzero", int(result != 0))


@dataclass(frozen=True)
class Layer:
    """One public entry point and the name its spans are recorded under."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    init: bool = False  # wrap construction of the class ``attr``


LAYERS = (
    Layer("fock.evolve", "ptrsim.fock", "apply_circuit", _count_evolve),
    Layer("fock.basis", "ptrsim.fock", "FockSpace", _count_basis, init=True),
    Layer("linamp.permanent", "ptrsim.linamp", "permanent", _count_permanent),
    Layer("linamp.dual", "ptrsim.linamp", "ptr_postselection_amplitude"),
    Layer("linamp.verify", "ptrsim.linamp", "verify_duality", _count_verify),
    Layer("ptr.build", "ptrsim.ptr", "build_ptr"),
    Layer("ptr.transfer", "ptrsim.ptr", "circuit_transfer"),
    Layer("scatter.star", "ptrsim.scatter", "star"),
    Layer("gaussian.q_duality", "ptrsim.gaussian", "q_duality_residual", _count_points),
    Layer("gaussian.q_function", "ptrsim.gaussian", "q_function"),
    Layer("gaussian.evolve", "ptrsim.gaussian", "evolve"),
    Layer("cli.main", "ptrsim.cli", "main", _count_exit),
    Layer("harness.random_circuit", "ptrsim.harness", "random_circuit"),
)


def _wrap(tracer: Tracer, layer: Layer, original: Callable) -> Callable:
    count = layer.count
    stats = tracer.layer(layer.name)

    def traced(*args, **kwargs):
        tracer.enter(layer.name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.exit(error=True)
            raise
        tracer.exit()
        if count is not None:
            with tracer.span(BENCH):
                try:
                    count(stats, args, kwargs, result)
                except Exception:  # a changed signature loses the count, not the call
                    stats.uncounted += 1
        return result

    traced.__wrapped__ = original
    return traced


class Installed:
    """Handle on installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self.unmeasured: list[str] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, layers=LAYERS) -> Installed:
    """Wrap every layer's entry point wherever a loaded ptrsim module binds it."""
    handle = Installed()
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ptrsim" or name.startswith("ptrsim."))
    ]
    for layer in layers:
        home = sys.modules.get(layer.module)
        original = getattr(home, layer.attr, None)
        if original is None:
            handle.unmeasured.append(layer.name)
            continue
        if layer.init:
            init = original.__init__
            traced_init = _wrap(tracer, layer, init)
            setattr(original, "__init__", traced_init)
            handle.patches.append((original, "__init__", init))
            continue
        traced = _wrap(tracer, layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    handle.patches.append((module, attr, original))
    return handle


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = (
    ("fock.evolve.calls", "count", "lower"),
    ("fock.evolve.self_s", "s", "lower"),
    ("fock.evolve.columns", "count", "lower"),
    ("fock.evolve.state_columns", "count", "lower"),
    ("fock.evolve.ns_per_state_column", "ns", "lower"),
    ("fock.evolve.errors", "count", "lower"),
    ("fock.basis.calls", "count", "lower"),
    ("fock.basis.self_s", "s", "lower"),
    ("fock.basis.states", "count", "lower"),
    ("linamp.permanent.calls", "count", "lower"),
    ("linamp.permanent.self_s", "s", "lower"),
    ("linamp.permanent.size_max", "rows", "lower"),
    ("linamp.permanent.ryser_terms", "count", "lower"),
    ("linamp.permanent.multiset_terms", "count", "lower"),
    ("linamp.permanent.useful_term_ratio", "ratio", "higher"),
    ("linamp.dual.calls", "count", "lower"),
    ("linamp.dual.self_s", "s", "lower"),
    ("linamp.verify.calls", "count", "lower"),
    ("linamp.verify.self_s", "s", "lower"),
    ("linamp.verify.pairs", "count", "higher"),
    ("ptr.build.calls", "count", "lower"),
    ("ptr.build.self_s", "s", "lower"),
    ("ptr.transfer.calls", "count", "lower"),
    ("ptr.transfer.self_s", "s", "lower"),
    ("scatter.star.calls", "count", "lower"),
    ("scatter.star.self_s", "s", "lower"),
    ("scatter.star.errors", "count", "lower"),
    ("gaussian.q_duality.calls", "count", "lower"),
    ("gaussian.q_duality.self_s", "s", "lower"),
    ("gaussian.q_duality.points", "count", "higher"),
    ("gaussian.q_function.self_s", "s", "lower"),
    ("gaussian.evolve.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.exit_nonzero", "count", "lower"),
    ("harness.random_circuit.calls", "count", "lower"),
    ("harness.random_circuit.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: per-layer counts that must repeat exactly across runs of one seed and source.
EXACT_COUNTS = (
    "fock.basis.states",
    "fock.evolve.columns",
    "fock.evolve.state_columns",
    "linamp.permanent.ryser_terms",
    "linamp.permanent.multiset_terms",
    "scatter.star.calls",
    "gaussian.q_duality.points",
)


def layer_values(stats: dict[str, LayerStats]) -> dict[str, float]:
    """Value of every per-layer metric that the spans themselves determine.

    Layers with no calls read zero; ``process.cpu_s`` and
    ``trace.overhead_frac`` come from the caller.
    """
    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, field_name = metric.rpartition(".")
        entry = stats.get(layer, LayerStats())
        if field_name in ("calls", "self_s", "errors"):
            values[metric] = getattr(entry, field_name)
        else:
            values[metric] = entry.counts.get(field_name, 0)
    state_columns = values["fock.evolve.state_columns"]
    values["fock.evolve.ns_per_state_column"] = (
        1e9 * values["fock.evolve.self_s"] / state_columns if state_columns else 0.0
    )
    ryser = values["linamp.permanent.ryser_terms"]
    values["linamp.permanent.useful_term_ratio"] = (
        values["linamp.permanent.multiset_terms"] / ryser if ryser else 0.0
    )
    return values
