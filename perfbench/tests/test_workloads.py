import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import run
import tracing
import workloads
from ptrsim import fock
from ptrsim.ptr import Circuit, Pdc

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("s_in, i_out", [((3,), (0,)), ((1,), (2,)), ((0,), (4,))])
def test_dual_column_matches_single_source_closed_form(s_in, i_out):
    r = 0.7
    circuit = Circuit(1, 1, (Pdc(0, 0, r),))
    amps, nc = workloads.dual_column(circuit, s_in, i_out)
    photons = s_in[0] + i_out[0]
    assert len(amps) == photons + 1
    for (s_out, i_in), amp in zip(fock.occupations_with_total(2, photons), amps):
        closed = fock.pdc_fock_amplitude(r, s_out, i_out[0], s_in[0], i_in)
        assert abs(amp - closed) < 1e-13
    assert abs(nc) == pytest.approx(1 / math.cosh(r), abs=1e-15)
    outcome = workloads._dual_column_op(circuit, s_in, i_out)
    assert outcome.passed and outcome.items == photons + 1


def test_column_check_catches_a_dropped_output():
    circuit = Circuit(1, 1, (Pdc(0, 0, 0.7),))
    amps, nc = workloads.dual_column(circuit, (1,), (2,))
    weight = sum(abs(a) ** 2 for a in amps[1:]) / abs(nc) ** 2
    assert abs(weight - 1) > workloads.column_tolerance(3, len(amps))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_of_each_workload_passes(name, tmp_path):
    ops = workloads.WORKLOADS[name].make(7, tmp_path)
    again = workloads.WORKLOADS[name].make(7, tmp_path)
    assert len(ops) == len(again)
    first = ops[1]()
    assert first.passed and first.items >= 1
    assert again[1]() == first  # same seed, same inputs, same result


def test_benchmark_file_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib"
    }


def test_count_check_flags_a_changed_count(tmp_path):
    path = tmp_path / "counts.json"
    metrics = {name: (10, "count") for name in tracing.EXACT_COUNTS}
    assert run.check_counts(path, metrics) == []
    assert run.check_counts(path, metrics) == []
    metrics["scatter.star.calls"] = (11, "count")
    (mismatch,) = run.check_counts(path, metrics)
    assert mismatch.startswith("scatter.star.calls: 10 before, 11 now")


def test_run_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "qfunc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_run_reports_a_missing_entry_point(capsys):
    from types import SimpleNamespace

    circuit = Circuit(1, 1, (Pdc(0, 0, 0.7),))
    op = partial(workloads._dual_column_op, circuit, (1,), (2,))
    fake = SimpleNamespace(WORKLOADS={"tiny": workloads.Workload(None, 4)})
    layers = tracing.LAYERS + (tracing.Layer("fock.gone", "ptrsim.fock", "enumerate_nothing"),)
    tally = run.Tally()
    metrics, info = run.traced_run(SimpleNamespace(workload="tiny"), [op] * 5, fake,
                                   tracing.Tracer(), tally, layers)
    assert info["unmeasured_layers"] == ["fock.gone"]
    assert "unmeasured layer: fock.gone" in capsys.readouterr().out
    assert tally.failed == 0 and tally.attempted == 1 + 2 * 4
    assert metrics["linamp.dual.calls"][0] == 4 * 4  # 4 outputs per column, traced once
