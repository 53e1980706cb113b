"""ptrsim benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout (the directory holding ``src/ptrsim``):

    python3 perfbench/run.py --workload portfolio --seed 1 --seconds 25 --trace 0

The process builds its inputs from ``--seed`` (see ``workloads.py``), then
runs operations back to back, each one checked, until ``--seconds`` have
passed and at least ``MIN_OPS`` were timed.  BLAS is pinned to
``BLAS_THREADS`` threads and the benchmark starts no threads of its own.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
``SETUP_SAMPLES`` set-ups (import ptrsim, build the inputs), one in this
process and the rest in fresh child processes run one after another.

``--trace 1`` reports the per-layer metrics instead.  It runs a fixed number
of operations (``Workload.trace_ops``) twice, plain and with spans around
every layer's entry points, alternating in ``TRACE_BLOCKS`` blocks, so the
counts repeat exactly for a seed and source tree and the ratio of the two
wall times gives the tracing overhead.  Counts that must repeat are compared with the previous traced
run of the same seed and source; a mismatch is flagged on stdout and in the
run record.

Every run writes a JSON record under ``perfbench/out/runs``.  The last line
on stdout is the result object.  Outside a checkout the process exits 2
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# also the keys of workloads.WORKLOADS; that module imports ptrsim, which the
# set-up time must include, so it is not imported to parse arguments
WORKLOAD_NAMES = ("portfolio", "amp", "dual_columns", "qfunc")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_OPS = 20
TRACE_BLOCKS = 8
CHILD_TIMEOUT_S = 60
COUNT_FLAG = "FLAG count differs from the previous traced run"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def source_digest(src: Path) -> str:
    """SHA-256 over the path and bytes of every tracked-looking file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def setup(workload: str, seed: int, src: Path, workdir: Path, tracer=None):
    """Import ptrsim from ``src`` and build the inputs; returns (seconds, module, ops).

    With a ``tracer`` the input generation runs with the layer spans installed.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads

    if tracer is None:
        ops = workloads.WORKLOADS[workload].make(seed, workdir)
    else:
        import tracing

        handle = tracing.install(tracer)
        try:
            ops = workloads.WORKLOADS[workload].make(seed, workdir)
        finally:
            handle.remove()
    elapsed = time.perf_counter() - start
    import ptrsim

    if src.resolve() not in Path(ptrsim.__file__).resolve().parents:
        raise RuntimeError(f"ptrsim was imported from {ptrsim.__file__}, not from {src}")
    return elapsed, workloads, ops


def child_setup_seconds(args, root: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """Attempted and failed operations, items verified, worst residual."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.items = 0
        self.worst = 0.0
        self.errors: list[str] = []

    def run(self, op) -> None:
        self.attempted += 1
        try:
            outcome = op()
        except Exception as exc:  # any exception fails the operation, never the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        if outcome.passed:
            self.items += outcome.items
        else:
            self.failed += 1
        if not outcome.residual <= self.worst:
            self.worst = outcome.residual

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_frac": self.failed / self.attempted, "items": self.items,
                "worst_residual": self.worst, "errors": self.errors}


def timed_run(args, ops, tally: Tally) -> tuple[dict, dict]:
    """Closed loop for ``args.seconds`` and at least ``MIN_OPS`` operations."""
    from stats import tail

    tally.run(ops[0])  # warm-up, checked but not timed
    times: list[float] = []
    items_before = tally.items
    start = now = time.perf_counter()
    k = 1
    while now - start < args.seconds or len(times) < MIN_OPS:
        begin = time.perf_counter()
        tally.run(ops[k % len(ops)])
        now = time.perf_counter()
        times.append(now - begin)
        k += 1
    elapsed = now - start
    tail_value, tail_pct, n = tail(times)
    metrics = {
        "items_per_s": ((tally.items - items_before) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {"ops": n, "elapsed_s": elapsed, "items": tally.items - items_before,
            "tail_percentile": tail_pct}
    print(f"timed {n} ops, {info['items']} items in {elapsed:.2f} s; "
          f"op_tail_s is p{tail_pct:.1f}")
    return metrics, info


def run_block(block, tally: Tally, tracer=None, layers=None) -> tuple[float, float, list[str]]:
    """Run ``block`` once, inside spans around ``layers`` when a ``tracer`` is given.

    Returns wall seconds, CPU seconds and the layers whose entry point is missing.
    """
    import tracing

    if tracer is None:
        handle = tracing.Installed()
    else:
        handle = tracing.install(tracer, tracing.LAYERS if layers is None else layers)
    try:
        cpu0, start = time.process_time(), time.perf_counter()
        for op in block:
            if tracer is None:
                tally.run(op)
            else:
                with tracer.span(tracing.BENCH):
                    tally.run(op)
        return time.perf_counter() - start, time.process_time() - cpu0, handle.unmeasured
    finally:
        handle.remove()


def traced_run(args, ops, workloads, tracer, tally: Tally, layers=None) -> tuple[dict, dict]:
    """Fixed schedule, each block run plain and traced; per-layer metrics of the traced runs.

    Plain and traced runs alternate block by block, and which goes first
    alternates too, so drift in machine speed and warm caches fall on both.
    A layer whose entry point is missing reads as zero calls; it is listed
    as unmeasured in the run record and on stdout.
    """
    import tracing

    count = workloads.WORKLOADS[args.workload].trace_ops
    schedule = [ops[k % len(ops)] for k in range(1, count + 1)]
    tally.run(ops[0])  # warm-up
    plain = traced = cpu = 0.0
    unmeasured: set[str] = set()
    for b in range(TRACE_BLOCKS):
        block = schedule[b * count // TRACE_BLOCKS:(b + 1) * count // TRACE_BLOCKS]
        for spans in ((None, tracer) if b % 2 == 0 else (tracer, None)):
            wall, cpu_s, missing = run_block(block, tally, spans, layers)
            if spans is None:
                plain += wall
            else:
                traced += wall
                cpu += cpu_s
                unmeasured.update(missing)
    values = tracing.layer_values(tracer.stats)
    values["process.cpu_s"] = cpu
    values["trace.overhead_frac"] = traced / plain - 1.0
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    info = {"ops": count, "plain_wall_s": plain, "traced_wall_s": traced,
            "unmeasured_layers": sorted(unmeasured),
            "uncounted_layers": [name for name, s in tracer.stats.items() if s.uncounted]}
    for name in info["unmeasured_layers"]:
        print(f"unmeasured layer: {name} (entry point not found)")
    for name in info["uncounted_layers"]:
        print(f"uncounted layer: {name} (counter could not read the call)")
    return metrics, info


def check_counts(path: Path, metrics: dict) -> list[str]:
    """Compare the exact counts with those stored at ``path``, then store these."""
    import tracing

    counts = {name: metrics[name][0] for name in tracing.EXACT_COUNTS}
    mismatches = []
    if path.is_file():
        previous = json.loads(path.read_text())
        mismatches = [
            f"{name}: {previous.get(name)} before, {value} now"
            for name, value in counts.items()
            if previous.get(name) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1))
    return mismatches


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ptrsim" / "__init__.py").is_file():
        print(f"error: no src/ptrsim under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    workdir = OUT / "work" / str(os.getpid())
    try:
        if args.setup_only:
            seconds, _, _ = setup(args.workload, args.seed, src, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, src: Path, workdir: Path) -> int:
    tally = Tally()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        _, workloads, ops = setup(args.workload, args.seed, src, workdir, tracer)
        metrics, info = traced_run(args, ops, workloads, tracer, tally)
        env = environment(root, src)
        key = f"{env['source_sha256'][:16]}-{args.workload}-seed{args.seed}"
        info["count_mismatches"] = check_counts(OUT / "counts" / f"{key}.json", metrics)
        for line in info["count_mismatches"]:
            print(f"{COUNT_FLAG}: {line}")
    else:
        samples = [child_setup_seconds(args, root) for _ in range(SETUP_SAMPLES - 1)]
        seconds, workloads, ops = setup(args.workload, args.seed, src, workdir)
        samples.append(seconds)
        metrics, info = timed_run(args, ops, tally)
        metrics["setup_s"] = (statistics.median(samples), "s")
        info["setup_samples_s"] = samples
        env = environment(root, src)

    outcome = tally.record()
    print(f"{args.workload} seed {args.seed}: {outcome['attempted']} ops attempted, "
          f"{outcome['failed']} failed, worst residual {outcome['worst_residual']:.3e}")
    for error in outcome["errors"]:
        print(f"  error: {error}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": env, "outcome": outcome, "info": info, "result": result}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
