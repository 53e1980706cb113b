"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the root of a checkout:

    python3 perfbench/sweep.py --out perfbench/BENCH_0.json

For each workload this makes ``RUNS`` untraced runs, one seed each from
``FIRST_SEED`` on, and reports every end-to-end metric's median, quartiles
and quartile spread (``(Q3 - Q1) / median``) next to the bound in
``BENCHMARK.json``; a spread at or above a third of its bound is marked
``WIDE``.  It then makes two traced runs on the first seed; ``run.py``
flags any exact count that differs from the previous traced run of the
same seed and source.  ``--out`` writes everything, with the environment,
as one JSON document.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from stats import quartile_spread

ROOT = Path.cwd()
RUN_TIMEOUT_S = 900
RUNS = 10
FIRST_SEED = 1


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info_lines"] = lines[:-1]
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = quartile_spread(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOAD_NAMES),
                        choices=run.WORKLOAD_NAMES)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    report = {"environment": run.environment(ROOT, ROOT / "src"), "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result = bench_once(workload, seed, seconds, 0)
            all_correct &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {
            name: summarise([r["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        for name, row in summary.items():
            print(f"  {workload} {name}: median {row['median']:.4g} "
                  f"[{row['q1']:.4g}, {row['q3']:.4g}] spread {row['spread']:.3f} "
                  f"bound {row['bound']}{'' if row['steady'] else '  WIDE'}", flush=True)
        traced = [bench_once(workload, seeds[0], seconds, 1) for _ in range(2)]
        repeat = not any(line.startswith(run.COUNT_FLAG)
                         for t in traced for line in t["info_lines"])
        all_correct &= repeat and all(t["correct"] for t in traced)
        print(f"  {workload} traced: exact counts {'repeat' if repeat else 'DIFFER'}; "
              f"overhead {traced[0]['metrics']['trace.overhead_frac']['value']:.3f}",
              flush=True)
        entry = {"runs": runs, "summary": summary, "traced": traced,
                 "exact_counts_repeat": repeat}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
