#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Runs ``run.py`` once per (seed, workload), interleaving the workloads so
that slow drift of the host spreads over all of them, and reports for
every end-to-end metric the distance between the first and third
quartile of its per-run values as a share of their median, next to the
metric's bound in ``BENCHMARK.json``. A spread above a third of the
bound is flagged.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 --workloads generate
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write every run's result to this JSON file")
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    runs = []
    for seed in args.seeds:
        for workload in args.workloads:
            started = time.monotonic()
            process = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            elapsed = time.monotonic() - started
            result = json.loads(process.stdout.strip().splitlines()[-1]) if process.stdout else {}
            runs.append({"workload": workload, "seed": seed, "exit": process.returncode,
                         "elapsed_s": elapsed, "result": result})
            metrics = result.get("metrics", {})
            print(
                f"{workload:<20} seed {seed:>3} exit {process.returncode} {elapsed:5.1f} s  "
                + "  ".join(f"{k}={v['value']:.4f}" for k, v in metrics.items()),
                flush=True,
            )
            for name, metric in metrics.items():
                values[workload].setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    print(f"\n{'workload':<20} {'metric':<12} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[name] / 3 else "  above bound/3"
            steady &= spread <= bounds[name] or name == "setup_s"
            print(f"{workload:<20} {name:<12} {median:>10.4f} {spread:>8.4f} {bounds[name]:>6}{flag}")
    elapsed = [run["elapsed_s"] for run in runs]
    print(f"\nrun wall time: max {max(elapsed):.1f} s, mean {statistics.mean(elapsed):.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(runs, stream, indent=1)
    return 0 if steady and all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
