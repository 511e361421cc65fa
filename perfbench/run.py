#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``generate``
    ``generate_trace(config, workers=min(2, nproc))`` and the RBLG
    write of its logs; the output must equal the serial (``workers=1``)
    generation of the same scenario byte for byte.
``analyze-batch-tsv``
    The CLI's default ``analyze --dns --conn`` over TSV logs.
``analyze-stream-rblg``
    ``run_streaming_pipeline`` over RBLG iterators plus
    ``render_pipeline_report``; its report must equal the batch
    pipeline's report on the same records.

All three workloads use one scenario derived from the seed and sized
to a fixed number of records. Set-up generates the analysis inputs and
every reference with the code under test and caches them under
``.perfbench-cache/`` keyed by a hash of the sources, the scale and the
seed; it is never inside a timed region.
Each iteration runs in a fresh interpreter (``workloads.py``); the run
repeats iterations for ``--seconds`` and reports medians. With
``--trace 1`` one extra traced iteration follows and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every iteration ran and matched its reference. Every iteration, the
host and the input provenance are also written to
``.perfbench-cache/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import INPUT_FILES, ROOT, SCALES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")

#: A run must end within 180 s; stop starting work well before that.
BUDGET_S = 170.0
#: Fewer samples than this make a median meaningless.
MIN_ITERATIONS = 3
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
#: Times are rescaled to a host on which ``workloads.host_probe`` takes
#: this long: value * speed_factor, where an iteration's speed factor is
#: the mean of PROBE_REFERENCE_S / probe over the probes it ran, before
#: and after its work, in one process per CPU its workload uses.
PROBE_REFERENCE_S = 0.04


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``workloads.py`` with *args*; its JSON result, or ChildFailed.

    The child gets its own process group so a timeout also kills the
    generation workers it forked.
    """
    timeout = max(1.0, deadline - time.monotonic())
    process = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"timed out after {timeout:.0f} s")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"exit {process.returncode}: {tail[0]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise ChildFailed(f"unreadable result: {error}") from error


def source_fingerprint() -> str:
    """SHA-256 over the package sources and this benchmark's code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as stream:
                        digest.update(stream.read())
    return digest.hexdigest()


def host_record() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


def _publish(temporary: str, final: str) -> None:
    """Move a finished cache entry into place (another run may have won)."""
    try:
        os.rename(temporary, final)
    except OSError:
        if not os.path.exists(final):
            raise
        shutil.rmtree(temporary, ignore_errors=True)


def prepared_inputs(base: str, scale: str, seed: int, deadline: float) -> tuple[str, dict]:
    """The input directory and manifest for *seed*, built once."""
    directory = os.path.join(base, f"seed{seed}")
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        temporary = f"{directory}.tmp{os.getpid()}"
        shutil.rmtree(temporary, ignore_errors=True)
        manifest = run_child(
            ["prepare", "--scale", scale, "--seed", str(seed), "--work", temporary], deadline
        )
        with open(os.path.join(temporary, "manifest.json"), "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, indent=1)
        _publish(temporary, directory)
    with open(manifest_path, encoding="utf-8") as stream:
        return directory, json.load(stream)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="scenario size; 'smoke' is for the benchmark's own tests",
    )
    parser.add_argument("--cache-dir", default=os.path.join(ROOT, ".perfbench-cache"))
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + BUDGET_S
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    fingerprint = source_fingerprint()
    base = os.path.join(args.cache_dir, fingerprint[:16], args.scale)
    os.makedirs(base, exist_ok=True)
    workload = args.workload
    generate = workload == "generate"

    try:
        inputs_dir, manifest = prepared_inputs(base, args.scale, args.seed, deadline)
    except ChildFailed as error:
        print(f"perfbench: set-up failed: {error}", file=sys.stderr)
        return 1

    work_root = os.path.join(base, f"work{os.getpid()}")
    iterations: list[dict] = []

    def iterate(index: int, traced: bool) -> None:
        work = os.path.join(work_root, str(index))
        os.makedirs(work)
        command = ["measure", "--workload", workload, "--inputs", inputs_dir, "--work", work]
        record = {"index": index, "traced": traced}
        if traced:
            command.append("--trace")
        try:
            record.update(run_child(command, deadline))
            record["ok"] = True
            record["speed_factor"] = statistics.mean(
                PROBE_REFERENCE_S / probe for probe in record["probe_s"]
            )
            if traced:
                with open(os.path.join(work, "spans.json"), encoding="utf-8") as stream:
                    record["spans"] = json.load(stream)
        except ChildFailed as error:
            record["ok"] = False
            record["error"] = str(error)
        shutil.rmtree(work, ignore_errors=True)
        iterations.append(record)

    measure_start = time.monotonic()
    index = 0
    # Keep half the budget for the traced iteration.
    while (index < MIN_ITERATIONS or time.monotonic() - measure_start < args.seconds) and (
        time.monotonic() < started + BUDGET_S / 2
    ):
        iterate(index, False)
        index += 1
    measured_s = time.monotonic() - measure_start
    if args.trace:
        iterate(index, True)
    shutil.rmtree(work_root, ignore_errors=True)

    # The correctness gate: every output against its pinned reference.
    expected = manifest["reference"][workload]
    for it in iterations:
        if not it["ok"]:
            continue
        output = it["output"] if generate else it["output"]["report_sha256"]
        if output != expected:
            it["ok"] = False
            it["error"] = f"output {output} != reference {expected}"
        elif it["traced"] and not generate:
            census = {k: it["layers"][k] for k in manifest["census"]}
            if census != manifest["census"]:
                it["ok"] = False
                it["error"] = f"census {census} != reference {manifest['census']}"

    timed = [it for it in iterations if it["ok"] and not it["traced"]]
    failed = sum(1 for it in iterations if not it["ok"])
    # The sizing gets the generated trace within a few per cent of its
    # target record count; generation time scales with it, so wall_s is
    # taken to the target size. The cut analysis inputs are exact.
    size_factor = manifest["scale"]["records"] / expected["records"] if generate else 1.0

    def scaled(it: dict, name: str) -> float:
        if name == "peak_rss_mb":
            return it[name]
        return it[name] * it["speed_factor"] * (size_factor if name == "wall_s" else 1.0)

    summary = {}
    if timed:
        for name in END_TO_END_UNITS:
            summary[name] = quartiles([scaled(it, name) for it in timed])
        for name in ("wall_s", "setup_s"):
            summary[f"raw_{name}"] = quartiles([it[name] for it in timed])
        summary["speed_factor"] = quartiles([it["speed_factor"] for it in timed])

    metrics = {}
    if args.trace:
        traced = [it for it in iterations if it["ok"] and it["traced"]]
        if traced and timed:
            run = traced[0]
            layers = run["layers"]
            layers["trace.overhead_frac"] = scaled(run, "wall_s") / summary["wall_s"]["median"] - 1
            for entry in spec["per_layer"]:
                # A layer the workload does not run is idle: 0.
                value = layers.get(entry["name"], 0)
                if entry["unit"] == "s":
                    value *= run["speed_factor"]
                metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    elif summary:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": summary[entry["name"]]["median"], "unit": entry["unit"]}

    host = host_record()
    provenance = {
        key: manifest[key] for key in ("scenario", "trace_digest", "records", "bytes", "sha256")
    }
    provenance["files"] = [
        name for name in INPUT_FILES
        if not generate and name.endswith(".log" if workload == "analyze-batch-tsv" else ".rblg")
    ]
    if generate:
        provenance["expected_output"] = expected
    workers_effective = sorted({it.get("workers_effective", 1) for it in timed}) or [None]
    record = {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace,
        "source_sha256": fingerprint,
        "host": host,
        "workers_effective": workers_effective,
        "size_factor": size_factor,
        "inputs": provenance,
        "summary": summary,
        "iterations": iterations,
    }
    results_dir = os.path.join(args.cache_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(
        results_dir, f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    with open(results_path, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)

    attempted = len(iterations)
    print(
        f"{workload} seed={args.seed} scale={args.scale} iterations={attempted} "
        f"failed={failed} error_rate={failed / attempted:.4f} (1) "
        f"workers_effective={','.join(map(str, workers_effective))} nproc={host['nproc']}"
    )
    units = {**END_TO_END_UNITS, "raw_wall_s": "s", "raw_setup_s": "s", "speed_factor": "1"}
    for name, q in summary.items():
        print(
            f"  {name:<12} {q['median']:.4f} {units[name]}  "
            f"(q1 {q['q1']:.4f}, q3 {q['q3']:.4f}, n={q['n']})"
        )
    scenario = manifest["scenario"]
    print(
        f"  scenario: seed {scenario['seed']}, {scenario['houses']} houses, "
        f"{scenario['duration_s']:.0f} s simulated"
    )
    if generate:
        print(
            f"  output: trace {expected['trace_digest'][:16]} {expected['records']} records, "
            f"{expected['bytes']} B; wall_s scaled by {size_factor:.4f} to "
            f"{manifest['scale']['records']} records"
        )
    else:
        print(
            f"  inputs: trace {manifest['trace_digest'][:16]} "
            f"dns={manifest['records']['dns']} conn={manifest['records']['conn']} records, "
            + ", ".join(f"{name}={manifest['bytes'][name]} B" for name in provenance["files"])
        )
    for it in iterations:
        if not it["ok"]:
            print(f"  iteration {it['index']} FAILED: {it['error']}")
    print(f"  results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
