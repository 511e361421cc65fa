"""One benchmark iteration, run in a fresh interpreter per call.

``run.py`` starts this script once per iteration so that every
measurement begins from a cold process: the import of ``repro`` is paid
(and timed) each time, cyclic-GC state and peak memory start fresh, and
one iteration cannot warm another's allocator. Each mode prints exactly
one JSON object on stdout.

Modes:

``prepare``
    Build one seed's inputs with the code under test: generate the
    scenario serially (``workers=1``) at the duration that gives it a
    fixed number of records, pin its digest as the ``generate``
    reference, write TSV and RBLG logs of the same records, and pin the
    analysis references every measured iteration must reproduce.
``measure``
    Time one iteration of a workload; with ``--trace`` also record the
    layer spans and return the per-layer metrics.

Wall-clock timing lives here, outside the package, on purpose: the
library itself never reads the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("generate", "analyze-batch-tsv", "analyze-stream-rblg")


@dataclass(frozen=True)
class Scale:
    """Scenario size of one benchmark scale."""

    houses: int
    #: First guess at the simulated hours that yield ``records``.
    hours: float
    #: DNS plus connection records of the trace every workload works on.
    #: Trace size varies by about ±15 % between scenario seeds at a fixed
    #: duration, so set-up picks the duration that gets closest to this
    #: many records within SIZING_ROUNDS tries.
    records: int


SCALES = {
    "full": Scale(houses=16, hours=4.5, records=38000),
    "smoke": Scale(houses=2, hours=1.0, records=500),
}
SIZE_TOLERANCE = 0.015
SIZING_ROUNDS = 8
#: The analysis inputs are cut to exactly this share of ``records``, so
#: their size does not depend on how close the sizing got.
ANALYSIS_SHARE = 0.9

#: Generation worker processes requested by the ``generate`` workload.
GENERATE_WORKERS = 2

INPUT_FILES = ("dns.log", "conn.log", "dns.rblg", "conn.rblg")


def generate_workers() -> int:
    return min(GENERATE_WORKERS, len(os.sched_getaffinity(0)))


def derive_seed(seed: int, *labels: object) -> int:
    """A scenario seed derived from the benchmark seed and *labels*."""
    text = "|".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(functools.partial(stream.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> dict:
    """Peak resident memory of this process and of its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    self_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "peak_rss_mb": max(self_kb, children_kb) / 1024.0,
        "self_hwm_mb": self_kb / 1024.0,
        "children_max_rss_mb": children_kb / 1024.0,
    }


class GcMonitor:
    """Cyclic-GC collections and pause time, observed via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    @contextlib.contextmanager
    def watching(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


def host_probe() -> float:
    """Seconds a fixed pure-Python task takes: the host-speed yardstick.

    On shared, virtualised hosts the CPU speed a process gets can drop
    by half, for anything from a second to minutes, which moves every
    timing by far more than the changes the benchmark must detect. Timed
    in the same process just before and just after the measured work,
    this task tells how fast the host ran that iteration; ``run.py``
    rescales the iteration's times by it. Like the workloads, it builds,
    sorts, indexes and heap-merges many small records, because cache
    and memory contention slow such code more than a tight loop.
    """
    start = time.perf_counter()
    rows = [
        ((i * 7919) % 15013 * 0.25, "h%d" % (i % 97), "n%d.example" % (i % 4099), i)
        for i in range(15000)
    ]
    rows.sort()
    index: dict[tuple[str, str], list[float]] = {}
    for ts, house, name, _ in rows:
        index.setdefault((house, name), []).append(ts)
    heap = [(times[-1], key) for key, times in index.items()]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def probe_host(processes: int) -> list[float]:
    """The best of two :func:`host_probe` runs in each of *processes*
    processes at once, one per CPU the workload uses."""
    if processes == 1:
        return [min(host_probe() for _ in range(2))]
    children = []
    for _ in range(processes):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, repr(min(host_probe() for _ in range(2))).encode())
            os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as stream:
            times.append(float(stream.read()))
        os.waitpid(pid, 0)
    return times


def _import_repro() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))


# -- inputs and references ---------------------------------------------------


def scenario_config(houses: int, scenario_seed: int, duration_s: float):
    from repro.workload.scenario import ScenarioConfig

    return ScenarioConfig(seed=scenario_seed, houses=houses, duration=duration_s)


def _cli_report(dns_path: str, conn_path: str) -> str:
    """The CLI's default batch ``analyze`` run, its stdout captured."""
    from repro.cli import main as cli_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["analyze", "--dns", dns_path, "--conn", conn_path, "--workers", "1"])
    if code != 0:
        raise RuntimeError(f"repro-dns analyze exited with {code}")
    return stdout.getvalue()


def _stream_report(dns_path: str, conn_path: str, tracer=None) -> str:
    """``run_streaming_pipeline`` over RBLG iterators, rendered."""
    from repro.core.parallel import run_streaming_pipeline
    from repro.monitor.binlog import iter_conn_binlog, iter_dns_binlog
    from repro.report.tables import render_pipeline_report

    dns_records = iter_dns_binlog(dns_path)
    conns = iter_conn_binlog(conn_path)
    if tracer is None:
        return render_pipeline_report(run_streaming_pipeline(dns_records, conns))
    result = run_streaming_pipeline(
        tracer.iterate(dns_records, "monitor.binlog.decode"),
        tracer.iterate(conns, "monitor.binlog.decode"),
    )
    with tracer.span("report.tables.render"):
        return render_pipeline_report(result)


def census_metrics(census, counts: dict) -> dict:
    """The §4 census and Table 2 class counts as per-layer metrics."""
    metrics = {
        "core.pairing.unique": census.unique_viable,
        "core.pairing.ambiguous": census.paired - census.unique_viable,
        "core.pairing.expired": census.expired_pairings,
        "core.pairing.unpaired": census.conns - census.paired,
        "core.pairing.unique_frac": census.unique_viable / census.paired if census.paired else 0.0,
    }
    for conn_class, count in counts.items():
        metrics[f"core.classify.class.{conn_class.value}"] = count
    return metrics


def _generate_outputs(trace, directory: str) -> dict:
    from repro.monitor.capture import trace_digest

    dns_path = os.path.join(directory, "dns.rblg")
    conn_path = os.path.join(directory, "conn.rblg")
    return {
        "trace_digest": trace_digest(trace),
        "dns.rblg": sha256_file(dns_path),
        "conn.rblg": sha256_file(conn_path),
        "records": len(trace.dns) + len(trace.conns),
        "bytes": os.path.getsize(dns_path) + os.path.getsize(conn_path),
    }


def prepare(scale: Scale, seed: int, directory: str) -> dict:
    """Write one seed's inputs and the references of all three workloads."""
    from repro.core.context import ContextStudy
    from repro.core.pairing import PairingCensus
    from repro.core.parallel import run_pipeline
    from repro.monitor.binlog import save_conn_binlog, save_dns_binlog
    from repro.monitor.capture import trace_digest
    from repro.monitor.logs import load_conn_log, load_dns_log, save_conn_log, save_dns_log
    from repro.report.tables import render_pipeline_report
    from repro.workload.generate import generate_trace

    scenario_seed = derive_seed(seed, "scenario")
    # The record count is not smooth in the duration: the generator's
    # random draws depend on the horizon, so a 4 % longer run can hold
    # 15 % more records. Rescale toward the target (nudging durations
    # already tried, so the search cannot cycle) and keep the closest.
    duration_s = scale.hours * 3600.0
    sizing = []
    best = None
    for _ in range(SIZING_ROUNDS):
        while any(abs(duration_s / tried["duration_s"] - 1) < 0.002 for tried in sizing):
            duration_s *= 1.005
        trace = generate_trace(
            scenario_config(scale.houses, scenario_seed, duration_s), workers=1
        )
        produced = len(trace.dns) + len(trace.conns)
        sizing.append({"duration_s": duration_s, "records": produced})
        error = abs(produced / scale.records - 1)
        if best is None or error < best[0]:
            best = (error, duration_s, trace)
        if error <= SIZE_TOLERANCE:
            break
        duration_s *= scale.records / produced
    _, duration_s, trace = best
    os.makedirs(directory)
    generated = os.path.join(directory, "generate")
    os.makedirs(generated)
    save_dns_binlog(os.path.join(generated, "dns.rblg"), trace.dns)
    save_conn_binlog(os.path.join(generated, "conn.rblg"), trace.conns)
    generate_reference = _generate_outputs(trace, generated)
    shutil.rmtree(generated)

    # The analyses get exactly ANALYSIS_SHARE of the target size: the
    # trace's first records up to the time that many have started.
    times = sorted([r.ts for r in trace.dns] + [c.ts for c in trace.conns])
    cut_s = times[min(len(times), int(scale.records * ANALYSIS_SHARE)) - 1]
    paths = {name: os.path.join(directory, name) for name in INPUT_FILES}
    save_dns_log(paths["dns.log"], [r for r in trace.dns if r.ts <= cut_s])
    save_conn_log(paths["conn.log"], [c for c in trace.conns if c.ts <= cut_s])
    del trace, times
    # TSV keeps microseconds: writing the RBLG logs from the TSV records
    # gives both engines exactly the same values.
    save_dns_binlog(paths["dns.rblg"], load_dns_log(paths["dns.log"]))
    save_conn_binlog(paths["conn.rblg"], load_conn_log(paths["conn.log"]))

    binary = ContextStudy.from_logs(paths["dns.rblg"], paths["conn.rblg"])
    pipeline = run_pipeline(binary.trace)
    text = ContextStudy.from_logs(paths["dns.log"], paths["conn.log"])
    batch_census = census_metrics(
        PairingCensus.from_paired(text.paired), text.breakdown.counts
    )
    pipeline_census = census_metrics(pipeline.census, pipeline.breakdown.counts)
    if batch_census != pipeline_census:
        raise RuntimeError(
            f"batch census {batch_census} differs from pipeline census {pipeline_census}"
        )
    return {
        "scale": scale.__dict__,
        "seed": seed,
        "scenario": {
            "seed": scenario_seed,
            "houses": scale.houses,
            "duration_s": duration_s,
            "sizing": sizing,
            "analysis_cut_s": cut_s,
        },
        "trace_digest": trace_digest(binary.trace),
        "records": {"dns": len(binary.trace.dns), "conn": len(binary.trace.conns)},
        "bytes": {name: os.path.getsize(path) for name, path in paths.items()},
        "sha256": {name: sha256_file(path) for name, path in paths.items()},
        "census": pipeline_census,
        "reference": {
            "analyze-batch-tsv": sha256_text(_cli_report(paths["dns.log"], paths["conn.log"])),
            "analyze-stream-rblg": sha256_text(render_pipeline_report(pipeline)),
            "generate": generate_reference,
        },
    }


# -- measured iterations -----------------------------------------------------


def _measure_generate(scenario: dict, work: str, tracer) -> dict:
    started = time.perf_counter()
    _import_repro()
    from repro.core.parallel import effective_worker_count
    from repro.monitor.binlog import save_conn_binlog, save_dns_binlog
    from repro.workload.generate import TrafficGenerator, generate_trace

    config = scenario_config(scenario["houses"], scenario["seed"], scenario["duration_s"])
    TrafficGenerator(config)
    setup_s = time.perf_counter() - started

    workers = generate_workers()
    shard_log = os.path.join(work, "shards.jsonl")
    replacements = _generate_replacements(tracer, shard_log) if tracer else ()
    from tracing import patched

    monitor = GcMonitor()
    with patched(replacements), monitor.watching():
        span = tracer.span if tracer else _no_span
        cpu_start = cpu_s()
        start = time.perf_counter()
        trace = generate_trace(config, workers=workers)
        with span("monitor.binlog.write"):
            save_dns_binlog(os.path.join(work, "dns.rblg"), trace.dns)
            save_conn_binlog(os.path.join(work, "conn.rblg"), trace.conns)
        wall_s = time.perf_counter() - start
        work_cpu_s = cpu_s() - cpu_start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": work_cpu_s,
        **peak_rss_mb(),
        "gc": {"collections": monitor.collections, "pause_s": monitor.pause_s},
        "workers_requested": workers,
        "workers_effective": effective_worker_count(workers, jobs=config.houses),
        "output": _generate_outputs(trace, work),
    }
    if tracer:
        result["layers"] = _generate_layers(tracer, trace, config, result, shard_log)
    return result


def cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _no_span(name):
    return contextlib.nullcontext()


def _generate_replacements(tracer, shard_log: str):
    import repro.workload.generate as generate
    from multiprocessing.reduction import ForkingPickler

    generator = generate.TrafficGenerator

    def recorded(original, transferred: bool):
        # Shards run in forked workers, whose spans cannot reach this
        # tracer: busy time, CPU time and the pickled size of the result
        # the parent receives go to a file instead.
        @functools.wraps(original)
        def run(self, *args):
            start = time.perf_counter()
            cpu = time.process_time()
            result = original(self, *args)
            end = time.perf_counter()
            busy = {"start": start, "end": end, "busy_s": end - start}
            busy["cpu_s"] = time.process_time() - cpu
            busy["bytes"] = len(ForkingPickler.dumps(result)) if transferred else 0
            with open(shard_log, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(busy) + "\n")
            return result

        return run

    return (
        (generator, "__init__", tracer.wrap(generator.__dict__["__init__"], "workload.init")),
        # The unsharded path (one effective worker) simulates through run().
        (generator, "run", recorded(generator.__dict__["run"], False)),
        (generator, "run_shard", recorded(generator.__dict__["run_shard"], True)),
        (generate, "run_scenarios", tracer.wrap(generate.run_scenarios, "core.parallel.fanout")),
        (generate, "merge_traces", tracer.wrap(generate.merge_traces, "monitor.capture.merge")),
    )


def _generate_layers(tracer, trace, config, result: dict, shard_log: str) -> dict:
    from repro.workload.generate import TrafficGenerator

    with open(shard_log, encoding="utf-8") as stream:
        shards = [json.loads(line) for line in stream]
    busy = [shard["busy_s"] for shard in shards]
    fanout_s = tracer.layer_s("core.parallel.fanout")
    # Fan-out time during which no shard was simulating: fork, pickling,
    # result transfer and waiting. perf_counter is one system-wide clock.
    covered_s, reach = 0.0, 0.0
    for shard in sorted(shards, key=lambda shard: shard["start"]):
        covered_s += max(0.0, shard["end"] - max(shard["start"], reach))
        reach = max(reach, shard["end"])
    merge_s = tracer.layer_s("monitor.capture.merge")
    # Unsharded, run() merges inside the busy time; take the merge out.
    simulate_s = sum(busy) - (0.0 if fanout_s else merge_s)
    # The same houses through run_shard in this one process: the
    # single-threaded baseline the fan-out is measured against.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        TrafficGenerator(config).run_shard(list(range(config.houses)))
        serial_s = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "workload.init_s": tracer.layer_s("workload.init"),
        "workload.simulate_s": simulate_s,
        "workload.simulate_cpu_s": sum(shard["cpu_s"] for shard in shards),
        "workload.serial_simulate_s": serial_s,
        "workload.records_out": len(trace.dns) + len(trace.conns),
        "core.parallel.fanout_s": fanout_s,
        "core.parallel.fanout_overhead_s": fanout_s - covered_s if fanout_s else 0.0,
        "core.parallel.transfer_bytes": sum(shard["bytes"] for shard in shards),
        "core.parallel.shard_skew": max(busy) / (sum(busy) / len(busy)),
        "core.parallel.workers_effective": result["workers_effective"],
        "monitor.capture.merge_s": merge_s,
        "monitor.binlog.write_s": tracer.layer_s("monitor.binlog.write"),
        "monitor.binlog.bytes_written": result["output"]["bytes"],
    }


def _batch_replacements(tracer, captured: dict):
    from functools import cached_property

    import repro.cli as cli
    from repro.core.context import ContextStudy

    def stage(attribute: str, name: str):
        original = ContextStudy.__dict__[attribute]
        traced = tracer.wrap(original.func, name)

        def compute(study):
            captured["study"] = study
            return traced(study)

        replacement = cached_property(compute)
        replacement.__set_name__(ContextStudy, attribute)
        return (ContextStudy, attribute, replacement)

    def method(attribute: str, name: str):
        return (ContextStudy, attribute, tracer.wrap(ContextStudy.__dict__[attribute], name))

    from_logs = ContextStudy.__dict__["from_logs"].__func__
    return (
        (ContextStudy, "from_logs", classmethod(tracer.wrap(from_logs, "monitor.logs.ingest"))),
        stage("paired", "core.pairing.pair"),
        stage("classifier", "core.classify.classify"),
        stage("classified", "core.classify.classify"),
        stage("breakdown", "core.classify.classify"),
        method("failure_stats", "core.classify.classify"),
        method("population", "core.population.analyze"),
        method("resolver_usage", "core.resolvers.analyze"),
        method("hit_rates", "core.resolvers.analyze"),
        method("gap_analysis", "core.performance.analyze"),
        method("lookup_delays", "core.performance.analyze"),
        method("significance_quadrant", "core.performance.analyze"),
        method("whole_house", "core.improvements.whole_house"),
        method("refresh", "core.improvements.refresh"),
        *(
            (cli, name, tracer.wrap(getattr(cli, name), "report.tables.render"))
            for name in ("render_table1", "render_table2", "render_table3")
        ),
    )


def _batch_layers(tracer, captured: dict, sizes: dict) -> dict:
    from repro.core.pairing import PairingCensus

    study = captured["study"]
    return {
        "monitor.logs.ingest_s": tracer.layer_s("monitor.logs.ingest"),
        "monitor.logs.bytes_read": sizes["dns.log"] + sizes["conn.log"],
        "monitor.logs.records_in": len(study.trace.dns) + len(study.trace.conns),
        "monitor.logs.quarantined": sum(len(r.quarantined) for r in study.ingest_reports),
        "core.pairing.pair_s": tracer.layer_s("core.pairing.pair"),
        "core.classify.classify_s": tracer.layer_s("core.classify.classify"),
        "core.performance.analyze_s": tracer.layer_s("core.performance.analyze"),
        "core.resolvers.analyze_s": tracer.layer_s("core.resolvers.analyze"),
        "core.population.analyze_s": tracer.layer_s("core.population.analyze"),
        "core.improvements.whole_house_s": tracer.layer_s("core.improvements.whole_house"),
        "core.improvements.refresh_s": tracer.layer_s("core.improvements.refresh"),
        "report.tables.render_s": tracer.layer_s("report.tables.render"),
        **census_metrics(PairingCensus.from_paired(study.paired), study.breakdown.counts),
    }


def _stream_replacements(tracer, captured: dict):
    import repro.core.parallel as parallel
    from repro.core.streaming import StreamingAnalyzer, StreamMerger

    finalize_result = parallel.finalize_result

    def finalize(state, config):
        captured["state"] = state
        captured["result"] = finalize_result(state, config)
        return captured["result"]

    merger, analyzer = StreamMerger.__dict__, StreamingAnalyzer.__dict__
    return (
        (StreamMerger, "__init__", tracer.wrap(merger["__init__"], "core.streaming.merge")),
        (
            StreamMerger,
            "__next__",
            tracer.wrap(merger["__next__"], "core.streaming.merge", rollup=True),
        ),
        (StreamingAnalyzer, "consume", tracer.wrap(analyzer["consume"], "core.streaming.fold")),
        (StreamingAnalyzer, "finish", tracer.wrap(analyzer["finish"], "core.streaming.fold")),
        (parallel, "finalize_result", tracer.wrap(finalize, "core.streaming.finalize")),
    )


def _stream_layers(tracer, captured: dict, sizes: dict) -> dict:
    result, state = captured["result"], captured["state"]
    return {
        "monitor.binlog.decode_s": tracer.layer_s("monitor.binlog.decode"),
        "monitor.binlog.bytes_read": sizes["dns.rblg"] + sizes["conn.rblg"],
        "monitor.binlog.records_in": state.dns_records + state.total_conns,
        "core.streaming.merge_s": tracer.layer_s("core.streaming.merge"),
        "core.streaming.fold_s": tracer.layer_s("core.streaming.fold"),
        "core.streaming.finalize_s": tracer.layer_s("core.streaming.finalize"),
        "core.streaming.peak_live_records": state.peak_live_records,
        "report.tables.render_s": tracer.layer_s("report.tables.render"),
        **census_metrics(result.census, result.breakdown.counts),
    }


def _measure_analysis(workload: str, inputs_dir: str, sizes: dict, tracer) -> dict:
    started = time.perf_counter()
    _import_repro()
    import repro.cli  # noqa: F401  (the batch workload's entry point)
    from repro.monitor.binlog import sniff_binlog
    from repro.report.tables import render_pipeline_report  # noqa: F401

    batch = workload == "analyze-batch-tsv"
    names = ("dns.log", "conn.log") if batch else ("dns.rblg", "conn.rblg")
    dns_path, conn_path = (os.path.join(inputs_dir, name) for name in names)
    for path in (dns_path, conn_path):
        sniff_binlog(path)
    setup_s = time.perf_counter() - started

    from tracing import patched

    captured: dict = {}
    if tracer is None:
        replacements = ()
    elif batch:
        replacements = _batch_replacements(tracer, captured)
    else:
        replacements = _stream_replacements(tracer, captured)
    monitor = GcMonitor()
    with patched(replacements), monitor.watching():
        cpu_start = cpu_s()
        start = time.perf_counter()
        if batch:
            report = _cli_report(dns_path, conn_path)
        else:
            report = _stream_report(dns_path, conn_path, tracer)
        wall_s = time.perf_counter() - start
        work_cpu_s = cpu_s() - cpu_start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": work_cpu_s,
        **peak_rss_mb(),
        "gc": {"collections": monitor.collections, "pause_s": monitor.pause_s},
        "output": {"report_sha256": sha256_text(report)},
    }
    if tracer is not None:
        layers = _batch_layers if batch else _stream_layers
        result["layers"] = layers(tracer, captured, sizes)
    return result


def measure(args: argparse.Namespace) -> dict:
    from tracing import Tracer

    processes = generate_workers() if args.workload == "generate" else 1
    probe_s = probe_host(processes)
    tracer = Tracer() if args.trace else None
    gc_at_start = {"enabled": gc.isenabled(), "threshold": list(gc.get_threshold())}
    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as stream:
        manifest = json.load(stream)
    if args.workload == "generate":
        result = _measure_generate(manifest["scenario"], args.work, tracer)
    else:
        result = _measure_analysis(args.workload, args.inputs, manifest["bytes"], tracer)
    result["gc"]["at_start"] = gc_at_start
    result["probe_s"] = probe_s + probe_host(processes)
    if tracer is not None:
        result["layers"]["gc.pause_s"] = result["gc"]["pause_s"]
        result["layers"]["gc.collections"] = result["gc"]["collections"]
        result["layers"]["trace.unaccounted_s"] = result["wall_s"] - tracer.top_level_s
        tracer.dump(os.path.join(args.work, "spans.json"))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--inputs", help="directory that prepare wrote")
    parser.add_argument("--work", help="directory for outputs and spans")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "measure":
        result = measure(args)
    else:
        _import_repro()
        result = prepare(SCALES[args.scale], args.seed, args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
