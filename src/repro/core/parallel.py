"""Sharded analysis and the process fan-out: the paper's analyses at scale.

The paper's §4–§6 analyses are embarrassingly parallel across
households: pairing consults only same-house lookups, classification is
per-connection once the per-resolver SC/R thresholds are known, and the
performance aggregates are all counts, multisets, and order-invariant
statistics. This module exploits that structure with one engine:

1. **Shard** the trace by household (round-robin over the sorted house
   addresses, :func:`shard_by_household`).
2. **Stream** each shard through the exact streaming engine
   (:func:`repro.core.streaming.analyze_stream`) in its own worker,
   fanned out by :func:`run_scenarios` over supervised fork processes
   (:func:`repro.supervise.supervise`).
3. **Merge** the per-shard :class:`~repro.core.streaming.StreamingState`
   objects with :meth:`StreamingState.merge` and finalize once: the
   SC/R thresholds are a whole-trace property, so the blocked sample is
   split only after every shard's resolver durations are merged.

:func:`run_pipeline` with ``workers=1`` is the serial batch pipeline — a
:class:`~repro.core.context.ContextStudy` read out — and the reference
every sharded and streaming run is compared against. Both engines take
every analysis setting from the same
:class:`~repro.core.context.StudyOptions`.

**Determinism contract**: results are equal to the serial path for any
worker/shard count. Every merged statistic is either an integer count
(merged by addition), a multiset (merged by concatenation and sorted at
finalize), or recomputed from one of those; the random pairing policy
draws from per-house seeded streams (``derive_seed(seed, "pairing") ->
house``), so no draw depends on which shard — or which other households
— a house is processed with. Workers never read the wall clock or
global RNG state.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointTelemetry,
    run_checkpointed_stream,
)
from repro.core.context import ContextStudy, StudyOptions
from repro.core.streaming import (
    PipelineResult,
    StreamingConfig,
    StreamingState,
    StreamingSummary,
    analyze_stream,
    finalize_result,
    finalize_summary,
)
from repro.errors import AnalysisError
from repro.monitor.capture import Trace
from repro.monitor.records import ConnRecord, DnsRecord
from repro.supervise import SupervisorPolicy, supervise

DEFAULT_SHARDS_PER_WORKER = 4
"""Shards per worker: small enough to amortise task overhead, large
enough that one slow household cannot stall the pool tail."""


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware, >= 1).

    A module-level seam on purpose: tests on constrained hosts
    monkeypatch it to exercise the fan-out paths, and the clamp in
    :func:`run_scenarios` reads it so a 1-CPU container degrades to the
    serial path instead of paying fork-and-pickle overhead for a
    slower-than-serial "parallel" run.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def effective_worker_count(workers: int, jobs: int | None = None) -> int:
    """The worker count a fan-out will actually use.

    Clamps *workers* to the CPUs available to this process (oversubscribed
    workers on a smaller host are strictly slower than serial for
    CPU-bound scenario generation) and, when *jobs* is given, to the
    number of jobs (idle workers would only cost fork time). Benchmarks
    record this next to the requested count so a recorded "speedup" is
    attributed to the pool that actually ran.
    """
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    effective = min(workers, _available_cpus())
    if jobs is not None and jobs >= 1:
        effective = min(effective, jobs)
    return max(1, effective)


@dataclass(frozen=True, slots=True)
class PressureStats:
    """Cache/connection-budget pressure counters from one scenario.

    Every field is a plain additive counter, so per-scenario (or
    per-house) tallies merge by addition into exactly the
    whole-population tally — the same contract as the failure stats the
    pipeline already merges. ``stub_*`` covers the device-side caches
    and fd budgets; ``resolver_*`` the shared recursive platforms.
    """

    stub_lookups: int = 0
    stub_hits: int = 0
    stub_evictions: int = 0
    stub_stale_serves: int = 0
    stub_stale_expirations: int = 0
    stub_admitted: int = 0
    stub_queued: int = 0
    stub_shed: int = 0
    resolver_lookups: int = 0
    resolver_hits: int = 0
    resolver_evictions: int = 0
    resolver_stale_serves: int = 0
    resolver_stale_expirations: int = 0
    resolver_admitted: int = 0
    resolver_queued: int = 0
    resolver_refused: int = 0

    @property
    def stub_hit_rate(self) -> float:
        """Local-cache hit share of all stub probes (0 when unused)."""
        if not self.stub_lookups:
            return 0.0
        return self.stub_hits / self.stub_lookups

    @property
    def resolver_hit_rate(self) -> float:
        """Shared-cache hit share of all resolver probes (0 when unused)."""
        if not self.resolver_lookups:
            return 0.0
        return self.resolver_hits / self.resolver_lookups

    @property
    def blocked_connection_share(self) -> float:
        """Share of admission decisions that queued or shed a connection."""
        arrivals = (
            self.stub_admitted
            + self.stub_queued
            + self.stub_shed
            + self.resolver_admitted
            + self.resolver_queued
            + self.resolver_refused
        )
        if not arrivals:
            return 0.0
        blocked = self.stub_queued + self.stub_shed + self.resolver_queued + self.resolver_refused
        return blocked / arrivals

    def merged_with(self, other: "PressureStats") -> "PressureStats":
        """The counter tally over both samples."""
        return PressureStats(
            stub_lookups=self.stub_lookups + other.stub_lookups,
            stub_hits=self.stub_hits + other.stub_hits,
            stub_evictions=self.stub_evictions + other.stub_evictions,
            stub_stale_serves=self.stub_stale_serves + other.stub_stale_serves,
            stub_stale_expirations=self.stub_stale_expirations + other.stub_stale_expirations,
            stub_admitted=self.stub_admitted + other.stub_admitted,
            stub_queued=self.stub_queued + other.stub_queued,
            stub_shed=self.stub_shed + other.stub_shed,
            resolver_lookups=self.resolver_lookups + other.resolver_lookups,
            resolver_hits=self.resolver_hits + other.resolver_hits,
            resolver_evictions=self.resolver_evictions + other.resolver_evictions,
            resolver_stale_serves=self.resolver_stale_serves + other.resolver_stale_serves,
            resolver_stale_expirations=(
                self.resolver_stale_expirations + other.resolver_stale_expirations
            ),
            resolver_admitted=self.resolver_admitted + other.resolver_admitted,
            resolver_queued=self.resolver_queued + other.resolver_queued,
            resolver_refused=self.resolver_refused + other.resolver_refused,
        )


def merge_pressure_stats(parts: Sequence[PressureStats]) -> PressureStats:
    """Merge many pressure tallies (addition: associative, commutative)."""
    merged = PressureStats()
    for part in parts:
        merged = merged.merged_with(part)
    return merged


def shard_by_household(
    dns_records: Sequence[DnsRecord],
    conns: Sequence[ConnRecord],
    shards: int,
) -> list[tuple[list[DnsRecord], list[ConnRecord]]]:
    """Partition a trace into *shards* household-disjoint sub-traces.

    Houses are assigned round-robin over the sorted house addresses, so
    the partition is deterministic. Both logs follow their originating
    house in chronological order (a stable sort on ``ts``), which is the
    order the streaming engine consumes them in.
    """
    if shards < 1:
        raise AnalysisError(f"shard count must be positive, got {shards}")
    houses = sorted(
        {record.orig_h for record in dns_records} | {conn.orig_h for conn in conns}
    )
    assignment = {house: index % shards for index, house in enumerate(houses)}
    parts: list[tuple[list[DnsRecord], list[ConnRecord]]] = [([], []) for _ in range(shards)]
    for record in sorted(dns_records, key=lambda record: record.ts):
        parts[assignment[record.orig_h]][0].append(record)
    for conn in sorted(conns, key=lambda conn: conn.ts):
        parts[assignment[conn.orig_h]][1].append(conn)
    return parts


#: Scenario fan-out state: ``(task callable, config list)`` of the one
#: fan-out this process is running. Under fork the supervisor hands
#: tasks to children directly (copy-on-write, no lookup needed); this
#: slot remains as the process-wide *guard* against nested or concurrent
#: multi-worker sweeps, which would interleave two supervisors over the
#: same CPU budget and deadlock a 1-slot host.
_SCENARIO_FANOUT: tuple[Callable, list] | None = None  # repro-lint: fork-shared(set in the parent before fork, read-only in workers, cleared in run_scenarios' finally; the not-None guard rejects nested fan-out)


def in_scenario_fanout() -> bool:
    """Is this process currently inside a :func:`run_scenarios` fan-out?

    True both in the parent while its pool is live and in a forked
    worker (which inherits the parent's slot). Nested callers — e.g.
    sharded trace generation invoked from a sweep task — use this to
    degrade to their serial path instead of tripping the nesting guard.
    """
    return _SCENARIO_FANOUT is not None


def run_scenarios(
    configs: Sequence,
    task: Callable,
    workers: int = 1,
    supervisor: SupervisorPolicy | None = None,
) -> list:
    """Map *task* over *configs* on worker processes, results in config order.

    The one fan-out: sweeps and calibration runs, generation house
    shards and streaming analysis shards all go through it. Each task is
    a pure function of its config (every random draw comes from seeded
    streams; the library never reads the wall clock), so fanning out
    over processes is trivially byte-identical to the serial loop —
    ``run_scenarios(configs, task, workers=n) == [task(c) for c in
    configs]`` for every ``n``.

    ``task`` receives one element of *configs* and must return a
    picklable value; keep returns small (summaries, digests) — a full
    week-scale :class:`~repro.monitor.capture.Trace` round-trips through
    pickle and erodes the speedup. Each scenario runs in a process
    supervised by :func:`repro.supervise.supervise`, which inherits the
    configs and the callable through ``fork`` copy-on-write memory
    (closures work) and recovers a scenario whose worker dies with a
    serial retry in the parent. Without ``fork`` the fan-out runs as the
    serial loop.

    Requested workers are clamped to the CPUs actually available to the
    process (one line on stderr records the reduction): oversubscribing
    a smaller host makes the "parallel" sweep slower than the serial
    loop, and on a 1-CPU host the clamp degrades all the way to the
    serial path — with byte-identical results either way.
    """
    configs = list(configs)
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    cpu_limit = _available_cpus()
    if workers > cpu_limit:
        print(
            f"run_scenarios: reducing workers {workers} -> {cpu_limit} "
            f"({cpu_limit} CPU(s) available)",
            file=sys.stderr,
        )
        workers = cpu_limit
    if (
        workers == 1
        or len(configs) <= 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [task(config) for config in configs]
    global _SCENARIO_FANOUT
    if _SCENARIO_FANOUT is not None:
        # The fan-out state is a process-wide single slot; a task that
        # itself calls run_scenarios (or a second thread fanning out
        # concurrently) would overwrite it and dispatch the wrong
        # scenarios. Fail loudly instead of corrupting results.
        raise AnalysisError(
            "run_scenarios() is already fanning out in this process; "
            "nested or concurrent multi-worker sweeps are not supported "
            "(run the inner call with workers=1)"
        )
    # Assign inside the try so any failure path (gc.freeze, process
    # spawn) still clears the slot — a leaked fan-out would make the
    # not-None nesting guard above reject every later sweep in this
    # process. Freezing the parent heap out of GC keeps the children's
    # copy-on-write pages shared.
    try:
        _SCENARIO_FANOUT = (task, configs)
        gc.freeze()
        results, _report = supervise(
            configs,
            task,
            min(workers, len(configs)),
            policy=supervisor,
            label="scenario",
        )
        return results
    finally:
        gc.unfreeze()
        _SCENARIO_FANOUT = None


def _serial_pipeline(trace: Trace, options: StudyOptions) -> PipelineResult:
    """The reference single-process batch pipeline (no sharding)."""
    study = ContextStudy(trace, options)
    return PipelineResult(
        census=study.pairing_census(),
        breakdown=study.breakdown,
        gap_analysis=study.gap_analysis(),
        lookup_delays=study.lookup_delays(),
        contribution=study.contribution(),
        quadrant=study.significance_quadrant(),
        thresholds=study.classifier.thresholds,
        failure_stats=study.failure_stats(),
    )


def run_pipeline(
    trace: Trace,
    options: StudyOptions | None = None,
    workers: int = 1,
    supervisor: SupervisorPolicy | None = None,
) -> PipelineResult:
    """Run the §4–§6 analysis pipeline, optionally over worker processes.

    ``workers=1`` runs the serial batch pipeline in-process — the
    reference every parity test compares against. With ``workers>1``
    the trace is sharded by household and each shard is one-passed by
    the exact streaming engine in a supervised worker (*supervisor*
    tunes restarts and deadlines); the merged
    :class:`~repro.core.streaming.StreamingState` finalizes to a result
    equal to ``workers=1``. Every analysis setting comes from *options*.
    """
    options = options if options is not None else StudyOptions()
    if not trace.conns:
        raise AnalysisError("the trace has no connections to analyse")
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    if workers == 1:
        return _serial_pipeline(trace, options)
    config = StreamingConfig(options=options)
    state, shard_count = _run_streaming(
        trace.dns, trace.conns, config, workers, supervisor=supervisor
    )
    return _pipeline_result(state, config, workers, shard_count)


@dataclass(frozen=True, slots=True)
class StreamingShard:
    """One household shard of a streaming run (a `run_scenarios` config)."""

    shard_id: int
    dns_records: tuple[DnsRecord, ...]
    conns: tuple[ConnRecord, ...]
    config: StreamingConfig


def _stream_shard(task: StreamingShard) -> StreamingState:
    """One-pass a single household shard (the worker entry)."""
    return analyze_stream(task.dns_records, task.conns, task.config)


def _run_streaming(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    config: StreamingConfig,
    workers: int,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
    supervisor: SupervisorPolicy | None = None,
) -> tuple[StreamingState, int]:
    """Run the streaming engine for every streaming entry point and sharded run.

    ``workers=1`` consumes the record iterables lazily — this is the
    memory-bounded path, and the only one that accepts true streams.
    ``workers>1`` must materialize both logs to shard them by household
    (use it when the logs are already in memory and wall-time matters);
    the shard states merge into exactly the single-stream state, so both
    paths finalize identically. *checkpoint* makes the single-stream
    path crash-safe (:func:`repro.core.checkpoint.run_checkpointed_stream`);
    checkpointing a sharded run is rejected — one checkpoint file cannot
    describe many independent stream frontiers. *supervisor* tunes the
    shard fan-out (:func:`run_scenarios`).
    """
    if workers < 1:
        raise AnalysisError(f"worker count must be positive, got {workers}")
    if checkpoint is not None and workers != 1:
        raise AnalysisError(
            "checkpointing requires workers=1 (a sharded streaming run has "
            "no single resumable frontier)"
        )
    if checkpoint is not None:
        return (
            run_checkpointed_stream(
                dns_records,
                conns,
                config,
                checkpoint=checkpoint,
                resume=resume,
                telemetry=checkpoint_telemetry,
            ),
            1,
        )
    if workers == 1:
        return analyze_stream(dns_records, conns, config), 1
    dns_list = list(dns_records)
    conn_list = list(conns)
    houses = {conn.orig_h for conn in conn_list} | {record.orig_h for record in dns_list}
    shard_count = max(1, min(workers * DEFAULT_SHARDS_PER_WORKER, len(houses)))
    parts = shard_by_household(dns_list, conn_list, shard_count)
    tasks = [
        StreamingShard(
            shard_id=shard_id,
            dns_records=tuple(dns_part),
            conns=tuple(conn_part),
            config=config,
        )
        for shard_id, (dns_part, conn_part) in enumerate(parts)
    ]
    states = run_scenarios(tasks, _stream_shard, workers, supervisor=supervisor)
    return StreamingState.merge(states), len(tasks)


def _pipeline_result(
    state: StreamingState, config: StreamingConfig, workers: int, shards: int
) -> PipelineResult:
    """Finalize an exact streaming state and stamp the execution metadata."""
    return dataclasses.replace(
        finalize_result(state, config), workers=workers, shards=shards
    )


def run_streaming_pipeline(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    options: StudyOptions | None = None,
    workers: int = 1,
    window_s: float | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
) -> PipelineResult:
    """One-pass the logs with exact statistics; return the batch result.

    The streaming counterpart of :func:`run_pipeline`: same output type,
    same values — ``run_streaming_pipeline(trace.dns, trace.conns,
    options) == run_pipeline(trace, options)`` bit-for-bit (the
    differential harness pins this across seeds, fault mixes and
    blocking thresholds) — but computed in one pass with the DNS index
    TTL-drained as the stream advances, so ``workers=1`` accepts lazy
    record iterators and never holds the full record population.
    ``window_s`` additionally bounds expired-fallback tails; parity then
    holds for traces whose pairing gaps fit in the window.
    """
    config = StreamingConfig(
        options=options if options is not None else StudyOptions(),
        window_s=window_s,
    )
    state, shard_count = _run_streaming(
        dns_records, conns, config, workers, checkpoint, resume, checkpoint_telemetry
    )
    return _pipeline_result(state, config, workers, shard_count)


def run_streaming_summary(
    dns_records: "Iterable[DnsRecord]",
    conns: "Iterable[ConnRecord]",
    options: StudyOptions | None = None,
    workers: int = 1,
    window_s: float | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume: bool = False,
    checkpoint_telemetry: CheckpointTelemetry | None = None,
) -> StreamingSummary:
    """One-pass the logs with sketched statistics; return the summary.

    The O(window)-memory mode: distribution shapes live in mergeable
    quantile sketches with the default rank-error budget, and every
    count (census, class breakdown up to the running-threshold SC/R
    split, quadrant, unused lookups) stays exact. See
    :class:`repro.core.streaming.StreamingSummary` for what is exact
    versus certified-approximate.
    """
    config = StreamingConfig(
        options=options if options is not None else StudyOptions(),
        exact=False,
        window_s=window_s,
    )
    state, _ = _run_streaming(
        dns_records, conns, config, workers, checkpoint, resume, checkpoint_telemetry
    )
    return finalize_summary(state, config)
