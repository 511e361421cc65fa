"""Sharded streaming analysis must reproduce the serial batch path exactly."""

import os

import pytest

from repro.core.context import ContextStudy, StudyOptions
from repro.core.pairing import PairingPolicy
from repro.core.parallel import (
    DEFAULT_SHARDS_PER_WORKER,
    effective_worker_count,
    run_pipeline,
    run_scenarios,
    shard_by_household,
)
from repro.core.streaming import StreamingConfig, StreamingState, analyze_stream, finalize_result
from repro.errors import AnalysisError
from repro.monitor.capture import Trace, trace_digest
from repro.report.tables import render_pipeline_report
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig

_PARENT_PID = os.getpid()

HOUSES = 8

ANALYSIS_FIELDS = (
    "census",
    "breakdown",
    "gap_analysis",
    "lookup_delays",
    "contribution",
    "quadrant",
    "thresholds",
    "failure_stats",
)


def _analysis(result) -> dict:
    """The compared payload of a pipeline or streaming result."""
    return {name: getattr(result, name) for name in ANALYSIS_FIELDS}


def _square(value: int) -> int:
    return value * value


def _fail_in_worker(value: int) -> int:
    """Succeeds in the parent, raises in any forked worker process."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return value + 1


def _tiny_scenario_digest(config: ScenarioConfig) -> str:
    return trace_digest(generate_trace(config))


@pytest.fixture(scope="module")
def trace() -> Trace:
    return generate_trace(ScenarioConfig(seed=11, houses=HOUSES, duration=2 * 3600.0))


@pytest.fixture(scope="module")
def serial(trace):
    return run_pipeline(trace, workers=1)


def test_sharding_partitions_households(trace):
    parts = shard_by_household(trace.dns, trace.conns, 3)
    assert len(parts) == 3
    houses_per_shard = [
        {r.orig_h for r in dns} | {c.orig_h for c in conns} for dns, conns in parts
    ]
    for i, left in enumerate(houses_per_shard):
        for right in houses_per_shard[i + 1 :]:
            assert not (left & right)
    assert sum(len(conns) for _, conns in parts) == len(trace.conns)
    assert sum(len(dns) for dns, _ in parts) == len(trace.dns)
    for dns, conns in parts:
        assert [r.ts for r in dns] == sorted(r.ts for r in dns)
        assert [c.ts for c in conns] == sorted(c.ts for c in conns)


def test_sharding_rejects_nonpositive_count(trace):
    with pytest.raises(AnalysisError):
        shard_by_household(trace.dns, trace.conns, 0)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_equals_serial(trace, serial, workers):
    parallel = run_pipeline(trace, workers=workers)
    assert parallel == serial
    assert parallel.thresholds == serial.thresholds
    assert render_pipeline_report(parallel) == render_pipeline_report(serial)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_equals_serial_random_policy(trace, workers):
    options = StudyOptions(
        pairing_policy=PairingPolicy.RANDOM_NON_EXPIRED, pairing_seed=7
    )
    serial = run_pipeline(trace, options, workers=1)
    parallel = run_pipeline(trace, options, workers=workers)
    assert parallel == serial
    assert render_pipeline_report(parallel) == render_pipeline_report(serial)


def test_parallel_accepts_unordered_logs(trace, serial):
    # The streaming shards need time-ordered logs; the batch reference
    # does not, so sharding restores the order itself.
    shuffled = Trace(dns=list(reversed(trace.dns)), conns=list(reversed(trace.conns)))
    assert run_pipeline(shuffled, workers=2) == serial


def test_shard_count_override(trace, serial):
    """Any shard count — one, a few, one per house — streams each shard
    independently and merges to the serial batch result."""
    config = StreamingConfig()
    for shards in (1, 3, HOUSES):
        parts = shard_by_household(trace.dns, trace.conns, shards)
        merged = StreamingState.merge(
            [analyze_stream(dns, conns, config) for dns, conns in parts]
        )
        assert _analysis(finalize_result(merged, config)) == _analysis(serial), shards


def test_more_shards_than_houses_clamps(trace, serial):
    parallel = run_pipeline(trace, workers=4)
    assert 4 * DEFAULT_SHARDS_PER_WORKER > HOUSES
    assert parallel.shards == HOUSES
    assert parallel == serial


def test_default_shard_count(trace):
    parallel = run_pipeline(trace, workers=2)
    assert parallel.shards == min(HOUSES, 2 * DEFAULT_SHARDS_PER_WORKER)


def test_pipeline_matches_context_study(trace, serial):
    study = ContextStudy(trace)
    assert serial.breakdown == study.breakdown
    assert serial.census == study.pairing_census()
    assert serial.gap_analysis == study.gap_analysis()
    assert serial.lookup_delays == study.lookup_delays()
    assert serial.contribution == study.contribution()
    assert serial.quadrant == study.significance_quadrant()
    assert serial.thresholds == study.classifier.thresholds
    assert serial.failure_stats == study.failure_stats()


def test_run_pipeline_rejects_bad_workers(trace):
    with pytest.raises(AnalysisError):
        run_pipeline(trace, workers=0)


def test_run_pipeline_rejects_empty_trace():
    with pytest.raises(AnalysisError):
        run_pipeline(Trace(dns=[], conns=[]), workers=2)


# -- run_scenarios: multi-scenario fan-out ----------------------------------


def _unclamp_cpus(monkeypatch):
    """Pretend the host has CPUs to spare so the pool path runs.

    The CPU clamp would otherwise degrade these tests to the serial path
    on constrained CI hosts, silently un-exercising the fork machinery
    they exist to cover.
    """
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 8)


def test_run_scenarios_preserves_config_order(monkeypatch):
    _unclamp_cpus(monkeypatch)
    values = list(range(8))
    assert run_scenarios(values, _square, workers=3) == [v * v for v in values]


def test_run_scenarios_serial_path():
    assert run_scenarios([3, 1, 2], _square, workers=1) == [9, 1, 4]


def test_run_scenarios_empty_configs():
    assert run_scenarios([], _square, workers=4) == []


def test_run_scenarios_rejects_bad_workers():
    with pytest.raises(AnalysisError, match="worker count"):
        run_scenarios([1], _square, workers=0)


def test_run_scenarios_rejects_nested_fanout(monkeypatch):
    # The fork fan-out state is a process-wide single slot; a nested or
    # concurrent multi-worker call must fail loudly rather than dispatch
    # the wrong scenarios.
    import multiprocessing

    from repro.core import parallel as parallel_mod

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    _unclamp_cpus(monkeypatch)
    monkeypatch.setattr(parallel_mod, "_SCENARIO_FANOUT", (_square, [1]))
    with pytest.raises(AnalysisError, match="already fanning out"):
        run_scenarios([1, 2], _square, workers=2)


def test_run_scenarios_recovers_crashed_workers(monkeypatch):
    # Every pool worker raises; the serial retry in the parent succeeds,
    # so results still arrive complete and in order.
    _unclamp_cpus(monkeypatch)
    assert run_scenarios([1, 2, 3], _fail_in_worker, workers=2) == [2, 3, 4]


def test_run_scenarios_generation_matches_serial(monkeypatch):
    _unclamp_cpus(monkeypatch)
    configs = [
        ScenarioConfig(seed=seed, houses=2, duration=1800.0) for seed in (5, 6, 7)
    ]
    serial_digests = [_tiny_scenario_digest(config) for config in configs]
    parallel_digests = run_scenarios(configs, _tiny_scenario_digest, workers=3)
    assert parallel_digests == serial_digests


def test_run_scenarios_clamps_workers_to_cpus(monkeypatch, capsys):
    # On a host with a single available CPU the fan-out degrades to the
    # serial path (results identical) and says so, once, on stderr.
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 1)
    calls = {"count": 0}

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        calls["count"] += 1
        raise AssertionError("pool must not be used on a 1-CPU host")

    monkeypatch.setattr(parallel_mod.multiprocessing, "get_context", forbidden)
    assert run_scenarios([1, 2, 3], _square, workers=4) == [1, 4, 9]
    assert calls["count"] == 0
    err = capsys.readouterr().err
    assert "reducing workers 4 -> 1" in err


def test_effective_worker_count(monkeypatch):
    from repro.core import parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 4)
    assert effective_worker_count(8) == 4
    assert effective_worker_count(2) == 2
    assert effective_worker_count(8, jobs=3) == 3
    assert effective_worker_count(1, jobs=0) == 1
    with pytest.raises(AnalysisError, match="worker count"):
        effective_worker_count(0)
