"""Differential streaming≡batch harness.

The serial batch pipeline is the oracle: for every golden scenario
(three seeds, each under the default, fault-injected, and cache-pressure
configurations) the exact-mode streaming engine must reproduce
``run_pipeline(trace, workers=1)`` *byte-identically* — equal analysis
objects AND an equal rendered report, through both the serial one-pass
path and the household-sharded merge path that ``run_pipeline`` itself
takes with ``workers>1``, under both pairing policies.

Window invariance rides along: for any window W no smaller than the
trace's largest pairing reach-back, ``streaming(W) == streaming(2W) ==
streaming(unbounded)`` — dropping expired-fallback state the trace
never reaches back to must not change a single statistic.
"""

import functools

import pytest

from tests.strategies import trace_streams

from hypothesis import given, settings

from repro.core.context import ContextStudy, StudyOptions
from repro.core.pairing import PairingPolicy
from repro.core.parallel import run_pipeline, run_streaming_pipeline
from repro.core.streaming import StreamingConfig, analyze_stream
from repro.report.tables import render_pipeline_report
from repro.workload.generate import generate_trace, generate_trace_with_pressure
from repro.workload.scenario import FaultConfig, PressureConfig, ScenarioConfig

pytestmark = pytest.mark.slow

SEEDS = (1, 2, 3)
VARIANTS = ("default", "faults", "pressure")

HOUSES = 3
DURATION_S = 6 * 3600.0


def _scenario(seed: int, variant: str) -> ScenarioConfig:
    if variant == "default":
        return ScenarioConfig(seed=seed, houses=HOUSES, duration=DURATION_S)
    if variant == "faults":
        return ScenarioConfig(
            seed=seed,
            houses=HOUSES,
            duration=DURATION_S,
            faults=FaultConfig(
                timeout_probability=0.02,
                servfail_probability=0.02,
                nxdomain_probability=0.01,
                outage_rate_per_hour=0.2,
            ),
        )
    assert variant == "pressure"
    return ScenarioConfig(
        seed=seed,
        houses=HOUSES,
        duration=DURATION_S,
        pressure=PressureConfig(
            stub_cache_capacity=32,
            stub_cache_policy="serve-stale",
            stub_stale_ttl_s=900.0,
        ),
    )


@functools.lru_cache(maxsize=None)
def _trace(seed: int, variant: str):
    config = _scenario(seed, variant)
    if variant == "pressure":
        trace, _ = generate_trace_with_pressure(config)
        return trace
    return generate_trace(config)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_streaming_exact_matches_batch(seed, variant):
    trace = _trace(seed, variant)
    batch = run_pipeline(trace, workers=1)
    streamed = run_streaming_pipeline(trace.dns, trace.conns, workers=1)
    assert streamed == batch
    # Byte-identical report, not just equal objects: the renderer's
    # sorted sections must erase any dict-ordering difference between
    # the engines.
    assert render_pipeline_report(streamed) == render_pipeline_report(batch)


def _sharded_case_id(seed: int, variant: str, policy: PairingPolicy) -> str:
    """The default scenario under the default policy is named by its seed."""
    if variant == "default" and policy is PairingPolicy.MOST_RECENT:
        return str(seed)
    return f"{variant}-{policy.value}-{seed}"


SHARDED_CASES = [
    pytest.param(seed, variant, policy, id=_sharded_case_id(seed, variant, policy))
    for policy in PairingPolicy
    for variant in VARIANTS
    for seed in SEEDS
]


@pytest.mark.parametrize(("seed", "variant", "policy"), SHARDED_CASES)
def test_sharded_streaming_matches_batch(seed, variant, policy):
    trace = _trace(seed, variant)
    options = StudyOptions(pairing_policy=policy, pairing_seed=seed)
    batch = run_pipeline(trace, options, workers=1)
    report = render_pipeline_report(batch)
    sharded = run_streaming_pipeline(trace.dns, trace.conns, options, workers=2)
    assert sharded == batch
    assert render_pipeline_report(sharded) == report
    for workers in (2, 4):
        parallel = run_pipeline(trace, options, workers=workers)
        assert parallel == batch, workers
        assert render_pipeline_report(parallel) == report, workers


def _max_reachback_s(trace) -> float:
    """The largest completion→connection gap any pairing used."""
    return max(
        item.gap
        for item in ContextStudy(trace).paired
        if item.gap is not None and item.gap > 0
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_window_invariance_when_gaps_fit(seed):
    trace = _trace(seed, "default")
    # +1 s of slack keeps the largest-gap pairing away from the
    # floating-point drain-horizon boundary (see the generated-stream
    # variant below for why exact equality is not window-safe).
    window_s = _max_reachback_s(trace) + 1.0
    windowed = run_streaming_pipeline(trace.dns, trace.conns, window_s=window_s)
    doubled = run_streaming_pipeline(trace.dns, trace.conns, window_s=2 * window_s)
    unbounded = run_streaming_pipeline(trace.dns, trace.conns, window_s=None)
    assert windowed == doubled == unbounded
    assert render_pipeline_report(windowed) == render_pipeline_report(unbounded)


def test_tight_window_bounds_memory_and_only_drops_fallbacks(seed=1):
    """A window below the max reach-back drops only expired-fallback
    pairings (everything a live-TTL candidate pairs is untouched), and
    shrinks the index high-water mark."""
    trace = _trace(seed, "default")
    tight = StreamingConfig(window_s=600.0)
    unbounded = StreamingConfig(window_s=None)
    tight_state = analyze_stream(trace.dns, trace.conns, tight)
    full_state = analyze_stream(trace.dns, trace.conns, unbounded)
    assert tight_state.peak_live_records < full_state.peak_live_records
    assert tight_state.expired_pairings <= full_state.expired_pairings
    # Non-expired pairing decisions are window-independent.
    assert (
        tight_state.paired - tight_state.expired_pairings
        == full_state.paired - full_state.expired_pairings
    )


def _pairing_signature(state) -> tuple:
    """The window-sensitive observable core of a streaming state."""
    return (
        state.total_conns,
        state.paired,
        state.unique_viable,
        state.expired_pairings,
        state.expired_candidates,
        state.unused_lookups,
        tuple(state.gaps),
        tuple(state.blocked_resolvers),
        tuple(state.blocked_rtts_s),
        tuple(state.blocked_contributions),
    )


@pytest.mark.property
@given(streams=trace_streams())
@settings(max_examples=25, deadline=None)
def test_window_invariance_on_generated_streams(streams):
    """streaming(W) == streaming(2W) whenever the trace's pairing gaps
    fit in W — on hypothesis-generated record streams, at the state
    level (no finalize, so empty/degenerate streams are fair game)."""
    dns_records, conns = streams
    probe = analyze_stream(dns_records, conns, StreamingConfig(window_s=None))
    reachback = max([gap for gap in probe.gaps if gap > 0], default=1.0)
    # Margin matters: at W == reachback exactly, the drain horizon
    # ``fl(now - W)`` can round one ulp past the boundary completion
    # time and drop a pairing whose gap equals W. The contract is
    # "W comfortably above the largest gap", so give it slack.
    window_s = reachback + 1.0
    windowed = analyze_stream(dns_records, conns, StreamingConfig(window_s=window_s))
    doubled = analyze_stream(dns_records, conns, StreamingConfig(window_s=2 * window_s))
    assert _pairing_signature(windowed) == _pairing_signature(doubled)
    assert _pairing_signature(windowed) == _pairing_signature(probe)
