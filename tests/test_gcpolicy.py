"""The one GC policy: what each context manager sets, and that every
entry point that uses one hands the collector back as it found it."""

import gc

import pytest

from repro.core.context import ContextStudy
from repro.core.parallel import run_streaming_pipeline
from repro.errors import LogFormatError
from repro.gcpolicy import (
    FOLD_GEN0_THRESHOLD,
    bounded_build,
    fork_shared,
    frozen_build,
    streaming_fold,
)
from repro.monitor.ingest import open_log
from repro.monitor.logs import save_conn_log, save_dns_log
from repro.workload.generate import generate_trace
from repro.workload.scenario import ScenarioConfig

#: Collector states a caller may be in: the interpreter default, and a
#: disabled collector with unusual thresholds.
STARTING_STATES = [(True, (700, 10, 10)), (False, (1234, 5, 7))]


def collector_state():
    return gc.isenabled(), gc.get_threshold()


@pytest.fixture(params=STARTING_STATES, ids=["default", "disabled-custom"])
def starting_state(request):
    saved = collector_state()
    enabled, threshold = request.param
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()
    yield request.param
    gc.set_threshold(*saved[1])
    (gc.enable if saved[0] else gc.disable)()
    gc.unfreeze()


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    trace = generate_trace(ScenarioConfig(seed=5, houses=2, duration=1800.0))
    directory = tmp_path_factory.mktemp("gc-logs")
    dns_path, conn_path = str(directory / "dns.log"), str(directory / "conn.log")
    save_dns_log(dns_path, trace.dns)
    save_conn_log(conn_path, trace.conns)
    torn_path = str(directory / "torn-conn.log")
    with open(conn_path, encoding="utf-8") as source, open(torn_path, "w", encoding="utf-8") as torn:
        lines = source.readlines()
        middle = len(lines) // 2
        torn.writelines(lines[:middle])
        torn.write("torn\tline\n")
        torn.writelines(lines[middle:])
    return dns_path, conn_path, torn_path


class TestContextManagers:
    def test_bounded_build_turns_the_collector_off(self, starting_state):
        gc.unfreeze()
        with bounded_build():
            assert not gc.isenabled()
        assert collector_state() == starting_state
        assert gc.get_freeze_count() == 0

    def test_bounded_build_restores_on_error(self, starting_state):
        with pytest.raises(ValueError):
            with bounded_build():
                raise ValueError("build failed")
        assert collector_state() == starting_state

    def test_frozen_build_freezes_what_it_built(self, starting_state):
        with frozen_build():
            assert not gc.isenabled()
            built = [object() for _ in range(10)]
        assert collector_state() == starting_state
        assert gc.get_freeze_count() > len(built)

    def test_frozen_build_restores_without_freezing_on_error(self, starting_state):
        with pytest.raises(ValueError):
            with frozen_build():
                raise ValueError("load failed")
        assert collector_state() == starting_state
        assert gc.get_freeze_count() == 0

    def test_streaming_fold_raises_generation_zero_only(self, starting_state):
        enabled, (_, first, second) = starting_state
        with streaming_fold():
            assert gc.get_threshold() == (FOLD_GEN0_THRESHOLD, first, second)
            assert gc.isenabled() == enabled
        assert collector_state() == starting_state

    def test_streaming_fold_restores_on_error(self, starting_state):
        with pytest.raises(ValueError):
            with streaming_fold():
                raise ValueError("fold failed")
        assert collector_state() == starting_state

    def test_fork_shared_freezes_only_inside(self, starting_state):
        gc.unfreeze()
        with pytest.raises(ValueError):
            with fork_shared():
                assert gc.get_freeze_count() > 0
                raise ValueError("fan-out failed")
        assert gc.get_freeze_count() == 0
        assert collector_state() == starting_state


class TestEntryPointsRestoreTheCollector:
    def test_from_logs(self, starting_state, logs):
        dns_path, conn_path, _ = logs
        ContextStudy.from_logs(dns_path, conn_path)
        assert collector_state() == starting_state

    def test_from_logs_failing_mid_file(self, starting_state, logs):
        dns_path, _, torn_path = logs
        with pytest.raises(LogFormatError):
            ContextStudy.from_logs(dns_path, torn_path)
        assert collector_state() == starting_state

    def test_run_streaming_pipeline(self, starting_state, logs):
        dns_path, conn_path, _ = logs
        run_streaming_pipeline(open_log(dns_path, "dns"), open_log(conn_path, "conn"))
        assert collector_state() == starting_state

    def test_run_streaming_pipeline_failing_mid_file(self, starting_state, logs):
        dns_path, _, torn_path = logs
        with pytest.raises(LogFormatError):
            run_streaming_pipeline(open_log(dns_path, "dns"), open_log(torn_path, "conn"))
        assert collector_state() == starting_state

    def test_generate_trace(self, starting_state):
        generate_trace(ScenarioConfig(seed=6, houses=2, duration=600.0))
        assert collector_state() == starting_state
