"""Tests of the benchmark itself, on the tiny ``smoke`` scale.

Run from the repository root with ``python -m pytest perfbench``. Every
workload goes through the same code as a full-scale run; the tests
check that each named metric is emitted with its unit, and that the
correctness gate fails the run on a corrupted input or reference.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("generate", "analyze-batch-tsv", "analyze-stream-rblg")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _stream:
    SPEC = json.load(_stream)


def run_bench(workload: str, cache_dir, trace: int = 0, root: str = ROOT):
    process = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
         "--cache-dir", str(cache_dir)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return process.returncode, result, process


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-cache")


def cached_copy(cache, tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(cache, copy)
    return copy


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(cache, workload, trace):
    code, result, process = run_bench(workload, cache, trace)
    assert code == 0, process.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_batch_and_stream_census_agree(cache):
    census = {}
    for workload in ("analyze-batch-tsv", "analyze-stream-rblg"):
        code, result, _ = run_bench(workload, cache, trace=1)
        assert code == 0
        census[workload] = {
            name: m["value"] for name, m in result["metrics"].items()
            if name.startswith(("core.pairing.unique", "core.pairing.ambiguous",
                                "core.pairing.expired", "core.pairing.unpaired",
                                "core.classify.class."))
        }
    assert census["analyze-batch-tsv"] == census["analyze-stream-rblg"]
    assert sum(v for k, v in census["analyze-batch-tsv"].items() if "class." in k) > 0


def _inputs_dir(cache) -> str:
    (directory,) = glob.glob(os.path.join(str(cache), "*", "smoke", "seed1"))
    return directory


def _edit_manifest(cache, edit) -> None:
    path = os.path.join(_inputs_dir(cache), "manifest.json")
    with open(path, encoding="utf-8") as stream:
        manifest = json.load(stream)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(manifest, stream)


def test_flipped_rblg_byte_fails_the_run(cache, tmp_path):
    run_bench("analyze-stream-rblg", cache)
    copy = cached_copy(cache, tmp_path)
    path = os.path.join(_inputs_dir(copy), "conn.rblg")
    with open(path, "r+b") as stream:
        stream.seek(os.path.getsize(path) // 2)
        byte = stream.read(1)
        stream.seek(-1, os.SEEK_CUR)
        stream.write(bytes([byte[0] ^ 0x01]))
    code, result, process = run_bench("analyze-stream-rblg", copy)
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "FAILED" in process.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_pinned_reference_fails_the_run(cache, tmp_path, workload):
    run_bench(workload, cache)
    copy = cached_copy(cache, tmp_path)

    def corrupt(manifest):
        reference = manifest["reference"]
        if workload == "generate":
            reference[workload]["trace_digest"] = "0" * 64
        else:
            reference[workload] = "0" * 64

    _edit_manifest(copy, corrupt)
    code, result, process = run_bench(workload, copy)
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "FAILED" in process.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run_bench("generate", tmp_path / "cache", root=str(tmp_path))
    assert code != 0
    assert result is None
