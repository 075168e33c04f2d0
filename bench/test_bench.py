"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The count test runs each workload's traced path twice (one unit per phase),
so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

from layers import DETERMINISTIC_UNITS, JSON_PER_LAYER  # noqa: E402
from spans import EXPECTED, Tracer, installed_names, summarize  # noqa: E402
from workloads import VARIANTS, WORKLOADS, load_reference  # noqa: E402


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == JSON_PER_LAYER


def test_expected_spans_cover_every_wrapper():
    assert set().union(*EXPECTED.values()) == installed_names()


def test_reference_has_every_variant():
    for variant in range(VARIANTS):
        ref = load_reference(variant)
        assert set(ref) == {"train", "enhance", "eval"}


def test_uninstall_restores_the_program():
    from stagemask import blocks, cli, nn, train

    before = (cli.fit, train.adam_step, nn.prelu, blocks.TCNBlock.forward)
    tracer = Tracer()
    tracer.install()
    assert cli.fit is not before[0] and nn.prelu is not before[2]
    tracer.uninstall()
    assert (cli.fit, train.adam_step, nn.prelu, blocks.TCNBlock.forward) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.request = 0

    def leaf():
        time.sleep(0.02)

    leaf = tracer.wrap("leaf", leaf)

    def parent():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.wrap("parent", parent)()
    summary = summarize(tracer)
    par, child = summary["timed"]["parent"], summary["timed"]["leaf"]
    assert child["calls"] == 2
    assert par["self_ns"] == par["ns"] - child["ns"]
    assert 0.005e9 < par["self_ns"] < 0.03e9
    assert summary["top_ns"] == par["ns"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_deterministic_counts_repeat_exactly(name, tmp_path):
    """nn calls, computed GFLOP and bytes, checkpoint bytes and forwards per
    item are identical on two traced runs of one seed."""
    workload = WORKLOADS[name]
    counts = []
    for attempt in range(2):
        work = tmp_path / f"run{attempt}"
        work.mkdir()
        with run.Probe() as probe:
            result = run.traced_run(workload, load_reference(5), 5, 0.0, work, 1.0, probe)
        assert not result["problems"], result["problems"]
        assert all(u.failed == 0 for u in result["units"])
        assert all(result["metrics"][n][0] != 0 for n, _ in JSON_PER_LAYER)
        counts.append({k: v for k, v in result["printed"].items()
                       if v[1] in DETERMINISTIC_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["nn.calls"][0] > 0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-toy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
