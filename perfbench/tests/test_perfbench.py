"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import bench  # noqa: E402
import pin  # noqa: E402
from workloads import SPECS  # noqa: E402

TINY = {
    "prank-gf2": dataclasses.replace(SPECS["prank-gf2"], n=30, trials=3),
    "mcorank-gf3": dataclasses.replace(SPECS["mcorank-gf3"], n=30, trials=3),
    "group-snf": dataclasses.replace(SPECS["group-snf"], windows=((0.5, 8), (0.75, 6)), pool=4),
    "predict-theory": dataclasses.replace(SPECS["predict-theory"], n=40),
}


def tiny_run(name, trace, workdir, seed=1, expected=None, setup_samples=1):
    return bench.run(
        TINY[name], seed, 0.05, trace, expected, workdir, min_ops=6, setup_samples=setup_samples
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result, _ = tiny_run(name, trace, tmp_path)
    declared = bench.declared_metrics(trace)
    lines, final = bench.report(result, declared)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 6
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    text = "\n".join(lines)
    for name_unit in ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "error_rate"):
        assert f"\n{name_unit} " in text
    json.dumps(final)


@pytest.mark.parametrize("name", ["prank-gf2", "group-snf", "predict-theory"])
def test_gate_trips_on_a_corrupted_expected_digest(name, tmp_path):
    expected = pin.pin(TINY[name], (1,), tmp_path / "pin")
    result, _ = tiny_run(name, False, tmp_path / "good", expected=expected)
    assert result.failed == 0

    table = expected["payloads"] if "payloads" in expected else expected["units"]["1"]
    key = next(iter(table)) if isinstance(table, dict) else 0
    table[key] = "0" * 16
    result, _ = tiny_run(name, False, tmp_path / "bad", expected=expected)
    _, final = bench.report(result, bench.declared_metrics(False))
    assert result.failed > 0 and final["correct"] is False
    assert any("pinned" in f for f in result.failures)


def test_every_setup_probe_is_taken(tmp_path):
    result, _ = tiny_run("predict-theory", False, tmp_path, setup_samples=3)
    assert len(result.setup_s) == 3 and all(s > 0 for s in result.setup_s)


def test_work_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        result, _ = tiny_run("mcorank-gf3", True, tmp_path / str(attempt))
        counts.append({k: v for k, v in result.layers.items() if not k.startswith("trace.")
                       and not k.endswith(("ms", "calls"))})
    assert counts[0] == counts[1]
    assert counts[0]["gfp.pivots"] > 0 and counts[0]["rng.SplitMix64.next_below.accept_ratio"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prank-gf2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
