"""Tests of the benchmark itself: output schema, repeatable counts, tracer patching.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc


def smoke(workload, trace, seed=5):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_calibration_passes_are_caught():
    layers = smoke("sweep_hazy_visibility", trace=1)["metrics"]
    calls = layers["modem.calibrate_noise_std.calls"]["value"]
    passes = layers["modem.calibrate_noise_std.passes"]["value"]
    # 3 sweep points, each bisecting over more than ten channel passes.
    assert calls == 3 and passes > 10 * calls
    assert layers["modem.apply_channel.calls"]["value"] == passes + calls


def test_tracer_patches_every_namespace_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from fsolink import modem, pipeline, spatial_filter
        import tracer

        original = modem.apply_channel
        with tracer.Tracer().installed():
            assert modem.apply_channel is not original
            assert pipeline.apply_channel is modem.apply_channel
            assert spatial_filter.apply_channel is modem.apply_channel
        assert modem.apply_channel is pipeline.apply_channel is original
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
