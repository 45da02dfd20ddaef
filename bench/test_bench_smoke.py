"""Smoke test of the benchmark: every workload at a tiny size (64x64 zones,
one epoch), untraced and traced, through bench/run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("synth", "raster", "sampling", "nncore", "model", "pipeline",
          "evaluation")
# Every end-to-end metric the benchmark reports: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "predict_px_per_s": ("px/s", "higher"),
    "val_loss_infer": ("BCE", "lower"),
    "density_r": ("r", "higher"),
    "kappa_0.2": ("kappa", "higher"),
    "kappa_0.5": ("kappa", "higher"),
    "ops_failed_frac": ("fraction", "lower"),
}


def bench(workload, trace, seed=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    blocks = {key: value for line in lines[:-1] for key, value in line.items()}
    return blocks, lines[-1]


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = parse(bench(workload, trace))
        return cache[workload, trace]

    return get


def assert_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(runs, workload):
    blocks, result = runs(workload, 0)
    assert_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = blocks["report"]
    for name, (unit, better) in END_TO_END.items():
        assert report[name]["unit"] == unit
        assert report[name]["better"] == better
        assert isinstance(report[name]["value"], (int, float))
    assert report["ops_failed_frac"]["value"] == 0.0
    assert all(failed == 0 for _, failed in blocks["checks"]["passed_failed"].values())
    assert blocks["environment"]["blas"]["threads_in_effect"] in (
        None, blocks["environment"]["nproc"])
    assert blocks["computed"]["label"] == "computed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(runs, workload):
    blocks, result = runs(workload, 1)
    assert_result(result, SPEC["per_layer"])
    assert "trace.overhead_s" in result["metrics"]


def test_traced_runs_cover_every_layer_with_self_times(runs):
    seen = set()
    for workload in WORKLOADS:
        metrics = runs(workload, 1)[1]["metrics"]
        for name, m in metrics.items():
            if name.endswith(("_ms", ".self_ms")) and m["value"] > 0:
                seen.add(name.split(".")[0])
    assert seen == set(LAYERS)


def test_same_seed_repeats_outputs_exactly(runs):
    for workload in ("map_desk", "paper"):
        untraced = runs(workload, 0)[0]["checks"]["mosaic_sha256"]
        traced = runs(workload, 1)[0]["checks"]["mosaic_sha256"]
        assert untraced == traced and len(untraced) == 1
    first = runs("paper", 0)[0]["report"]
    again = parse(bench("paper", 0))[0]["report"]
    for name in ("val_loss_infer", "density_r", "kappa_0.2", "kappa_0.5"):
        assert again[name]["value"] == first[name]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
