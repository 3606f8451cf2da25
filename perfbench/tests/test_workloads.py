"""Each workload runs end to end at tiny sizes, and tracing changes no output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import build_inputs, run_round, run_workload
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end(name, tmp_path):
    result = run_workload(name, 5, 0, False, tmp_path, SRC, sizes=WORKLOADS[name].tiny)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(result["commands_s"]) * result["rounds"]["untraced"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_hash_like_untraced(name, tmp_path):
    workload = WORKLOADS[name]
    build_inputs(workload, tmp_path / "inputs", 7, workload.tiny)
    plain = run_round(workload, tmp_path / "plain", tmp_path / "inputs", 7, workload.tiny)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(workload, tmp_path / "traced", tmp_path / "inputs", 7, workload.tiny)
    finally:
        tracer.uninstall()
    assert not plain["failed"] and not traced["failed"]
    assert plain["hashes"] == traced["hashes"]
    assert sum(tracer.calls.values()) > 0


def test_trace_run_reports_every_per_layer_metric(tmp_path):
    result = run_workload("l63", 5, 0, True, tmp_path, SRC, sizes=WORKLOADS["l63"].tiny)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["neighbors.exclusion_rounds_per_query"]["value"] >= 1.0
    assert result["metrics"]["lorenz.steps_per_s"]["value"] > 0


def test_uninstall_restores_the_package():
    import analogdist.experiments as experiments
    import analogdist.neighbors as neighbors

    before = (experiments.load_catalog, neighbors.NeighborIndex.query)
    tracer = Tracer()
    tracer.install()
    assert experiments.load_catalog is not before[0]
    tracer.uninstall()
    assert (experiments.load_catalog, neighbors.NeighborIndex.query) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "l63", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
