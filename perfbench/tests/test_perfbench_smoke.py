"""Smoke-sized runs of every workload, untraced and traced, plus the checks
that BENCHMARK.json lists what the runs report and that the benchmark
refuses to run without the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
from irbm import checkpoint, model, training  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "bars16-rp-exact": lambda: bench.BarsExact(epochs=2, n_train=100, n_test=50),
    "digits784-gen": lambda: bench.Digits784(labeled=False, epochs=2, n_train=200, l=30),
    "digits784-hybrid": lambda: bench.Digits784(labeled=True, epochs=1, n_train=200, l=30),
    "digits784-ais-eval": lambda: bench.AisEval(l=30, n_test=50, temps=5, chains=10),
}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS) == list(SMALL)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (unit, _) in tracing.PER_LAYER.items()}


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_run_untraced(name, tmp_path):
    result = bench.run(SMALL[name], seed=3, seconds=0.01, trace=False, out_dir=tmp_path)
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    assert {k: u for k, (_, u) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in result.metrics.values())
    line = result.json_line()
    assert set(json.loads(line)) == {"correct", "attempted", "failed", "metrics"}
    assert not any(tmp_path.glob("tmp-*")), "the run leaves its scratch files behind"


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_run_traced(name, tmp_path):
    result = bench.run(SMALL[name], seed=3, seconds=0.01, trace=True, out_dir=tmp_path)
    assert result.correct, result.failures
    assert list(result.metrics) == list(tracing.PER_LAYER)
    written = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    assert written["workload"] == name and written["spans"]
    assert result.report["top_self_layer"] in tracing.LAYERS


def test_same_seed_same_digest(tmp_path):
    runs = [bench.run(SMALL["digits784-gen"], seed=5, seconds=0.01, trace=False,
                      out_dir=tmp_path) for _ in range(2)]
    assert runs[0].report["digest"] == runs[1].report["digest"]


def test_same_state_sees_one_flipped_bit():
    params = model.zero_model(D=4)
    data = checkpoint.CheckpointData(params=params, opt=training.OptimizerState.fresh(params),
                                     regroup=training.RegroupState(), chains=None, seed=1,
                                     epochs_done=0)
    other = checkpoint.CheckpointData(params=params.copy(), opt=data.opt, regroup=data.regroup,
                                      chains=None, seed=1, epochs_done=0)
    assert bench.same_state(data, other)
    other.params.W[0, 0] = -0.0          # equal as a number, different bits
    assert not bench.same_state(data, other)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digits784-gen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
