"""Checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The traced-count test runs the benchmark four times (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, _, better) in tracer.PER_LAYER.items()
    }


def test_high_percentile_keeps_ten_samples_beyond():
    assert run.high_percentile(list(range(5))) == (None, None)
    assert run.high_percentile(list(range(1, 21))) == (50.0, 10)
    assert run.high_percentile(list(range(1, 101))) == (90.0, 90)
    assert run.high_percentile(list(range(1, 1001))) == (99.0, 990)


@pytest.mark.parametrize("workload", ["desk_walk", "mc_oracle"])
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        out = run_bench(ROOT, workload, seed=3, trace=1)
        assert out.returncode == 0, out.stderr
        line = json.loads(out.stdout.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == set(tracer.PER_LAYER)
        counts.append({name: m["value"] for name, m in line["metrics"].items()
                       if tracer.PER_LAYER[name][1] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["model.sample_noise_batch.values"] > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "desk_walk", seed=0, trace=0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
