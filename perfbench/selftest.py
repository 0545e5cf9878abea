"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/selftest.py

Run from the checkout root.  Each workload runs once timed and once traced
with the "tiny" profile; every metric named in BENCHMARK.json must come out
with its unit, no command may fail its output check, and each layer must
show work on the workloads that exercise it.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# Layers whose self time must be above zero on a workload's traced run.
LAYERS_RUN = {
    "predset": ("cli", "dataio", "gaussians", "scores", "estimators", "metrics"),
    "shift": ("cli", "dataio", "gaussians", "scores", "estimators", "synthetic"),
    "verify": ("cli", "dataio", "gaussians", "scores", "estimators", "oracle"),
    "train": ("cli", "dataio", "gaussians", "scores", "estimators", "trainer", "metrics"),
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        for layer in LAYERS_RUN[workload]:
            assert result["metrics"][f"{layer}.self_s"]["value"] > 0, layer
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
