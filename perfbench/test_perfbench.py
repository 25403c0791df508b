"""Self-test: a tiny run of every workload, untraced and traced (the two
workloads BENCHMARK.json leaves out too).

    python3 -m pytest perfbench -q -p no:cacheprovider

Each run must end with no failed operation and print, as its last line,
exactly the metrics ``BENCHMARK.json`` declares for that mode, with the
declared units.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def test_declared_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_tiny_run(workload, trace):
    p = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace),
                           "--docs", "600"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    assert "metric error_rate 0 ratio n=" in p.stdout
    out = json.loads(lines[-1])
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())
    if trace:
        assert any(line.startswith("tracing_overhead ") for line in lines)
