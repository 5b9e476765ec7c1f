"""Smoke test of the benchmark on a tiny seed and length.

    python -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end metric of BENCHMARK.json is printed for every
workload with its unit, that a traced run yields every per-layer metric,
and that a planted wrong answer count is reported as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = "2"
# The first census item is the exhaustive (2, 3) cell.
ITEMS = {"sweep": 3, "homs": 20, "tables": 2, "census": 1}


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", SEED, "--seconds", "0", "--trace", str(trace),
        "--items", str(ITEMS[workload]), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return text, result


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    text, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    _check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_yields_every_per_layer_metric(workload):
    _, result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    _check_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["bench.item.busy_s"] > 0
    assert 0 <= metrics["bench.glue.self_s"] <= metrics["bench.item.busy_s"]


def test_planted_wrong_count_is_a_failure(tmp_path):
    recorded = tmp_path / "expected.json"
    _, result = run("sweep", 0, "--expected", str(recorded), "--record")
    assert result["correct"]
    data = json.loads(recorded.read_text())
    data["sweep"][f"items={ITEMS['sweep']}"][SEED]["congruence.found"] += 1
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(data))
    text, result = run("sweep", 0, "--expected", str(planted))
    assert result["correct"] is False
    assert any("FINGERPRINT MISMATCH" in line for line in text)
