"""Smoke test of the benchmark harness at tiny sizes (about a minute in all).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced, and checks that
each run is correct and prints exactly the metrics BENCHMARK.json names, with
their units. Also checks that the harness refuses to run without the sources
and with a checkpoint that no longer matches its sha256.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _copy(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_refuses_to_run_without_sources(tmp_path):
    proc = run(_copy(tmp_path, with_sources=False), "train", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_a_changed_checkpoint(tmp_path):
    root = _copy(tmp_path, with_sources=True)
    checkpoint = root / "bench" / "checkpoints" / "am_trained.json"
    checkpoint.write_text(checkpoint.read_text().replace('"kind"', '"kind" ', 1))
    proc = run(root, "decode_peaky", 0)
    assert proc.returncode != 0
    assert "sha256" in proc.stderr
    assert '"metrics"' not in proc.stdout
