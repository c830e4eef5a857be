"""Self-test of the benchmark: every workload at tiny size, traced and not.

Each run must emit exactly the metrics BENCHMARK.json names, each with its
unit, with no failed operation; a traced run's replay must match the CLI.
Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.replay_matches"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "predict", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
