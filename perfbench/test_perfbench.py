"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run prints every metric ``BENCHMARK.json`` lists, with its
unit, that a wrong recorded digest counts as a failed call, and that the
benchmark refuses to run without the library's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(
        cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170
    )


def copy_benchmark(root: Path) -> None:
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")


def summary_value(lines: list[str], name: str) -> float:
    rows = [line.split() for line in lines if line.split()[:1] == [name]]
    assert len(rows) == 1, f"{name} printed {len(rows)} times"
    return float(rows[0][1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == listed
    for name, unit in listed.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert summary_value(lines[:-1], name) == pytest.approx(
            result["metrics"][name]["value"], rel=1e-5
        )
    assert summary_value(lines[:-1], "failed_frac") == 0.0


def test_wrong_digest_counts_as_failed(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    digests_path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text(encoding="utf-8"))
    digests["tiny"]["codegree"]["2718"] = "0" * 64
    digests_path.write_text(json.dumps(digests), encoding="utf-8")

    proc = run(tmp_path, "codegree", trace=0, seed=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 1  # the one call at the held-out seed
    assert summary_value(lines[:-1], "failed_frac") == pytest.approx(1 / result["attempted"])


def test_refuses_without_library_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(tmp_path, "audit-mixed", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
