"""Self-test of the e2e benchmark at a small scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.0002
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prints_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in DECLARED["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
        assert f"{name} {spec['name']} " in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "dss-primary", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def engine_run():
    """One small dss-primary workload and its untraced suite, in-process."""
    spec = workloads.WORKLOADS["dss-primary"]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setenv("REPRO_CACHE_DIR", tmp)
        mp.setattr(workloads, "WORK", Path(tmp))
        mp.setattr(workloads, "DIGEST_MEMO", Path(tmp) / "digests.json")
        from repro.experiments.harness import get_workload, training_profile
        from repro.tpcd.workload import WorkloadSettings

        workload = get_workload(WorkloadSettings(scale=SCALE, seed=5))
        training_profile(workload)
        _, suite, _ = workloads.engine_call(workload, spec, 1, None, tempfile.mkdtemp(dir=tmp))
        yield spec, workload, suite


def _perturbed(suite):
    cells = {row: dict(by_name) for row, by_name in suite.cells.items()}
    row = next(iter(cells))
    cell = cells[row]["ops"]
    cells[row]["ops"] = dataclasses.replace(cell, miss_rate=cell.miss_rate * (1 + 1e-12))
    return dataclasses.replace(suite, cells=cells)


def test_digest_check_rejects_a_perturbed_result(engine_run):
    spec, _, suite = engine_run
    assert workloads.result_errors(suite, spec, SCALE, 5) == []
    assert workloads.result_errors(suite, spec, SCALE, 5) == []  # same digest again
    errors = workloads.result_errors(_perturbed(suite), spec, SCALE, 5)
    assert any("another workload" in e for e in errors)


def test_traced_mirror_reproduces_untraced_counters(engine_run):
    spec, workload, suite = engine_run
    metrics, units, _ = traced.mirror(workload, spec)
    assert traced.fidelity_errors(suite, units, spec.grid) == []
    assert traced.fidelity_errors(_perturbed(suite), units, spec.grid)
    assert metrics["tracecache.attempts"][0] > 0 and metrics["traced.total_s"][0] > 0


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
         [8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.0, 8.1, 7.9, 8.0], "improved"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
         [12.0, 12.1, 11.9, 12.0, 12.2, 11.8, 12.0, 12.1, 11.9, 12.0], "regressed"),
        ([10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 7.5, 11.0, 9.0, 10.5],
         [10.5, 13.0, 7.5, 11.0, 9.0, 12.0, 8.0, 12.5, 8.5, 10.0], "unresolved"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
         [10.1, 10.0, 10.0, 9.9, 10.1, 10.0, 9.9, 10.2, 10.0, 10.0], "within bound"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.10) == expected


def test_compare_flags_new_failures():
    def record(failed):
        return {"workload": "w", "correct": True, "attempted": 10, "failed": failed,
                "metrics": {"suite_s": {"value": 1.0, "unit": "s"}}}

    table = compare.compare([record(0)], [record(1)], DECLARED["end_to_end"])
    assert table["w"]["failed_frac"][0] == "regressed"
