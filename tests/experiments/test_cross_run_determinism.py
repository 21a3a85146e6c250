"""Cross-run determinism: two fresh processes with the same seed produce
byte-identical trace stores and bit-identical suite numbers.

Same-process determinism is covered in ``tests/profiling``; this test
catches the cross-process failure modes those cannot — hash-seed or dict-
order dependence, accidental use of wall-clock or PID-derived state, and
nondeterministic store serialization.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

# Builds the workload from scratch (the REPRO_CACHE_DIR is empty), hashes
# both stored traces, runs one suite row and dumps every number.
_SCRIPT = """
import hashlib, json
from dataclasses import asdict
from repro.experiments.harness import WorkloadSettings, get_workload
from repro.experiments.suite import suite_for

settings = WorkloadSettings(scale=0.0002)
workload = get_workload(settings)
for trace in (workload.training_trace, workload.test_trace):
    digest = hashlib.sha256(trace.path.read_bytes()).hexdigest()
    print(trace.path.name, digest)

suite = suite_for(settings, ((8, 2),))
row = {name: asdict(cell) for name, cell in suite.cells[(8, 2)].items()}
print(json.dumps(row, sort_keys=True))
print(json.dumps({
    "n_instructions": suite.n_instructions,
    "assoc_miss": suite.assoc_miss,
    "victim_miss": suite.victim_miss,
    "tc_ipc": suite.tc_ipc,
}, sort_keys=True, default=str))
"""


def _run_fresh(tmp_path: Path, tag: str) -> str:
    cache_dir = tmp_path / f"cache-{tag}"
    cache_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # different hash seeds per process: determinism must not lean on them
    env["PYTHONHASHSEED"] = {"a": "1", "b": "31337"}[tag]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_fresh_processes_agree_byte_for_byte(tmp_path):
    a = _run_fresh(tmp_path, "a")
    b = _run_fresh(tmp_path, "b")
    assert a == b
    # sanity: the output actually contains the hashes and the suite row
    lines = a.strip().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()[-1]) == 64 for line in lines[:2])  # sha256 hex
    assert '"ipc"' in lines[2]
