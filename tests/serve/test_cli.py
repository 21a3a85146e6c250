"""CLI smoke for ``python -m repro.serve``: --help, flag validation and
the hermetic ``--port 0 --once`` self-terminating mode (bind, self-check,
exit)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.__main__ import build_parser

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_help_exits_zero():
    proc = _run(["--help"])
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    for flag in ("--port", "--queue-limit", "--workers", "--once"):
        assert flag in proc.stdout


def test_once_mode_self_terminates(tmp_path):
    proc = _run(["--port", "0", "--once", "--spool", str(tmp_path / "spool")])
    assert proc.returncode == 0, proc.stderr
    assert "repro.serve listening on http://127.0.0.1:" in proc.stdout
    assert "self-check ok" in proc.stdout


@pytest.mark.parametrize("value", ["0", "-3"])
def test_engine_shard_counts_below_one_are_rejected_at_parse_time(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--engine-shards", value])
    assert exit_info.value.code == 2
    assert "--engine-shards: must be at least 1" in capsys.readouterr().err


def test_bad_flag_exits_nonzero():
    proc = _run(["--not-a-flag"])
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()
