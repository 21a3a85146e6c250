"""CI smoke for the optimization service.

Boots ``python -m repro.serve`` as a real subprocess, points
``examples/load_test.py`` at it with 4 tenants at tiny scale, shuts the
server down over HTTP, and asserts the benchmark report demonstrates the
service contract: zero failed jobs, cross-tenant cache dedupe observed,
backpressure answered with 429, and the served results byte-identical to
the batch engine. The load test's report goes to ``REPORT`` when given
(CI names one for its artifact upload), else into a new temporary
directory, so a local run never rewrites the committed
``BENCH_service.json``.

Run: PYTHONPATH=src python .github/scripts/serve_smoke.py [REPORT]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BOOT_TIMEOUT = 60.0


def main() -> int:
    parser = argparse.ArgumentParser(description="Service smoke: boot, load, check.")
    parser.add_argument(
        "report", nargs="?", type=Path, default=None,
        help="load-test report path (default: in a new temporary directory)",
    )
    report_path = parser.parse_args().report
    if report_path is None:
        report_path = Path(tempfile.mkdtemp(prefix="serve-smoke-report-")) / "BENCH_service.json"
    report_path = report_path.resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    spool = tempfile.mkdtemp(prefix="serve-smoke-")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--queue-limit", "8", "--workers", "2", "--spool", spool,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO,
    )
    port = None
    try:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                raise SystemExit(f"server exited during boot: {server.poll()}")
            sys.stdout.write(f"[server] {line}")
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise SystemExit("server never reported its port")

        load = subprocess.run(
            [
                sys.executable, "examples/load_test.py",
                "--connect", f"127.0.0.1:{port}",
                "--tenants", "4", "--jobs-per-tenant", "1",
                "--scale", "0.0002", "--grid", "quick",
                "--output", str(report_path),
            ],
            env=env,
            cwd=REPO,
        )
        if load.returncode != 0:
            raise SystemExit(f"load test failed with exit code {load.returncode}")

        with urllib.request.urlopen(
            urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/shutdown", data=b"", method="POST"
            ),
            timeout=10,
        ) as resp:
            print(f"[smoke] shutdown: {resp.status}")
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    report = json.loads(report_path.read_text())
    checks = {
        "all jobs completed": report["jobs"]["failed"] == 0
        and report["jobs"]["completed"] == report["jobs"]["submitted"] > 0,
        "cache dedupe > 0": report["dedupe"]["total"] > 0,
        "backpressure 429 observed": report["backpressure"]["rejected_429"] > 0,
        "probe jobs all completed": report["backpressure"]["accepted_failed"] == 0,
        "byte-identical to batch engine": report["batch_check"]["identical"] is True,
        "tenants agree on one result": report["jobs"]["distinct_result_digests"] == 1,
    }
    for name, ok in checks.items():
        print(f"[smoke] {'ok' if ok else 'FAIL'}: {name}")
    if not all(checks.values()):
        return 1
    print(f"[smoke] report at {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
