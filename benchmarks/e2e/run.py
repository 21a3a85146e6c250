"""End-to-end benchmark of the suite engine, one workload per process.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload dss-primary --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: cold workload set-up
(median of several, each in its own process with an empty artifact cache),
then cold ``compute_suite`` calls back to back (a closed loop with one
client), as many as the workload's nominal suite time fits into
``--seconds``. ``--trace 1`` runs the separate traced run of
``traced.py`` and reports the per-layer metrics instead. Every result is
checked (digest, shape); one ``workload metric value unit`` line is printed
per metric and the last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _cold_setup(settings, cache_dir: str):
    """``get_workload`` + ``training_profile`` from an empty artifact cache."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    from repro.experiments.harness import get_workload, training_profile

    t0 = time.perf_counter()
    workload = get_workload(settings)
    training_profile(workload)
    return time.perf_counter() - t0, workload


def _cold_setup_seconds(settings, cache_dir: str) -> float:
    return _cold_setup(settings, cache_dir)[0]


def reap_children(timeout: float = 60.0) -> None:
    """Wait for every worker process the engine forked to exit."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(spec, base: float, seed: int, seconds: float, tmp: Path) -> dict:
    """The untraced run: set-up samples, then the suites ``seconds`` buys."""
    import workloads
    from repro.tpcd.workload import WorkloadSettings

    settings = WorkloadSettings(scale=spec.scale(base), seed=seed)
    setup_dirs = [tempfile.mkdtemp(dir=tmp) for _ in range(SETUP_REPEATS)]
    # all but one sample in their own processes, forked before any workload
    # exists (not spawned: a spawn context starts multiprocessing's
    # resource tracker, a process that outlives the run); the last one in
    # this process, which keeps its workload for the suites
    ctx = multiprocessing.get_context("fork")
    setup = []
    for d in setup_dirs[1:]:
        with ProcessPoolExecutor(1, mp_context=ctx) as pool:
            setup.append(pool.submit(_cold_setup_seconds, settings, d).result())
    seconds0, workload = _cold_setup(settings, setup_dirs[0])
    setup.append(seconds0)

    walls, errors = [], []
    attempted = failed = 0
    checked = None
    # closed loop, one client: the next cold suite starts when the last returns
    for _ in range(max(1, int(seconds // spec.nominal_suite_s))):
        wall, suite, manifest = workloads.engine_call(
            workload, spec, spec.jobs, spec.shards, tempfile.mkdtemp(dir=tmp)
        )
        ops, bad = workloads.operations(manifest)
        rep_errors = (
            ["suite call failed"] if suite is None
            else workloads.result_errors(suite, spec, base, seed)
        )
        if rep_errors:
            errors.extend(rep_errors)
            bad = ops
        else:
            checked = suite
        attempted += ops
        failed += bad
        walls.append(wall)

    suite_s = statistics.median(walls)
    n = checked.n_instructions if checked is not None else 0
    minstr = workloads.n_streams(spec.grid, spec.tc_rows) * n / 1e6
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.suite_digest(checked) if checked is not None else None,
        "samples": {"setup_s": setup, "suite_s": walls},
        "metrics": {
            "suite_s": (suite_s, "s"),
            "sim_minstr_per_s": (minstr / suite_s, "Minstr/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None, help="base scale factor")
    parser.add_argument("--out", type=Path, default=None, help="also write the result here")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    base = workloads.DEFAULT_SCALE if args.scale is None else args.scale
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    workloads.WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
            if args.trace:
                import traced

                result = traced.run(spec, base, seed, Path(tmp))
            else:
                result = measure(spec, base, seed, args.seconds, Path(tmp))
    finally:
        reap_children()

    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{spec.name} {name} {value} {unit}")
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    if args.out is not None:
        record = {"workload": spec.name, "seed": seed, "scale": base, "trace": args.trace,
                  "digest": result["digest"], "samples": result.get("samples"), **line}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
