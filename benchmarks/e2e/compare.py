"""Compare e2e benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a record written by ``run.py --out``. Files pair up in the
order given (run them alternately: parent, change, parent, ...). For every
workload and end-to-end metric of ``BENCHMARK.json``:

* **improved** — the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's interquartile range;
* **regressed** — the change's median is worse than the parent's by more
  than the metric's bound;
* **unresolved** — neither, and the parent's own spread (IQR over median)
  exceeds the bound, unless every change run beats every parent run;
* **within bound** — otherwise.

``failed_frac`` (failed over attempted operations, summed over runs) may
not rise at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

WIN_SHARE = 0.9


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One (workload, metric) comparison; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (pm - cm) > iqr(parent):
        return "improved"
    if sign * (cm - pm) > bound * abs(pm):
        return "regressed"
    if iqr(parent) > bound * abs(pm) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        return "unresolved"
    return "within bound"


def failed_frac(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["attempted"] if not r["correct"] else r["failed"] for r in records)
    return failed / attempted if attempted else 1.0


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """``{workload: {metric: (verdict, parent median, change median)}}``."""
    by_workload: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, records in enumerate((parent, change)):
        for record in records:
            by_workload[record["workload"]][side].append(record)
    out: dict[str, dict] = {}
    for workload, (p_runs, c_runs) in sorted(by_workload.items()):
        row: dict[str, tuple] = {}
        for spec in metrics:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if p and c:
                row[name] = (
                    verdict(p, c, spec["better"], spec["bound"]),
                    statistics.median(p),
                    statistics.median(c),
                )
        pf, cf = failed_frac(p_runs), failed_frac(c_runs)
        row["failed_frac"] = (
            "regressed" if cf > pf else "improved" if cf < pf else "within bound", pf, cf
        )
        out[workload] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    table = compare(parent, change, metrics)
    for workload, row in table.items():
        cells = []
        for name, (result, pm, cm) in row.items():
            delta = f" {100.0 * (cm - pm) / pm:+.1f}%" if pm else ""
            cells.append(f"{name}: {result}{delta}")
        print(f"{workload} | " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
