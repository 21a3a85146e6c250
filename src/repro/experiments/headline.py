"""Section 8 headline numbers: the paper's summary claims, measured.

* instructions between taken branches: 8.9 (orig) -> 22.4 (ops)
* miss-rate reduction of 60-98 % across realistic cache sizes
* 64 KB fetch bandwidth: 5.8 (orig) -> 10.6 (ops)
* trace cache: 8.6 alone -> 12.1 combined with the ops layout

Run: ``python -m repro.experiments.headline``
"""

from __future__ import annotations

from repro.experiments.config import CACHE_CFA_GRID, PAPER_HEADLINE, PRIMARY_ROWS
from repro.experiments.harness import (
    get_workload,
    resolve_jobs,
    settings_from_args,
    suite_options_from_args,
    suite_parser,
)
from repro.experiments.suite import get_suite, suite_for
from repro.tpcd.workload import Workload
from repro.util.fmt import format_table

__all__ = ["compute", "render", "main"]


def compute(
    workload: Workload,
    grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID,
    *,
    progress: bool = False,
    jobs: int = 1,
    **suite_options,
) -> dict[str, tuple[float, float]]:
    """``claim -> (measured, paper)``; reductions in percent."""
    suite = get_suite(workload, grid, progress=progress, jobs=jobs, **suite_options)
    ref_row = (64, 16) if (64, 16) in suite.cells else grid[-1]
    big_row = next(row for row in reversed(grid) if row in suite.cells)
    cache64 = next((row for row in grid if row[0] == 64), big_row)

    out: dict[str, tuple[float, float]] = {}
    out["instructions between taken branches (orig)"] = (
        suite.cells[ref_row]["orig"].run_length,
        PAPER_HEADLINE["instructions between taken branches (orig)"],
    )
    out["instructions between taken branches (ops)"] = (
        suite.cells[ref_row]["ops"].run_length,
        PAPER_HEADLINE["instructions between taken branches (ops)"],
    )
    out["fetch bandwidth 64KB orig"] = (
        suite.cells[cache64]["orig"].ipc,
        PAPER_HEADLINE["fetch bandwidth 64KB orig"],
    )
    out["fetch bandwidth 64KB ops"] = (
        suite.cells[cache64]["ops"].ipc,
        PAPER_HEADLINE["fetch bandwidth 64KB ops"],
    )
    out["trace cache alone"] = (
        suite.tc_ipc[cache64[0]],
        PAPER_HEADLINE["trace cache alone"],
    )
    if suite.tc_ops_ipc:
        best_row = max(suite.tc_ops_ipc, key=suite.tc_ops_ipc.get)
        out["trace cache + ops"] = (
            suite.tc_ops_ipc[best_row],
            PAPER_HEADLINE["trace cache + ops"],
        )
    # miss-rate reductions per cache size (paper: 60-98 %)
    for row in PRIMARY_ROWS:
        if row not in suite.cells:
            continue
        orig = suite.cells[row]["orig"].miss_rate
        ops = suite.cells[row]["ops"].miss_rate
        reduction = 100.0 * (1 - ops / orig) if orig else 0.0
        out[f"miss reduction at {row[0]}KB (%)"] = (reduction, float("nan"))
    return out


def render(rows: dict[str, tuple[float, float]]) -> str:
    table = [[k, f"{v:.1f}", "-" if p != p else f"{p}"] for k, (v, p) in rows.items()]
    return format_table(
        ["claim", "measured", "paper"],
        table,
        title="Section 8 headline numbers (paper's miss-reduction claim: 60-98%)",
    )


def main(argv=None) -> None:
    args = suite_parser(__doc__.splitlines()[0]).parse_args(argv)
    # warm the suite via the disk-first path (skips the workload build on a
    # warm artifact cache), then reuse it through the in-memory layer
    suite_for(
        settings_from_args(args),
        progress=True,
        jobs=resolve_jobs(args.jobs),
        **suite_options_from_args(args),
    )
    workload = get_workload(settings_from_args(args))
    print(render(compute(workload, progress=True)))


if __name__ == "__main__":
    main()
