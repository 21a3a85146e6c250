"""Table 4 — fetch bandwidth (IPC) per layout, cache/CFA size and trace cache.

Run: ``python -m repro.experiments.table4 [--scale 0.005] [--quick]``
"""

from __future__ import annotations

from repro.experiments.config import CACHE_CFA_GRID, PAPER_TABLE4, PRIMARY_ROWS
from repro.experiments.harness import (
    resolve_jobs,
    settings_from_args,
    suite_options_from_args,
    suite_parser,
)
from repro.experiments.suite import SuiteResults, get_suite, suite_for
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
) -> SuiteResults:
    return get_suite(workload, grid, progress=progress, jobs=jobs, **suite_options)


def _fmt_range(lo: float, hi: float) -> str:
    if hi - lo < 0.05:
        return f"{hi:.1f}"
    return f"{lo:.1f}-{hi:.1f}"


def render(suite: SuiteResults, grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID) -> str:
    headers = ["cache/CFA KB", "orig", "P&H", "Torr", "auto", "ops", "TC 16KB", "TC+ops", "paper o/ops/TC+ops"]
    first = grid[0]
    ideal_paper = PAPER_TABLE4["Ideal"]
    ideal_row = [
        "Ideal",
        f"{suite.cells[first]['orig'].ideal_ipc:.1f}",
        f"{suite.cells[first]['P&H'].ideal_ipc:.1f}",
        _fmt_range(*suite.ideal_range("Torr")),
        _fmt_range(*suite.ideal_range("auto")),
        _fmt_range(*suite.ideal_range("ops")),
        f"{suite.tc_ideal:.1f}",
        _fmt_range(min(suite.tc_ops_ideal.values()), max(suite.tc_ops_ideal.values()))
        if suite.tc_ops_ideal
        else "-",
        f"{ideal_paper['orig']}/{ideal_paper['ops']}/{ideal_paper['TC+ops']}",
    ]
    rows: list[list] = [ideal_row]
    for row in grid:
        cache_kb, cfa_kb = row
        cells = suite.cells[row]
        primary = row in PRIMARY_ROWS
        paper = PAPER_TABLE4.get(row, {})
        rows.append(
            [
                f"{cache_kb}/{cfa_kb}",
                cells["orig"].ipc if primary else None,
                cells["P&H"].ipc if primary else None,
                cells["Torr"].ipc,
                cells["auto"].ipc,
                cells["ops"].ipc,
                suite.tc_ipc[cache_kb] if primary else None,
                suite.tc_ops_ipc.get(row),
                "/".join(str(paper.get(k, "-")) for k in ("orig", "ops", "TC+ops")),
            ]
        )
    return format_table(
        headers,
        rows,
        title="Table 4: fetch bandwidth (instructions/cycle), 5-cycle miss penalty, Test set",
        floatfmt=".1f",
    )


def main(argv=None) -> None:
    parser = suite_parser(__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="primary rows only")
    args = parser.parse_args(argv)
    grid = PRIMARY_ROWS if args.quick else CACHE_CFA_GRID
    suite = suite_for(
        settings_from_args(args),
        grid,
        progress=True,
        jobs=resolve_jobs(args.jobs),
        **suite_options_from_args(args),
    )
    print(render(suite, grid))


if __name__ == "__main__":
    main()
