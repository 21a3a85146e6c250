"""Table 3 — instruction cache miss rate per layout, cache and CFA size.

Run: ``python -m repro.experiments.table3 [--scale 0.005] [--quick]``
"""

from __future__ import annotations

from repro.experiments.config import CACHE_CFA_GRID, PAPER_TABLE3, PRIMARY_ROWS
from repro.experiments.harness import (
    resolve_jobs,
    settings_from_args,
    suite_options_from_args,
    suite_parser,
)
from repro.experiments.suite import SuiteResults, suite_for
from repro.util.fmt import format_table

__all__ = ["render", "main"]


def render(suite: SuiteResults, grid: tuple[tuple[int, int], ...] = CACHE_CFA_GRID) -> str:
    rows = []
    for row in grid:
        cache_kb, cfa_kb = row
        cells = suite.cells[row]
        primary = row in PRIMARY_ROWS
        paper = PAPER_TABLE3.get(row, {})
        rows.append(
            [
                f"{cache_kb}/{cfa_kb}",
                cells["orig"].miss_rate if primary else None,
                cells["P&H"].miss_rate if primary else None,
                cells["Torr"].miss_rate,
                cells["auto"].miss_rate,
                cells["ops"].miss_rate,
                suite.assoc_miss[cache_kb] if primary else None,
                suite.victim_miss[cache_kb] if primary else None,
                "/".join(str(paper.get(k, "-")) for k in ("orig", "Torr", "ops")),
            ]
        )
    return format_table(
        ["cache/CFA KB", "orig", "P&H", "Torr", "auto", "ops", "2-way", "victim", "paper o/T/ops"],
        rows,
        title="Table 3: i-cache miss rate (% misses per instruction), Test set",
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
