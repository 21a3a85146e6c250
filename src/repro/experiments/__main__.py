"""Run every experiment in sequence: ``python -m repro.experiments``.

Accepts the standard ``--scale/--seed/--kernel-seed`` flags, the suite
flags (``--jobs``, ``--shards``, ``--resume``, ``--task-timeout``,
``--manifest``) and ``--skip-extensions`` to run only the paper's own
tables and figures.
"""

from __future__ import annotations

from repro.experiments import figure2, figure3, headline, table1, table2, table3, table4
from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.harness import (
    get_workload,
    resolve_jobs,
    settings_from_args,
    suite_options_from_args,
    suite_parser,
)
from repro.experiments.suite import get_suite


def main(argv=None) -> None:
    parser = suite_parser("Run the full reproduction: every table and figure.")
    parser.add_argument("--skip-extensions", action="store_true")
    args = parser.parse_args(argv)
    workload = get_workload(settings_from_args(args))

    print(figure3.render(figure3.compute()))
    print()
    print(table1.render(table1.compute(workload)))
    print()
    print(table2.render(table2.compute(workload)))
    print()
    print(figure2.render(figure2.compute(workload)))
    print()
    suite = get_suite(
        workload,
        CACHE_CFA_GRID,
        progress=True,
        jobs=resolve_jobs(args.jobs),
        **suite_options_from_args(args),
    )
    print(table3.render(suite, CACHE_CFA_GRID))
    print()
    print(table4.render(suite, CACHE_CFA_GRID))
    print()
    print(headline.render(headline.compute(workload, CACHE_CFA_GRID)))

    if not args.skip_extensions:
        from repro.experiments import ablations, inlining, prediction

        print()
        print(ablations.render(ablations.cfa_sweep(workload), "Ablation: CFA size sweep"))
        print()
        print(prediction.render(prediction.compute(workload)))
        print()
        print(inlining.render(inlining.compute(workload)))


if __name__ == "__main__":
    main()
