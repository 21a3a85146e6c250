"""Branch-prediction extension: does the layout help a real predictor?

The paper isolates layout effects with perfect prediction (Section 7.1)
while listing prediction accuracy among the three fetch-limiting factors
(Section 1). Here a bimodal predictor runs over the same traces under each
layout: reordering turns most dynamic branches into not-taken fall-
throughs, which 2-bit counters learn easily, so the layout buys prediction
accuracy on top of cache behaviour.

Run: ``python -m repro.experiments.prediction``
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.experiments.harness import (
    get_workload,
    layouts_for,
    settings_from_args,
    standard_parser,
)
from repro.simulators.branchpred import PredictionStream
from repro.simulators.fused import run_fused
from repro.tpcd.workload import Workload
from repro.util.fmt import format_table

__all__ = ["compute", "predict", "render", "main"]

#: cap the per-branch simulation (the predictor loop is sequential Python)
DEFAULT_MAX_EVENTS = 3_000_000


def compute(
    workload: Workload,
    cache_kb: int = 32,
    cfa_kb: int = 8,
    *,
    max_events: int | None = DEFAULT_MAX_EVENTS,
) -> list[list]:
    layouts = layouts_for(workload, cache_kb, cfa_kb)
    streams = predict(workload.test_trace, workload.program, layouts, max_events=max_events)
    return [[name, 100.0 * s.taken_fraction, 100.0 * s.accuracy] for name, s in zip(layouts, streams)]


def predict(
    trace, program: Program, layouts: Mapping[str, Layout], *, max_events: int | None
) -> list[PredictionStream]:
    """One bimodal predictor per layout, all fed in one pass over ``trace``.

    ``max_events`` keeps the trace's first ``max_events`` events and the
    transitions among them: the pass stops before the last capped event,
    which still arrives as the final window's successor.
    """
    streams = [PredictionStream(name, program) for name in layouts]
    stop_event = None if max_events is None else max_events - 1
    run_fused(trace, program, list(zip(layouts.values(), streams)), stop_event=stop_event)
    return streams


def render(rows: list[list]) -> str:
    return format_table(
        ["layout", "taken branches %", "bimodal accuracy %"],
        rows,
        title="Branch-prediction extension: bimodal (2K-entry) accuracy per layout",
    )


def main(argv=None) -> None:
    args = standard_parser(__doc__.splitlines()[0]).parse_args(argv)
    workload = get_workload(settings_from_args(args))
    print(render(compute(workload)))


if __name__ == "__main__":
    main()
