"""Software + hardware trace cache (the paper's Section 7.3 punchline).

A hardware trace cache alone cannot remember all executed sequences of a
DSS workload; the Software Trace Cache stores the hot sequences statically
in memory, improving both the trace cache's own hit behaviour and the
sequential fetch that backs it up. This example measures the four
combinations: {orig, ops layout} x {SEQ.3 only, +trace cache}.

Run:  python examples/trace_cache_combo.py [scale]    (default 0.002)
"""

import sys

from repro.experiments.harness import WorkloadSettings, get_workload, layouts_for
from repro.simulators import (
    CacheConfig,
    FetchStream,
    TraceCacheStream,
    miss_counter,
    run_fused,
)
from repro.util import format_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    workload = get_workload(WorkloadSettings(scale=scale))
    program = workload.program
    trace = workload.test_trace
    cache = CacheConfig(size_bytes=64 * 1024)

    layouts = layouts_for(workload, 64, 8, names=("orig", "ops"))
    rows = []
    for name, layout in layouts.items():
        # both fetch paths over one layout share a single pass over the trace
        seq_misses, tc_misses = miss_counter(cache), miss_counter(cache)
        seq = FetchStream(layout.name, consumers=[seq_misses])
        tc = TraceCacheStream(layout.name, consumers=[tc_misses])
        run_fused(trace, program, [(layout, seq), (layout, tc)])
        rows.append(
            [name, seq.ipc(seq_misses.misses), tc.ipc(tc_misses.misses), 100 * tc.hit_rate]
        )
    print(
        format_table(
            ["layout", "SEQ.3 IPC", "SEQ.3 + trace cache IPC", "TC hit rate %"],
            rows,
            title="Software and hardware trace caches combine (64 KB i-cache)",
        )
    )
    print(
        "\npaper: orig 5.8 -> 8.6 with TC; ops 10.6 -> 12.1 with TC\n"
        "(the TC alone cannot hold all sequences; the ops layout keeps\n"
        "feeding wide fetches even on TC misses)"
    )


if __name__ == "__main__":
    main()
