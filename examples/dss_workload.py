"""The paper's full pipeline on the TPC-D decision-support workload.

Builds the TPC-D database (both index kinds), captures the Training and
Test traces, reports the workload characterization (Tables 1-2, Figure 2
claims) and evaluates all five layouts at one cache geometry.

Run:  python examples/dss_workload.py [scale]     (default scale 0.002)
"""

import sys

from repro.experiments import figure2, table1, table2
from repro.experiments.harness import WorkloadSettings, get_workload, layouts_for
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused
from repro.util import format_table


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"building TPC-D workload at scale factor {scale} ...")
    workload = get_workload(WorkloadSettings(scale=scale))
    program = workload.program

    print()
    print(table1.render(table1.compute(workload)))
    print()
    print(table2.render(table2.compute(workload)))
    print()
    print(figure2.render(figure2.compute(workload)))
    print()

    cache_kb, cfa_kb = 32, 8
    print(f"evaluating layouts at {cache_kb} KB cache / {cfa_kb} KB CFA ...")
    rows = []
    for name, layout in layouts_for(workload, cache_kb, cfa_kb).items():
        counter = miss_counter(CacheConfig(size_bytes=cache_kb * 1024))
        stream = FetchStream(layout.name, consumers=[counter])
        run_fused(workload.test_trace, program, [(layout, stream)])
        rows.append(
            [
                name,
                stream.miss_rate(counter.misses),
                stream.ipc(counter.misses),
                stream.instructions_between_taken,
            ]
        )
    print(format_table(["layout", "miss %", "IPC", "instr/taken-branch"], rows))


if __name__ == "__main__":
    main()
