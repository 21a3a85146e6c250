"""OLTP extension study (paper Section 8 future work).

Question: does a layout trained on the DSS profile still help when the
same binary executes an OLTP transaction mix? Three layouts are evaluated
on the OLTP trace:

* ``orig`` — original code layout;
* ``dss-trained`` — STC layout built from the DSS Training-set profile;
* ``oltp-trained`` — STC layout built from (a disjoint prefix of) the OLTP
  execution itself, as the self-trained upper reference.

Run: ``python -m repro.experiments.oltp``
"""

from __future__ import annotations

import argparse

from repro.baselines import original_layout
from repro.core import CacheGeometry, STCParams, stc_layout
from repro.experiments.config import KB
from repro.oltp.workload import OLTPWorkload
from repro.profiling import profile_trace
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused
from repro.util.fmt import format_table

__all__ = ["compute", "render", "main"]


def compute(
    workload: OLTPWorkload,
    cache_kb: int = 32,
    cfa_kb: int = 8,
) -> list[list]:
    program = workload.program
    geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)

    dss_profile = profile_trace(workload.dss_training_trace, program.n_blocks)
    oltp_profile = profile_trace(workload.oltp_trace, program.n_blocks)

    layouts = {
        "orig": original_layout(program),
        "dss-trained": stc_layout(program, dss_profile, geometry, STCParams(seed_mode="auto")),
        "oltp-trained": stc_layout(program, oltp_profile, geometry, STCParams(seed_mode="auto")),
    }
    counters = {name: miss_counter(CacheConfig(size_bytes=cache_kb * KB)) for name in layouts}
    streams = {
        name: FetchStream(layout.name, consumers=[counters[name]])
        for name, layout in layouts.items()
    }
    run_fused(workload.oltp_trace, program, [(layouts[name], streams[name]) for name in layouts])
    return [
        [
            name,
            stream.miss_rate(counters[name].misses),
            stream.ipc(counters[name].misses),
            stream.instructions_between_taken,
        ]
        for name, stream in streams.items()
    ]


def render(rows: list[list]) -> str:
    return format_table(
        ["layout", "miss %", "IPC", "instr/taken"],
        rows,
        title="OLTP extension: layouts evaluated on the OLTP transaction mix (32KB/8KB CFA)",
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dss-scale", type=float, default=0.002)
    parser.add_argument("--warehouses", type=int, default=2)
    parser.add_argument("--transactions", type=int, default=400)
    args = parser.parse_args(argv)
    workload = OLTPWorkload.build(
        dss_scale=args.dss_scale,
        warehouses=args.warehouses,
        n_transactions=args.transactions,
    )
    print(render(compute(workload)))


if __name__ == "__main__":
    main()
