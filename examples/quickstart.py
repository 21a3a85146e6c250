"""Quickstart: profile-guided code layout in ~60 lines.

Builds a miniature instrumented "kernel" (a parent routine calling two
children with data-dependent decisions), traces an execution, profiles it
into a weighted CFG, computes the Software Trace Cache layout, and compares
i-cache miss rate and fetch bandwidth against the original code layout.

Run:  python examples/quickstart.py
"""

from repro.core import CacheGeometry, STCParams, stc_layout
from repro.kernel import ColdCodeConfig, KernelModel, Registry, decide
from repro.profiling import profile_trace
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused

# 1. An instrumented "kernel": each routine declares how many call-site
#    segments (`sites`) and data-dependent branches (`decides`) it has.
registry = Registry()


@registry.routine("executor", sites=2, decides=1, op=True)
def process(items):
    total = 0
    for item in items:
        if decide(item % 3 == 0):
            total += classify(item)
        else:
            total += score(item)
    return total


@registry.routine("access", sites=0, decides=2)
def classify(item):
    decide(item % 2 == 0)
    return item // 3


@registry.routine("utility", sites=0, decides=1)
def score(item):
    decide(item > 100)
    return 1


def main() -> None:
    # 2. Build the static image (adds never-executed cold procedures, like a
    #    real binary) and trace a run.
    model = KernelModel(registry, seed=11, cold=ColdCodeConfig(n_procedures=60))
    program = model.program
    tracer = model.tracer()
    with tracer:
        process(list(range(500)))
    trace = tracer.take_trace()
    print(f"program: {program.n_procedures} procedures, {program.n_blocks} blocks")
    print(f"trace:   {trace.n_events} block executions, {trace.n_instructions(program.block_size)} instructions")

    # 3. Profile -> weighted CFG -> STC layout for an 8 KB cache, 2 KB CFA.
    cfg = profile_trace(trace, program.n_blocks)
    geometry = CacheGeometry(cache_bytes=8 * 1024, cfa_bytes=2 * 1024)
    layout = stc_layout(program, cfg, geometry, STCParams(seed_mode="auto"))

    # 4. Simulate the SEQ.3 fetch unit under both layouts; the miss counter
    #    attached to each fetch stream models an 8 KB direct-mapped i-cache.
    from repro.baselines import original_layout

    for lay in (original_layout(program), layout):
        counter = miss_counter(CacheConfig(size_bytes=8 * 1024))
        stream = FetchStream(lay.name, consumers=[counter])
        run_fused(trace, program, [(lay, stream)])
        print(
            f"{lay.name:>6}: miss rate {stream.miss_rate(counter.misses):5.2f}%   "
            f"ideal IPC {stream.ideal_ipc:5.2f}   "
            f"instr between taken branches {stream.instructions_between_taken:5.1f}"
        )


if __name__ == "__main__":
    main()
