"""Applying the Software Trace Cache to your own system.

The layout pipeline is workload-agnostic: anything that produces a block
trace through the :mod:`repro.kernel` instrumentation can be laid out. This
example instruments a small log-structured key-value store (its own
"kernel": memtable, write-ahead log, compaction, point lookups), runs a
read-heavy workload, and shows the CFA-size trade-off the paper analyzes in
Section 7.2: a larger CFA first helps, then starts stealing space from the
rest of the code.

Run:  python examples/custom_engine.py
"""

import numpy as np

from repro.baselines import original_layout
from repro.core import CacheGeometry, STCParams, stc_layout
from repro.kernel import ColdCodeConfig, KernelModel, Registry, decide
from repro.profiling import profile_trace
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused
from repro.util import format_table

registry = Registry()


class KVStore:
    """A toy LSM store with instrumented kernel routines."""

    def __init__(self) -> None:
        self.memtable: dict[str, str] = {}
        self.segments: list[dict[str, str]] = []
        self.wal: list[tuple[str, str]] = []

    @registry.routine("storage", sites=0, decides=1, name="wal_append")
    def _wal_append(self, key, value):
        self.wal.append((key, value))
        decide(len(self.wal) % 64 == 0)  # fsync batch boundary

    @registry.routine("executor", sites=2, decides=2, op=True, name="kv_put")
    def put(self, key, value):
        self._wal_append(key, value)
        self.memtable[key] = value
        if decide(len(self.memtable) >= 128):
            self._flush()

    @registry.routine("buffer", sites=0, decides=1, name="memtable_flush")
    def _flush(self):
        decide(len(self.segments) % 2 == 0)
        self.segments.append(dict(sorted(self.memtable.items())))
        self.memtable.clear()

    @registry.routine("executor", sites=3, decides=2, op=True, name="kv_get")
    def get(self, key):
        if decide(key in self.memtable):
            return self.memtable[key]
        for segment in reversed(self.segments):
            if self._segment_probe(segment, key):
                return segment[key]
        return None

    @registry.routine("access", sites=0, decides=2, name="segment_probe")
    def _segment_probe(self, segment, key):
        return decide(key in segment)


def evaluate(trace, program, layout, cache_kb: int) -> tuple[float, float]:
    """Miss rate (%) and ideal IPC of ``layout``: one pass of a fetch
    stream with a direct-mapped miss counter attached."""
    counter = miss_counter(CacheConfig(size_bytes=cache_kb * 1024))
    stream = FetchStream(layout.name, consumers=[counter])
    run_fused(trace, program, [(layout, stream)])
    return stream.miss_rate(counter.misses), stream.ideal_ipc


def main() -> None:
    model = KernelModel(registry, seed=23, cold=ColdCodeConfig(n_procedures=120))
    program = model.program

    store = KVStore()
    rng = np.random.default_rng(5)
    tracer = model.tracer()
    with tracer:
        for i in range(2000):
            store.put(f"k{int(rng.integers(0, 500))}", f"v{i}")
        tracer.end_run()
        for _ in range(8000):
            store.get(f"k{int(rng.integers(0, 700))}")
    trace = tracer.take_trace()
    cfg = profile_trace(trace, program.n_blocks)
    print(f"traced {trace.n_events} block executions over {program.n_blocks} static blocks")

    cache_kb = 8
    rows = [["orig", None, *evaluate(trace, program, original_layout(program), cache_kb)]]
    for cfa_kb in (0, 1, 2, 4, 6, 7):
        geometry = CacheGeometry(cache_bytes=cache_kb * 1024, cfa_bytes=cfa_kb * 1024)
        layout = stc_layout(program, cfg, geometry, STCParams(seed_mode="auto"))
        rows.append(["auto", cfa_kb, *evaluate(trace, program, layout, cache_kb)])
    print(
        format_table(
            ["layout", "CFA KB", "miss %", "ideal IPC"],
            rows,
            title=f"CFA trade-off on a custom engine ({cache_kb} KB cache)",
        )
    )


if __name__ == "__main__":
    main()
