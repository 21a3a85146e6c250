"""Function cloning / inlining study (paper Section 8 future work).

Measures whether profile-guided code replication raises the sequential
fetch unit's bandwidth while "keeping the miss rate under control":

1. Build the base workload; profile the Training set.
2. Choose clone pairs from the profile's call graph
   (:func:`repro.kernel.inline.plan_inlining`).
3. Rebuild the kernel image with per-caller clones, re-trace the Test set
   (the tracer routes calls to the clones), and lay out with the STC.
4. Compare bandwidth, run length, miss rate, and static code growth.

Run: ``python -m repro.experiments.inlining``
"""

from __future__ import annotations

from repro.core import CacheGeometry, STCParams, stc_layout
from repro.experiments.config import KB
from repro.experiments.harness import (
    get_workload,
    settings_from_args,
    standard_parser,
    training_profile,
)
from repro.kernel.inline import plan_inlining
from repro.profiling import profile_trace
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused
from repro.tpcd.workload import TEST_QUERIES, TRAINING_QUERIES, Workload, capture_trace
from repro.util.fmt import format_table

__all__ = ["compute", "render", "main"]


def compute(
    workload: Workload,
    cache_kb: int = 32,
    cfa_kb: int = 8,
    *,
    max_clones: int = 24,
) -> tuple[list[list], int]:
    """Rows: [variant, static KB, miss %, IPC, ideal IPC, instr/taken]."""
    geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)
    cache = CacheConfig(size_bytes=cache_kb * KB)

    def evaluate(program, profile, trace, label):
        layout = stc_layout(program, profile, geometry, STCParams(seed_mode="ops"))
        counter = miss_counter(cache)
        stream = FetchStream(layout.name, consumers=[counter])
        run_fused(trace, program, [(layout, stream)])
        return [
            label,
            program.image_bytes / KB,
            stream.miss_rate(counter.misses),
            stream.ipc(counter.misses),
            stream.ideal_ipc,
            stream.instructions_between_taken,
        ]

    base_profile = training_profile(workload)
    rows = [evaluate(workload.program, base_profile, workload.test_trace, "base (ops)")]

    plan = plan_inlining(workload.program, base_profile, max_clones=max_clones)
    inlined_model = workload.db.kernel_model(clones=plan.pairs)
    inlined_training = capture_trace(workload.db, inlined_model, TRAINING_QUERIES, ("btree",))
    inlined_test = capture_trace(workload.db, inlined_model, TEST_QUERIES, ("btree", "hash"))
    inlined_profile = profile_trace(inlined_training, inlined_model.program.n_blocks)
    rows.append(
        evaluate(inlined_model.program, inlined_profile, inlined_test, f"+{plan.n_clones} clones (ops)")
    )
    return rows, plan.n_clones


def render(result: tuple[list[list], int]) -> str:
    rows, n_clones = result
    return format_table(
        ["variant", "static KB", "miss %", "IPC", "ideal IPC", "instr/taken"],
        rows,
        title=f"Inlining/code-replication study ({n_clones} profile-guided clones, 32KB/8KB CFA)",
    )


def main(argv=None) -> None:
    parser = standard_parser(__doc__.splitlines()[0])
    parser.add_argument("--max-clones", type=int, default=24)
    args = parser.parse_args(argv)
    workload = get_workload(settings_from_args(args))
    print(render(compute(workload, max_clones=args.max_clones)))


if __name__ == "__main__":
    main()
