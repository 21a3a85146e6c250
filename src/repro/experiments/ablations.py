"""Ablations over the STC's design choices.

The paper motivates three knobs this module sweeps:

* **CFA size** (Section 7.2): a larger CFA shields more code from
  interference but leaves less room for everything else — the effect
  reverses past a sweet spot.
* **Thresholds** (Sections 5.2, 8): the Exec/Branch thresholds control how
  much code the sequences cover; the paper lists automating their
  selection as future work.
* **Seed selection** (Section 5.1): auto (popularity) vs ops
  (knowledge-based) — fewer, longer sequences with more potential
  bandwidth.

Run: ``python -m repro.experiments.ablations``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import CacheGeometry, STCParams, stc_layout
from repro.experiments.config import KB
from repro.experiments.harness import (
    get_workload,
    settings_from_args,
    standard_parser,
    training_profile,
)
from repro.simulators import CacheConfig, FetchStream, miss_counter, run_fused
from repro.tpcd.workload import Workload
from repro.util.fmt import format_table

__all__ = ["cfa_sweep", "threshold_sweep", "seed_comparison", "main"]


@dataclass
class AblationPoint:
    label: str
    miss_rate: float
    ipc: float
    run_length: float


def _evaluate(workload: Workload, layouts: list, cache_kb: int) -> list[tuple[float, float, float]]:
    """(miss rate, IPC, instructions between taken branches) of each
    layout, all fed in one fused pass."""
    counters = [miss_counter(CacheConfig(size_bytes=cache_kb * KB)) for _ in layouts]
    pairs = [
        (layout, FetchStream(layout.name, consumers=[counter]))
        for layout, counter in zip(layouts, counters)
    ]
    run_fused(workload.test_trace, workload.program, pairs)
    return [
        (stream.miss_rate(c.misses), stream.ipc(c.misses), stream.instructions_between_taken)
        for (_, stream), c in zip(pairs, counters)
    ]


def cfa_sweep(
    workload: Workload,
    cache_kb: int = 32,
    cfa_kbs: tuple[int, ...] = (0, 2, 4, 8, 16, 24, 28),
    seed_mode: str = "ops",
) -> list[AblationPoint]:
    """Miss rate / bandwidth across CFA sizes at a fixed cache size."""
    cfg = training_profile(workload)
    layouts = [
        stc_layout(
            workload.program,
            cfg,
            CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB),
            STCParams(seed_mode=seed_mode),
        )
        for cfa_kb in cfa_kbs
    ]
    return [
        AblationPoint(f"{cache_kb}/{cfa_kb}", *metrics)
        for cfa_kb, metrics in zip(cfa_kbs, _evaluate(workload, layouts, cache_kb))
    ]


def threshold_sweep(
    workload: Workload,
    cache_kb: int = 32,
    cfa_kb: int = 16,
    branch_thresholds: tuple[float, ...] = (0.02, 0.08, 0.2, 0.4, 0.6),
    exec_fractions: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3),
) -> list[AblationPoint]:
    """Sensitivity to the sequence builder's two thresholds (ops seeds)."""
    cfg = training_profile(workload)
    geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)
    points = [
        (f"branch={bt}", STCParams(seed_mode="ops", branch_threshold=bt))
        for bt in branch_thresholds
    ]
    points += [
        (f"exec={ef:g}", STCParams(seed_mode="ops", exec_fraction=ef)) for ef in exec_fractions
    ]
    layouts = [stc_layout(workload.program, cfg, geometry, params) for _, params in points]
    return [
        AblationPoint(label, *metrics)
        for (label, _), metrics in zip(points, _evaluate(workload, layouts, cache_kb))
    ]


def seed_comparison(
    workload: Workload,
    cache_kb: int = 32,
    cfa_kb: int = 16,
) -> list[AblationPoint]:
    """auto vs ops seed selection at one geometry, plus sequence statistics."""
    from repro.core.seeds import auto_seeds, ops_seeds
    from repro.core.tracebuild import TraceParams, build_sequences

    cfg = training_profile(workload)
    geometry = CacheGeometry(cache_bytes=cache_kb * KB, cfa_bytes=cfa_kb * KB)
    modes = ("auto", "ops")
    layouts = [stc_layout(workload.program, cfg, geometry, STCParams(seed_mode=m)) for m in modes]
    out = []
    for mode, metrics in zip(modes, _evaluate(workload, layouts, cache_kb)):
        seeds = auto_seeds(workload.program, cfg) if mode == "auto" else ops_seeds(workload.program, cfg)
        sequences = build_sequences(cfg, seeds, TraceParams(exec_threshold=4, branch_threshold=0.08))
        mean_len = sum(map(len, sequences)) / len(sequences) if sequences else 0.0
        out.append(
            AblationPoint(
                f"{mode} ({len(seeds)} seeds, {len(sequences)} seqs, mean {mean_len:.1f} blocks)",
                *metrics,
            )
        )
    return out


def render(points: list[AblationPoint], title: str) -> str:
    return format_table(
        ["configuration", "miss %", "IPC", "instr/taken"],
        [[p.label, p.miss_rate, p.ipc, p.run_length] for p in points],
        title=title,
    )


def main(argv=None) -> None:
    args = standard_parser(__doc__.splitlines()[0]).parse_args(argv)
    workload = get_workload(settings_from_args(args))
    print(render(cfa_sweep(workload), "Ablation: CFA size sweep (32KB cache, ops layout)"))
    print()
    print(render(threshold_sweep(workload), "Ablation: threshold sensitivity (32/16, ops)"))
    print()
    print(render(seed_comparison(workload), "Ablation: seed selection (32/16)"))


if __name__ == "__main__":
    main()
