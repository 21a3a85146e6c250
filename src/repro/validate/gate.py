"""The machine-checked paper-shape gate.

EXPERIMENTS.md states the qualitative claims the reproduction makes about
Ramírez et al.'s tables and figures; this module turns each into an
executable check over a small fixed-seed workload:

* **Figure 3** — the trace builder reproduces the paper's worked example
  *exactly*: main trace ``A1 A2 A3 A4 C1 C2 C3 C4 A7 A8``, secondary
  ``[A5]``, discarded ``A6, B1, C5``;
* **Table 1** — a small fraction of the static program executes (bounds,
  not point values: the kernel model is scale-dependent);
* **Table 2** — fall-through/call/return blocks are fully predictable,
  branches dominate the dynamic mix, overall predictability is high;
* **Figure 2** — references concentrate in few blocks (monotone curve,
  ≥ 70 % in the 1000 hottest);
* **Table 3** — every profile-guided layout (P&H, Torr, auto, ops) beats
  the original layout's miss rate at every grid row, and the hardware
  alternatives (2-way, victim) beat the original direct-mapped cache;
* **Table 4** — every profile-guided layout beats the original layout's
  fetch bandwidth; the combined STC+trace-cache beats both the trace
  cache alone and the STC layout alone at every row, and is the best
  configuration outright at the largest cache of the gate grid.

The checks run on the gate workload (scale 0.0005 by default — small
enough for CI, large enough that every ordering above holds with margin)
and produce a JSON-serializable claim list;
:func:`run_validation` bundles them with the differential and metamorphic
results into the conformance report that ``python -m repro.validate``
writes and CI archives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cfg.blocks import BlockKind

__all__ = [
    "Claim",
    "GATE_GRID",
    "GATE_SCALE",
    "check_figure3",
    "check_paper_shape",
    "run_validation",
]

#: Gate workload: small and fixed-seed (WorkloadSettings defaults for the
#: seeds), sized so the full suite runs in well under a minute in CI.
GATE_SCALE = 0.0005
#: One row per cache size; (32, 4) doubles as the "largest cache" row for
#: the combined-best claim.
GATE_GRID = ((8, 2), (16, 4), (32, 4))

#: Figure 3's expected output (paper Section 5.2 worked example).
FIGURE3_MAIN = ["A1", "A2", "A3", "A4", "C1", "C2", "C3", "C4", "A7", "A8"]
FIGURE3_SECONDARY = [["A5"]]
FIGURE3_DISCARDED = {"A6", "B1", "C5"}


@dataclass
class Claim:
    """One machine-checked qualitative claim from EXPERIMENTS.md."""

    claim_id: str
    description: str
    passed: bool
    detail: str


def _claim(claims: list[Claim], claim_id: str, description: str, passed: bool, detail: str) -> None:
    claims.append(Claim(claim_id=claim_id, description=description, passed=bool(passed), detail=detail))


def check_figure3() -> list[Claim]:
    """Figure 3: the trace-building worked example, matched exactly."""
    from repro.experiments import figure3

    sequences, discarded = figure3.compute()
    claims: list[Claim] = []
    main = sequences[0] if sequences else []
    _claim(
        claims,
        "figure3.main_trace",
        "main trace is exactly A1 A2 A3 A4 C1 C2 C3 C4 A7 A8",
        main == FIGURE3_MAIN,
        f"got {' '.join(main) or '(empty)'}",
    )
    _claim(
        claims,
        "figure3.secondary",
        "the only secondary trace is [A5]",
        sequences[1:] == FIGURE3_SECONDARY,
        f"got {sequences[1:]}",
    )
    _claim(
        claims,
        "figure3.discarded",
        "A6, B1 and C5 fall below the thresholds and are discarded",
        set(discarded) == FIGURE3_DISCARDED,
        f"got {sorted(discarded)}",
    )
    return claims


def _check_table1(workload) -> list[Claim]:
    from repro.experiments import table1

    rows = table1.compute(workload)
    claims: list[Claim] = []
    for element, (total, executed, pct) in rows.items():
        _claim(
            claims,
            f"table1.fraction[{element}]",
            f"only a small fraction of {element} executes (0 < executed < total, 1-60%)",
            0 < executed < total and 1.0 <= pct <= 60.0,
            f"{executed}/{total} = {pct:.1f}%",
        )
    return claims


def _check_table2(workload) -> list[Claim]:
    from repro.experiments import table2

    mix, determinism = table2.compute(workload)
    claims: list[Claim] = []
    for kind in (BlockKind.FALL_THROUGH, BlockKind.CALL, BlockKind.RETURN):
        _claim(
            claims,
            f"table2.fully_predictable[{kind.name}]",
            f"{kind.name} blocks have exactly one dynamic successor",
            mix.predictable[kind] == 1.0,
            f"predictable = {100 * mix.predictable[kind]:.1f}%",
        )
    branch_share = mix.dynamic[BlockKind.BRANCH]
    _claim(
        claims,
        "table2.branches_dominate",
        "branch blocks dominate the dynamic mix",
        branch_share == max(mix.dynamic.values()),
        f"dynamic branch share = {100 * branch_share:.1f}%",
    )
    _claim(
        claims,
        "table2.overall_predictable",
        "most transitions are predictable (>= 60%, paper ~80%)",
        mix.overall_predictable >= 0.6,
        f"overall = {100 * mix.overall_predictable:.1f}%",
    )
    _claim(
        claims,
        "table2.determinism",
        "execution-weighted transition determinism is high (50-100%)",
        0.5 <= determinism <= 1.0,
        f"determinism = {100 * determinism:.1f}%",
    )
    return claims


def _check_figure2(workload) -> list[Claim]:
    from repro.experiments import figure2

    data = figure2.compute(workload)
    claims: list[Claim] = []
    fractions = [fraction for _, fraction in data.curve_samples]
    _claim(
        claims,
        "figure2.monotone",
        "the cumulative reference curve is nondecreasing",
        all(b >= a for a, b in zip(fractions, fractions[1:])),
        f"samples = {[(n, round(f, 4)) for n, f in data.curve_samples]}",
    )
    at_1000 = dict(data.curve_samples).get(1000, 0.0)
    _claim(
        claims,
        "figure2.concentration",
        "the 1000 hottest blocks capture most references (>= 70%, paper ~90%)",
        at_1000 >= 0.70,
        f"hottest 1000 capture {100 * at_1000:.1f}%",
    )
    _claim(
        claims,
        "figure2.coverage_order",
        "90% coverage needs no more blocks than 99% coverage",
        0 < data.blocks_for_90 <= data.blocks_for_99,
        f"blocks_for_90 = {data.blocks_for_90}, blocks_for_99 = {data.blocks_for_99}",
    )
    _claim(
        claims,
        "figure2.reuse_window_order",
        "reuse within 100 instructions implies reuse within 250",
        0.0 <= data.reuse_within_100 <= data.reuse_within_250 <= 1.0,
        f"P(<100) = {data.reuse_within_100:.3f}, P(<250) = {data.reuse_within_250:.3f}",
    )
    return claims


_STC_FAMILY = ("P&H", "Torr", "auto", "ops")


def _check_table3(suite, grid) -> list[Claim]:
    claims: list[Claim] = []
    for row in grid:
        cells = suite.cells[row]
        orig = cells["orig"].miss_rate
        worst = max(cells[name].miss_rate for name in _STC_FAMILY)
        _claim(
            claims,
            f"table3.stc_beats_orig[{row[0]},{row[1]}]",
            f"every profile-guided layout beats orig's miss rate at {row[0]}K/{row[1]}K",
            worst < orig,
            "orig = {:.3f}%, ".format(orig)
            + ", ".join(f"{name} = {cells[name].miss_rate:.3f}%" for name in _STC_FAMILY),
        )
    for cache_kb in sorted({c for c, _ in grid}):
        row = next(r for r in grid if r[0] == cache_kb)
        orig = suite.cells[row]["orig"].miss_rate
        _claim(
            claims,
            f"table3.hardware_helps[{cache_kb}]",
            f"2-way and victim caches beat the direct-mapped orig at {cache_kb}K",
            suite.assoc_miss[cache_kb] < orig and suite.victim_miss[cache_kb] < orig,
            f"orig = {orig:.3f}%, 2-way = {suite.assoc_miss[cache_kb]:.3f}%, "
            f"victim = {suite.victim_miss[cache_kb]:.3f}%",
        )
    return claims


def _check_table4(suite, grid) -> list[Claim]:
    claims: list[Claim] = []
    for row in grid:
        cells = suite.cells[row]
        orig = cells["orig"].ipc
        worst = min(cells[name].ipc for name in _STC_FAMILY)
        _claim(
            claims,
            f"table4.stc_beats_orig[{row[0]},{row[1]}]",
            f"every profile-guided layout beats orig's fetch bandwidth at {row[0]}K/{row[1]}K",
            worst > orig,
            "orig = {:.2f}, ".format(orig)
            + ", ".join(f"{name} = {cells[name].ipc:.2f}" for name in _STC_FAMILY),
        )
        combined = suite.tc_ops_ipc[row]
        tc_alone = suite.tc_ipc[row[0]]
        ops_alone = cells["ops"].ipc
        _claim(
            claims,
            f"table4.combined_beats_parts[{row[0]},{row[1]}]",
            "STC+trace-cache beats the trace cache alone and the STC layout "
            f"alone at {row[0]}K/{row[1]}K",
            combined > tc_alone and combined > ops_alone,
            f"TC+ops = {combined:.2f}, TC = {tc_alone:.2f}, ops = {ops_alone:.2f}",
        )
    largest = max(grid)
    best_layout = max(suite.cells[largest][name].ipc for name in ("orig",) + _STC_FAMILY)
    _claim(
        claims,
        f"table4.combined_best[{largest[0]},{largest[1]}]",
        "the combined STC+trace-cache is the best configuration at the largest cache",
        suite.tc_ops_ipc[largest] > best_layout
        and suite.tc_ops_ipc[largest] > suite.tc_ipc[largest[0]],
        f"TC+ops = {suite.tc_ops_ipc[largest]:.2f}, best layout = {best_layout:.2f}, "
        f"TC = {suite.tc_ipc[largest[0]]:.2f}",
    )
    _claim(
        claims,
        "table4.ipc_sanity",
        "no layout exceeds its own perfect-cache bandwidth",
        all(
            cell.ipc <= cell.ideal_ipc + 1e-9
            for row in grid
            for cell in suite.cells[row].values()
        ),
        "checked every (row, layout) cell",
    )
    return claims


def check_paper_shape(
    scale: float = GATE_SCALE,
    grid: tuple[tuple[int, int], ...] = GATE_GRID,
    *,
    jobs: int = 1,
) -> tuple[list[Claim], dict]:
    """Run the gate workload and evaluate every table/figure claim."""
    from repro.experiments.harness import WorkloadSettings, get_workload
    from repro.experiments.suite import suite_for

    settings = WorkloadSettings(scale=scale)
    workload = get_workload(settings)
    suite = suite_for(settings, grid, jobs=jobs)

    claims = check_figure3()
    claims += _check_table1(workload)
    claims += _check_table2(workload)
    claims += _check_figure2(workload)
    claims += _check_table3(suite, grid)
    claims += _check_table4(suite, grid)
    meta = {
        "scale": settings.scale,
        "seed": settings.seed,
        "kernel_seed": settings.kernel_seed,
        "grid": [list(row) for row in grid],
        "n_instructions": suite.n_instructions,
    }
    return claims, meta


def run_validation(
    seed: int = 0,
    *,
    cases: int = 200,
    law_rounds: int = 12,
    scale: float = GATE_SCALE,
    jobs: int = 1,
    paper_shape: bool = True,
) -> dict:
    """Run all three validation layers; returns the conformance report.

    The report is JSON-serializable; ``report["passed"]`` is the overall
    verdict (zero divergences, zero law violations, every claim true).
    """
    from repro.validate.differential import run_differential
    from repro.validate.laws import run_laws

    n_diff, divergences = run_differential(seed, cases)
    n_laws, violations = run_laws(seed, rounds=law_rounds)
    report: dict = {
        "schema_version": 1,
        "generated_by": "repro.validate",
        "seed": seed,
        "differential": {
            "cases": n_diff,
            "divergences": [d.to_json() for d in divergences],
        },
        "laws": {
            "cases": n_laws,
            "violations": violations,
        },
    }
    passed = not divergences and not violations
    if paper_shape:
        claims, meta = check_paper_shape(scale, jobs=jobs)
        report["paper_shape"] = {
            "settings": meta,
            "claims": [asdict(claim) for claim in claims],
            "failed": [claim.claim_id for claim in claims if not claim.passed],
        }
        passed = passed and all(claim.passed for claim in claims)
    report["passed"] = passed
    return report
