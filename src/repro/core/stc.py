"""The full Software Trace Cache pipeline.

Profile -> seeds -> greedy sequences -> CFA mapping, in one call. This is
the ``auto`` / ``ops`` layout of the paper's evaluation (Tables 3 and 4).

Only the last step sees the cache size. Both passes' sequences
(:func:`stc_sequences`) depend on the profile, the parameters and the CFA
size alone: the first pass is fitted to the CFA budget, and the second
continues its visited state. A grid's rows that share a CFA size can
therefore share one :class:`STCSequences` and map it per cache geometry
(:meth:`STCSequences.layout`), which is all :func:`stc_layout` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.blocks import INSTR_BYTES
from repro.cfg.layout import Layout
from repro.cfg.program import Program
from repro.cfg.weighted import WeightedCFG
from repro.core.mapping import CacheGeometry, map_sequences
from repro.core.seeds import auto_seeds, ops_seeds
from repro.core.tracebuild import TraceParams, build_sequences

__all__ = ["STCParams", "STCSequences", "stc_layout", "stc_sequences"]


@dataclass(frozen=True)
class STCParams:
    """Pipeline parameters.

    ``exec_fraction`` expresses the Exec Threshold as a fraction of the
    total dynamic block count, so the same parameters work across trace
    lengths; set ``exec_threshold`` for the paper's absolute form. The
    paper plans to automate threshold selection (Section 8) — the
    relative form is this implementation's small step in that direction.
    """

    #: The paper's Figure 3 example uses BranchThresh 0.4 on a kernel whose
    #: branches are overwhelmingly two-way. minidb's kernel (like modern
    #: DBMS code) is full of multiway dispatch switches whose secondary
    #: cases carry 5-25 % each; a lower default keeps those cases eligible
    #: for secondary traces instead of dumping them into cold code. The
    #: threshold-sweep ablation bench explores this choice.
    seed_mode: str = "auto"  # "auto" or "ops"
    branch_threshold: float = 0.08
    exec_threshold: int | None = None
    exec_fraction: float = 1e-5
    #: First-pass (CFA) thresholds: "the size of this CFA is determined by
    #: the Exec and Branch Thresholds used for the first pass" (Section
    #: 5.3). By default the first pass's Exec threshold is *auto-fitted* to
    #: the CFA budget (bisection over the threshold until the pass's
    #: sequences just fill the CFA) — the threshold-selection automation the
    #: paper lists as future work in Section 8. Set ``cfa_exec_threshold``
    #: to pin it manually.
    cfa_branch_threshold: float = 0.30
    cfa_exec_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.seed_mode not in ("auto", "ops"):
            raise ValueError(f"unknown seed mode {self.seed_mode!r}")

    def resolve_exec_threshold(self, cfg: WeightedCFG) -> int:
        if self.exec_threshold is not None:
            return self.exec_threshold
        return max(1, int(self.exec_fraction * int(cfg.block_count.sum())))


@dataclass(frozen=True)
class STCSequences:
    """Both passes' sequences: the geometry-independent half of a layout.

    ``pass1`` are the CFA candidates the first pass fitted to
    ``cfa_bytes``, ``pass2`` the relaxed pass's sequences. Mapping them
    (:meth:`layout`) is the only step that reads the cache size.
    """

    name: str
    cfa_bytes: int
    pass1: list[list[int]]
    pass2: list[list[int]]

    def layout(self, program: Program, geometry: CacheGeometry) -> Layout:
        """Map the sequences onto ``geometry``, whose CFA must be the one
        the first pass was fitted to."""
        if geometry.cfa_bytes != self.cfa_bytes:
            raise ValueError(
                f"sequences were fitted to a {self.cfa_bytes}-byte CFA, "
                f"not {geometry.cfa_bytes} bytes"
            )
        return map_sequences(
            program,
            self.pass2,
            geometry,
            name=self.name,
            cfa_sequences=self.pass1,
        )


def stc_layout(
    program: Program,
    cfg: WeightedCFG,
    geometry: CacheGeometry,
    params: STCParams = STCParams(),
) -> Layout:
    """Compute the STC layout for a profile and cache geometry.

    Two passes, as in the paper: a tight-threshold pass whose sequences
    fill the Conflict Free Area whole, then a relaxed pass (continuing the
    first pass's visited state) whose sequences fill the non-CFA areas of
    the logical cache array; cold code fills the remaining address space.
    """
    return stc_sequences(program, cfg, geometry.cfa_bytes, params).layout(program, geometry)


def stc_sequences(
    program: Program,
    cfg: WeightedCFG,
    cfa_bytes: int,
    params: STCParams = STCParams(),
) -> STCSequences:
    """Both passes of :func:`stc_layout` for a CFA of ``cfa_bytes``."""
    seeds = auto_seeds(program, cfg) if params.seed_mode == "auto" else ops_seeds(program, cfg)
    pass1, visited = _fit_first_pass(program, cfg, seeds, cfa_bytes, params)
    # the relaxed pass places "the rest of the sequences": beyond the chosen
    # seeds it may start from any executed function entry, so code the ops
    # seeds cannot reach (the paper's stated ops weakness) still gets
    # sequenced instead of falling into the cold remainder
    pass2_seeds = list(dict.fromkeys(list(seeds) + auto_seeds(program, cfg)))
    pass2 = build_sequences(
        cfg,
        pass2_seeds,
        TraceParams(
            exec_threshold=params.resolve_exec_threshold(cfg),
            branch_threshold=params.branch_threshold,
        ),
        visited,
        explore_from_visited=True,
    )
    return STCSequences(params.seed_mode, cfa_bytes, pass1, pass2)


def _fit_first_pass(
    program: Program,
    cfg: WeightedCFG,
    seeds: list[int],
    budget: int,
    params: STCParams,
) -> tuple[list[list[int]], set[int]]:
    """Build the CFA pass, fitting its Exec threshold to the CFA budget
    (``budget`` bytes).

    The sequence footprint shrinks monotonically as the Exec threshold
    rises, so a log-scale bisection finds the loosest threshold whose
    sequences total at most the CFA size (i.e. the fullest CFA whose
    contents are all admitted whole).
    """
    if budget == 0:
        return [], set()

    sizes = program.block_size

    def attempt(threshold: int) -> tuple[list[list[int]], set[int], int]:
        visited: set[int] = set()
        seqs = build_sequences(
            cfg,
            seeds,
            TraceParams(exec_threshold=threshold, branch_threshold=params.cfa_branch_threshold),
            visited,
        )
        total = sum(int(sizes[b]) * INSTR_BYTES for seq in seqs for b in seq)
        return seqs, visited, total

    if params.cfa_exec_threshold is not None:
        seqs, visited, _total = attempt(params.cfa_exec_threshold)
        return seqs, visited

    total_events = max(1, int(cfg.block_count.sum()))
    lo, hi = 1, total_events  # lo may overflow the budget, hi never does
    best = attempt(hi)[:2]
    for _ in range(24):
        if lo >= hi:
            break
        mid = int((lo * hi) ** 0.5)
        seqs, visited, total = attempt(mid)
        if total <= budget:
            best = (seqs, visited)
            hi = mid
        else:
            lo = mid + 1
    return best
