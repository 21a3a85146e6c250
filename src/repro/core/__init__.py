"""The Software Trace Cache: the paper's primary contribution (Section 5).

Three stages:

1. **Seed selection** (:mod:`repro.core.seeds`) — *auto*: entry points of
   all functions in decreasing popularity; *ops*: entry points of the
   Executor operations (knowledge-based).
2. **Sequence building** (:mod:`repro.core.tracebuild`) — greedy traces
   through the weighted CFG, gated by the Exec and Branch thresholds, with
   secondary traces from the noted transitions (Figure 3).
3. **Sequence mapping** (:mod:`repro.core.mapping`) — whole sequences
   packed into the Conflict Free Area of a logical cache array, remaining
   sequences around it, cold code filling the rest (Figure 4).

:func:`repro.core.stc.stc_layout` runs the full pipeline;
:func:`~repro.core.stc.stc_sequences` is its geometry-independent half.
"""

from repro.core.seeds import auto_seeds, ops_seeds
from repro.core.tracebuild import TraceParams, build_sequences
from repro.core.mapping import CacheGeometry, map_sequences
from repro.core.stc import STCParams, STCSequences, stc_layout, stc_sequences

__all__ = [
    "auto_seeds",
    "ops_seeds",
    "TraceParams",
    "build_sequences",
    "CacheGeometry",
    "map_sequences",
    "STCParams",
    "STCSequences",
    "stc_layout",
    "stc_sequences",
]
