"""Conformance & differential-validation subsystem.

Three layers keep the aggressively optimized production simulators honest:

* :mod:`repro.validate.oracles` — deliberately slow, loop-literal
  reference implementations of the SEQ.3 fetch unit, the i-cache models
  and the trace cache (pure Python, no NumPy tricks);
* :mod:`repro.validate.differential` + :mod:`repro.validate.laws` — a
  harness that drives the production vectorized/fused paths and the
  oracles over the same generated inputs and diffs every counter, plus
  metamorphic laws (store round-trip, cold-block permutation, CFA
  conflict-freedom, fused group splits);
* :mod:`repro.validate.gate` — the machine-checked paper-shape gate:
  ``python -m repro.validate`` runs a small fixed-seed workload and
  asserts the qualitative claims of EXPERIMENTS.md, emitting a JSON
  conformance report.
"""

from repro.validate.differential import (
    Divergence,
    LineLog,
    diff_fetch_case,
    diff_trace_cache_case,
    run_differential,
)
from repro.validate.gate import run_validation
from repro.validate.oracles import (
    OracleFetchResult,
    OracleTraceCacheResult,
    oracle_direct_mapped,
    oracle_fetch,
    oracle_trace_cache,
    oracle_two_way_lru,
    oracle_victim,
)

__all__ = [
    "Divergence",
    "LineLog",
    "OracleFetchResult",
    "OracleTraceCacheResult",
    "diff_fetch_case",
    "diff_trace_cache_case",
    "oracle_direct_mapped",
    "oracle_fetch",
    "oracle_trace_cache",
    "oracle_two_way_lru",
    "oracle_victim",
    "run_differential",
    "run_validation",
]
