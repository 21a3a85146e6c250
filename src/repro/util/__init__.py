"""Small shared utilities: deterministic RNG streams, table formatting,
and the fault-tolerant job scheduler (:mod:`repro.util.scheduler`)."""

from repro.util.fmt import format_table
from repro.util.rng import derive_seed, stream

__all__ = ["derive_seed", "stream", "format_table"]
