"""Layout baselines the paper compares against (Sections 6 and 7):

* ``orig`` — the compiler/link-order layout.
* ``P&H`` — Pettis & Hansen: bottom-up basic-block chaining within each
  procedure plus closest-is-best procedure ordering; cache-geometry
  oblivious.
* ``Torr`` — Torrellas et al.: block sequences spanning functions, with the
  most frequently referenced *individual blocks* pinned in a Conflict Free
  Area (versus the STC, which keeps whole sequences there).
"""

from repro.baselines.original import original_layout
from repro.baselines.pettis_hansen import pettis_hansen_layout
from repro.baselines.torrellas import TorrellasSequences, torrellas_layout, torrellas_sequences

__all__ = [
    "original_layout",
    "pettis_hansen_layout",
    "TorrellasSequences",
    "torrellas_layout",
    "torrellas_sequences",
]
