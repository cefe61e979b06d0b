"""Competitor algorithms (Section IV: CFPC, HARP, LAC, EPCH, P3C).

The paper compares MrCC against five published subspace/projected
clustering methods whose original binaries were obtained privately; this
package re-implements each from its original publication behind the
common :class:`~repro.baselines.base.SubspaceClusterer` interface
(DESIGN.md substitution #2).

Extras beyond the paper's comparison — PROCLUS, ORCLUS and CLIQUE —
cover related-work methods the paper discusses and feed the extension
benches.  STATPC is not implemented: the paper reports it never
finished.  Every baseline turns its final labels into a result through
:func:`~repro.baselines.common.result_from_labels`.
"""

from repro.baselines.base import SubspaceClusterer
from repro.baselines.cfpc import CFPC
from repro.baselines.clique import CLIQUE
from repro.baselines.epch import EPCH
from repro.baselines.harp import HARP
from repro.baselines.lac import LAC
from repro.baselines.orclus import ORCLUS
from repro.baselines.p3c import P3C
from repro.baselines.proclus import PROCLUS

__all__ = [
    "SubspaceClusterer",
    "LAC",
    "EPCH",
    "P3C",
    "CFPC",
    "HARP",
    "PROCLUS",
    "ORCLUS",
    "CLIQUE",
]
