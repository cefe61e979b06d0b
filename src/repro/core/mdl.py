"""MDL cut of the axis-relevance array (Section III-B, ref. [10]).

After the significance test confirms a β-cluster, MrCC derives one
relevance value per axis, ``r[j] = 100 * cP_j / nP_j``, and must decide
which axes are *relevant* to the cluster.  Instead of a fixed
threshold, the paper sorts the relevances ascending into ``o[]`` and
applies the Minimum Description Length principle: choose the cut
position ``p`` that "maximizes the homogeneity of the partitions
``[o_1 .. o_{p-1}]`` and ``[o_p .. o_d]``" — i.e. minimises the number
of bits needed to describe the values given one summary per partition.

Description length model (the standard MDL-histogram encoding also used
by CLIQUE): each partition is summarised by its mean; every value costs
``log2(1 + |v - mean|)`` bits to reconstruct.  The empty partition
(``p = 1``, every axis relevant) costs nothing.  The cut value
``cThreshold = o[p]`` then marks axis ``e_j`` relevant iff
``r[j] >= cThreshold``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.contracts import check_array
from repro.types import FloatArray

MODEL_BITS_PER_PARTITION = float(np.log2(100.0))
"""Two-part MDL: each non-empty partition pays for its own summary (a
mean over the (0, 100] relevance range).  Without this model cost a cut
would "pay off" on any non-constant array, splitting even homogeneous
relevance arrays whose axes are all equally relevant."""


def partition_cost(values: FloatArray) -> float:
    """Bits to encode ``values`` as deviations from their mean."""
    if values.size == 0:
        return 0.0
    deviations = np.abs(values - values.mean())
    return MODEL_BITS_PER_PARTITION + float(np.sum(np.log2(1.0 + deviations)))


def mdl_cut_position(sorted_values: FloatArray) -> int:
    """Best cut position ``p`` (1-based, ``1 <= p <= d``).

    The right partition starts at (0-based) index ``p - 1``.  Ties are
    broken towards the smallest ``p`` (more axes relevant), which keeps
    the procedure deterministic.
    """
    values = np.asarray(sorted_values, dtype=np.float64)
    d = values.size
    if d == 0:
        raise ValueError("cannot cut an empty relevance array")
    if np.any(np.diff(values) < 0):
        raise ValueError("values must be sorted ascending")
    best_p = 1
    best_cost = float("inf")
    for p in range(1, d + 1):
        cost = partition_cost(values[: p - 1]) + partition_cost(values[p - 1 :])
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_p = p
    return best_p


def mdl_cut_threshold(relevances: FloatArray) -> float:
    """The relevance threshold ``cThreshold`` chosen by MDL.

    Sorts ``relevances`` ascending and returns ``o[p]`` for the best
    cut position ``p``; axes with relevance ≥ this value are relevant
    to the new β-cluster.

    Tie rule: relevance is decided by value, not by sorted position.
    When the cut falls inside a run of equal values, every axis tied
    with the threshold is relevant, including those sorted before the
    cut.  For example, on ``[10, 10, 70, 70, 70, 70, 81, 84, 85, 86]``
    the cut position is 2 (between the two 10s), the threshold is 10.0,
    and both axes at 10 are relevant.
    """
    relevances = np.asarray(relevances, dtype=np.float64)
    check_array("relevances", relevances, dtype=np.float64, ndim=1, finite=True)
    obs.incr("search.mdl_cuts")
    ordered = np.sort(relevances)
    p = mdl_cut_position(ordered)
    return float(ordered[p - 1])
