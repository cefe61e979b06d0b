"""The paper's contribution: MrCC (Multi-resolution Correlation Clustering).

Phases (Section III):

1. :mod:`repro.core.counting_tree` — build the Counting-tree, a
   multi-resolution hyper-grid of point counts and half-space counts
   over ``[0, 1)^d`` (Algorithm 1).
2. :mod:`repro.core.beta_cluster` — locate β-clusters by convolving a
   Laplacian face mask over each tree level, confirming candidates with
   a one-sided binomial test and cutting axis relevances with MDL
   (Algorithm 2; helpers in :mod:`repro.core.convolution`,
   :mod:`repro.core.hypothesis_test`, :mod:`repro.core.mdl`).
3. :mod:`repro.core.correlation_cluster` — merge space-sharing
   β-clusters into correlation clusters and label points (Algorithm 3).

:class:`repro.core.mrcc.MrCC` wires the phases into one estimator.
"""

from repro.core.beta_cluster import BetaCluster, find_beta_clusters
from repro.core.contracts import (
    ContractError,
    check_array,
    check_labels,
    check_level,
)
from repro.core.convolution import convolve_level
from repro.core.counting_tree import CountingTree
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.hypothesis_test import critical_value, neighborhood_counts
from repro.core.mdl import mdl_cut_threshold
from repro.core.mrcc import MrCC
from repro.core.soft import SoftMrCC
from repro.core.streaming import (
    TreeStreamBuilder,
    build_tree_from_chunks,
    fit_stream,
    label_stream,
)

__all__ = [
    "ContractError",
    "check_array",
    "check_labels",
    "check_level",
    "CountingTree",
    "convolve_level",
    "critical_value",
    "neighborhood_counts",
    "mdl_cut_threshold",
    "BetaCluster",
    "find_beta_clusters",
    "build_correlation_clusters",
    "MrCC",
    "SoftMrCC",
    "TreeStreamBuilder",
    "build_tree_from_chunks",
    "fit_stream",
    "label_stream",
]
