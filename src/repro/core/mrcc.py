"""The MrCC estimator: the paper's three phases behind one interface.

``MrCC`` (Multi-resolution Correlation Clustering) detects correlation
clusters — point sets that are dense in a subspace of the original
axes, or of linear combinations of them — in data with roughly 5 to 30
axes.  It is deterministic, needs no cluster count, performs no
distance calculations, and runs in time linear in the number of points.

Parameters mirror the paper's two inputs: the statistical significance
``alpha`` (the probability of wrongly confirming a β-cluster; fixed at
``1e-10`` for all the paper's experiments) and the number of
resolutions ``H`` (``n_resolutions``; 4 suffices for most data,
Section IV-D).

Example
-------
>>> import numpy as np
>>> from repro.core.mrcc import MrCC
>>> rng = np.random.default_rng(0)
>>> cluster = rng.normal(0.5, 0.01, size=(500, 2))
>>> cluster = np.hstack([cluster, rng.uniform(0, 1, size=(500, 3))])
>>> noise = rng.uniform(0, 1, size=(200, 5))
>>> result = MrCC().fit(np.vstack([cluster, noise]))
>>> result.n_clusters
1
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.beta_cluster import BetaCluster, find_beta_clusters
from repro.core.contracts import check_array, check_labels
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.counting_tree import MIN_RESOLUTIONS, CountingTree
from repro.data.normalize import minmax_params
from repro.types import ClusteringResult, FloatArray, IntArray, SubspaceCluster

if TYPE_CHECKING:
    from pathlib import Path

DEFAULT_ALPHA = 1e-10
DEFAULT_RESOLUTIONS = 4


class MrCC:
    """Multi-resolution Correlation Cluster detection (Sections III A-C).

    Parameters
    ----------
    alpha:
        Significance level of the six-region binomial test.
    n_resolutions:
        The paper's ``H``; number of multi-resolution grid levels
        (must be ≥ 3; the tree materialises levels ``1 .. H-1``).
    normalize:
        When true (default), min-max normalise the input into
        ``[0, 1)``: the fitted map is applied inside the kernels that
        read the points, so the input is never copied.  Disable only
        for data already embedded in the unit cube.
    max_beta_clusters:
        Optional cap on the β-cluster search; ``None`` reproduces the
        paper exactly.
    n_jobs:
        Worker count for the sharded Counting-tree build (phase one).
        ``None`` defers to ``REPRO_JOBS`` with the
        :data:`~repro.core.counting_tree.SHARD_MIN_POINTS` floor; the
        sharded build is bit-identical to the serial one.

    Attributes (after :meth:`fit`)
    ------------------------------
    ``labels_`` — cluster id per point (``-1`` = noise);
    ``clusters_`` — list of :class:`~repro.types.SubspaceCluster`;
    ``relevant_axes_`` — list of axis sets, one per cluster;
    ``beta_clusters_`` — the intermediate β-clusters;
    ``tree_`` — the phase-one Counting-tree;
    ``normalizer_`` — the fitted per-axis min-max ``(lo, span)`` pair
    when ``normalize`` is on (``None`` otherwise), so unseen query
    points can be mapped into the model's unit cube bit-identically.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        n_resolutions: int = DEFAULT_RESOLUTIONS,
        normalize: bool = True,
        max_beta_clusters: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if n_resolutions < MIN_RESOLUTIONS:
            raise ValueError(f"n_resolutions must be >= {MIN_RESOLUTIONS}")
        self.alpha = float(alpha)
        self.n_resolutions = int(n_resolutions)
        self.normalize = bool(normalize)
        self.max_beta_clusters = max_beta_clusters
        self.n_jobs = n_jobs

        self.labels_: IntArray | None = None
        self.clusters_: list[SubspaceCluster] | None = None
        self.relevant_axes_: list[frozenset[int]] | None = None
        self.beta_clusters_: list[BetaCluster] | None = None
        self.tree_: CountingTree | None = None
        self.normalizer_: tuple[FloatArray, FloatArray] | None = None

    def fit(self, points: FloatArray) -> ClusteringResult:
        """Cluster ``points`` and return the :class:`ClusteringResult`.

        The three phases run in sequence: Counting-tree construction
        (Algorithm 1), β-cluster search (Algorithm 2), correlation
        cluster assembly and labelling (Algorithm 3).  With
        ``normalize`` on, the fitted ``(lo, span)`` travels into the
        two kernels that read points, which map each value as they read
        it: the fit holds the input, the tree and the labels, never a
        normalised copy of the input.
        """
        points = np.asarray(points, dtype=np.float64)
        # The finite scan is CountingTree's: it reads the raw points
        # first, on every path, and raises the same ContractError.
        check_array("points", points, dtype=np.float64, ndim=2)
        with obs.span("fit"):
            obs.incr("fit.runs")
            obs.incr("fit.points", int(points.shape[0]))
            self.normalizer_ = None
            if self.normalize:
                with obs.span("fit.normalize"):
                    self.normalizer_ = minmax_params(points)

            self.tree_ = CountingTree(
                points,
                n_resolutions=self.n_resolutions,
                n_jobs=self.n_jobs,
                normalizer=self.normalizer_,
            )
            self.beta_clusters_ = find_beta_clusters(
                self.tree_, self.alpha, max_beta_clusters=self.max_beta_clusters
            )
            result = build_correlation_clusters(
                points, self.beta_clusters_, self.normalizer_
            )
        result.extras["alpha"] = self.alpha
        result.extras["n_resolutions"] = self.n_resolutions

        check_labels("labels", result.labels, n_points=points.shape[0])
        self.labels_ = result.labels
        self.clusters_ = result.clusters
        self.relevant_axes_ = [c.relevant_axes for c in result.clusters]
        return result

    def fit_predict(self, points: FloatArray) -> IntArray:
        """Cluster ``points`` and return only the label vector."""
        return self.fit(points).labels

    def save(self, path: str | Path) -> None:
        """Persist the fitted model as a serving artifact.

        Convenience front door for :func:`repro.serve.save_model`; the
        estimator must be fitted.  The written file round-trips through
        :func:`repro.serve.load_model` into labels bit-identical to
        ``self.labels_``.
        """
        from repro.serve import save_model

        save_model(self, path)
