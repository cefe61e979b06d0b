"""Perf regression guard: fast paths versus their seed references.

Unlike the exhibit benches, this module does not reproduce a figure of
the paper — it pins the performance-engine contract: the aggregated
Counting-tree build must beat the per-level point rescan it replaced,
the incremental β-cluster search must return exactly the seed search's
clusters, and ``MrCC.fit`` must produce the reference pipeline's labels.
Workloads scale with ``REPRO_SCALE`` like every other bench.

``scripts/perf_baseline.py`` runs the same comparisons on pinned
full-size workloads and writes the machine-readable ``BENCH_core.json``
trajectory; this module is the cheap always-on guard.
"""

import time

import numpy as np

from repro.core import kernels
from repro.core.beta_cluster import find_beta_clusters
from repro.core.counting_tree import (
    CountingTree,
    aggregate_levels,
    bin_points,
    reference_levels,
    tree_from_levels,
)
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.mrcc import MrCC

from _harness import bench_scale, emit

_ALPHA = 1e-10


def _clustered_points(eta, d, n_clusters, seed):
    rng = np.random.default_rng(seed)
    per_cluster = int(eta * 0.85) // n_clusters
    parts = [
        rng.normal(rng.uniform(0.15, 0.85, size=d), 0.02, size=(per_cluster, d))
        for _ in range(n_clusters)
    ]
    parts.append(rng.uniform(0, 1, size=(eta - n_clusters * per_cluster, d)))
    return np.clip(np.vstack(parts), 0.0, np.nextafter(1.0, 0.0))


def test_aggregated_build_beats_rescan(benchmark):
    eta = max(5_000, int(100_000 * bench_scale()))
    d, n_resolutions = 15, 5
    points = _clustered_points(eta, d, n_clusters=10, seed=7)
    base = bin_points(points, n_resolutions)

    # The aggregated arm bins as well; the rescan gets its binning free.
    aggregated = benchmark.pedantic(
        lambda: aggregate_levels(points, n_resolutions), rounds=3, iterations=1
    )
    start = time.perf_counter()
    rescanned = reference_levels(base, n_resolutions, d)
    rescan_seconds = time.perf_counter() - start

    for h in aggregated:
        np.testing.assert_array_equal(aggregated[h].coords, rescanned[h].coords)
        np.testing.assert_array_equal(aggregated[h].n, rescanned[h].n)
        np.testing.assert_array_equal(
            aggregated[h].half_counts, rescanned[h].half_counts
        )

    aggregated_seconds = benchmark.stats.stats.min
    emit(
        "perf_regression_tree",
        f"eta={eta} d={d} H={n_resolutions}\n"
        f"aggregated {aggregated_seconds:.4f}s   rescan {rescan_seconds:.4f}s"
        f"   speedup {rescan_seconds / aggregated_seconds:.2f}x",
    )
    assert aggregated_seconds < rescan_seconds


def test_incremental_search_matches_reference_tree(benchmark):
    eta = max(4_000, int(50_000 * bench_scale()))
    d, n_resolutions = 10, 4
    points = _clustered_points(eta, d, n_clusters=8, seed=11)
    tree = CountingTree(points, n_resolutions=n_resolutions)
    reference_tree = tree_from_levels(
        reference_levels(bin_points(points, n_resolutions), n_resolutions, d),
        d, eta, n_resolutions,
    )

    betas = benchmark.pedantic(
        find_beta_clusters, args=(tree, _ALPHA), rounds=3, iterations=1
    )
    reference = find_beta_clusters(reference_tree, _ALPHA)
    assert len(betas) == len(reference)
    for a, b in zip(betas, reference):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.relevant, b.relevant)
    backend = kernels.backend_info()
    emit(
        "perf_regression_search",
        f"eta={eta} d={d} H={n_resolutions}"
        f" backend={backend['name']} ({backend['version']})\n"
        f"incremental search {benchmark.stats.stats.min:.4f}s"
        f"   ({len(betas)} beta-clusters, identical to reference tree)",
    )


def test_fit_labels_unchanged(benchmark):
    eta = max(4_000, int(50_000 * bench_scale()))
    d, n_resolutions = 10, 4
    points = _clustered_points(eta, d, n_clusters=8, seed=13)

    result = benchmark.pedantic(
        lambda: MrCC(alpha=_ALPHA, n_resolutions=n_resolutions, normalize=False).fit(
            points
        ),
        rounds=1,
        iterations=1,
    )
    reference_tree = tree_from_levels(
        reference_levels(bin_points(points, n_resolutions), n_resolutions, d),
        d, eta, n_resolutions,
    )
    reference = build_correlation_clusters(
        points, find_beta_clusters(reference_tree, _ALPHA)
    )
    np.testing.assert_array_equal(result.labels, reference.labels)
    backend = kernels.backend_info()
    emit(
        "perf_regression_fit",
        f"eta={eta} d={d} H={n_resolutions}"
        f" backend={backend['name']} ({backend['version']})\n"
        f"fit {benchmark.stats.stats.min:.4f}s"
        f"   labels identical to reference pipeline"
        f"   ({result.n_clusters} clusters)",
    )
