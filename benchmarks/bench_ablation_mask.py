"""Ablation: face-only order-3 Laplacian mask vs the full 3^d mask.

Section III-B argues for the face-only mask: the full mask (non-zero
corner elements) improves cluster detection "a little" but costs
O(3^d) per cell instead of O(d).  This bench implements the full mask,
confirms both deliver comparable Quality on a moderate-dimensional
dataset, and shows the cost gap exploding with dimensionality.
"""

import itertools
import time

import numpy as np

from repro.core import beta_cluster as beta_cluster_module
from repro.core import mrcc as mrcc_module
from repro.core.convolution import level_responses
from repro.core.counting_tree import CountingTree
from repro.core.mrcc import MrCC
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.evaluation.quality import evaluate_clustering

from _harness import emit


def full_mask_responses(level):
    """Order-3 Laplacian with non-zero values at ALL 3^d - 1 neighbours.

    Centre weight ``3^d - 1``, every other element ``-1`` — the
    alternative the paper rejects for cost reasons.
    """
    m, d = level.coords.shape
    center_weight = 3**d - 1
    responses = center_weight * level.n.astype(np.int64)
    limit = (1 << level.h) - 1
    for offset in itertools.product((-1, 0, 1), repeat=d):
        if all(o == 0 for o in offset):
            continue
        shifted = level.coords + np.asarray(offset)
        valid = np.all((shifted >= 0) & (shifted <= limit), axis=1)
        if not np.any(valid):
            continue
        rows = level.rows_of(shifted[valid])
        found = rows >= 0
        targets = np.flatnonzero(valid)[found]
        responses[targets] -= level.n[rows[found]]
    return responses


def _dataset(d, seed=5):
    return generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=d,
            n_points=4000,
            n_clusters=4,
            noise_fraction=0.15,
            max_irrelevant=2,
            seed=seed,
        )
    )


def test_ablation_mask_quality(monkeypatch, benchmark):
    """Full mask buys at most a marginal Quality change on 8 axes.

    The pruned search of ``find_beta_clusters`` relies on the face-mask
    bound ``response <= 2d·n``, which the full mask breaks (its centre
    weighs ``3^d - 1``), so the full-mask arm runs the unpruned seed
    search, ``reference_find_beta_clusters``, which convolves every cell.
    """
    dataset = _dataset(8)
    full_mask_levels = []

    def counted_full_mask(level):
        full_mask_levels.append(level.h)
        return full_mask_responses(level)

    def unpruned_search(tree, alpha, max_beta_clusters=None):
        assert max_beta_clusters is None
        return beta_cluster_module.reference_find_beta_clusters(tree, alpha)

    def run_both():
        face = MrCC(normalize=False).fit(dataset.points)
        with monkeypatch.context() as patch:
            patch.setattr(beta_cluster_module, "level_responses", counted_full_mask)
            patch.setattr(mrcc_module, "find_beta_clusters", unpruned_search)
            full = MrCC(normalize=False).fit(dataset.points)
        return face, full

    face, full = benchmark.pedantic(run_both, rounds=1, iterations=1)
    q_face = evaluate_clustering(face, dataset).quality
    q_full = evaluate_clustering(full, dataset).quality
    emit(
        "ablation_mask_quality",
        f"face-only mask Quality: {q_face:.3f}\nfull 3^d mask Quality: {q_full:.3f}",
    )
    # Without this the full-mask arm could silently measure the face mask.
    assert full_mask_levels, "the full-mask arm computed no full-mask response"
    assert abs(q_face - q_full) < 0.25


def test_ablation_mask_cost_explodes_with_d(benchmark):
    """Convolution cost: O(d) face mask vs O(3^d) full mask."""

    def run_sweep():
        measured = []
        for d in (4, 6, 8):
            dataset = _dataset(d)
            tree = CountingTree(dataset.points, n_resolutions=4)
            level = tree.level(2)

            start = time.perf_counter()
            level_responses(level)
            face_s = time.perf_counter() - start

            start = time.perf_counter()
            full_mask_responses(level)
            full_s = time.perf_counter() - start
            measured.append((d, face_s, full_s))
        return measured

    measured = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    ratios = [full_s / max(face_s, 1e-9) for _, face_s, full_s in measured]
    emit(
        "ablation_mask_cost",
        "\n".join(
            f"d={d}: face {face_s * 1e3:8.2f} ms   full {full_s * 1e3:10.2f} ms"
            f"   ratio {ratio:8.1f}x"
            for (d, face_s, full_s), ratio in zip(measured, ratios)
        ),
    )
    # The gap must widen as d grows (3^d/2d is monotone in d).
    assert ratios[-1] > ratios[0]
