"""Scenario: soft membership over overlapping structures.

Hard correlation clustering (the conference method) gives every point
one label.  The soft variant — the direction the journal follow-up of
the paper took — keeps a membership degree per (point, cluster), so
borderline points can be ranked, overlap quantified, and noise graded
instead of binary.

This example plants two clusters that share their range on one axis,
fits :class:`SoftMrCC`, and uses the degrees to pull out the boundary
points a human would want to review.

Run:  python examples/soft_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro.core import SoftMrCC


def main() -> None:
    rng = np.random.default_rng(4)
    shared_x = rng.normal(0.45, 0.03, 1600)  # both clusters share axis 0
    a = np.column_stack(
        [shared_x[:800], rng.normal(0.25, 0.03, 800),
         rng.uniform(0, 1, 800), rng.normal(0.7, 0.02, 800)]
    )
    b = np.column_stack(
        [shared_x[800:], rng.normal(0.75, 0.03, 800),
         rng.uniform(0, 1, 800), rng.normal(0.3, 0.02, 800)]
    )
    noise = rng.uniform(0, 1, size=(400, 4))
    points = np.clip(np.vstack([a, b, noise]), 0, np.nextafter(1.0, 0))

    model = SoftMrCC(membership_threshold=0.05)
    result = model.fit(points)
    membership = model.membership_
    print(f"{points.shape[0]} points -> {result.n_clusters} soft clusters "
          f"({result.extras['n_beta_clusters']} beta-clusters)")

    for k, cluster in enumerate(result.clusters):
        degrees = membership[cluster.indices, k]
        print(f"  cluster {k}: {cluster.size:5d} members, "
              f"axes {sorted(cluster.relevant_axes)}, "
              f"degree mean {degrees.mean():.2f} / min {degrees.min():.2f}")

    if membership.shape[1]:
        strongest = membership.max(axis=1)
        borderline = np.flatnonzero((strongest > 0.05) & (strongest < 0.4))
        confident = np.flatnonzero(strongest >= 0.9)
        print(f"\nconfident members (degree >= 0.9): {confident.size}")
        print(f"borderline points to review (0.05 < degree < 0.4): "
              f"{borderline.size}")
        print(f"graded noise (max degree <= 0.05): "
              f"{np.count_nonzero(strongest <= 0.05)}")


if __name__ == "__main__":
    main()
