"""Scenario: clustering breast-cancer screening ROIs (Section IV-G).

The paper's real-data experiment clusters 25 features extracted from
X-ray breast images (KDD Cup 2008): each Region of Interest is either
normal tissue or a malignant lesion, and correlation clusters in
feature subspaces carry that class signal.  This example runs MrCC on
the simulated stand-in (DESIGN.md substitution #1), then uses the
clustering as a *detector*: ROIs in small, tight, high-dimensional
clusters separated from the dominant tissue pattern are flagged for
review.

Run:  python examples/breast_cancer_screening.py
"""

from __future__ import annotations

import numpy as np

from repro import MrCC, evaluate_clustering
from repro.data.kddcup2008 import KddCup2008Spec, kddcup2008_split


def main() -> None:
    spec = KddCup2008Spec(scale=0.1)
    dataset = kddcup2008_split("left", "MLO", spec)
    is_malignant = dataset.metadata["is_malignant"]
    print(
        f"{dataset.name}: {dataset.n_points} ROIs x "
        f"{dataset.dimensionality} features, "
        f"{int(is_malignant.sum())} malignant ({is_malignant.mean():.1%})"
    )

    result = MrCC().fit(dataset.points)
    report = evaluate_clustering(result, dataset)
    print(f"\nMrCC found {result.n_clusters} clusters; "
          f"Quality vs class ground truth = {report.quality:.3f}")

    # Rank clusters as lesion candidates: small and far from the bulk.
    print("\ncluster  size   malignant-fraction  verdict")
    for k, cluster in enumerate(result.clusters):
        malignant_fraction = float(is_malignant[cluster.indices].mean())
        small = cluster.size < 0.1 * dataset.n_points
        verdict = "FLAG FOR REVIEW" if small else "tissue pattern"
        print(
            f"  {k:3d}   {cluster.size:6d}        {malignant_fraction:6.1%}"
            f"        {verdict}"
        )

    flagged = [
        c for c in result.clusters if c.size < 0.1 * dataset.n_points
    ]
    if flagged:
        caught = sum(
            int(is_malignant[c.indices].sum()) for c in flagged
        )
        print(
            f"\nflagged clusters contain {caught} of "
            f"{int(is_malignant.sum())} malignant ROIs "
            f"({caught / max(int(is_malignant.sum()), 1):.0%} recall at "
            f"{sum(c.size for c in flagged)} reviewed ROIs)"
        )


if __name__ == "__main__":
    main()
