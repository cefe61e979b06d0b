"""MrCC's rows of the paper's Fig. 5 sweeps, pinned to three decimals.

MrCC is a deterministic function of its data, so each sweep's Quality
and Subspaces Quality rows can be pinned exactly.  Each sweep runs at
its ``benchmarks/bench_fig5_*.py`` default scale (0.03, raised to 0.06
for the noise, points and clusters sweeps), so the Quality rows are
the ones committed in ``benchmarks/results/``.  A change that moves a
paper exhibit's MrCC number fails here.  All six sweeps take about 3 s.
"""

import pytest

from repro.experiments.synthetic_suite import run_figure_row

# figure -> (scale, [(dataset, quality, subspaces_quality), ...])
EXHIBITS = {
    "fig5a-c": (0.03, [
        ("6d", 0.954, 0.947), ("8d", 0.885, 0.771), ("10d", 0.835, 0.894),
        ("12d", 0.797, 0.959), ("14d", 0.771, 0.809), ("16d", 0.618, 0.790),
        ("18d", 0.761, 0.891),
    ]),
    "fig5d-f": (0.06, [
        ("5o", 0.837, 0.827), ("10o", 0.946, 0.899), ("15o", 0.896, 0.835),
        ("20o", 0.852, 0.850), ("25o", 0.750, 0.784),
    ]),
    "fig5g-i": (0.06, [
        ("50k", 0.832, 0.863), ("100k", 0.790, 0.807), ("150k", 0.877, 0.872),
        ("200k", 0.981, 0.869), ("250k", 0.950, 0.852),
    ]),
    "fig5j-l": (0.06, [
        ("5c", 0.992, 0.788), ("10c", 0.938, 0.836), ("15c", 0.795, 0.798),
        ("20c", 0.783, 0.876), ("25c", 0.690, 0.914),
    ]),
    "fig5m-o": (0.03, [
        ("5d_s", 0.708, 0.970), ("10d_s", 0.645, 0.927), ("15d_s", 0.686, 0.827),
        ("20d_s", 0.926, 0.939), ("25d_s", 0.763, 0.923), ("30d_s", 0.812, 0.902),
    ]),
    "fig5p-r": (0.03, [
        ("6d_r", 0.829, 0.737), ("8d_r", 0.978, 0.772), ("10d_r", 0.765, 0.902),
        ("12d_r", 0.654, 0.902), ("14d_r", 0.680, 0.812), ("16d_r", 0.495, 0.740),
        ("18d_r", 0.842, 0.820),
    ]),
}


@pytest.mark.parametrize("figure", sorted(EXHIBITS))
def test_mrcc_rows_match_the_pinned_exhibit(figure):
    scale, expected = EXHIBITS[figure]
    rows = run_figure_row(figure, scale, methods=("MrCC",))
    observed = [
        (row["dataset"], row["quality"], row["subspaces_quality"]) for row in rows
    ]
    assert [name for name, _, _ in observed] == [name for name, _, _ in expected]
    for (name, quality, subspaces), (_, pinned_q, pinned_s) in zip(observed, expected):
        assert quality == pytest.approx(pinned_q, abs=5e-4), name
        assert subspaces == pytest.approx(pinned_s, abs=5e-4), name
