"""Property-based tests for the observability counters.

The counters are not free-form diagnostics — they encode the paper's
work accounting, so algebraic invariants must hold for *any* input:
every cell of a searched level is either evaluated exactly once or
never evaluated because its bound could not win, a pivot is either
accepted or rejected, each accepted pivot pays exactly one MDL cut, and
the counts cannot depend on how the experiment grid was fanned out over
processes (``REPRO_JOBS``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MrCC, obs
from repro.core import beta_cluster
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.experiments.runner import run_suite

dataset_strategy = st.builds(
    SyntheticDatasetSpec,
    dimensionality=st.integers(3, 8),
    n_points=st.integers(400, 1500),
    n_clusters=st.integers(1, 4),
    noise_fraction=st.floats(0.0, 0.3),
    max_irrelevant=st.integers(1, 2),
    seed=st.integers(0, 500),
)


def fit_counters(
    points, n_resolutions: int = 4, first_block: int | None = None
) -> dict[str, int]:
    """Counters of one fit; ``first_block`` shrinks the search's first
    block of responses so small levels are pruned too."""
    block = beta_cluster._FIRST_BLOCK if first_block is None else first_block
    with mock.patch.object(beta_cluster, "_FIRST_BLOCK", block):
        with obs.capture() as tracer:
            MrCC(normalize=False, n_resolutions=n_resolutions).fit(points)
            return dict(tracer.counters)


def level_counter(counters: dict[str, int], stem: str, h: int) -> int:
    return counters.get(f"{stem.format(h=h)}", 0)


class TestCounterInvariants:
    @given(spec=dataset_strategy, first_block=st.sampled_from([1, 2, 1024]))
    @settings(max_examples=12, deadline=None)
    def test_evaluated_and_bounded_cells_partition_each_level(
        self, spec, first_block
    ):
        """A searched level's cells are either evaluated (once) or left
        unevaluated because their bound ``2d·n`` could not win:
        ``cells_h + bounded_h`` is exactly the cells the tree created.
        The search visits each evaluated cell once and each pivot once."""
        dataset = generate_dataset(spec)
        counters = fit_counters(dataset.points, first_block=first_block)
        searched = [
            h
            for h in range(2, 4)
            if level_counter(counters, "convolution.level{h}.cells", h)
        ]
        assert searched == [2, 3], "the last pass searches every level"
        for h in searched:
            created = level_counter(counters, "tree.level{h}.cells", h)
            evaluated = level_counter(counters, "convolution.level{h}.cells", h)
            bounded = level_counter(counters, "convolution.level{h}.bounded", h)
            assert created > 0 and evaluated > 0
            assert evaluated + bounded == created
        visited = sum(
            level_counter(counters, "search.level{h}.cells_visited", h)
            for h in searched
        )
        assert visited == counters["convolution.cells"] + counters["search.pivots"]

    @given(spec=dataset_strategy)
    @settings(max_examples=12, deadline=None)
    def test_convolution_count_equals_candidate_cell_evaluations(self, spec):
        """``convolution.cells`` is exactly Σ_h ``convolution.level{h}.cells``
        and ``convolution.responses`` Σ_h of the per-level kernel calls:
        the search evaluates each cell at most once (the responses are
        kept and re-masked, not recomputed)."""
        dataset = generate_dataset(spec)
        counters = fit_counters(dataset.points, first_block=2)
        assert counters.get("convolution.cells", 0) == sum(
            level_counter(counters, "convolution.level{h}.cells", h)
            for h in range(2, 4)
        )
        assert counters.get("convolution.responses", 0) == sum(
            level_counter(counters, "convolution.level{h}.responses", h)
            for h in range(2, 4)
        )

    @given(spec=dataset_strategy)
    @settings(max_examples=12, deadline=None)
    def test_pivot_accounting(self, spec):
        """Every pivot is tested once and either accepted or rejected;
        each accepted pivot pays exactly one MDL cut, and each find
        triggers one more search pass (plus the final empty pass)."""
        dataset = generate_dataset(spec)
        counters = fit_counters(dataset.points)
        pivots = counters.get("search.pivots", 0)
        accepted = counters.get("search.beta_accepted", 0)
        rejected = counters.get("search.beta_rejected", 0)
        assert pivots == accepted + rejected
        assert counters.get("search.tests", 0) == pivots
        assert counters.get("search.mdl_cuts", 0) == accepted
        assert counters.get("search.passes", 0) == accepted + 1
        assert counters.get("assemble.beta_clusters", 0) == accepted

    @given(spec=dataset_strategy)
    @settings(max_examples=6, deadline=None)
    def test_counters_are_deterministic(self, spec):
        dataset = generate_dataset(spec)
        assert fit_counters(dataset.points) == fit_counters(dataset.points)


class TestParallelCounterEquality:
    @pytest.fixture(scope="class")
    def suite_datasets(self):
        return [
            generate_dataset(
                SyntheticDatasetSpec(
                    dimensionality=5,
                    n_points=600,
                    n_clusters=2,
                    noise_fraction=0.1,
                    max_irrelevant=2,
                    seed=seed,
                )
            )
            for seed in (11, 12)
        ]

    def _suite_counters(self, datasets, n_jobs: int) -> dict[str, int]:
        with obs.capture() as tracer:
            run_suite(
                datasets, methods=("MrCC",), profile="quick",
                track_memory=False, n_jobs=n_jobs,
            )
            return dict(tracer.counters)

    def test_counters_identical_across_jobs_1_and_4(
        self, suite_datasets, monkeypatch
    ):
        """The worker-delta merge reproduces the serial counter totals
        exactly — fan-out is an implementation detail, not work."""
        # Ensure spawn-style workers would also come up traced; fork
        # workers inherit the capture() tracer directly either way.
        monkeypatch.setenv("REPRO_TRACE", "1")
        serial = self._suite_counters(suite_datasets, n_jobs=1)
        parallel = self._suite_counters(suite_datasets, n_jobs=4)
        assert serial, "the traced suite must produce counters"
        assert serial == parallel

    def test_worker_spans_are_merged(self, suite_datasets, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with obs.capture() as tracer:
            run_suite(
                suite_datasets, methods=("MrCC",), profile="quick",
                track_memory=False, n_jobs=4,
            )
            snapshot = tracer.snapshot()
        obs.validate_trace(snapshot)
        names = [span["name"] for span in snapshot["spans"]]
        assert names[0] == "suite.run"
        # Worker fits were re-attached under the suite span.
        fit_spans = [
            span
            for span in snapshot["spans"]
            if span["name"] == "fit"
        ]
        assert len(fit_spans) >= len(suite_datasets)
        suite_index = names.index("suite.run")
        assert all(
            snapshot["spans"][span["parent"]]["name"] == "suite.run"
            or span["parent"] >= suite_index
            for span in fit_spans
        )

    def test_parallel_traced_suite_with_uninstrumented_baseline(
        self, suite_datasets, monkeypatch
    ):
        """Baseline methods open no spans, so their worker deltas carry
        an empty span slice; the merge must handle that.  Regression:
        the empty slice crashed delta re-basing and aborted every
        traced parallel run that included a baseline (all fig5 rows)."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        with obs.capture() as tracer:
            rows = run_suite(
                suite_datasets[:1], methods=("MrCC", "LAC"), profile="quick",
                track_memory=False, n_jobs=2,
            )
            snapshot = tracer.snapshot()
        obs.validate_trace(snapshot)
        assert {row["method"] for row in rows} == {"MrCC", "LAC"}
        assert snapshot["counters"], "MrCC cells must still be counted"

    def test_labels_unaffected_by_tracing_in_fit(self, suite_datasets):
        points = suite_datasets[0].points
        plain = MrCC().fit(points).labels
        with obs.capture():
            traced = MrCC().fit(points).labels
        assert np.array_equal(plain, traced)
