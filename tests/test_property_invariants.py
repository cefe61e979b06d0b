"""Cross-cutting property-based tests (hypothesis) on the full pipeline.

These generate small random planted datasets and check invariants that
must hold for *any* input: the output is a partition, boxes live inside
the unit cube, the evaluation metrics are bounded and behave
monotonically, and the pipeline is deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beta_cluster import find_beta_clusters
from repro.core.counting_tree import CountingTree
from repro.core.mrcc import MrCC
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.evaluation.quality import quality, subspaces_quality
from repro.types import NOISE_LABEL, SubspaceCluster

dataset_strategy = st.builds(
    SyntheticDatasetSpec,
    dimensionality=st.integers(3, 8),
    n_points=st.integers(400, 1500),
    n_clusters=st.integers(1, 4),
    noise_fraction=st.floats(0.0, 0.3),
    max_irrelevant=st.integers(1, 2),
    seed=st.integers(0, 500),
)


class TestPipelineInvariants:
    @given(spec=dataset_strategy)
    @settings(max_examples=15, deadline=None)
    def test_output_is_a_partition(self, spec):
        dataset = generate_dataset(spec)
        result = MrCC(normalize=False).fit(dataset.points)
        covered = sum(cluster.size for cluster in result.clusters)
        assert covered + result.n_noise == dataset.n_points
        seen: set[int] = set()
        for cluster in result.clusters:
            members = set(cluster.indices.tolist())
            assert not (seen & members)
            seen |= members

    @given(spec=dataset_strategy)
    @settings(max_examples=10, deadline=None)
    def test_beta_boxes_inside_unit_cube(self, spec):
        dataset = generate_dataset(spec)
        tree = CountingTree(dataset.points)
        for beta in find_beta_clusters(tree, alpha=1e-10):
            assert np.all(beta.lower >= 0.0)
            assert np.all(beta.upper <= 1.0)
            assert np.all(beta.lower <= beta.upper)
            assert beta.relevant_axes  # at least one axis is relevant

    @given(spec=dataset_strategy)
    @settings(max_examples=8, deadline=None)
    def test_determinism(self, spec):
        dataset = generate_dataset(spec)
        a = MrCC(normalize=False).fit(dataset.points)
        b = MrCC(normalize=False).fit(dataset.points)
        assert np.array_equal(a.labels, b.labels)

    @given(spec=dataset_strategy)
    @settings(max_examples=10, deadline=None)
    def test_quality_metrics_bounded(self, spec):
        dataset = generate_dataset(spec)
        result = MrCC(normalize=False).fit(dataset.points)
        q = quality(result.clusters, dataset.clusters)
        sq = subspaces_quality(result.clusters, dataset.clusters)
        assert 0.0 <= q <= 1.0
        assert 0.0 <= sq <= 1.0


class TestMetricProperties:
    @given(
        members=st.sets(st.integers(0, 60), min_size=1, max_size=40),
        extra=st.sets(st.integers(61, 99), min_size=0, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_quality_of_self_plus_junk(self, members, extra):
        """Adding junk points to a perfect found cluster can only lower
        the quality."""
        real = [SubspaceCluster.from_iterables(members, [0])]
        perfect = quality(real, real)
        padded = [SubspaceCluster.from_iterables(members | extra, [0])]
        assert quality(padded, real) <= perfect + 1e-12

    @given(
        members=st.sets(st.integers(0, 60), min_size=4, max_size=40),
        keep=st.floats(0.3, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_quality_monotone_in_coverage(self, members, keep):
        """Covering more of the real cluster never hurts quality."""
        ordered = sorted(members)
        n_small = max(1, int(len(ordered) * keep * 0.5))
        n_big = max(n_small, int(len(ordered) * keep))
        real = [SubspaceCluster.from_iterables(members, [0])]
        small = [SubspaceCluster.from_iterables(ordered[:n_small], [0])]
        big = [SubspaceCluster.from_iterables(ordered[:n_big], [0])]
        assert quality(big, real) >= quality(small, real) - 1e-12


class TestNoiseHandling:
    @given(noise=st.floats(0.0, 0.5), seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_noise_points_do_not_create_clusters_alone(self, noise, seed):
        """Pure uniform noise never yields clusters at alpha=1e-10."""
        rng = np.random.default_rng(seed)
        n = 300 + int(1000 * noise)
        points = rng.uniform(0, 1, size=(n, 4))
        result = MrCC(normalize=False).fit(points)
        assert result.n_clusters == 0
        assert np.all(result.labels == NOISE_LABEL)
