"""Cluster records are sorted, read-only int64 index arrays.

Every path that turns a label vector into records goes through
:func:`repro.types.records_from_labels`; these tests hold each path's
records to ``np.flatnonzero(labels == k)``, across backends and a
pickle round trip, and bound the memory the records cost.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.common import result_from_labels
from repro.core import kernels
from repro.core.beta_cluster import BetaCluster
from repro.core.contracts import ContractError
from repro.core.correlation_cluster import assemble_result
from repro.core.mrcc import MrCC
from repro.core.soft import SoftMrCC
from repro.core.streaming import label_stream
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.serve import model_from_estimator
from repro.types import (
    NOISE_LABEL,
    ClusteringResult,
    Dataset,
    SubspaceCluster,
    records_from_labels,
)

BACKENDS = [name for name in ("numpy", "cext") if name in kernels.available_backends()]

dataset_strategy = st.builds(
    SyntheticDatasetSpec,
    dimensionality=st.integers(3, 6),
    n_points=st.integers(400, 1200),
    n_clusters=st.integers(1, 3),
    noise_fraction=st.floats(0.0, 0.3),
    max_irrelevant=st.integers(1, 2),
    seed=st.integers(0, 500),
)


def _assert_exact(clusters, labels):
    """Each record is int64, strictly increasing, read-only and exact."""
    for k, cluster in enumerate(clusters):
        indices = cluster.indices
        assert indices.dtype == np.int64 and indices.ndim == 1
        assert not indices.flags.writeable
        assert np.all(indices[1:] > indices[:-1])
        assert np.array_equal(indices, np.flatnonzero(labels == k))
    assert sum(c.size for c in clusters) == np.count_nonzero(labels != NOISE_LABEL)


@pytest.mark.parametrize("backend", BACKENDS)
@given(spec=dataset_strategy)
@settings(max_examples=6, deadline=None)
def test_every_path_builds_exact_records(backend, spec):
    dataset = generate_dataset(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BACKEND", backend)
        estimator = MrCC()
        fitted = estimator.fit(dataset.points)
        model = model_from_estimator(estimator)
        chunks = np.array_split(dataset.points, 3)
        results = [
            fitted,
            model.label_result(dataset.points),
            model.label_stream(chunks),
            label_stream(
                chunks, fitted.extras["beta_clusters"], normalizer=estimator.normalizer_
            ),
            SoftMrCC(normalize=False).fit(dataset.points),
            ClusteringResult.from_labels(
                fitted.labels, [c.relevant_axes for c in fitted.clusters]
            ),
        ]
    shipped = [dataset] + [
        Dataset(points=dataset.points, labels=r.labels, clusters=r.clusters)
        for r in results
    ]
    for original in shipped:
        _assert_exact(original.clusters, original.labels)
        for protocol in (4, 5):
            copy = pickle.loads(pickle.dumps(original, protocol=protocol))
            _assert_exact(copy.clusters, copy.labels)
            assert copy.clusters == original.clusters


def _betas(k):
    return [
        BetaCluster(
            lower=np.zeros(3),
            upper=np.ones(3),
            relevant=np.array([True, False, i % 2 == 0]),
            level=2,
            center_row=i,
            relevances=np.zeros(3),
        )
        for i in range(k)
    ]


def test_assemble_result_peak_stays_near_the_label_bytes():
    """500k labels in 7 clusters: records cost about one int64 a point.

    A frozenset of boxed ints costs several times the label vector;
    the one sort order, its 16-bit keys and the records' checks stay
    within twice its bytes.
    """
    labels = np.random.default_rng(0).integers(-1, 7, size=500_000)
    betas = _betas(7)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = assemble_result(labels, betas, [[b] for b in range(7)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_exact(result.clusters, labels)
    assert peak <= 2 * labels.nbytes


class TestRecordsFromLabels:
    def test_noise_only_and_empty_clusters(self):
        records = records_from_labels(np.array([-1, -1, 1]), [[0], [1], [2]])
        assert [r.indices.tolist() for r in records] == [[], [2], []]
        assert records_from_labels(np.empty(0, dtype=np.int64), [[0]])[0].size == 0

    @pytest.mark.parametrize("bad", [2, 7, -2])
    def test_rejects_labels_outside_the_cluster_range(self, bad):
        with pytest.raises(ContractError, match=r"-1\.\.1"):
            records_from_labels(np.array([0, bad, 1, -1]), [[0], [1]])

    def test_rejects_float_labels(self):
        with pytest.raises(ContractError, match="integer"):
            records_from_labels(np.array([0.0, 1.0]), [[0], [1]])

    def test_wide_cluster_counts_take_the_64_bit_keys(self):
        k = np.iinfo(np.uint16).max  # the first count past the 16-bit keys
        labels = np.arange(-1, k, dtype=np.int64)[::-1].copy()
        records = records_from_labels(labels, [[0]] * k)
        _assert_exact(records, labels)

    def test_from_labels_rejects_a_label_without_axes(self):
        """Point 2 would be labelled clustered yet sit in no record."""
        with pytest.raises(ContractError):
            ClusteringResult.from_labels([0, 1, 2], [[0], [1]])


class TestSubspaceClusterArrays:
    def test_frozenset_input_is_sorted(self):
        cluster = SubspaceCluster(indices=frozenset({9, 2, 5}), relevant_axes=[1])
        assert cluster.indices.tolist() == [2, 5, 9]
        # The benchmark's row permutation reads a record this way.
        read = np.fromiter(cluster.indices, np.int64, len(cluster.indices))
        assert read.tolist() == [2, 5, 9]

    def test_writable_input_is_copied(self):
        members = np.array([1, 4, 6])
        cluster = SubspaceCluster(indices=members, relevant_axes=[0])
        members[0] = 5
        assert cluster.indices.tolist() == [1, 4, 6]

    def test_records_cannot_be_written(self):
        (record,) = records_from_labels(np.array([0, -1, 0]), [[0]])
        with pytest.raises(ValueError):
            record.indices[0] = 1

    def test_float_indices_are_rejected(self):
        with pytest.raises(TypeError):
            SubspaceCluster(indices=np.array([0.5]), relevant_axes=[0])


class TestDatasetValidate:
    def _dataset(self, labels, members):
        points = np.full((len(labels), 2), 0.5)
        clusters = [SubspaceCluster(indices=m, relevant_axes=[0]) for m in members]
        return Dataset(points=points, labels=np.asarray(labels), clusters=clusters)

    def test_accepts_consistent_records(self):
        self._dataset([0, 1, -1, 0], [[0, 3], [1]]).validate()

    def test_rejects_a_missing_member(self):
        with pytest.raises(ValueError, match="cluster 0 indices disagree"):
            self._dataset([0, 1, -1, 0], [[0], [1]]).validate()

    def test_rejects_a_label_with_no_record(self):
        with pytest.raises(ContractError):
            self._dataset([0, 1, -1, 0], [[0, 3]]).validate()


def _reference_compact(labels):
    """Compaction in ascending original-label order, one point at a time."""
    originals = sorted({lab for lab in labels.tolist() if lab != NOISE_LABEL})
    mapping = {lab: new for new, lab in enumerate(originals)}
    out = np.full(labels.shape, NOISE_LABEL, dtype=np.int64)
    for i, lab in enumerate(labels.tolist()):
        if lab != NOISE_LABEL:
            out[i] = mapping[lab]
    return out, originals


@given(st.lists(st.integers(-3, 40), max_size=200))
@settings(max_examples=50, deadline=None)
def test_compaction_matches_the_ascending_order_loop(raw):
    labels = np.asarray(raw, dtype=np.int64)
    expected, originals = _reference_compact(labels)
    result = result_from_labels(labels, axes_for_label=lambda lab: [abs(lab) % 5])
    assert np.array_equal(result.labels, expected)
    assert [c.relevant_axes for c in result.clusters] == [
        frozenset({abs(o) % 5}) for o in originals
    ]
    _assert_exact(result.clusters, expected)
