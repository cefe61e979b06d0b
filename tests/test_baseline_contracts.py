"""Contract tests every clustering algorithm in the package must honour.

Parametrised over MrCC and all eight baselines: output invariants
(label compactness, labels/clusters agreement, noise handling) and
reproducibility for a fixed seed.
"""

import numpy as np
import pytest

from repro.baselines import (
    CFPC,
    CLIQUE,
    EPCH,
    HARP,
    LAC,
    ORCLUS,
    P3C,
    PROCLUS,
)
from repro.core.mrcc import MrCC
from repro.types import NOISE_LABEL

K = 3  # the easy fixture's cluster count


def _methods():
    return [
        pytest.param(lambda: MrCC(normalize=False), id="MrCC"),
        pytest.param(lambda: LAC(n_clusters=K, random_state=0), id="LAC"),
        pytest.param(lambda: EPCH(max_no_cluster=K), id="EPCH"),
        pytest.param(lambda: P3C(), id="P3C"),
        pytest.param(lambda: CFPC(n_clusters=K, random_state=0), id="CFPC"),
        pytest.param(
            lambda: HARP(n_clusters=K, max_noise_percent=0.1, max_points=600),
            id="HARP",
        ),
        pytest.param(lambda: PROCLUS(n_clusters=K, avg_dims=3), id="PROCLUS"),
        pytest.param(lambda: CLIQUE(), id="CLIQUE"),
        pytest.param(
            lambda: ORCLUS(n_clusters=K, subspace_dim=3, random_state=0), id="ORCLUS"
        ),
    ]


@pytest.fixture(scope="module")
def results(easy_dataset):
    """Fit every method once; contract tests share the outputs."""
    out = {}
    for param in _methods():
        factory = param.values[0]
        out[param.id] = (factory, factory().fit(easy_dataset.points))
    return out


@pytest.mark.parametrize("factory", _methods())
class TestContracts:
    def _result(self, results, request):
        return results[request.node.callspec.id]

    def test_labels_shape_and_dtype(self, factory, results, request, easy_dataset):
        _, result = self._result(results, request)
        assert result.labels.shape == (easy_dataset.n_points,)
        assert result.labels.dtype == np.int64

    def test_labels_are_compact(self, factory, results, request):
        _, result = self._result(results, request)
        non_noise = sorted(set(result.labels.tolist()) - {NOISE_LABEL})
        assert non_noise == list(range(result.n_clusters))

    def test_clusters_match_labels(self, factory, results, request):
        _, result = self._result(results, request)
        for k, cluster in enumerate(result.clusters):
            members = np.flatnonzero(result.labels == k)
            assert np.array_equal(cluster.indices, members)

    def test_clusters_are_disjoint(self, factory, results, request):
        _, result = self._result(results, request)
        seen: set[int] = set()
        for cluster in result.clusters:
            members = set(cluster.indices.tolist())
            assert not (seen & members)
            seen |= members

    def test_relevant_axes_in_range(self, factory, results, request, easy_dataset):
        _, result = self._result(results, request)
        for cluster in result.clusters:
            assert all(
                0 <= a < easy_dataset.dimensionality for a in cluster.relevant_axes
            )

    def test_refit_is_reproducible(self, factory, results, request, easy_dataset):
        maker, first = self._result(results, request)
        again = maker().fit(easy_dataset.points)
        assert np.array_equal(first.labels, again.labels)

    def test_estimator_stores_results(self, factory, results, request, easy_dataset):
        method = factory()
        result = method.fit(easy_dataset.points)
        assert np.array_equal(method.labels_, result.labels)

    def test_rejects_empty_input(self, factory, results, request):
        with pytest.raises(ValueError):
            factory().fit(np.zeros((0, 5)))
