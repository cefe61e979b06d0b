"""Tests for the six-region binomial significance test (Section III-B)."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import hypothesis_test
from repro.core.counting_tree import CountingTree
from repro.core.hypothesis_test import (
    CENTER_PROBABILITY,
    critical_value,
    critical_values,
    neighborhood_counts,
    significant_axes,
)


class TestCriticalValue:
    def test_matches_definition(self):
        """θ is the smallest t with P(X > t) <= alpha."""
        for n, alpha in [(100, 0.01), (50, 1e-5), (500, 1e-10)]:
            theta = critical_value(n, alpha)
            assert stats.binom.sf(theta, n, CENTER_PROBABILITY) <= alpha
            if theta > 0:
                assert stats.binom.sf(theta - 1, n, CENTER_PROBABILITY) > alpha

    def test_zero_points(self):
        assert critical_value(0, 0.01) == 0

    def test_monotone_in_alpha(self):
        # Stricter alpha -> larger critical value.
        assert critical_value(100, 1e-10) >= critical_value(100, 1e-2)

    def test_monotone_in_n(self):
        assert critical_value(1000, 1e-5) >= critical_value(100, 1e-5)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError, match="alpha"):
            critical_value(10, 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            critical_value(-1, 0.5)

    def test_tiny_neighbourhoods_cannot_reject(self):
        """With alpha = 1e-10 and few points, even a full central
        region cannot beat the critical value — the paper's
        minimum-points caveat (Section V)."""
        theta = critical_value(10, 1e-10)
        assert theta >= 10

    @given(n=st.integers(1, 2000), alpha=st.sampled_from([1e-3, 1e-6, 1e-10]))
    @settings(max_examples=40, deadline=None)
    def test_vectorised_agrees_with_scalar(self, n, alpha):
        assert critical_values(np.array([n]), alpha)[0] == critical_value(n, alpha)

    @pytest.mark.parametrize("alpha", [1e-10, 0.05, 0.5, 0.999])
    def test_zero_points_is_zero_at_any_alpha(self, alpha):
        assert critical_value(0, alpha) == 0

    def test_alpha_bounds_are_open(self):
        for alpha in (0.0, 1.0, -0.25, 1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                critical_value(10, alpha)
        tiny, almost_one = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        assert critical_value(10, tiny) == 10
        assert critical_value(10, almost_one) == 0

    def test_undefined_isf_means_no_count_can_reject(self, monkeypatch):
        # scipy answers NaN where the tail has no inverse; the critical
        # value is then the whole neighbourhood, which nothing exceeds.
        monkeypatch.setattr(hypothesis_test.stats.binom, "isf", lambda *args: np.nan)
        assert critical_value(37, 1e-10) == 37
        assert critical_value(0, 1e-10) == 0

    @pytest.mark.parametrize("alpha", [1e-10, 1e-6, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9])
    def test_matches_the_exact_binomial_tail(self, alpha):
        """For small n, θ is the smallest t whose exact rational tail
        ``Σ_{k>t} C(n,k) p^k (1-p)^(n-k)`` is at most ``alpha``."""
        p, bound = Fraction(1, 6), Fraction(alpha)
        for n in range(1, 41):
            terms = [comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
            tail, theta = Fraction(0), n
            for t in range(n - 1, -1, -1):
                tail += terms[t + 1]
                if tail > bound:
                    break
                theta = t
            assert critical_value(n, alpha) == theta, (n, alpha)


class TestNeighborhoodCounts:
    def _cluster_tree(self):
        """600 points tight in both axes of cell (1,1) at level 2, plus
        background spread along axis 1."""
        rng = np.random.default_rng(0)
        cluster = np.column_stack(
            [rng.normal(0.4, 0.01, 600), rng.normal(0.4, 0.01, 600)]
        )
        background = np.column_stack(
            [rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)]
        )
        points = np.clip(
            np.vstack([cluster, background]), 0, np.nextafter(1.0, 0)
        )
        return CountingTree(points, n_resolutions=4)

    def test_requires_level_two(self):
        tree = self._cluster_tree()
        with pytest.raises(ValueError, match="parent level"):
            neighborhood_counts(tree, 1, 0)

    def test_counts_are_consistent(self):
        tree = self._cluster_tree()
        level2 = tree.level(2)
        row = level2.row_of(np.array([1, 1]))
        counts = neighborhood_counts(tree, 2, row)
        assert counts.center.shape == (2,)
        assert np.all(counts.center <= counts.total)
        assert np.all(counts.center >= 0)
        # The cluster (600 points) dominates the central region.
        assert np.all(counts.center >= 600)

    def test_relevances_in_range(self):
        tree = self._cluster_tree()
        level2 = tree.level(2)
        row = level2.row_of(np.array([1, 1]))
        relevances = neighborhood_counts(tree, 2, row).relevances()
        assert np.all(relevances >= 0.0)
        assert np.all(relevances <= 100.0)

    def test_cluster_axes_are_significant(self):
        tree = self._cluster_tree()
        level2 = tree.level(2)
        row = level2.row_of(np.array([1, 1]))
        counts = neighborhood_counts(tree, 2, row)
        assert np.all(significant_axes(counts, alpha=1e-10))

    def test_uniform_data_is_not_significant(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 1, size=(2000, 2))
        tree = CountingTree(points, n_resolutions=4)
        level2 = tree.level(2)
        hits = 0
        for row in range(level2.n_cells):
            counts = neighborhood_counts(tree, 2, row)
            if np.any(significant_axes(counts, alpha=1e-10)):
                hits += 1
        assert hits == 0
