"""Tests for the MDL relevance cut (Section III-B)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mdl import (
    MODEL_BITS_PER_PARTITION,
    mdl_cut_position,
    mdl_cut_threshold,
    partition_cost,
)


class TestPartitionCost:
    def test_empty_partition_is_free(self):
        assert partition_cost(np.array([])) == 0.0

    def test_constant_partition_costs_only_its_summary(self):
        cost = partition_cost(np.array([5.0, 5.0, 5.0]))
        assert cost == pytest.approx(MODEL_BITS_PER_PARTITION)

    def test_homogeneous_array_is_not_split(self):
        """The per-partition model cost stops MDL from splitting arrays
        whose axes are all (nearly) equally relevant."""
        values = np.array([55.0, 58.0, 60.0, 62.0, 65.0])
        assert mdl_cut_position(values) == 1

    def test_spread_costs_more(self):
        tight = partition_cost(np.array([10.0, 11.0, 12.0]))
        loose = partition_cost(np.array([0.0, 50.0, 100.0]))
        assert loose > tight


class TestMdlCutPosition:
    def test_clear_two_group_split(self):
        values = np.array([15.0, 16.0, 17.0, 80.0, 82.0, 85.0])
        p = mdl_cut_position(values)
        assert p == 4  # right partition starts at the first 80

    def test_homogeneous_values_keep_everything(self):
        values = np.array([50.0, 50.0, 50.0])
        assert mdl_cut_position(values) == 1

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError, match="sorted"):
            mdl_cut_position(np.array([3.0, 1.0]))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            mdl_cut_position(np.array([]))

    def test_single_value(self):
        assert mdl_cut_position(np.array([42.0])) == 1

    # The low mode is kept tight (width 1 against a 59-unit gap) so the
    # between-modes cut always beats any within-mode cut under the MDL
    # cost; a wide low mode (e.g. 10..20) admits rare examples where
    # splitting the low mode itself is genuinely cheaper.
    @given(
        low=st.lists(st.floats(10.0, 11.0), min_size=1, max_size=8),
        high=st.lists(st.floats(70.0, 90.0), min_size=1, max_size=8),
    )
    @example(
        low=[10.0, 10.0],
        high=[70.0, 70.0, 70.0, 70.0, 81.0, 84.0, 85.0, 86.0],
    )
    @settings(max_examples=40, deadline=None)
    def test_bimodal_arrays_cut_between_modes(self, low, high):
        values = np.sort(np.array(low + high))
        p = mdl_cut_position(values)
        threshold = values[p - 1]
        # The cut essentially separates the two modes: every high value
        # sits in the relevant partition and at most one straggler from
        # the low mode joins it (near-ties at the low mode's own edge
        # are acceptable); keeping everything (p == 1) is also valid
        # when a mode is a single point.
        assert all(v >= threshold for v in high)
        # Stragglers are counted by sorted position, not by value: the
        # low values occupy positions 0 .. len(low) - 1, and the
        # relevant partition starts at position p - 1.  Counting by
        # value would count a low-mode tie at the cut twice.
        low_in_relevant = max(0, len(low) - (p - 1))
        assert low_in_relevant <= 1 or p == 1

    def test_tied_low_mode_at_the_cut(self):
        # A recorded example: the cut falls between the two tied low
        # values, so one of them sits in the relevant partition.
        values = np.array(
            [10.0, 10.0, 70.0, 70.0, 70.0, 70.0, 81.0, 84.0, 85.0, 86.0]
        )
        assert mdl_cut_position(values) == 2


class TestMdlCutThreshold:
    def test_threshold_separates_relevant_axes(self):
        relevances = np.array([16.0, 75.0, 17.0, 80.0, 15.0])
        threshold = mdl_cut_threshold(relevances)
        relevant = relevances >= threshold
        assert relevant.tolist() == [False, True, False, True, False]

    def test_ties_at_the_threshold_are_all_relevant(self):
        # The cut position splits the tied 10.0s (p == 2), but relevance
        # is decided by value, so every axis tied with the threshold is
        # relevant.
        relevances = np.array(
            [70.0, 10.0, 84.0, 70.0, 81.0, 10.0, 86.0, 70.0, 85.0, 70.0]
        )
        threshold = mdl_cut_threshold(relevances)
        assert threshold == 10.0
        assert bool(np.all(relevances >= threshold))

    def test_threshold_is_one_of_the_values(self):
        relevances = np.array([30.0, 10.0, 90.0])
        assert mdl_cut_threshold(relevances) in relevances

    def test_all_equal_marks_everything_relevant(self):
        relevances = np.array([40.0, 40.0, 40.0])
        threshold = mdl_cut_threshold(relevances)
        assert np.all(relevances >= threshold)

    @given(
        st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=1, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_at_least_one_axis_always_relevant(self, values):
        relevances = np.array(values)
        threshold = mdl_cut_threshold(relevances)
        assert np.any(relevances >= threshold)
