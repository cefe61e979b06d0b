"""Tests for the runtime array contracts (repro.core.contracts).

The contracts guard the public trust boundary of the core: every
violation must raise :class:`ContractError` (a ``ValueError``) whose
message names the offending argument, so failures deep in a pipeline
still point at the call site.
"""

import numpy as np
import pytest

from repro.core import MrCC
from repro.core.contracts import (
    ContractError,
    check_array,
    check_labels,
    check_level,
    check_probability,
    disabled,
    enabled,
    set_enabled,
)
from repro.core.counting_tree import CountingTree
from repro.types import NOISE_LABEL


def unit_points(n=50, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, d)) * 0.999


class TestCheckArray:
    def test_accepts_and_returns_valid_array(self):
        a = unit_points()
        out = check_array("points", a, dtype=np.float64, ndim=2, unit_box=True)
        assert out is a

    def test_non_array_names_argument(self):
        with pytest.raises(ContractError, match="points"):
            check_array("points", [[0.1, 0.2]])

    def test_wrong_dtype_names_argument(self):
        bad = unit_points().astype(np.float32)
        with pytest.raises(ContractError, match="points.*float64"):
            check_array("points", bad, dtype=np.float64)

    def test_wrong_ndim_names_argument(self):
        with pytest.raises(ContractError, match="points.*2-d"):
            check_array("points", np.zeros(5, dtype=np.float64), ndim=2)

    def test_out_of_unit_box_names_argument(self):
        bad = unit_points()
        bad[3, 1] = 1.5
        with pytest.raises(ContractError, match="points.*normalise"):
            check_array("points", bad, unit_box=True)

    def test_negative_values_rejected_by_unit_box(self):
        bad = unit_points()
        bad[0, 0] = -0.01
        with pytest.raises(ContractError, match="points"):
            check_array("points", bad, unit_box=True)

    def test_nan_rejected_by_finite(self):
        bad = unit_points()
        bad[2, 2] = np.nan
        with pytest.raises(ContractError, match="points.*NaN"):
            check_array("points", bad, finite=True)

    def test_nan_rejected_by_unit_box(self):
        # NaN compares false against both bounds; unit_box must still
        # catch it via the implied finiteness scan.
        bad = unit_points()
        bad[2, 2] = np.nan
        with pytest.raises(ContractError, match="points"):
            check_array("points", bad, unit_box=True)

    def test_infinity_rejected_by_finite(self):
        bad = unit_points()
        bad[1, 0] = np.inf
        with pytest.raises(ContractError, match="points"):
            check_array("points", bad, finite=True)

    def test_empty_array_passes_unit_box(self):
        empty = np.empty((0, 3), dtype=np.float64)
        check_array("points", empty, ndim=2, unit_box=True)

    def test_is_a_value_error(self):
        # Existing callers catch ValueError; the contract layer must
        # stay substitutable for the manual checks it replaced.
        with pytest.raises(ValueError):
            check_array("points", "not an array")


class TestCheckLabels:
    def test_accepts_valid_labels(self):
        labels = np.array([NOISE_LABEL, 0, 1, 2], dtype=np.int64)
        assert check_labels("labels", labels) is labels

    def test_rejects_non_array(self):
        with pytest.raises(ContractError, match="labels"):
            check_labels("labels", [0, 1, 2])

    def test_rejects_2d(self):
        with pytest.raises(ContractError, match="labels.*1-d"):
            check_labels("labels", np.zeros((2, 2), dtype=np.int64))

    def test_rejects_float_dtype(self):
        with pytest.raises(ContractError, match="labels.*integer"):
            check_labels("labels", np.zeros(3, dtype=np.float64))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractError, match="labels.*5"):
            check_labels("labels", np.zeros(3, dtype=np.int64), n_points=5)

    def test_rejects_ids_below_noise(self):
        bad = np.array([NOISE_LABEL - 1, 0], dtype=np.int64)
        with pytest.raises(ContractError, match="labels.*noise"):
            check_labels("labels", bad)


class TestCheckLevel:
    def test_real_tree_levels_pass(self):
        tree = CountingTree(unit_points(200, 4), n_resolutions=3)
        for h in tree.levels:
            check_level(f"levels[{h}]", tree.level(h))

    def test_column_disagreement_is_reported(self):
        tree = CountingTree(unit_points(200, 4), n_resolutions=3)
        level = tree.level(1)

        class Broken:
            h = level.h
            coords = level.coords
            n = level.n[:-1]  # one count short
            half_counts = level.half_counts

        with pytest.raises(ContractError, match="disagree"):
            check_level("levels[1]", Broken())


class TestCheckProbability:
    def test_interior_value_passes(self):
        assert check_probability("alpha", 0.01) == 0.01

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 2.0])
    def test_boundary_and_outside_rejected(self, value):
        with pytest.raises(ContractError, match="alpha"):
            check_probability("alpha", value)


class TestToggling:
    def test_default_is_enabled(self):
        assert enabled()

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert previous is True
            assert not enabled()
        finally:
            set_enabled(previous)

    def test_disabled_context_skips_data_scans(self):
        bad = unit_points()
        bad[0, 0] = np.nan
        with disabled():
            # O(n) scans off: NaN slips through...
            check_array("points", bad, unit_box=True, finite=True)
            # ...but O(1) structural checks stay on.
            with pytest.raises(ContractError):
                check_array("points", bad, ndim=3)
        assert enabled()
        with pytest.raises(ContractError):
            check_array("points", bad, finite=True)

    def test_disabled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with disabled():
                raise RuntimeError("boom")
        assert enabled()


class TestIntegration:
    """Contracts wired into the public entry points."""

    def test_mrcc_fit_rejects_nan_naming_points(self):
        bad = unit_points(100, 4)
        bad[7, 2] = np.nan
        with pytest.raises(ContractError, match="points"):
            MrCC().fit(bad)

    def test_mrcc_fit_rejects_wrong_ndim(self):
        with pytest.raises(ContractError, match="points.*2-d"):
            MrCC().fit(np.zeros(10, dtype=np.float64))

    def test_counting_tree_rejects_out_of_box(self):
        bad = unit_points(100, 3)
        bad[0, 0] = 2.0
        with pytest.raises(ContractError, match="points"):
            CountingTree(bad, n_resolutions=3)

    def test_fitted_labels_satisfy_label_contract(self):
        model = MrCC(n_resolutions=3)
        model.fit(unit_points(300, 4))
        check_labels("labels", model.labels_, n_points=300)
