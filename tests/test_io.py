"""Tests for dataset CSV/NPZ I/O."""

import numpy as np
import pytest

from repro.data.io import (
    load_dataset_npz,
    load_points_csv,
    save_dataset_npz,
)


class TestCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_load_with_header(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.0,2.0\n3.0,4.0\n")
        points, labels = load_points_csv(path, normalize=False)
        assert points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert labels is None

    def test_label_column_extraction(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1.0,2.0,0\n3.0,4.0,1\n")
        points, labels = load_points_csv(path, label_column=-1, normalize=False)
        assert points.shape == (2, 2)
        assert labels.tolist() == [0, 1]

    def test_normalisation_into_unit_cube(self, tmp_path):
        path = self._write(tmp_path, "a,b\n-10,0\n10,100\n0,50\n")
        points, _ = load_points_csv(path)
        assert points.min() == 0.0
        assert points.max() < 1.0

    def test_empty_file_raises(self, tmp_path):
        path = self._write(tmp_path, "a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_points_csv(path)


class TestMalformedCsv:
    """Malformed input must fail with the file and line, not a raw
    NumPy conversion error."""

    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_non_numeric_cell_names_file_line_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=rf"{path.name}:3: .*column 1.*'oops'"):
            load_points_csv(path, normalize=False)

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.0,2.0\n3.0\n5.0,6.0\n")
        with pytest.raises(ValueError, match=rf"{path.name}:3: ragged row"):
            load_points_csv(path, normalize=False)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,b\n1.0,2.0\n{cell},4.0\n")
        with pytest.raises(ValueError, match=rf"{path.name}:3: non-finite"):
            load_points_csv(path, normalize=False)

    def test_non_integer_label_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1.0,0\n2.0,maybe\n")
        with pytest.raises(
            ValueError, match=rf"{path.name}:3: .*integer label.*'maybe'"
        ):
            load_points_csv(path, label_column=-1, normalize=False)

    def test_valid_file_still_loads_after_hardening(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.5,2.5\n3.5,4.5\n")
        points, labels = load_points_csv(path, normalize=False)
        assert points.tolist() == [[1.5, 2.5], [3.5, 4.5]]
        assert labels is None


class TestNpzRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path, easy_dataset):
        path = tmp_path / "dataset.npz"
        save_dataset_npz(easy_dataset, path)
        loaded = load_dataset_npz(path)
        assert np.array_equal(loaded.points, easy_dataset.points)
        assert np.array_equal(loaded.labels, easy_dataset.labels)
        assert loaded.name == easy_dataset.name
        assert len(loaded.clusters) == len(easy_dataset.clusters)
        for a, b in zip(loaded.clusters, easy_dataset.clusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.relevant_axes == b.relevant_axes
        loaded.validate()
