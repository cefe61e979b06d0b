"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest mrcc_bench/test_helpers.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    canonical_labels,
    labels_digest,
    measured,
    open_loop_schedule,
    peak_rss_kb,
    percentile,
    request_sizes,
    reset_peak_rss,
    row_permutation,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_percentile_is_nearest_rank_with_sample_count():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == (50.0, 100)
    assert percentile(values, 99) == (99.0, 100)
    assert percentile(values, 100) == (100.0, 100)
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    # Few samples: p99 falls on the largest, and the count says so.
    assert percentile([5.0, 7.0], 99) == (7.0, 2)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_peak_rss_reset_forgets_earlier_peaks():
    block = np.ones(64 * 1024 * 1024 // 8)  # 64 MiB, touched
    high = peak_rss_kb()
    del block
    reset_peak_rss()
    assert peak_rss_kb() < high - 32 * 1024
    _, _, peak = measured(lambda: np.ones(64 * 1024 * 1024 // 8).sum())
    assert peak >= high - 8 * 1024


def test_schedule_is_deterministic_per_seed():
    first = open_loop_schedule(7, 1000.0, 2.0, 50)
    again = open_loop_schedule(7, 1000.0, 2.0, 50)
    other = open_loop_schedule(8, 1000.0, 2.0, 50)
    for left, right in zip(first, again):
        np.testing.assert_array_equal(left, right)
    assert not np.array_equal(first[0][:100], other[0][:100])
    offsets, choices = first
    assert np.all(np.diff(offsets) > 0) and offsets[-1] < 2.0
    assert 1800 < offsets.shape[0] < 2200
    assert choices.min() >= 0 and choices.max() < 50
    sizes = request_sizes(7, 100, 64, 1.0, 4096)
    np.testing.assert_array_equal(sizes, request_sizes(7, 100, 64, 1.0, 4096))
    other_sizes = request_sizes(8, 100, 64, 1.0, 4096)
    assert not np.array_equal(sizes, other_sizes)
    np.testing.assert_array_equal(np.sort(sizes), np.sort(other_sizes))
    assert sizes.min() >= 1 and 64 <= np.median(sizes) <= 65
    np.testing.assert_array_equal(row_permutation(3, 1000), row_permutation(3, 1000))


def test_digest_check_fires_on_a_flipped_label():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    labels = np.repeat(np.arange(-1, 4), 40)
    perm = row_permutation(5, labels.shape[0])
    pin = labels_digest(labels)
    shuffled = labels[perm]
    np.testing.assert_array_equal(canonical_labels(shuffled, perm), labels)

    tally = workloads.Tally()
    workloads.check_fit(tally, shuffled, perm, pin, "fit")
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)

    flipped = shuffled.copy()
    flipped[17] = 3 if flipped[17] != 3 else 2
    workloads.check_fit(tally, flipped, perm, pin, "fit")
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
