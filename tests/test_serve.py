"""Serving harness: persisted models, mmap store, async front end.

The suite proves the serving contract from four sides:

* **Golden fixtures** — the committed model binaries label their pinned
  suites to the exact label SHA the original fit produced, and
  re-serializing today's fit reproduces the committed file bytes
  (byte-stability), for every compute backend on this machine; the
  frozen schema-v1 binaries still load and label the same way.
* **Round trip** — ``save → load → label`` is bit-identical to the
  in-memory fit, in both mmap and private-copy loading modes, and the
  reconstituted Counting-tree answers the same queries.
* **Failure paths** — truncated, corrupted, version-skewed and
  misdeclared files all raise :class:`ModelFormatError` (never a bare
  numpy error or silent garbage), and a model vanishing mid-serve
  poisons only its own requests.
* **Shared mmap** — concurrent reader processes mapping one model file
  agree with each other and with the parent, bit for bit.

Regenerate the fixtures intentionally with::

    PYTHONPATH=src python scripts/regen_golden_models.py
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import MrCC, generate_dataset, obs
from repro.core import kernels
from repro.core.contracts import ContractError
from repro.data.synthetic import SyntheticDatasetSpec
from repro.fabric.faults import InjectedFault
from repro.serve import (
    MODEL_MAGIC,
    BatchLabeller,
    LabellerStopped,
    ModelCache,
    ModelFormatError,
    load_model,
    model_from_estimator,
    save_model,
)
from repro.serve.store import write_model

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES_DIR = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(REPO_ROOT / "scripts"))
from regen_golden_models import GOLDEN_MODELS  # noqa: E402

sys.path.pop(0)

MODEL_NAMES = sorted(GOLDEN_MODELS)
AVAILABLE = kernels.available_backends()


def load_sidecar(name: str) -> dict:
    path = FIXTURES_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        "PYTHONPATH=src python scripts/regen_golden_models.py"
    )
    return json.loads(path.read_text())


def suite_points(name: str) -> np.ndarray:
    return generate_dataset(GOLDEN_MODELS[name]["spec"]).points


@pytest.fixture(scope="module")
def small_fit() -> tuple[MrCC, np.ndarray]:
    """One small fitted estimator shared by the fast tests."""
    dataset = generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=6, n_points=900, n_clusters=2, seed=5
        )
    )
    points = dataset.points * 4.0 - 1.0  # force a non-trivial normalizer
    estimator = MrCC(n_resolutions=4)
    estimator.fit(points)
    return estimator, points


@pytest.fixture()
def small_model_path(small_fit, tmp_path) -> Path:
    estimator, _ = small_fit
    path = tmp_path / "small.model"
    save_model(estimator, path)
    return path


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestGoldenModels:
    def test_committed_binary_reproduces_pinned_labels(self, name):
        sidecar = load_sidecar(name)
        model = load_model(FIXTURES_DIR / f"{name}.bin")
        labels = model.label(suite_points(name))
        assert (
            hashlib.sha256(labels.tobytes()).hexdigest()
            == sidecar["labels_sha256"]
        )
        groups = model.groups
        assert len(groups) == sidecar["n_clusters_found"]
        assert len(model.betas) == sidecar["n_beta_clusters"]

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_pinned_labels_hold_across_backends(
        self, name, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sidecar = load_sidecar(name)
        model = load_model(FIXTURES_DIR / f"{name}.bin")
        labels = model.label(suite_points(name))
        assert (
            hashlib.sha256(labels.tobytes()).hexdigest()
            == sidecar["labels_sha256"]
        )

    def test_refit_reserializes_to_pinned_bytes(self, name, tmp_path):
        sidecar = load_sidecar(name)
        suite = GOLDEN_MODELS[name]
        estimator = MrCC(n_resolutions=suite["n_resolutions"])
        estimator.fit(suite_points(name))
        path = tmp_path / "regen.model"
        save_model(estimator, path)
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == sidecar["file_sha256"]
        ), "model serialization is no longer byte-stable; regenerate"
        assert path.stat().st_size == sidecar["file_bytes"]

    def test_loaded_meta_matches_suite(self, name):
        sidecar = load_sidecar(name)
        model = load_model(FIXTURES_DIR / f"{name}.bin")
        assert model.dimensionality == sidecar["suite"]["dimensionality"]
        assert model.n_resolutions == sidecar["suite"]["n_resolutions"]
        assert model.meta["n_points"] == sidecar["suite"]["n_points"]


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_labels_bit_identical_to_fit(
        self, small_fit, small_model_path, mmap
    ):
        estimator, points = small_fit
        model = load_model(small_model_path, mmap=mmap)
        assert np.array_equal(model.label(points), estimator.labels_)

    def test_label_result_matches_fit_clusters(
        self, small_fit, small_model_path
    ):
        estimator, points = small_fit
        result = load_model(small_model_path).label_result(points)
        assert np.array_equal(result.labels, estimator.labels_)
        assert [c.relevant_axes for c in result.clusters] == (
            estimator.relevant_axes_
        )

    def test_label_stream_matches_fit(self, small_fit, small_model_path):
        estimator, points = small_fit
        model = load_model(small_model_path)
        result = model.label_stream(np.array_split(points, 5))
        assert np.array_equal(result.labels, estimator.labels_)

    def test_label_stream_rejects_nan_rows(self, small_model_path):
        model = load_model(small_model_path)
        bad = np.full((3, model.dimensionality), 0.5)
        bad[1, -1] = np.nan
        with pytest.raises(ContractError):
            model.label_stream([bad])

    def test_tree_reconstructs_counts(self, small_fit, small_model_path):
        estimator, _ = small_fit
        tree = load_model(small_model_path).tree()
        original = estimator.tree_
        assert tree.n_points == original.n_points
        for h in original.levels:
            level, ref = tree.level(h), original.level(h)
            assert level.width == ref.width
            assert np.array_equal(level.words, ref.words)
            assert np.array_equal(level.n, ref.n)
            assert np.array_equal(level.half_counts, ref.half_counts)
            # Lookups go through the persisted packed words.
            assert level.row_of(ref.coords[0]) == ref.row_of(ref.coords[0])

    def test_save_is_byte_stable(self, small_fit, tmp_path):
        estimator, _ = small_fit
        save_model(estimator, tmp_path / "a.model")
        save_model(estimator, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (
            tmp_path / "b.model"
        ).read_bytes()

    def test_mrcc_save_front_door(self, small_fit, tmp_path):
        estimator, points = small_fit
        estimator.save(tmp_path / "front.model")
        model = load_model(tmp_path / "front.model")
        assert np.array_equal(model.label(points), estimator.labels_)

    def test_normalizer_round_trips(self, small_fit, small_model_path):
        estimator, _ = small_fit
        model = load_model(small_model_path)
        assert model.normalizer is not None
        lo, span = model.normalizer
        ref_lo, ref_span = estimator.normalizer_
        assert np.array_equal(lo, ref_lo)
        assert np.array_equal(span, ref_span)

    def test_label_rejects_wrong_dimensionality(self, small_model_path):
        model = load_model(small_model_path)
        with pytest.raises(ValueError, match="axes"):
            model.label(np.zeros((3, model.dimensionality + 1)))

    def test_unfitted_estimator_refuses_to_save(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            MrCC().save(tmp_path / "never.model")

    def test_mmap_arrays_are_read_only_views(self, small_model_path):
        model = load_model(small_model_path, mmap=True)
        level = next(iter(model.levels.values()))
        for array in (level.words, level.n, level.half_counts):
            assert isinstance(array.base, np.memmap) or isinstance(
                array, np.memmap
            )
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            level.words[0, 0] = 99


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestGoldenV1Models:
    """The frozen schema-v1 binaries: read-compat with the same labels."""

    def test_v1_binary_reproduces_pinned_labels(self, name):
        sidecar = load_sidecar(f"{name}_v1")
        assert sidecar["schema"] == 1
        model = load_model(FIXTURES_DIR / f"{name}_v1.bin")
        labels = model.label(suite_points(name))
        assert (
            hashlib.sha256(labels.tobytes()).hexdigest()
            == sidecar["labels_sha256"]
        )
        assert len(model.groups) == sidecar["n_clusters_found"]

    @pytest.mark.parametrize("mmap", [True, False])
    def test_v1_levels_pack_into_the_fitted_words(self, name, mmap):
        v1 = load_model(FIXTURES_DIR / f"{name}_v1.bin", mmap=mmap)
        v2 = load_model(FIXTURES_DIR / f"{name}.bin", mmap=mmap)
        assert v1.levels.keys() == v2.levels.keys()
        for h, level in v1.levels.items():
            assert level.width == v2.levels[h].width == v1.n_resolutions - 1
            for field in ("words", "n", "half_counts"):
                got, want = getattr(level, field), getattr(v2.levels[h], field)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (h, field)

    def test_v1_counts_past_uint32_are_a_format_error(self, name, tmp_path):
        from repro.serve.store import read_model

        header, data = read_model(FIXTURES_DIR / f"{name}_v1.bin", mmap=False)
        data["level1/counts"][0] = 2**32
        path = tmp_path / "wide.model"
        write_model(path, header["meta"], list(data.items()))
        # The writer stamps the current schema; restore the v1 stamp
        # (same length, so every offset holds).
        blob = path.read_bytes()
        assert blob.count(b'"schema":2') == 1
        path.write_bytes(blob.replace(b'"schema":2', b'"schema":1'))
        with pytest.raises(ModelFormatError, match="uint32"):
            load_model(path)


def _held_out_points(points: np.ndarray, seed: int) -> np.ndarray:
    """Query points the fit never saw, a third of them outside its range.

    Half are fresh draws inside the fitted box, and the rest sit past
    its lower or upper bound on some axes, where normalisation clips.
    """
    rng = np.random.default_rng(seed)
    lo, hi = points.min(axis=0), points.max(axis=0)
    inside = lo + rng.random((300, points.shape[1])) * (hi - lo)
    near = points[rng.integers(0, points.shape[0], size=300)]
    outside = near.copy()
    mask = rng.random(outside.shape) < 0.3
    outside[mask] += np.where(rng.random(int(mask.sum())) < 0.5, -1.0, 1.0) * (
        (hi - lo)[np.nonzero(mask)[1]]
    )
    return np.vstack([inside, near, outside])


class TestHeldOutLabels:
    """Every way to fit and persist a model labels unseen points alike.

    The reference is the in-memory model of the serial fit; the sharded
    fit (``n_jobs=2``) and the streaming fit (``fit_stream`` over the
    serial fit's normalised chunks) must label held-out and clipped
    out-of-range points identically, in memory and after a schema-v2
    save and load (memmapped and private).
    """

    @pytest.fixture(scope="class")
    def fits(self):
        from repro.core.correlation_cluster import merge_beta_clusters
        from repro.core.streaming import fit_stream
        from repro.data.normalize import apply_minmax
        from repro.serve import FittedModel

        dataset = generate_dataset(
            SyntheticDatasetSpec(
                dimensionality=6, n_points=2000, n_clusters=3, seed=41
            )
        )
        points = dataset.points * 3.0 - 0.5
        serial = MrCC(n_resolutions=5, n_jobs=1)
        serial.fit(points)
        sharded = MrCC(n_resolutions=5, n_jobs=2)
        sharded.fit(points)
        reference = model_from_estimator(serial)
        unit = apply_minmax(points, *serial.normalizer_)
        tree, betas = fit_stream(
            np.array_split(unit, 7), alpha=serial.alpha, n_resolutions=5
        )
        streamed = FittedModel(
            meta=dict(reference.meta),
            betas=betas,
            groups=merge_beta_clusters(betas),
            levels={h: tree.level(h) for h in tree.levels},
            normalizer=serial.normalizer_,
        )
        models = {
            "serial": reference,
            "sharded": model_from_estimator(sharded),
            "stream": streamed,
        }
        return reference, models, _held_out_points(points, seed=43)

    def test_held_out_points_reach_clusters_and_clip(self, fits):
        reference, _, held = fits
        labels = reference.label(held)
        assert np.any(labels >= 0) and np.any(labels < 0)
        lo, span = reference.normalizer
        assert np.any(held < lo) and np.any(held > lo + span)

    @pytest.mark.parametrize("path", ["serial", "sharded", "stream"])
    def test_in_memory_labels_equal_the_serial_fit(self, fits, path):
        reference, models, held = fits
        np.testing.assert_array_equal(
            models[path].label(held), reference.label(held)
        )

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("path", ["serial", "sharded", "stream"])
    def test_saved_v2_labels_equal_the_serial_fit(
        self, fits, path, mmap, tmp_path
    ):
        from repro.serve import MODEL_SCHEMA_VERSION
        from repro.serve.store import read_model

        reference, models, held = fits
        saved = save_model(models[path], tmp_path / f"{path}.model")
        assert read_model(saved)[0]["schema"] == MODEL_SCHEMA_VERSION == 2
        loaded = load_model(saved, mmap=mmap)
        np.testing.assert_array_equal(loaded.label(held), reference.label(held))
        for h, level in reference.levels.items():
            assert np.array_equal(loaded.levels[h].words, level.words)


COMPILED = [
    name for name in AVAILABLE if kernels.get_backend(name).compiled
]


@pytest.mark.parametrize("backend", COMPILED or [None])
class TestLeanTreePins:
    """The compiled search never derives the oracle's coordinate views."""

    @pytest.fixture(autouse=True)
    def _backend(self, backend, monkeypatch):
        if backend is None:
            pytest.skip("no compiled backend loads on this machine")
        monkeypatch.setenv("REPRO_BACKEND", backend)

    @staticmethod
    def _assert_lean(tree):
        for h in tree.levels:
            level = tree.level(h)
            assert level._coords is None and level._keys is None, h

    def test_fit_builds_no_coordinate_views(self, backend, small_fit):
        _, points = small_fit
        estimator = MrCC(n_resolutions=5)
        estimator.fit(points)
        assert estimator.beta_clusters_
        self._assert_lean(estimator.tree_)

    def test_searching_a_memmapped_tree_builds_no_views(
        self, backend, small_fit, tmp_path
    ):
        from repro.core.beta_cluster import find_beta_clusters

        estimator, _ = small_fit
        path = save_model(estimator, tmp_path / "lean.model")
        model = load_model(path, mmap=True)
        tree = model.tree()
        betas = find_beta_clusters(tree, alpha=model.meta["alpha"])
        assert len(betas) == len(model.betas)
        self._assert_lean(tree)


def _raw_model(path: Path, header: dict, data: bytes) -> Path:
    """Hand-assemble a model file for format-violation tests."""
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode()
    start = 16 + len(header_bytes)
    aligned = (start + 63) // 64 * 64
    blob = (
        MODEL_MAGIC
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + b"\x00" * (aligned - start)
        + data
    )
    path.write_bytes(blob)
    return path


def _valid_header(**overrides) -> dict:
    header = {
        "schema": 1,
        "generated_by": "repro.serve",
        "byte_order": "little",
        "meta": {"k": 1},
        "arrays": [
            {
                "name": "x",
                "dtype": "<i8",
                "shape": [2],
                "offset": 0,
                "nbytes": 16,
            }
        ],
    }
    header.update(overrides)
    return header


class TestFailurePaths:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="unreadable"):
            load_model(tmp_path / "nope.model")

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"definitely not a model artifact")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize("keep", [0, 4, 12, 40])
    def test_truncated_prefix(self, small_model_path, tmp_path, keep):
        stub = tmp_path / "trunc.model"
        stub.write_bytes(small_model_path.read_bytes()[:keep])
        with pytest.raises(ModelFormatError):
            load_model(stub)

    def test_truncated_data_section(self, small_model_path, tmp_path):
        blob = small_model_path.read_bytes()
        stub = tmp_path / "trunc.model"
        stub.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(ModelFormatError, match="truncated|bounds"):
            load_model(stub)

    def test_wrong_schema_version(self, tmp_path):
        path = _raw_model(
            tmp_path / "skew.model", _valid_header(schema=99), b"\x00" * 16
        )
        with pytest.raises(ModelFormatError, match="schema"):
            load_model(path)

    def test_wrong_byte_order(self, tmp_path):
        path = _raw_model(
            tmp_path / "endian.model",
            _valid_header(byte_order="big"),
            b"\x00" * 16,
        )
        with pytest.raises(ModelFormatError, match="byte order"):
            load_model(path)

    def test_header_not_json(self, tmp_path):
        blob = MODEL_MAGIC + struct.pack("<Q", 4) + b"{{{{"
        path = tmp_path / "nojson.model"
        path.write_bytes(blob + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_unknown_dtype_token(self, tmp_path):
        header = _valid_header()
        header["arrays"][0]["dtype"] = "<c16"
        path = _raw_model(tmp_path / "dtype.model", header, b"\x00" * 16)
        with pytest.raises(ModelFormatError, match="dtype"):
            load_model(path)

    def test_section_past_end_of_file(self, tmp_path):
        header = _valid_header()
        header["arrays"][0]["offset"] = 4096
        path = _raw_model(tmp_path / "bounds.model", header, b"\x00" * 16)
        with pytest.raises(ModelFormatError, match="bounds|truncated"):
            load_model(path)

    def test_overlapping_sections(self, tmp_path):
        header = _valid_header()
        header["arrays"] = [
            dict(header["arrays"][0]),
            {
                "name": "y",
                "dtype": "<i8",
                "shape": [2],
                "offset": 8,
                "nbytes": 16,
            },
        ]
        path = _raw_model(tmp_path / "overlap.model", header, b"\x00" * 24)
        with pytest.raises(ModelFormatError, match="overlap"):
            load_model(path)

    def test_nbytes_shape_mismatch(self, tmp_path):
        header = _valid_header()
        header["arrays"][0]["nbytes"] = 8
        path = _raw_model(tmp_path / "nbytes.model", header, b"\x00" * 16)
        with pytest.raises(ModelFormatError, match="nbytes"):
            load_model(path)

    def test_store_file_with_wrong_model_meta(self, tmp_path):
        # A structurally valid store file that is not a serving model.
        path = tmp_path / "notmodel.model"
        write_model(
            path, {"who": "knows"}, [("x", np.arange(4, dtype="<i8"))]
        )
        with pytest.raises(ModelFormatError, match="meta keys"):
            load_model(path)

    def test_model_missing_level_arrays(self, small_model_path, tmp_path):
        from repro.serve.store import read_model

        header, data = read_model(small_model_path, mmap=False)
        dropped = {
            name: array
            for name, array in data.items()
            if not name.startswith("level1/")
        }
        path = tmp_path / "missing.model"
        write_model(path, header["meta"], sorted(dropped.items()))
        with pytest.raises(ModelFormatError, match="missing"):
            load_model(path)

    def test_cache_rejects_path_escapes(self, tmp_path):
        cache = ModelCache(root=tmp_path)
        for name in ("..", "a/b.model", "/abs.model", ""):
            with pytest.raises(ValueError, match="bare file name"):
                cache.path_of(name)

    def test_model_vanishing_mid_serve(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "good.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(cache, delay=0.0) as labeller:
                ok = await labeller.label("good.model", points[:50])
                with pytest.raises(ModelFormatError):
                    await labeller.label("gone.model", points[:50])
                # The worker loop survived the poisoned request.
                again = await labeller.label("good.model", points[50:100])
                return ok, again, labeller.stats()

        ok, again, stats = asyncio.run(main())
        assert np.array_equal(ok, estimator.labels_[:50])
        assert np.array_equal(again, estimator.labels_[50:100])
        assert stats["errors"] == 1


class TestModelCache:
    def _populate(self, tmp_path, small_fit, n):
        estimator, _ = small_fit
        for k in range(n):
            save_model(estimator, tmp_path / f"m{k}.model")

    def test_lru_eviction_order(self, small_fit, tmp_path):
        self._populate(tmp_path, small_fit, 3)
        cache = ModelCache(root=tmp_path, capacity=2)
        cache.get("m0.model")
        cache.get("m1.model")
        cache.get("m0.model")  # refresh m0 → m1 is now LRU
        cache.get("m2.model")  # evicts m1
        assert "m0.model" in cache and "m2.model" in cache
        assert "m1.model" not in cache
        assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 1)

    def test_counters_flow_into_obs(self, small_fit, tmp_path):
        self._populate(tmp_path, small_fit, 1)
        cache = ModelCache(root=tmp_path, capacity=1)
        with obs.capture() as tracer:
            cache.get("m0.model")
            cache.get("m0.model")
            counters = dict(tracer.counters)
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.hit"] == 1
        assert counters["serve.models_loaded"] == 1

    def test_failed_load_is_not_cached(self, small_fit, tmp_path):
        self._populate(tmp_path, small_fit, 1)
        cache = ModelCache(root=tmp_path)
        with pytest.raises(ModelFormatError):
            cache.get("absent.model")
        assert len(cache) == 0
        # Repairing the file makes the same name loadable.
        (tmp_path / "m0.model").rename(tmp_path / "absent.model")
        cache.get("absent.model")
        assert len(cache) == 1

    def test_invalidate(self, small_fit, tmp_path):
        self._populate(tmp_path, small_fit, 2)
        cache = ModelCache(root=tmp_path, capacity=4)
        cache.get("m0.model")
        cache.get("m1.model")
        cache.invalidate("m0.model")
        assert "m0.model" not in cache and "m1.model" in cache
        cache.invalidate()
        assert len(cache) == 0


class TestBatchLabeller:
    def test_labels_match_direct_path(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(
                cache, batch_points=256, delay=0.002
            ) as labeller:
                return await asyncio.gather(
                    *[
                        labeller.label("m.model", points[i::4])
                        for i in range(4)
                    ]
                )

        parts = asyncio.run(main())
        for i, part in enumerate(parts):
            assert np.array_equal(part, estimator.labels_[i::4])

    def test_stats_shape(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(cache, delay=0.0) as labeller:
                await labeller.label("m.model", points[:64])
                return labeller.stats()

        stats = asyncio.run(main())
        assert stats["requests"] == 1 and stats["errors"] == 0
        assert stats["batches"] >= 1
        assert set(stats["latency_s"]) == {"p50", "p99"}
        assert 0.0 <= stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]

    def test_injected_fault_poisons_one_request(
        self, small_fit, tmp_path, monkeypatch
    ):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        monkeypatch.setenv("REPRO_FAULTS", "raise:request1:0")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(cache, delay=0.0) as labeller:
                first = await labeller.label("m.model", points[:40])
                with pytest.raises(InjectedFault):
                    await labeller.label("m.model", points[40:80])
                third = await labeller.label("m.model", points[80:120])
                return first, third, labeller.stats()

        first, third, stats = asyncio.run(main())
        assert np.array_equal(first, estimator.labels_[:40])
        assert np.array_equal(third, estimator.labels_[80:120])
        assert stats["errors"] == 1 and stats["requests"] == 3

    def test_non_finite_request_fails_alone(self, small_fit, tmp_path):
        # Served labels equal FittedModel.label, which rejects NaN rows;
        # the bad request fails alone, and the requests batched with it
        # are labelled as usual.
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)
        bad = points[40:44].copy()
        bad[1, 0] = np.nan
        with pytest.raises(ContractError):
            load_model(tmp_path / "m.model").label(bad)

        async def main():
            async with BatchLabeller(cache, delay=0.01) as labeller:
                outcomes = await asyncio.gather(
                    labeller.label("m.model", points[:40]),
                    labeller.label("m.model", bad),
                    labeller.label("m.model", points[80:120]),
                    return_exceptions=True,
                )
                return outcomes, labeller.stats()

        (first, failed, third), stats = asyncio.run(main())
        assert isinstance(failed, ContractError)
        assert np.array_equal(first, estimator.labels_[:40])
        assert np.array_equal(third, estimator.labels_[80:120])
        assert stats["requests"] == 3 and stats["errors"] == 1
        assert stats["batches"] == 1

    def test_wrong_width_request_fails_alone(self, small_fit, tmp_path):
        # A request with one axis too few fails with ValueError; the
        # request batched with it is labelled as usual.
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(cache, delay=0.01) as labeller:
                outcomes = await asyncio.gather(
                    labeller.label("m.model", points[:40, :-1]),
                    labeller.label("m.model", points[40:80]),
                    return_exceptions=True,
                )
                return outcomes, labeller.stats()

        (failed, labelled), stats = asyncio.run(main())
        assert isinstance(failed, ValueError)
        assert "axes" in str(failed)
        assert np.array_equal(labelled, estimator.labels_[40:80])
        assert stats["requests"] == 2 and stats["errors"] == 1
        assert stats["batches"] == 1

    def test_label_requires_started_worker(self, tmp_path):
        labeller = BatchLabeller(ModelCache(root=tmp_path))

        async def main():
            with pytest.raises(RuntimeError, match="not started"):
                await labeller.label("m.model", np.zeros((1, 2)))

        asyncio.run(main())


class TestLabellerShutdown:
    """stop() flushes in-flight work and fails new work loudly."""

    def test_stop_flushes_queued_requests(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            # A huge delay window parks the worker coalescing forever;
            # only the stop sentinel can close the batch, so these
            # requests are in flight exactly when stop() runs.
            labeller = BatchLabeller(cache, batch_points=10**6, delay=60.0)
            labeller.start()
            pending = [
                asyncio.ensure_future(
                    labeller.label("m.model", points[i::3])
                )
                for i in range(3)
            ]
            while labeller._queue.qsize() < 3:  # let them all enqueue
                await asyncio.sleep(0)
            await labeller.stop()
            assert all(future.done() for future in pending)
            return await asyncio.gather(*pending)

        parts = asyncio.run(main())
        for i, part in enumerate(parts):
            assert np.array_equal(part, estimator.labels_[i::3])

    def test_label_after_stop_raises_typed_error(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            async with BatchLabeller(cache, delay=0.0) as labeller:
                await labeller.label("m.model", points[:16])
            with pytest.raises(LabellerStopped, match="not.*dropped"):
                await labeller.label("m.model", points[:16])

        asyncio.run(main())
        assert issubclass(LabellerStopped, RuntimeError)

    def test_restart_after_stop(self, small_fit, tmp_path):
        estimator, points = small_fit
        save_model(estimator, tmp_path / "m.model")
        cache = ModelCache(root=tmp_path)

        async def main():
            labeller = BatchLabeller(cache, delay=0.0)
            labeller.start()
            await labeller.stop()
            labeller.start()  # a stopped labeller can be restarted...
            labels = await labeller.label("m.model", points[:32])
            await labeller.stop()
            return labels

        labels = asyncio.run(main())
        assert np.array_equal(labels, estimator.labels_[:32])

    def test_stats_safe_with_empty_latency_buffer(self, tmp_path):
        labeller = BatchLabeller(ModelCache(root=tmp_path))
        stats = labeller.stats()
        assert stats["requests"] == 0
        assert stats["latency_s"] == {}

    def test_stop_twice_is_idempotent(self, small_fit, tmp_path):
        cache = ModelCache(root=tmp_path)

        async def main():
            labeller = BatchLabeller(cache, delay=0.0)
            labeller.start()
            await labeller.stop()
            await labeller.stop()  # no worker left: a quiet no-op

        asyncio.run(main())


def _mmap_reader(model_path: str, points: np.ndarray) -> tuple[int, bytes]:
    """Worker: map the shared model read-only and label the points."""
    model = load_model(model_path, mmap=True)
    labels = model.label(points)
    return int(labels.shape[0]), labels.tobytes()


class TestSharedMmap:
    def test_concurrent_readers_agree(self, small_fit, small_model_path):
        estimator, points = small_fit
        expected = estimator.labels_.tobytes()
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_mmap_reader, str(small_model_path), points)
                for _ in range(2)
            ]
            outcomes = [future.result(timeout=120) for future in futures]
        assert all(n == points.shape[0] for n, _ in outcomes)
        assert all(blob == expected for _, blob in outcomes)


class TestServeCli:
    def test_save_model_then_serve_round_trip(
        self, small_fit, tmp_path, capsys
    ):
        from repro.cli import main

        _, points = small_fit
        np.save(tmp_path / "pts.npy", points)
        model = tmp_path / "cli.model"
        assert (
            main(
                [
                    "save-model",
                    str(model),
                    "--input",
                    str(tmp_path / "pts.npy"),
                ]
            )
            == 0
        )
        assert model.exists()
        assert (
            main(
                [
                    "serve",
                    str(model),
                    "--input",
                    str(tmp_path / "pts.npy"),
                    "--output",
                    str(tmp_path / "labels.npy"),
                    "--requests",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "model saved to" in out and "p50=" in out
        labels = np.load(tmp_path / "labels.npy")
        estimator, _ = small_fit
        assert np.array_equal(labels, estimator.labels_)
