#!/usr/bin/env python
"""Regenerate the golden serialized-model fixtures under ``tests/fixtures/``.

Each fixture is a serving model (:mod:`repro.serve`) fitted on one of
the pinned fixed-seed suites — the same suites the golden traces use —
written as the schema-versioned binary artifact, plus a JSON sidecar
recording the SHA-256 of the file bytes, the SHA-256 of the label
vector the fit produced, and the model's scalar metadata.

``tests/test_serve.py`` asserts (a) that loading the committed binary
and labelling the regenerated suite points reproduces the pinned label
SHA bit-for-bit, and (b) that re-serializing today's fit reproduces the
pinned *file* SHA — the byte-stability guarantee golden fixtures rely
on.  Rerun this script (and commit the diff) only when an intentional
format or algorithm change shifts the bytes::

    PYTHONPATH=src python scripts/regen_golden_models.py

The ``*_v1.bin`` fixtures beside them are frozen schema-v1 files, kept
to pin read compatibility; this script never rewrites them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import MrCC, SyntheticDatasetSpec, generate_dataset
from repro.serve import MODEL_SCHEMA_VERSION, save_model

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES_DIR = REPO_ROOT / "tests" / "fixtures"

#: The pinned suites; keep in sync with tests/test_serve.py (and the
#: golden-trace suites, which share the generator specs).
GOLDEN_MODELS: dict[str, dict] = {
    "golden_model_d8": {
        "spec": SyntheticDatasetSpec(
            dimensionality=8, n_points=2000, n_clusters=3, seed=123
        ),
        "n_resolutions": 4,
    },
    "golden_model_d12": {
        "spec": SyntheticDatasetSpec(
            dimensionality=12, n_points=3000, n_clusters=5, seed=77
        ),
        "n_resolutions": 5,
    },
}


def regen_one(name: str) -> dict:
    """Write one model binary and return its sidecar payload."""
    suite = GOLDEN_MODELS[name]
    spec = suite["spec"]
    dataset = generate_dataset(spec)
    estimator = MrCC(n_resolutions=suite["n_resolutions"])
    result = estimator.fit(dataset.points)

    model_path = FIXTURES_DIR / f"{name}.bin"
    save_model(estimator, model_path)
    return {
        "schema": MODEL_SCHEMA_VERSION,
        "suite": {
            "dimensionality": spec.dimensionality,
            "n_points": spec.n_points,
            "n_clusters": spec.n_clusters,
            "seed": spec.seed,
            "n_resolutions": suite["n_resolutions"],
        },
        "n_clusters_found": result.n_clusters,
        "n_beta_clusters": result.extras["n_beta_clusters"],
        "file_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "labels_sha256": hashlib.sha256(result.labels.tobytes()).hexdigest(),
        "file_bytes": model_path.stat().st_size,
    }


def main() -> int:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_MODELS:
        payload = regen_one(name)
        sidecar = FIXTURES_DIR / f"{name}.json"
        sidecar.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"wrote {FIXTURES_DIR / name}.bin "
            f"({payload['file_bytes']} bytes, "
            f"{payload['n_clusters_found']} clusters) + sidecar"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
