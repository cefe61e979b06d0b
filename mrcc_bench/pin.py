#!/usr/bin/env python3
"""Recompute ``pins.json``, the outputs the benchmark checks against.

Run from the root of a checkout, only after a deliberate change to
MrCC's outputs::

    python3 mrcc_bench/pin.py

Each fit digest is the numpy backend's (the bit-identity oracle) and
must equal the default backend's; the probe suite's qualities come from
one ``run_suite`` pass.  Fit inputs and the suite are pinned in
seed 0's row order; the benchmark checks every other seed against the
same values, since MrCC's output does not depend on row order.
"""

from __future__ import annotations

import json
import os
import sys

from run import prepare_environment


def main() -> int:
    prepare_environment()
    import workloads
    from helpers import canonical_labels, labels_digest, row_permutation
    from repro.core.mrcc import MrCC
    from repro.data import suites
    from repro.experiments.runner import run_suite

    os.environ["REPRO_JOBS"] = "1"
    pins: dict[str, object] = {}
    inputs = {
        "fit_1m_d15": workloads.clustered_points(**workloads.BIG),
        "fit_14d_numpy": suites.base_14d().points,
    }
    for name, points in inputs.items():
        perm = row_permutation(0, points.shape[0])
        digests = {}
        for backend in ("numpy", "auto"):
            os.environ["REPRO_BACKEND"] = backend
            labels = MrCC(alpha=workloads.ALPHA, n_resolutions=workloads.H).fit(points[perm]).labels
            digests[backend] = labels_digest(canonical_labels(labels, perm))
        print(name, digests, flush=True)
        if digests["numpy"] != digests["auto"]:
            print(f"{name}: default backend disagrees with the numpy oracle", file=sys.stderr)
            return 1
        pins[name] = digests["numpy"]
    os.environ["REPRO_BACKEND"] = "auto"
    rows = run_suite(workloads.suite_datasets(0), methods=("MrCC",), n_jobs=workloads.SUITE_JOBS)
    if any(row["status"] != "ok" for row in rows):
        print("probe_suite: a suite cell did not finish ok", file=sys.stderr)
        return 1
    pins["probe_suite"] = [[row["dataset"], row["quality"]] for row in rows]
    print("probe_suite", len(rows), "rows", flush=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
