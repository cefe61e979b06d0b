"""Each kept baseline's output on one fixed fit, pinned exactly.

Every baseline turns its final labels into a result through
``baselines.common.result_from_labels``; these pins hold the labels
(by SHA-256 of their int64 bytes) and each record's size and relevant
axes, so a change to that shared path, or to a baseline, that moves an
output fails here.  All eight fits take about 1.5 s.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import CFPC, CLIQUE, EPCH, HARP, LAC, ORCLUS, P3C, PROCLUS
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset

FITS = {
    "LAC": lambda: LAC(n_clusters=4, random_state=0),
    "EPCH": lambda: EPCH(max_no_cluster=4),
    "P3C": lambda: P3C(),
    "CFPC": lambda: CFPC(n_clusters=4, random_state=0),
    "HARP": lambda: HARP(n_clusters=4, random_state=0),
    "PROCLUS": lambda: PROCLUS(n_clusters=4, avg_dims=4, random_state=0),
    "ORCLUS": lambda: ORCLUS(n_clusters=4, subspace_dim=3, random_state=0),
    "CLIQUE": lambda: CLIQUE(),
}

# name -> (sha256 of the int64 labels, [(record size, sorted relevant axes)])
PINS = {
    "LAC": (
        "02f79f880bff0dd2174101c9c9b4b1fa44f9c2e281c2ec90cdc31b31c4587498",
        [(553, [0, 3, 4, 6, 7]), (193, [0, 1, 2, 3, 4, 7]), (87, [1, 2, 7]),
         (667, [2, 4, 5, 6])],
    ),
    "EPCH": (
        "2adada650c160d39324a2c1dd7fb5ffeac4fb205984051c7b689e523c53d9b4c",
        [(352, [2, 3, 4, 5, 6, 7]), (530, [0, 3, 4, 6, 7]),
         (249, [1, 2, 4, 5, 6, 7]), (136, [0, 1, 2, 3, 4, 5, 7])],
    ),
    "P3C": (
        "9089a02176f0bfd243c6518602d90b4f4d30e8bef4b07011430c799489379356",
        [(527, [0, 3, 4, 6, 7]), (352, [2, 3, 4, 5, 6, 7]),
         (249, [1, 2, 4, 5, 6, 7]), (147, [0, 1, 2, 3, 4, 5, 7])],
    ),
    "CFPC": (
        "80f14bf5fc0c5d990951a81a9ca763de3c6827f6963ffa19537fc9185c17c797",
        [(342, [2, 3, 4, 5, 6, 7]), (135, [0, 1, 2, 3, 4, 5, 7]),
         (249, [1, 2, 4, 5, 6, 7]), (510, [0, 3, 4, 6, 7])],
    ),
    "HARP": (
        "a1af23ed2c09d3b1f735d40543b2d7b836a6381b92e90c30ff32e555a34b671f",
        [(354, [2, 3, 4, 5, 6, 7]), (250, [1, 2, 4, 5, 6, 7]),
         (147, [0, 1, 2, 3, 4, 5, 7]), (524, [0, 3, 4, 6, 7])],
    ),
    "PROCLUS": (
        "afdcd4f29d1237518dd6460ee9278ac9904152ba8daa16b25b25549998dda80c",
        [(525, [0, 3, 4, 6, 7]), (205, [0, 1, 5, 7]), (296, [1, 4, 6]),
         (352, [3, 5, 6, 7])],
    ),
    "ORCLUS": (
        "7eba2ea736bf5bcca878aeebaa954d0e7953947e61863d19dce7917ae8476c59",
        [(567, [0, 3, 4, 6, 7]), (555, [2, 3, 4, 7]), (307, [1, 2, 4, 5, 6, 7]),
         (71, [1, 2, 3, 5, 6, 7])],
    ),
    "CLIQUE": (
        "826d127ad4e00e2d35944192eab47f71e1dded4ea55ac6b325ffd8e16a8cb6ac",
        [(691, [0, 2, 4, 6]), (17, [0, 1, 4, 6]), (1, [0, 4, 5, 6]),
         (7, [3, 4, 6, 7]), (7, [0, 3, 6, 7]), (57, [0, 2, 6, 7]),
         (5, [0, 3, 4, 7]), (282, [1, 2, 3, 6]), (2, [0, 1, 3, 6]),
         (102, [4, 5, 6, 7]), (2, [2, 4, 6, 7]), (1, [1, 5, 6, 7]),
         (1, [0, 2, 4, 5]), (1, [1, 3, 6, 7]), (16, [1, 2, 4, 5]),
         (1, [0, 1, 2, 7]), (82, [2, 3, 4, 5]), (1, [0, 2, 4, 7]),
         (1, [0, 1, 2, 5]), (6, [0, 1, 4, 7]), (1, [0, 3, 4, 5]),
         (1, [1, 4, 5, 6]), (1, [1, 2, 4, 6])],
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticDatasetSpec(dimensionality=8, n_points=1500, n_clusters=4, seed=0)
    )


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_its_pin(dataset, name):
    result = FITS[name]().fit(dataset.points)
    digest, records = PINS[name]
    assert result.labels.dtype == np.int64
    assert hashlib.sha256(result.labels.tobytes()).hexdigest() == digest
    assert [(c.size, sorted(c.relevant_axes)) for c in result.clusters] == records
