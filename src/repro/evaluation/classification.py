"""Class-label evaluation of a clustering (the paper's real-data view).

Section IV-G scores clusterings on the KDD Cup 2008 data "based on the
ground truth class label of each ROI".  Beyond the Quality metric this
module provides the standard detector-style scores a practitioner would
also want: per-class precision/recall/F1 of the induced classifier that
labels every cluster with its majority class, plus the purity and the
clustering error (CE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import NOISE_LABEL, ClusteringResult


@dataclass(frozen=True)
class ClassReport:
    """Per-class detector scores induced by a clustering."""

    precision: dict
    recall: dict
    f1: dict
    purity: float
    clustering_error: float

    def as_row(self) -> dict:
        """Flatten into a dict suitable for tabular reporting."""
        return {
            "purity": self.purity,
            "clustering_error": self.clustering_error,
            **{f"f1_{k}": v for k, v in sorted(self.f1.items())},
        }


def majority_class_labels(
    result: ClusteringResult, class_labels: np.ndarray
) -> np.ndarray:
    """Predict a class per point: its cluster's majority class.

    Noise points predict the overall majority class (the conservative
    detector default).
    """
    class_labels = np.asarray(class_labels)
    classes, counts = np.unique(class_labels, return_counts=True)
    fallback = classes[np.argmax(counts)]
    predictions = np.full(class_labels.shape, fallback, dtype=class_labels.dtype)
    for cluster in result.clusters:
        members = cluster.indices
        if members.size == 0:
            continue
        values, value_counts = np.unique(class_labels[members], return_counts=True)
        predictions[members] = values[np.argmax(value_counts)]
    return predictions


def evaluate_against_classes(
    result: ClusteringResult, class_labels: np.ndarray
) -> ClassReport:
    """Score a clustering against per-point class labels."""
    class_labels = np.asarray(class_labels)
    predictions = majority_class_labels(result, class_labels)
    classes = np.unique(class_labels)

    precision: dict = {}
    recall: dict = {}
    f1: dict = {}
    for cls in classes:
        predicted = predictions == cls
        actual = class_labels == cls
        true_positive = int(np.count_nonzero(predicted & actual))
        p = true_positive / max(int(predicted.sum()), 1)
        r = true_positive / max(int(actual.sum()), 1)
        precision[cls.item()] = p
        recall[cls.item()] = r
        f1[cls.item()] = 0.0 if p + r == 0 else 2 * p * r / (p + r)

    clustered = result.labels != NOISE_LABEL
    if np.any(clustered):
        pure = 0
        for cluster in result.clusters:
            members = cluster.indices
            _, counts = np.unique(class_labels[members], return_counts=True)
            pure += int(counts.max())
        purity = pure / int(clustered.sum())
    else:
        purity = 0.0

    clustering_error = float(np.count_nonzero(predictions != class_labels)) / max(
        class_labels.shape[0], 1
    )
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        purity=purity,
        clustering_error=clustering_error,
    )
