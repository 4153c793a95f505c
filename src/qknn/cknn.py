"""Classical k-nearest-neighbour baseline with Euclidean distance.

Brute-force neighbour search; at benchmark sizes (hundreds to ~1400
rows) this is faster than building any index.  Ranking is by ascending
distance with ties broken by ascending training index, vote ties by the
smaller summed neighbour distance and then the lower class index, so
predictions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass
class CknnModel:
    train_features: np.ndarray
    labels: np.ndarray
    n_classes: int
    k: int = 3

    def __post_init__(self) -> None:
        self.train_features = np.asarray(self.train_features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.train_features.ndim != 2 or self.train_features.shape[0] == 0:
            raise ValueError(
                f"training features must be a non-empty matrix, got shape "
                f"{self.train_features.shape}"
            )
        if self.labels.shape != (self.train_features.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0]} labels for "
                f"{self.train_features.shape[0]} rows"
            )
        if not 1 <= self.k <= self.train_features.shape[0]:
            raise ValueError(
                f"k must lie in [1, {self.train_features.shape[0]}], got {self.k}"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )


def find_neighbors(model: CknnModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest rows (ascending distance)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.train_features.shape[1],):
        raise ValueError(
            f"expected {model.train_features.shape[1]} features, got shape {x.shape}"
        )
    distances = np.sqrt(np.sum((model.train_features - x) ** 2, axis=1))
    order = np.lexsort((np.arange(distances.size), distances))
    chosen = order[: model.k]
    return chosen, distances[chosen]


def classify(model: CknnModel, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Majority vote among the k nearest; scores are plain vote shares."""
    indices, distances = find_neighbors(model, x)
    neighbor_labels = model.labels[indices]
    votes = np.bincount(neighbor_labels, minlength=model.n_classes).astype(float)
    candidates = np.flatnonzero(votes == votes.max())
    if candidates.size > 1:
        sums = np.array(
            [distances[neighbor_labels == c].sum() for c in candidates]
        )
        candidates = candidates[sums == sums.min()]
    return int(candidates[0]), votes / model.k


def fit_predict(
    train: Dataset, test: Dataset, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every test row against the training rows."""
    if train.n_features != test.n_features:
        raise ValueError(
            f"feature count mismatch: train has {train.n_features}, "
            f"test has {test.n_features}"
        )
    model = CknnModel(
        train_features=train.features,
        labels=train.labels,
        n_classes=train.n_classes,
        k=k,
    )
    predictions = np.empty(test.n_instances, dtype=int)
    scores = np.empty((test.n_instances, train.n_classes))
    for i, row in enumerate(test.features):
        predictions[i], scores[i] = classify(model, row)
    return predictions, scores
