"""The k-nearest-neighbour rule both classifiers use, and the Euclidean
baseline.

The rule ranks training rows by a closeness, higher meaning nearer:
swap-test fidelity for qknn (``classifier``), negated Euclidean distance
here, so the two differ only in their similarity.  Negation is exact, so
ranks, tie-breaks and sums are those of the distances.  Rank ties go to
the lower training index; vote ties to the larger summed closeness, then
the lower class index.  Search is brute force: at benchmark sizes (up to
~1400 rows) that beats building any index.  Only NumPy and ``data`` are
imported, so the classical baseline pulls in no quantum code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

#: Neighbours voting per query, for both classifiers and the bench runs.
DEFAULT_K = 3


def _check_training(labels: np.ndarray, rows: int, n_classes: int, k: int) -> None:
    """Reject an empty training set, a label per row missing, a k that is
    not an int or lies outside [1, rows], and labels outside [0, n_classes)."""
    # bool subclasses int, but True is not a neighbour count.
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an int, got {k!r}")
    if rows == 0:
        raise ValueError("training set must be non-empty")
    if labels.shape != (rows,):
        raise ValueError(f"{labels.shape[0]} labels for {rows} rows")
    if not 1 <= k <= rows:
        raise ValueError(f"k must lie in [1, {rows}], got {k}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def _check_schema(train: Dataset, test: Dataset) -> None:
    if train.n_features != test.n_features:
        raise ValueError(
            f"feature count mismatch: train has {train.n_features}, "
            f"test has {test.n_features}"
        )
    if train.class_names != test.class_names:
        raise ValueError(
            f"class mismatch: train has {train.class_names}, "
            f"test has {test.class_names}"
        )


def _nearest(closeness: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k closest rows, by descending closeness, ties to
    the lower index."""
    return np.lexsort((np.arange(closeness.size), -closeness))[:k]


def _vote(
    labels: np.ndarray, closeness: np.ndarray, n_classes: int
) -> tuple[int, np.ndarray]:
    """Majority label of the neighbours and the vote count per class.

    Vote ties go to the larger summed closeness among the tied classes,
    then to the lower class index.
    """
    votes = np.bincount(labels, minlength=n_classes).astype(float)
    candidates = np.flatnonzero(votes == votes.max())
    if candidates.size > 1:
        sums = np.array([closeness[labels == c].sum() for c in candidates])
        candidates = candidates[sums == sums.max()]
    return int(candidates[0]), votes


def _predict_rows(classify, model, rows, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """``classify(model, row)`` for every row: (labels, score matrix)."""
    predictions = np.empty(len(rows), dtype=int)
    scores = np.empty((len(rows), n_classes))
    for i, row in enumerate(rows):
        predictions[i], scores[i] = classify(model, row)
    return predictions, scores


@dataclass
class CknnModel:
    train_features: np.ndarray
    labels: np.ndarray
    n_classes: int
    k: int = DEFAULT_K

    def __post_init__(self) -> None:
        self.train_features = np.asarray(self.train_features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.train_features.ndim != 2:
            raise ValueError(
                f"training features must be a matrix, got shape "
                f"{self.train_features.shape}"
            )
        _check_training(self.labels, self.train_features.shape[0], self.n_classes, self.k)


def find_neighbors(model: CknnModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest rows (ascending distance)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.train_features.shape[1],):
        raise ValueError(
            f"expected {model.train_features.shape[1]} features, got shape {x.shape}"
        )
    distances = np.sqrt(np.sum((model.train_features - x) ** 2, axis=1))
    chosen = _nearest(-distances, model.k)
    return chosen, distances[chosen]


def classify(model: CknnModel, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Majority vote among the k nearest; scores are plain vote shares."""
    indices, distances = find_neighbors(model, x)
    label, votes = _vote(model.labels[indices], -distances, model.n_classes)
    return label, votes / model.k


def fit_predict(
    train: Dataset, test: Dataset, k: int = DEFAULT_K
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every test row against the training rows."""
    _check_schema(train, test)
    model = CknnModel(
        train_features=train.features,
        labels=train.labels,
        n_classes=train.n_classes,
        k=k,
    )
    return _predict_rows(classify, model, test.features, train.n_classes)
