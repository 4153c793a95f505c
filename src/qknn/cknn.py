"""The k-nearest-neighbour rule both classifiers use, and the Euclidean
baseline.

The rule takes a [queries, rows] closeness matrix, higher meaning nearer:
swap-test fidelity for qknn (``classifier``), negated Euclidean distance
here, so the two differ only in their similarity.  Negation is exact, so
ranks, tie-breaks and sums are those of the distances.  ``_nearest``
ranks every row with one stable argsort, rank ties to the lower training
index; ``_vote`` takes every query's k neighbours at once, vote ties to
the larger summed closeness, then the lower class index.  Search is brute
force: at benchmark sizes (up to ~1400 rows) that beats building any
index.  Only NumPy and ``data`` are imported, so the classical baseline
pulls in no quantum code.
"""

from __future__ import annotations

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
    """Indices of the k closest rows along the last axis of a [..., rows]
    closeness array, by descending closeness, ties to the lower index."""
    return np.argsort(-closeness, axis=-1, kind="stable")[..., :k]


def _vote(
    labels: np.ndarray, closeness: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's majority label from its neighbours' [queries, k] labels
    and closeness in rank order, with its votes and summed closeness per
    class ([queries, n_classes]), both built up over the k in rank order,
    as ``np.bincount`` counts.  Vote ties go to the larger summed
    closeness among the tied classes, then to the lower class index."""
    queries, k = labels.shape
    rows = np.arange(queries)
    votes = np.zeros((queries, n_classes))
    sums = np.zeros((queries, n_classes))
    for j in range(k):
        votes[rows, labels[:, j]] += 1.0
        sums[rows, labels[:, j]] += closeness[:, j]
    tied = votes == votes.max(axis=1, keepdims=True)
    return np.where(tied, sums, -np.inf).argmax(axis=1), votes, sums


def fit_predict(
    train: Dataset, test: Dataset, k: int = DEFAULT_K
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every test row against the training rows by majority vote
    among its k nearest; scores are plain vote shares."""
    _check_schema(train, test)
    _check_training(train.labels, train.n_instances, train.n_classes, k)
    # Row by row: a [test, train, d] difference array would cost d-fold memory.
    closeness = -np.reshape(
        [np.sqrt(np.sum((train.features - x) ** 2, axis=1)) for x in test.features],
        (test.n_instances, train.n_instances),
    )
    chosen = _nearest(closeness, k)
    labels, votes, _ = _vote(
        train.labels[chosen], np.take_along_axis(closeness, chosen, axis=1), train.n_classes
    )
    return labels, votes / k
