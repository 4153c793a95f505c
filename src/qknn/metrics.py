"""Classification metrics built from scratch: confusion matrix, accuracy,
macro precision/recall/F1, and rank-statistic AUC.

AUC uses the Mann-Whitney construction with midranks for ties, which
equals the trapezoidal area under the ROC curve; a test pins the two
constructions against each other.  Multiclass AUC is the one-vs-rest
macro average.
"""

from __future__ import annotations

import warnings

import numpy as np


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> np.ndarray:
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def binary_auc(y_positive: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC for one class via the rank statistic.

    Equals P(score_pos > score_neg) + 0.5 * P(score_pos == score_neg).
    """
    y_positive = np.asarray(y_positive, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    if y_positive.shape != scores.shape:
        raise ValueError(f"shape mismatch: {y_positive.shape} vs {scores.shape}")
    n_pos = int(y_positive.sum())
    n_neg = y_positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = _midranks(scores)
    return float(
        (ranks[y_positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def compute_metrics(
    y_true: np.ndarray, y_pred: np.ndarray, scores: np.ndarray
) -> dict:
    """Standard metrics with macro averaging, as the report's ``metrics``
    block: the confusion matrix (rows = true class) as nested int lists,
    then accuracy, macro precision, recall and F1, and AUC as floats.

    ``scores`` is a [n, n_classes] probability-like matrix (used for AUC).
    A class absent from ``y_true`` contributes precision/recall 0 with a
    warning, and its one-vs-rest AUC is recorded as chance (0.5).
    """
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot score an empty prediction set")
    if scores.ndim != 2 or scores.shape[0] != y_true.size:
        raise ValueError(
            f"scores must be [n, n_classes] aligned with labels, got {scores.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    n_classes = scores.shape[1]
    if y_true.min() < 0 or y_pred.min() < 0:
        raise ValueError(
            f"labels must be non-negative: true min {y_true.min()}, "
            f"pred min {y_pred.min()}"
        )
    if y_true.max() >= n_classes or y_pred.max() >= n_classes:
        raise ValueError(
            f"labels exceed the {n_classes} score columns: "
            f"true max {y_true.max()}, pred max {y_pred.max()}"
        )
    confusion = confusion_matrix(y_true, y_pred, n_classes)
    accuracy = float(np.trace(confusion) / confusion.sum())
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        true_count = confusion[c].sum()
        pred_count = confusion[:, c].sum()
        hit = confusion[c, c]
        if true_count == 0:
            warnings.warn(
                f"class {c} absent from true labels; precision/recall set to 0",
                stacklevel=2,
            )
            precisions.append(0.0)
            recalls.append(0.0)
            f1s.append(0.0)
            continue
        precision = hit / pred_count if pred_count > 0 else 0.0
        recall = hit / true_count
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    if n_classes == 2:
        auc = _class_auc(y_true, scores, positive=1)
    else:
        auc = float(
            np.mean([_class_auc(y_true, scores, positive=c) for c in range(n_classes)])
        )
    return {
        "confusion": confusion.tolist(),
        "accuracy": accuracy,
        "macro_precision": float(np.mean(precisions)),
        "macro_recall": float(np.mean(recalls)),
        "macro_f1": float(np.mean(f1s)),
        "auc": auc,
    }


def _class_auc(y_true: np.ndarray, scores: np.ndarray, positive: int) -> float:
    mask = y_true == positive
    if mask.all() or not mask.any():
        warnings.warn(
            f"class {positive} has no negatives/positives; AUC recorded as 0.5",
            stacklevel=3,
        )
        return 0.5
    return binary_auc(mask, scores[:, positive])
