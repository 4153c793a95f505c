"""One label rule for every array of class labels, whichever entry point takes it.

The same labels go through every constructor and function that takes them,
for two rows and two classes, and each bad array fails with one exception
type and one message: labels are one int per row, each in [0, classes).
Nothing is cast first, so a float, a bool or a string is refused, not
truncated to a class index.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from qknn.classifier import QknnConfig, QknnModel
from qknn.data import Dataset
from qknn.metrics import compute_metrics
from qknn.qnn import TrainConfig, batch_loss, gradient, init_architecture, train

ROWS, CLASSES = 2, 2
GOOD = np.array([0, 1])
SCORES = np.array([[0.6, 0.4], [0.3, 0.7]])
ARCH = init_architecture(2, 1, CLASSES, seed=0)
X = np.array([[0.1, 0.2], [0.3, 0.4]])

#: Entry point -> (the labels' name in messages, a call with one label array).
ENTRIES = {
    "Dataset": ("labels", lambda y: Dataset("toy", np.zeros((ROWS, 1)), y, ("f0",), ("a", "b"))),
    "QknnModel": ("labels", lambda y: QknnModel(
        np.zeros((ROWS, 2), dtype=complex), y, CLASSES, QknnConfig(k=1))),
    "qnn.train": ("labels", lambda y: train(ARCH, X, y, TrainConfig(epochs=0))),
    "qnn.gradient": ("labels", lambda y: gradient(ARCH, X, y)),
    "qnn.batch_loss": ("labels", lambda y: batch_loss(ARCH, X, y)),
    "compute_metrics.y_true": ("true labels", lambda y: compute_metrics(y, GOOD, SCORES)),
    "compute_metrics.y_pred": ("predicted labels", lambda y: compute_metrics(GOOD, y, SCORES)),
}

#: Case -> (labels, exception type, message with "{name}" for the labels' name).
BAD = {
    "float": ([0.5, 1.7], TypeError, "{name} must be ints, got dtype float64"),
    "bool": ([True, False], TypeError, "{name} must be ints, got dtype bool"),
    "str": (["0", "1"], TypeError, "{name} must be ints, got dtype <U1"),
    "scalar": (1, ValueError, "{name} must be 1-D, got shape ()"),
    "2-D": ([[0], [1]], ValueError, "{name} must be 1-D, got shape (2, 1)"),
    "one-too-many": ([0, 1, 0], ValueError, "3 {name} for 2 rows"),
    "one-too-few": ([0], ValueError, "1 {name} for 2 rows"),
    "negative": ([0, -1], ValueError, "{name} must lie in [0, 2), got range [-1, 0]"),
    "C": ([0, 2], ValueError, "{name} must lie in [0, 2), got range [0, 2]"),
}

GOOD_LABELS = {
    "list": [0, 1],
    "int32": np.array([0, 1], dtype=np.int32),
    "int64": np.array([0, 1], dtype=np.int64),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", BAD)
def test_bad_labels_fail_with_one_type_and_message(entry, case):
    name, call = ENTRIES[entry]
    labels, error, message = BAD[case]
    with pytest.raises(error, match=f"^{re.escape(message.format(name=name))}$"):
        call(labels)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", GOOD_LABELS)
def test_int_labels_pass_and_are_kept_as_ints(entry, case):
    result = ENTRIES[entry][1](GOOD_LABELS[case])
    if isinstance(result, (Dataset, QknnModel)):
        assert result.labels.dtype == int
        np.testing.assert_array_equal(result.labels, GOOD)


def test_no_rows_take_an_empty_list():
    d = Dataset("toy", np.zeros((0, 1)), [], ("f0",), ("a", "b"))
    assert d.labels.shape == (0,) and d.labels.dtype == int
