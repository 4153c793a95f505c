"""Metric tests: confusion matrices, macro averages, and rank AUC
pinned against an independent trapezoidal construction."""

import numpy as np
import pytest

from qknn.metrics import (
    binary_auc,
    compute_metrics,
    confusion_matrix,
)

from oracles import trapezoid_auc


class TestConfusion:
    def test_rows_are_true_class(self):
        m = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        np.testing.assert_array_equal(m, [[1, 1], [0, 1]])

    def test_counts_sum_to_n(self, rng):
        y_true = rng.integers(0, 3, 40)
        y_pred = rng.integers(0, 3, 40)
        assert confusion_matrix(y_true, y_pred, 3).sum() == 40


class TestBinaryAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1], dtype=bool)
        assert binary_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_scores_give_zero(self):
        y = np.array([0, 0, 1, 1], dtype=bool)
        assert binary_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_all_tied_scores_give_half(self):
        y = np.array([0, 1, 0, 1], dtype=bool)
        assert binary_auc(y, np.full(4, 0.5)) == 0.5

    def test_matches_trapezoid_oracle(self, rng):
        for _ in range(20):
            y = rng.integers(0, 2, 30).astype(bool)
            if not y.any() or y.all():
                continue
            # draw from a coarse grid so ties actually occur
            scores = rng.integers(0, 5, 30) / 4.0
            assert binary_auc(y, scores) == pytest.approx(
                trapezoid_auc(y, scores), abs=1e-9
            )

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(99)
        y = rng.integers(0, 2, 2000).astype(bool)
        scores = rng.random(2000)
        assert binary_auc(y, scores) == pytest.approx(0.5, abs=0.05)

    def test_one_sided_labels_rejected(self):
        with pytest.raises(ValueError, match="positive and one negative"):
            binary_auc(np.array([True, True]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="shape"):
            binary_auc(np.array([True, False]), np.array([0.1]))


def binary_scores(y_pred):
    """Degenerate score matrix that just reflects the hard predictions."""
    p1 = np.asarray(y_pred, dtype=float)
    return np.stack([1.0 - p1, p1], axis=1)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 0, 1])
        report = compute_metrics(y, y, binary_scores(y))
        assert report["accuracy"] == 1.0
        assert report["macro_precision"] == 1.0
        assert report["macro_recall"] == 1.0
        assert report["macro_f1"] == 1.0
        assert report["auc"] == 1.0

    def test_known_binary_confusion(self):
        # 50 true 0 all correct; 50 true 1 with 10 misses:
        # accuracy 0.9, recall_1 0.8, precision_1 1.0
        y_true = np.array([0] * 50 + [1] * 50)
        y_pred = np.array([0] * 50 + [0] * 10 + [1] * 40)
        report = compute_metrics(y_true, y_pred, binary_scores(y_pred))
        np.testing.assert_array_equal(report["confusion"], [[50, 0], [10, 40]])
        assert report["accuracy"] == pytest.approx(0.9)
        # class 0: precision 50/60, recall 1; class 1: precision 1, recall 0.8
        assert report["macro_precision"] == pytest.approx((50 / 60 + 1.0) / 2)
        assert report["macro_recall"] == pytest.approx((1.0 + 0.8) / 2)
        f1_0 = 2 * (50 / 60) / (50 / 60 + 1.0)
        f1_1 = 2 * 0.8 / 1.8
        assert report["macro_f1"] == pytest.approx((f1_0 + f1_1) / 2)

    def test_binary_auc_uses_class_one_scores(self, rng):
        y_true = rng.integers(0, 2, 50)
        y_true[:2] = [0, 1]
        scores1 = rng.random(50)
        scores = np.stack([1 - scores1, scores1], axis=1)
        report = compute_metrics(y_true, y_true, scores)
        assert report["auc"] == pytest.approx(
            binary_auc(y_true.astype(bool), scores1), abs=1e-12
        )

    def test_multiclass_macro_auc_is_ovr_mean(self, rng):
        y_true = rng.integers(0, 3, 60)
        y_true[:3] = [0, 1, 2]
        raw = rng.random((60, 3))
        scores = raw / raw.sum(axis=1, keepdims=True)
        report = compute_metrics(y_true, np.argmax(scores, axis=1), scores)
        expected = np.mean(
            [binary_auc(y_true == c, scores[:, c]) for c in range(3)]
        )
        assert report["auc"] == pytest.approx(float(expected), abs=1e-12)

    def test_absent_true_class_warns_and_scores_zero(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 2, 1, 1])
        scores = np.eye(3)[y_pred]
        # class 2 also has no positives, so the degenerate-AUC warning fires too
        with pytest.warns(UserWarning, match="(absent|AUC)"):
            report = compute_metrics(y_true, y_pred, scores)
        # class 2 contributes zeros to every macro average
        assert report["macro_recall"] == pytest.approx((0.5 + 1.0 + 0.0) / 3)

    def test_degenerate_auc_warns_and_reports_chance(self):
        y_true = np.array([1, 1, 1])
        with pytest.warns(UserWarning):
            report = compute_metrics(y_true, y_true, binary_scores(y_true))
        assert report["auc"] == 0.5

    def test_unpredicted_class_has_zero_precision(self):
        y_true = np.array([0, 1, 0, 1])
        y_pred = np.array([0, 0, 0, 0])
        report = compute_metrics(y_true, y_pred, binary_scores(y_pred))
        assert report["macro_precision"] == pytest.approx((4 / 8 + 0.0) / 2, abs=1e-12)

    def test_values_are_plain_json_types(self):
        y = np.array([0, 1])
        doc = compute_metrics(y, y, binary_scores(y))
        assert doc["accuracy"] == 1.0
        assert doc["confusion"] == [[1, 0], [0, 1]]
        assert isinstance(doc["confusion"][0][0], int)
        assert all(type(doc[key]) is float for key in doc if key != "confusion")

    def test_validation(self):
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="shape mismatch"):
            compute_metrics(y, np.array([0]), binary_scores(y))
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(np.array([]), np.array([]), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="aligned"):
            compute_metrics(y, y, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="exceed"):
            compute_metrics(np.array([0, 2]), np.array([0, 1]), np.zeros((2, 2)))

    def test_negative_labels_rejected(self):
        # A -1 would index the last confusion row or column and count as a hit.
        scores = np.full((4, 2), 0.5)
        good = np.array([0, 1, 1, 1])
        bad = np.array([0, 1, -1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            compute_metrics(bad, good, scores)
        with pytest.raises(ValueError, match="non-negative"):
            compute_metrics(good, bad, scores)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, value):
        y = np.array([0, 1, 0, 1])
        scores = binary_scores(y)
        scores[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            compute_metrics(y, y, scores)
