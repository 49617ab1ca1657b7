"""Metrics against brute-force counting oracles and the degenerate conventions."""

import numpy as np
import pytest

from srfe.metrics import (
    ConfusionMatrix,
    accuracy,
    build_eval_report,
    confusion_matrix,
    macro_average,
    per_category_metrics,
    per_label_precision_recall_f1,
    to_category_level,
)


def brute_force_counts(y_true, y_pred, n):
    counts = np.zeros((n, n), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    return counts


class TestConfusionMatrix:
    def test_identity_case(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        np.testing.assert_array_equal(cm.counts, np.eye(3, dtype=np.int64))

    def test_matches_brute_force_on_random_labels(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 7, 1000)
        y_pred = rng.integers(0, 7, 1000)
        cm = confusion_matrix(y_true, y_pred, 7)
        np.testing.assert_array_equal(cm.counts, brute_force_counts(y_true, y_pred, 7))
        assert cm.total == 1000

    def test_row_sums_are_per_class_counts(self):
        rng = np.random.default_rng(1)
        y_true = np.repeat(np.arange(50), 8)
        y_pred = rng.integers(0, 50, 400)
        cm = confusion_matrix(y_true, y_pred, 50)
        np.testing.assert_array_equal(cm.counts.sum(axis=1), np.full(50, 8))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 3)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([3, 1, 4], [3, 1, 4]) == 1.0

    def test_fully_wrong(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_equals_trace_over_total(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 5, 333)
        y_pred = rng.integers(0, 5, 333)
        cm = confusion_matrix(y_true, y_pred, 5)
        assert accuracy(y_true, y_pred) == pytest.approx(np.trace(cm.counts) / cm.total)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestPerLabelMetrics:
    def test_diagonal_matrix_is_perfect(self):
        cm = ConfusionMatrix(np.diag([5, 3, 2]))
        p, r, f1 = per_label_precision_recall_f1(cm)
        np.testing.assert_array_equal(p, [1, 1, 1])
        np.testing.assert_array_equal(r, [1, 1, 1])
        np.testing.assert_array_equal(f1, [1, 1, 1])

    def test_hand_counted_example(self):
        cm = ConfusionMatrix(np.array([[3, 1], [2, 4]]))
        p, r, f1 = per_label_precision_recall_f1(cm)
        assert p[0] == pytest.approx(3 / 5)
        assert r[0] == pytest.approx(3 / 4)
        assert f1[0] == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    def test_never_predicted_label_conventions(self):
        # Label 1 occurs but is never predicted; label 2 is predicted but never occurs.
        cm = ConfusionMatrix(np.array([[4, 0, 1], [3, 0, 0], [0, 0, 0]]))
        p, r, f1 = per_label_precision_recall_f1(cm)
        assert p[1] == 0.0  # empty predicted set
        assert r[1] == 0.0
        assert f1[1] == 0.0
        assert r[2] == 0.0  # empty true set
        assert p[2] == 0.0
        assert f1[2] == 0.0

    def test_f1_bounds_and_zero_iff_pr_zero(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10, (6, 6))
        p, r, f1 = per_label_precision_recall_f1(ConfusionMatrix(counts))
        assert np.all(f1 <= 2 * np.minimum(p, r) + 1e-12)
        assert np.all(f1 <= np.maximum(p, r) + 1e-12)
        np.testing.assert_array_equal(f1 == 0, p * r == 0)

    def test_matches_binary_counting_oracle(self):
        rng = np.random.default_rng(4)
        y_true = rng.integers(0, 7, 1000)
        y_pred = rng.integers(0, 7, 1000)
        cm = confusion_matrix(y_true, y_pred, 7)
        p, r, f1 = per_label_precision_recall_f1(cm)
        for label in range(7):
            tp = int(np.sum((y_true == label) & (y_pred == label)))
            fp = int(np.sum((y_true != label) & (y_pred == label)))
            fn = int(np.sum((y_true == label) & (y_pred != label)))
            exp_p = tp / (tp + fp) if tp + fp else 0.0
            exp_r = tp / (tp + fn) if tp + fn else 0.0
            exp_f = 2 * exp_p * exp_r / (exp_p + exp_r) if exp_p + exp_r else 0.0
            assert p[label] == pytest.approx(exp_p)
            assert r[label] == pytest.approx(exp_r)
            assert f1[label] == pytest.approx(exp_f)


class TestMacroAverage:
    def test_simple(self):
        assert macro_average([1.0, 1.0]) == 1.0
        assert macro_average([0.0, 1.0]) == 0.5

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        values = rng.random(50)
        assert macro_average(values) == pytest.approx(values.sum() / 50, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_average([])


class TestCategoryAggregation:
    def test_diagonal_preserved(self):
        counts = np.zeros((50, 50), dtype=np.int64)
        np.fill_diagonal(counts, 8)
        cat = to_category_level(ConfusionMatrix(counts))
        np.testing.assert_array_equal(cat.counts, np.diag([80] * 5))

    def test_single_cell_mapping(self):
        counts = np.zeros((50, 50), dtype=np.int64)
        counts[4, 47] = 1  # class 4 (category 0) predicted as 47 (category 4)
        cat = to_category_level(ConfusionMatrix(counts))
        expected = np.zeros((5, 5), dtype=np.int64)
        expected[0, 4] = 1
        np.testing.assert_array_equal(cat.counts, expected)

    def test_total_preserved(self):
        rng = np.random.default_rng(6)
        counts = rng.integers(0, 5, (50, 50))
        cat = to_category_level(ConfusionMatrix(counts))
        assert cat.counts.sum() == counts.sum()
        # And the aggregation equals explicit nested counting.
        expected = np.zeros((5, 5), dtype=np.int64)
        for t in range(50):
            for p in range(50):
                expected[t // 10, p // 10] += counts[t, p]
        np.testing.assert_array_equal(cat.counts, expected)

    @pytest.mark.parametrize("n_labels", [5, 23])
    def test_short_last_group_kept(self, n_labels):
        # Reports over fewer than 50 labels group them by tens too; a last
        # group of fewer than ten labels is a category of its own.
        rng = np.random.default_rng(n_labels)
        y_true = rng.integers(0, n_labels, 200)
        y_pred = rng.integers(0, n_labels, 200)
        report = build_eval_report(y_true, y_pred, n_labels=n_labels)
        n_groups = (n_labels + 9) // 10
        expected = np.zeros((n_groups, n_groups), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expected[t // 10, p // 10] += 1
        np.testing.assert_array_equal(report.category_confusion.counts, expected)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            to_category_level(ConfusionMatrix(np.zeros((10, 10), dtype=np.int64)))


class TestPerCategoryMetrics:
    def test_perfect_diagonal(self):
        metrics = per_category_metrics(ConfusionMatrix(np.diag([80] * 5)))
        for arr in (metrics.accuracy, metrics.precision, metrics.recall, metrics.f1):
            np.testing.assert_allclose(arr, 1.0)
        assert metrics.mean_f1 == 1.0

    def test_never_predicted_category(self):
        counts = np.array([
            [0, 10, 0, 0, 0],
            [0, 10, 0, 0, 0],
            [0, 0, 10, 0, 0],
            [0, 0, 0, 10, 0],
            [0, 0, 0, 0, 10],
        ])
        metrics = per_category_metrics(ConfusionMatrix(counts))
        assert metrics.precision[0] == 0.0

    def test_one_vs_rest_accuracy_oracle(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 9, (5, 5))
        cm = ConfusionMatrix(counts)
        metrics = per_category_metrics(cm)
        total = counts.sum()
        for c in range(5):
            tp = counts[c, c]
            fp = counts[:, c].sum() - tp
            fn = counts[c, :].sum() - tp
            tn = total - tp - fp - fn
            assert metrics.accuracy[c] == pytest.approx((tp + tn) / total)


class TestEvalReport:
    def test_micro_recall_equals_overall_accuracy(self):
        rng = np.random.default_rng(8)
        y_true = rng.integers(0, 50, 400)
        y_pred = rng.integers(0, 50, 400)
        report = build_eval_report(y_true, y_pred)
        tp = np.diag(report.class_confusion.counts).sum()
        assert tp / 400 == pytest.approx(report.overall_accuracy)

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(9)
        report = build_eval_report(rng.integers(0, 50, 300), rng.integers(0, 50, 300))
        for arr in (report.class_precision, report.class_recall, report.class_f1,
                    report.category.accuracy, report.category.precision,
                    report.category.recall, report.category.f1):
            assert np.all((arr >= 0) & (arr <= 1))
        for value in report.macro.values():
            assert 0 <= value <= 1

    def test_json_roundtrip(self):
        rng = np.random.default_rng(10)
        report = build_eval_report(
            rng.integers(0, 50, 200), rng.integers(0, 50, 200), feature_kind="mel"
        )
        back = type(report).from_json(report.to_json())
        assert back.feature_kind == "mel"
        np.testing.assert_array_equal(back.class_confusion.counts, report.class_confusion.counts)
        np.testing.assert_allclose(back.class_f1, report.class_f1)
        assert back.macro == report.macro
