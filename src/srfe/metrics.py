"""Confusion matrices and multiclass metrics at class and category level.

Counting is exact integer arithmetic; division happens only at the final
metric step, in float64.  Conventions for degenerate labels: precision is 0
when the label was never predicted, recall is 0 when the label never occurs,
and F1 is 0 whenever precision + recall is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import CLASSES_PER_CATEGORY, N_CLASSES


@dataclass
class ConfusionMatrix:
    """counts[t][p] = number of samples with true label t predicted as p."""

    counts: np.ndarray  # (n_labels, n_labels) int64

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("confusion matrix entries must be non-negative")

    @property
    def n_labels(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(y_true, y_pred, n_labels: int) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    for name, labels in (("y_true", y_true), ("y_pred", y_pred)):
        if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
            raise ValueError(f"{name} holds labels outside [0, {n_labels})")
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts)


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("accuracy of an empty label list is undefined")
    return float(np.mean(y_true == y_pred))


def per_label_precision_recall_f1(cm: ConfusionMatrix):
    """Per-label (precision, recall, f1) arrays with the empty-set conventions."""
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    predicted = counts.sum(axis=0)  # column sums
    actual = counts.sum(axis=1)  # row sums

    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    pr_sum = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, pr_sum, out=np.zeros_like(tp), where=pr_sum > 0
    )
    return precision, recall, f1


def macro_average(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("macro average of an empty list is undefined")
    return float(values.mean())


def _aggregate_by_group(counts: np.ndarray, group_size: int) -> np.ndarray:
    """Sum counts over consecutive label groups; a short last group is kept."""
    starts = np.arange(0, counts.shape[0], group_size)
    return np.add.reduceat(np.add.reduceat(counts, starts, axis=0), starts, axis=1)


def to_category_level(class_cm: ConfusionMatrix) -> ConfusionMatrix:
    """Collapse the 50x50 class confusion into the 5x5 category confusion."""
    if class_cm.n_labels != N_CLASSES:
        raise ValueError(f"expected a {N_CLASSES}x{N_CLASSES} matrix, got {class_cm.counts.shape}")
    return ConfusionMatrix(_aggregate_by_group(class_cm.counts, CLASSES_PER_CATEGORY))


@dataclass
class CategoryMetrics:
    """One-vs-rest accuracy plus precision/recall/F1 per category."""

    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        return macro_average(self.accuracy)

    @property
    def mean_precision(self) -> float:
        return macro_average(self.precision)

    @property
    def mean_recall(self) -> float:
        return macro_average(self.recall)

    @property
    def mean_f1(self) -> float:
        return macro_average(self.f1)


def per_category_metrics(category_cm: ConfusionMatrix) -> CategoryMetrics:
    """Metrics per category; accuracy is one-vs-rest, (TP + TN) / total."""
    counts = category_cm.counts.astype(np.float64)
    total = counts.sum()
    tp = np.diag(counts)
    predicted = counts.sum(axis=0)
    actual = counts.sum(axis=1)
    tn = total - predicted - actual + tp

    ovr_accuracy = (tp + tn) / total if total > 0 else np.zeros_like(tp)
    precision, recall, f1 = per_label_precision_recall_f1(category_cm)
    return CategoryMetrics(accuracy=ovr_accuracy, precision=precision, recall=recall, f1=f1)


@dataclass
class EvalReport:
    """Everything the report emitter needs from one evaluation run."""

    feature_kind: str
    class_confusion: ConfusionMatrix
    category_confusion: ConfusionMatrix
    class_precision: np.ndarray
    class_recall: np.ndarray
    class_f1: np.ndarray
    category: CategoryMetrics
    overall_accuracy: float
    macro: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "feature_kind": self.feature_kind,
            "overall_accuracy": self.overall_accuracy,
            "class_confusion": self.class_confusion.counts.tolist(),
            "category_confusion": self.category_confusion.counts.tolist(),
            "per_class": {
                "precision": self.class_precision.tolist(),
                "recall": self.class_recall.tolist(),
                "f1": self.class_f1.tolist(),
            },
            "per_category": {
                "accuracy": self.category.accuracy.tolist(),
                "precision": self.category.precision.tolist(),
                "recall": self.category.recall.tolist(),
                "f1": self.category.f1.tolist(),
            },
            "macro": self.macro,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        category = CategoryMetrics(
            accuracy=np.asarray(payload["per_category"]["accuracy"]),
            precision=np.asarray(payload["per_category"]["precision"]),
            recall=np.asarray(payload["per_category"]["recall"]),
            f1=np.asarray(payload["per_category"]["f1"]),
        )
        return cls(
            feature_kind=payload["feature_kind"],
            class_confusion=ConfusionMatrix(np.asarray(payload["class_confusion"])),
            category_confusion=ConfusionMatrix(np.asarray(payload["category_confusion"])),
            class_precision=np.asarray(payload["per_class"]["precision"]),
            class_recall=np.asarray(payload["per_class"]["recall"]),
            class_f1=np.asarray(payload["per_class"]["f1"]),
            category=category,
            overall_accuracy=payload["overall_accuracy"],
            macro=payload["macro"],
        )


def build_eval_report(y_true, y_pred, n_labels: int = N_CLASSES, feature_kind: str = "") -> EvalReport:
    """Full evaluation: confusions, per-label and per-category metrics, macros."""
    class_cm = confusion_matrix(y_true, y_pred, n_labels)
    category_cm = ConfusionMatrix(_aggregate_by_group(class_cm.counts, CLASSES_PER_CATEGORY))
    precision, recall, f1 = per_label_precision_recall_f1(class_cm)
    category = per_category_metrics(category_cm)
    macro = {
        "class_precision": macro_average(precision),
        "class_recall": macro_average(recall),
        "class_f1": macro_average(f1),
        "category_accuracy": category.mean_accuracy,
        "category_precision": category.mean_precision,
        "category_recall": category.mean_recall,
        "category_f1": category.mean_f1,
    }
    return EvalReport(
        feature_kind=feature_kind,
        class_confusion=class_cm,
        category_confusion=category_cm,
        class_precision=precision,
        class_recall=recall,
        class_f1=f1,
        category=category,
        overall_accuracy=accuracy(y_true, y_pred),
        macro=macro,
    )
