"""Evaluation utilities: confusion matrices.

Every accuracy number in the paper's evaluation is a classification score
over repeated measurements; this module provides the scoring machinery,
including a :class:`ConfusionMatrix` that renders like the paper's
Fig. 15/16 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    """A labelled confusion matrix with paper-style rendering.

    ``matrix[i, j]`` counts samples of true class ``labels[i]`` predicted
    as ``labels[j]``.
    """

    labels: list
    matrix: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """Row-normalised matrix (each row sums to 1 where defined)."""
        totals = self.matrix.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(totals > 0, self.matrix / totals, 0.0)
        return out

    @property
    def accuracy(self) -> float:
        """Overall accuracy."""
        total = self.matrix.sum()
        if total == 0:
            raise ValueError("empty confusion matrix")
        return float(np.trace(self.matrix) / total)

    def per_class_accuracy(self) -> dict:
        """Diagonal of the row-normalised matrix, keyed by label."""
        norm = self.normalized
        return {
            label: float(norm[i, i]) for i, label in enumerate(self.labels)
        }

    def render(self, digits: int = 2) -> str:
        """Text rendering in the style of the paper's Fig. 15."""
        norm = self.normalized
        width = max(len(str(lbl)) for lbl in self.labels)
        width = max(width, digits + 2)
        header = " " * (width + 1) + " ".join(
            f"{str(lbl):>{width}}" for lbl in self.labels
        )
        lines = [header]
        for i, lbl in enumerate(self.labels):
            cells = " ".join(
                f"{norm[i, j]:>{width}.{digits}f}" if norm[i, j] > 0 else " " * width
                for j in range(len(self.labels))
            )
            lines.append(f"{str(lbl):>{width}} {cells}")
        return "\n".join(lines)


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, labels: list | None = None
) -> ConfusionMatrix:
    """Build a :class:`ConfusionMatrix` from predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if labels is None:
        labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    index = {lbl: i for i, lbl in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(y_true, y_pred):
        if t not in index or p not in index:
            raise ValueError(f"label {t!r} or {p!r} missing from {labels}")
        matrix[index[t], index[p]] += 1
    return ConfusionMatrix(labels=list(labels), matrix=matrix)

