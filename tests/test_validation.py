"""Tests for confusion matrices and the overall accuracy they report."""

import numpy as np
import pytest

from repro.ml.validation import confusion_matrix


class TestAccuracy:
    """``ConfusionMatrix.accuracy``, the overall score every report prints."""

    def test_perfect(self):
        y = np.array(["a", "b"])
        assert confusion_matrix(y, y).accuracy == 1.0

    def test_half(self):
        assert confusion_matrix(
            np.array(["a", "b"]), np.array(["a", "a"])
        ).accuracy == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            confusion_matrix(np.array([]), np.array([])).accuracy

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion_matrix(np.array(["a"]), np.array(["a", "b"]))


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix(
            np.array(["a", "a", "b"]), np.array(["a", "b", "b"])
        )
        assert cm.matrix[0, 0] == 1
        assert cm.matrix[0, 1] == 1
        assert cm.matrix[1, 1] == 1

    def test_normalised_rows_sum_to_one(self):
        cm = confusion_matrix(
            np.array(["a", "a", "b", "b"]), np.array(["a", "b", "b", "b"])
        )
        np.testing.assert_allclose(cm.normalized.sum(axis=1), 1.0)

    def test_accuracy_and_per_class(self):
        cm = confusion_matrix(
            np.array(["a", "a", "b", "b"]), np.array(["a", "b", "b", "b"])
        )
        assert cm.accuracy == 0.75
        assert cm.per_class_accuracy() == {"a": 0.5, "b": 1.0}

    def test_render_contains_labels(self):
        cm = confusion_matrix(np.array(["x", "y"]), np.array(["x", "y"]))
        text = cm.render()
        assert "x" in text and "y" in text

    def test_explicit_label_order(self):
        cm = confusion_matrix(
            np.array(["b", "a"]), np.array(["b", "a"]), labels=["b", "a"]
        )
        assert cm.labels == ["b", "a"]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            confusion_matrix(
                np.array(["a", "c"]), np.array(["a", "a"]), labels=["a", "b"]
            )

