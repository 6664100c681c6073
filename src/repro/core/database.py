"""Material feature database (paper Sec. III-E).

"We put the extracted feature values into the material database.  Then,
when identifying a test material, WiMi collects the ... measurements, and
incorporates the material database and the SVM classifier to identify the
target material."

The database stores labelled feature vectors, exposes per-material
statistics (the Fig. 9 clusters), and builds the configured classifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import KNN_K, MAX_GAMMA, SVM_C
from repro.core.feature import FeatureMeasurement
from repro.ml.centroid import NearestCentroidClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.scaler import StandardScaler
from repro.ml.svm import BinarySVC


@dataclass
class MaterialDatabase:
    """Labelled store of material feature vectors."""

    entries: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def add(self, measurement: FeatureMeasurement, label: str | None = None) -> None:
        """Store one measurement under ``label`` (defaults to its own
        ground-truth name)."""
        name = label if label is not None else measurement.material_name
        if not name:
            raise ValueError("measurement has no label; pass one explicitly")
        self.entries.setdefault(name, []).append(measurement.vector())

    @property
    def labels(self) -> list[str]:
        """All material labels, insertion-ordered."""
        return list(self.entries)

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def count(self, label: str) -> int:
        """Number of stored vectors for ``label``."""
        return len(self.entries.get(label, []))

    def mean_feature(self, label: str) -> np.ndarray:
        """Per-material mean feature vector (the Fig. 9 cluster centre)."""
        vectors = self.entries.get(label)
        if not vectors:
            raise KeyError(f"no entries for material {label!r}")
        return np.mean(np.stack(vectors), axis=0)

    def feature_spread(self, label: str) -> float:
        """Std-dev of the scalar (mean-omega) feature for ``label``."""
        vectors = self.entries.get(label)
        if not vectors:
            raise KeyError(f"no entries for material {label!r}")
        scalars = [float(np.mean(v)) for v in vectors]
        return float(np.std(scalars))

    def dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """All vectors as ``(X, y)`` arrays for training."""
        if not self.entries:
            raise ValueError("database is empty")
        xs, ys = [], []
        for label, vectors in self.entries.items():
            for vector in vectors:
                xs.append(vector)
                ys.append(label)
        lengths = {v.size for v in xs}
        if len(lengths) > 1:
            raise ValueError(
                f"inconsistent feature vector lengths in database: {lengths}"
            )
        return np.stack(xs), np.array(ys)

    # ------------------------------------------------------------------
    # Persistence (the npz/json payload convention of repro.persist)
    # ------------------------------------------------------------------

    def content_hash(self) -> str:
        """Deterministic digest of every (label, vector) in the database.

        Used as the registry manifest's training-set hash and as input
        to the deterministic classifier token: two processes holding the
        same training data agree on both.
        """
        digest = hashlib.blake2b(digest_size=16)
        for label, vectors in self.entries.items():
            digest.update(label.encode("utf-8") + b"\0")
            for vector in vectors:
                digest.update(
                    np.ascontiguousarray(vector, dtype=float).tobytes()
                )
            digest.update(b"\1")
        return digest.hexdigest()

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, arrays)`` capturing every entry, bit-exactly."""
        meta = {"labels": list(self.entries)}
        arrays = {}
        for index, vectors in enumerate(self.entries.values()):
            arrays[f"db_{index}"] = (
                np.stack(vectors) if vectors else np.zeros((0, 0))
            )
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "MaterialDatabase":
        """Rebuild a database from :meth:`to_state` output."""
        entries: dict[str, list[np.ndarray]] = {}
        for index, label in enumerate(meta["labels"]):
            stacked = np.asarray(arrays[f"db_{index}"], dtype=float)
            entries[str(label)] = [np.array(row) for row in stacked]
        return cls(entries=entries)


def check_legacy_precision(precision: str, field: str) -> None:
    """Refuse a saved model whose legacy ``field`` is not float64.

    Bundles saved while the pipeline had a float32 compute path record
    its precision.  A ``"float64"`` bundle matches what the pipeline
    still computes, so it loads unchanged; a ``"float32"`` one trained
    its SVM on a float32 Gram, and serving it here would silently shift
    its predictions.
    """
    if precision != "float64":
        raise ValueError(
            f"saved state has {field}={precision!r}; only 'float64' is "
            "supported -- retrain the model"
        )


class DatabaseClassifier:
    """A scaler + classifier trained from a :class:`MaterialDatabase`."""

    def __init__(self, kind: str = "svm", seed: int = 0):
        if kind not in ("svm", "knn", "centroid"):
            raise ValueError(f"unknown classifier kind {kind!r}")
        self.kind = kind
        self.seed = seed
        self._scaler = StandardScaler()
        self._clf = None
        self._centroids: NearestCentroidClassifier | None = None

    def fit(self, database: MaterialDatabase) -> "DatabaseClassifier":
        """Train on everything in the database."""
        x, y = database.dataset()
        if len(set(y.tolist())) < 2:
            raise ValueError("need at least two materials to train")
        x = self._scaler.fit_transform(x)
        if self.kind == "svm":
            self._clf = OneVsOneSVC(C=SVM_C, seed=self.seed)
        elif self.kind == "knn":
            self._clf = KNeighborsClassifier(k=KNN_K)
        else:
            self._clf = NearestCentroidClassifier()
        self._clf.fit(x, y)
        # Scaled per-class centroids, used by the branch search.
        self._centroids = NearestCentroidClassifier().fit(x, y)
        return self

    def predict(self, vectors: np.ndarray) -> np.ndarray:
        """Predicted material names for feature vectors."""
        if self._clf is None:
            raise RuntimeError("classifier is not fitted")
        x = self._scaler.transform(np.atleast_2d(vectors))
        return self._clf.predict(x)

    def predict_one(self, measurement: FeatureMeasurement) -> str:
        """Predicted material name for one measurement."""
        return str(self.predict(measurement.vector()[None, :])[0])

    def resolve_branch_and_predict(
        self,
        features,
        max_gamma: int = MAX_GAMMA,
        envelope: tuple[float, float] | None = None,
    ) -> str:
        """Database-aided branch resolution + classification.

        ``Delta-Theta`` is only measured modulo ``2 pi``, and which branch
        is correct cannot always be decided from physics alone once the
        deployment's (static, classifier-absorbed) biases are in play.
        But the *database* carries the same biases: so, per feature block,
        the branch whose columns land closest to a known material's
        centroid is the consistent one.  This is the operational meaning
        of the paper's "incorporates the material database and the SVM
        classifier".

        ``features`` is a :class:`repro.core.feature.SessionFeatures` (or
        a single :class:`FeatureMeasurement`, treated as one block).
        """
        from repro.core.feature import SessionFeatures

        if self._clf is None or self._centroids is None:
            raise RuntimeError("classifier is not fitted")
        if isinstance(features, FeatureMeasurement):
            features = SessionFeatures(measurements=[features])

        parts = []
        for block, measurement in enumerate(features.measurements):
            parts.append(
                self._resolve_block(
                    features, block, measurement, max_gamma, envelope
                )
            )
        vector = np.concatenate(parts)
        return str(self.predict(vector[None, :])[0])

    def confidence(self, vector) -> float:
        """How decisively a feature vector matches its nearest material.

        Defined from the scaled centroid distances as
        ``1 - d_nearest / d_second``: ~1 when the vector sits on one
        cluster and far from all others, ~0 when two materials are
        equally plausible.  Useful for flagging out-of-catalog targets
        (e.g. mixtures, Discussion limitation #1), which land between
        clusters.
        """
        import numpy as _np

        if self._centroids is None:
            raise RuntimeError("classifier is not fitted")
        scaled = self._scaler.transform(_np.atleast_2d(vector))
        deltas = self._centroids.centroids_ - scaled
        distances = _np.sqrt(_np.sum(deltas * deltas, axis=1))
        order = _np.sort(distances)
        if order.size < 2 or order[1] == 0.0:
            return 1.0
        return float(max(0.0, 1.0 - order[0] / order[1]))

    # ------------------------------------------------------------------
    # Persistence (the npz/json payload convention of repro.persist)
    # ------------------------------------------------------------------

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, arrays)`` of the full fitted state.

        Everything prediction touches is captured: scaler moments,
        branch-search centroids, and the kind-specific classifier (SVM
        support vectors and multipliers, kNN memorised set, or centroid
        table).  Restoring via :meth:`from_state` yields bit-identical
        ``predict``/``confidence``/``resolve_branch_and_predict``.
        """
        if self._clf is None or self._centroids is None:
            raise RuntimeError("cannot serialize an unfitted classifier")
        meta: dict = {
            "kind": self.kind,
            "svm_c": SVM_C,
            "knn_k": KNN_K,
            "seed": self.seed,
            "centroid_classes": [str(c) for c in self._centroids.classes_],
        }
        arrays: dict[str, np.ndarray] = {
            "scaler_mean": self._scaler.mean_,
            "scaler_scale": self._scaler.scale_,
            "centroids": self._centroids.centroids_,
        }
        if self.kind == "svm":
            machines = []
            for (a, b), machine in sorted(self._clf._machines.items()):
                prefix = f"svm_{a}_{b}_"
                arrays[prefix + "alpha"] = machine._alpha
                arrays[prefix + "support_x"] = machine._support_x
                arrays[prefix + "support_y"] = machine._support_y
                machines.append(
                    {
                        "a": a,
                        "b": b,
                        "bias": machine._b,
                        "gamma": machine._gamma,
                    }
                )
            meta["svm"] = {
                "classes": [str(c) for c in self._clf.classes_],
                "kernel_name": "rbf",
                "C": self._clf.C,
                "seed": self._clf.seed,
                "machines": machines,
            }
        elif self.kind == "knn":
            arrays["knn_x"] = self._clf._x
            meta["knn"] = {
                "k": self._clf.k,
                "labels": [str(label) for label in self._clf._y],
            }
        else:
            arrays["cls_centroids"] = self._clf.centroids_
            meta["centroid"] = {
                "classes": [str(c) for c in self._clf.classes_]
            }
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "DatabaseClassifier":
        """Rebuild a fitted classifier from :meth:`to_state` output."""
        check_legacy_precision(meta.get("precision", "float64"), "precision")
        fixed = [
            ("svm_c", meta["svm_c"], SVM_C),
            ("knn_k", meta["knn_k"], KNN_K),
        ]
        if meta["kind"] == "svm":
            fixed.append(("kernel_name", meta["svm"]["kernel_name"], "rbf"))
        for field, saved, constant in fixed:
            if saved != constant:
                raise ValueError(
                    f"saved state has {field}={saved!r}; the classifier "
                    f"fixes {field}={constant!r}"
                )
        self = cls(kind=str(meta["kind"]), seed=int(meta["seed"]))
        self._scaler._mean = np.asarray(arrays["scaler_mean"], dtype=float)
        self._scaler._scale = np.asarray(arrays["scaler_scale"], dtype=float)
        centroids = NearestCentroidClassifier()
        centroids._centroids = np.asarray(arrays["centroids"], dtype=float)
        centroids._classes = np.array(meta["centroid_classes"])
        self._centroids = centroids

        if self.kind == "svm":
            spec = meta["svm"]
            clf = OneVsOneSVC(C=float(spec["C"]), seed=int(spec["seed"]))
            machines = {}
            for entry in spec["machines"]:
                a, b = int(entry["a"]), int(entry["b"])
                prefix = f"svm_{a}_{b}_"
                machine = BinarySVC(C=float(spec["C"]), seed=int(spec["seed"]))
                machine._alpha = np.asarray(
                    arrays[prefix + "alpha"], dtype=float
                )
                machine._support_x = np.asarray(
                    arrays[prefix + "support_x"], dtype=float
                )
                machine._support_y = np.asarray(
                    arrays[prefix + "support_y"], dtype=float
                )
                machine._b = float(entry["bias"])
                machine._gamma = (
                    None if entry["gamma"] is None else float(entry["gamma"])
                )
                machine._fitted = True
                machines[(a, b)] = machine
            clf.set_machines(np.array(spec["classes"]), machines)
            self._clf = clf
        elif self.kind == "knn":
            spec = meta["knn"]
            clf = KNeighborsClassifier(k=int(spec["k"]))
            clf._x = np.asarray(arrays["knn_x"], dtype=float)
            clf._y = np.array(spec["labels"])
            self._clf = clf
        else:
            spec = meta["centroid"]
            clf = NearestCentroidClassifier()
            clf._centroids = np.asarray(arrays["cls_centroids"], dtype=float)
            clf._classes = np.array(spec["classes"])
            self._clf = clf
        return self

    def _resolve_block(
        self,
        features,
        block: int,
        measurement: FeatureMeasurement,
        max_gamma: int,
        envelope: tuple[float, float] | None,
    ) -> np.ndarray:
        """Best-branch columns for one feature block.

        Every branch ``-max_gamma..max_gamma`` is evaluated as one
        ``(branches, columns)`` array; the first branch with the smallest
        finite centroid distance wins, as in the strict ``<`` scan of
        :meth:`_reference_resolve_block` (a NaN distance never wins).
        """
        if measurement.theta_aligned is None:
            return measurement.vector()
        cols = features.block_slices()[block]
        parts = measurement.vectors_for_gammas(
            np.arange(-max_gamma, max_gamma + 1)
        )
        scaled = (parts - self._scaler.mean_[cols]) / self._scaler.scale_[cols]
        deltas = self._centroids.centroids_[None, :, cols] - scaled[:, None, :]
        distances = np.min(np.sum(deltas * deltas, axis=2), axis=1)
        if envelope is not None:
            lo, hi = envelope
            mean_omega = np.mean(
                parts[:, : len(measurement.subcarriers)], axis=1
            )
            distances[~((lo <= mean_omega) & (mean_omega <= hi))] = np.inf
        distances[np.isnan(distances)] = np.inf
        best = int(np.argmin(distances))
        if distances[best] == np.inf:
            return measurement.vector()
        return parts[best]

    def _reference_resolve_block(
        self,
        features,
        block: int,
        measurement: FeatureMeasurement,
        max_gamma: int,
        envelope: tuple[float, float] | None,
    ) -> np.ndarray:
        """Branch-by-branch scan; the equivalence oracle of
        :meth:`_resolve_block`."""
        if measurement.theta_aligned is None:
            return measurement.vector()
        cols = features.block_slices()[block]
        centroid_cols = self._centroids.centroids_[:, cols]
        best_part = None
        best_distance = float("inf")
        for gamma in range(-max_gamma, max_gamma + 1):
            part = measurement.vector_for_gamma(gamma)
            mean_omega = float(np.mean(part[: len(measurement.subcarriers)]))
            if envelope is not None:
                lo, hi = envelope
                if not lo <= mean_omega <= hi:
                    continue
            scaled = (part - self._scaler.mean_[cols]) / self._scaler.scale_[cols]
            deltas = centroid_cols - scaled[None, :]
            distance = float(np.min(np.sum(deltas * deltas, axis=1)))
            if distance < best_distance:
                best_distance = distance
                best_part = part
        if best_part is None:
            best_part = measurement.vector()
        return best_part
