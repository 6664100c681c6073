"""Learning substrate, implemented from scratch.

The paper feeds its material features to an SVM (Sec. III-E).  No ML
library is available offline, so this package provides:

* :mod:`repro.ml.kernels` -- the RBF kernel and its "scale" gamma,
* :mod:`repro.ml.svm` -- a soft-margin binary SVM trained with Platt's
  SMO algorithm,
* :mod:`repro.ml.multiclass` -- the one-vs-one ensemble of binary SVMs,
* :mod:`repro.ml.knn`, :mod:`repro.ml.centroid` -- baselines for the
  classifier ablation,
* :mod:`repro.ml.scaler` -- feature standardisation,
* :mod:`repro.ml.validation` -- confusion matrices (how every paper
  figure scores results).
"""

from repro.ml.centroid import NearestCentroidClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.scaler import StandardScaler
from repro.ml.svm import BinarySVC
from repro.ml.validation import ConfusionMatrix, confusion_matrix

__all__ = [
    "BinarySVC",
    "ConfusionMatrix",
    "KNeighborsClassifier",
    "NearestCentroidClassifier",
    "OneVsOneSVC",
    "StandardScaler",
    "confusion_matrix",
]
