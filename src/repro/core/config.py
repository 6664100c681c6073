"""Pipeline configuration, and the choices the pipeline fixes.

The module constants are the paper's fixed choices.  They are not
config fields: no caller varies them, so they enter no stage key, and
``WiMi.from_registry`` refuses a bundle saved with other values.
"""

from __future__ import annotations

from dataclasses import dataclass

# The denoiser's filter bank, SWT depth and outlier threshold, which
# ``WiMi.from_registry`` checks saved bundles against.
from repro.dsp.wavelet import WAVELET_LEVELS, WAVELET_NAME
from repro.dsp.wavelet_denoise import OUTLIER_SIGMAS

#: Soft-margin penalty of the SVM.
SVM_C = 10.0
#: Neighbour count of the kNN ablation.
KNN_K = 5
#: Search range ``-MAX_GAMMA..MAX_GAMMA`` of the phase-wrap integer of
#: Eq. 21.
MAX_GAMMA = 4


@dataclass(frozen=True)
class WiMiConfig:
    """Knobs of the WiMi pipeline, with the paper's defaults.

    Attributes:
        num_good_subcarriers: ``P`` of Sec. III-B; the paper selects the
            ``P = 4`` subcarriers with the smallest phase-difference
            variance.
        subcarrier_override: Explicit subcarrier positions (0-based index
            into the 30-entry report) instead of variance-based selection;
            used by the Fig. 13 experiment ("random subcarriers 2, 7, 12"
            vs "good subcarriers 23, 24").
        antenna_pair: Fixed receiver antenna pair ``(i, j)``, or ``None``
            to select the most stable pair automatically (Sec. III-F).
        num_feature_pairs: How many precise antenna pairs contribute
            feature blocks.  ``1`` is the paper's single-pair mode; the
            default ``2`` fuses the two most stable pairs (Sec. III-F
            notes a p-antenna receiver offers p(p-1)/2 usable pairs),
            which stabilises the hard adjacent-liquid cases.  Clamped to
            the pairs actually available.
        denoise_amplitude: Apply the Sec. III-C denoiser before forming
            amplitude ratios (Fig. 14 turns this off for ablation).
        classifier: ``"svm"`` (paper), ``"knn"`` or ``"centroid"``.
        gamma_strategy: ``"dictionary"`` (resolve gamma against the known
            material feature dictionary) or ``"envelope"`` (pick the gamma
            whose Omega-bar lands inside the physical envelope).  Used as
            the fallback when the coarse-pair method is unavailable.
        use_coarse_pair: With three or more antennas, resolve gamma from
            the smallest-lever antenna pair's coarse Omega-bar (the
            paper's "coarse CSI amplitude readings"); falls back to
            ``gamma_strategy`` on two-antenna devices.
        include_coarse_feature: Also append the coarse-pair Omega-bar to
            the feature vector (it is branch-independent and anchors the
            identify-time branch search).  Disable to study a single
            pair/subcarrier in isolation (Fig. 13).
        artifact_store_path: Directory of the durable artifact tier
            (:class:`repro.persist.ArtifactStore`) mounted behind the
            stage cache; ``None`` (default) keeps the cache
            memory-only.  Neither path participates in stage cache
            keys -- they locate state, they do not change results.
        model_registry_path: Directory of the
            :class:`repro.persist.ModelRegistry` used by
            ``WiMi.save_to_registry``/``WiMi.from_registry`` for
            warm-start serving; ``None`` disables registry wiring.
    """

    num_good_subcarriers: int = 4
    subcarrier_override: tuple[int, ...] | None = None
    antenna_pair: tuple[int, int] | None = None
    num_feature_pairs: int = 2
    denoise_amplitude: bool = True
    classifier: str = "svm"
    gamma_strategy: str = "dictionary"
    use_coarse_pair: bool = True
    include_coarse_feature: bool = True
    artifact_store_path: str | None = None
    model_registry_path: str | None = None

    def __post_init__(self) -> None:
        if self.num_good_subcarriers < 1:
            raise ValueError(
                f"num_good_subcarriers must be >= 1, got "
                f"{self.num_good_subcarriers}"
            )
        if self.num_feature_pairs < 1:
            raise ValueError(
                f"num_feature_pairs must be >= 1, got {self.num_feature_pairs}"
            )
        if self.antenna_pair is not None:
            i, j = self.antenna_pair
            if i == j:
                raise ValueError(f"antenna pair must be distinct, got {i},{j}")
            if i < 0 or j < 0:
                raise ValueError(f"antenna indices must be >= 0, got {i},{j}")
        if self.classifier not in ("svm", "knn", "centroid"):
            raise ValueError(
                f"classifier must be svm/knn/centroid, got {self.classifier!r}"
            )
        if self.gamma_strategy not in ("dictionary", "envelope"):
            raise ValueError(
                "gamma_strategy must be 'dictionary' or 'envelope', got "
                f"{self.gamma_strategy!r}"
            )
