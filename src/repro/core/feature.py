"""The size-independent material feature Omega-bar (paper Eq. 18-21).

From a paired capture session and an antenna pair ``(i, j)`` the extractor
measures, per subcarrier:

* ``Delta-Theta`` -- the change of the inter-antenna phase difference from
  baseline to target (Eq. 18): ``(D_i - D_j)(beta_tar - beta_free)``,
  observable only modulo ``2 pi``;
* ``Delta-Psi`` -- the double amplitude ratio (Eq. 19):
  ``exp(-(D_i - D_j)(alpha_tar - alpha_free))``, unambiguous.

Their combination ``Omega-bar = -ln(DeltaPsi) / (DeltaTheta + 2 gamma pi)``
(Eq. 21) cancels the unknown path-length difference ``D_i - D_j`` and
depends only on the material's ``(alpha, beta)``.

Gamma resolution
----------------
The paper states that the integer ``gamma`` "can be accurately estimated
with the coarse CSI amplitude readings".  Three strategies are provided:

* ``coarse-pair`` (default when a third antenna is available): the antenna
  pair with the *smallest* path-length-difference lever has
  ``|DeltaTheta| < pi`` for every catalog material, so its ``gamma`` is 0
  and it yields a coarse but unambiguous Omega-bar estimate; the precise
  (large-lever) pair is then unwrapped by predicting its phase from its
  own amplitude reading and the coarse Omega-bar.  Wrong branches would
  require the coarse estimate to be off by >60%, so this is very robust.
* ``dictionary``: for every candidate material ``c`` in the feature
  dictionary, the amplitude side predicts the unwrapped phase
  ``DeltaTheta_c = -ln(DeltaPsi) / Omega_c``; the candidate whose
  prediction lands closest to a ``2 pi``-shifted copy of the measured
  (wrapped) phase fixes ``gamma``.
* ``envelope``: keep the gamma whose Omega-bar falls inside the physically
  plausible envelope of the dictionary.

All are exposed for the ablation benches.

Sign convention: measured CSI phase *decreases* with propagation delay
(``H ~ exp(-j 2 pi f tau)``), while the paper's Eq. 2 counts accrued phase
positively; the extractor negates the measured change once, up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.channel.materials import Material
from repro.channel.propagation import material_feature_theory
from repro.core.amplitude import AmplitudeProcessor
from repro.core.config import MAX_GAMMA
from repro.core.phase import PhaseCalibrator
from repro.csi.collector import CaptureSession
from repro.csi.quality import CorruptTraceError, SessionQualityReport
from repro.dsp.stats import circular_mean, finite_median, wrap_phase

#: Unwrapped phase magnitudes below this are too small to divide by.
_MIN_DENOMINATOR_RAD = 1e-3


def theory_reference_omegas(materials: list[Material]) -> dict[str, float]:
    """Dictionary of ground-truth Omega-bar values for gamma resolution."""
    if not materials:
        raise ValueError("need at least one reference material")
    return {m.name: material_feature_theory(m) for m in materials}


def resolve_gamma(
    theta_wrapped: float,
    neg_log_psi: float,
    reference_omegas: dict[str, float],
    max_gamma: int = 4,
    strategy: str = "dictionary",
) -> tuple[int, float]:
    """Resolve the phase-wrap integer of Eq. 21.

    Args:
        theta_wrapped: Measured ``Delta-Theta`` in ``(-pi, pi]`` (paper
            sign convention).
        neg_log_psi: ``-ln(Delta-Psi)`` from the amplitude side.
        reference_omegas: Candidate material features by name (all
            positive).
        max_gamma: Bound on ``|gamma|``.
        strategy: ``"dictionary"`` or ``"envelope"``.

    Returns:
        ``(gamma, omega_estimate)``.
    """
    omegas = list(reference_omegas.values())
    if not omegas:
        raise ValueError("reference_omegas must not be empty")
    if any(not math.isfinite(o) or o <= 0 for o in omegas):
        raise ValueError(f"reference omegas must be finite positive: {omegas}")
    if strategy not in ("dictionary", "envelope"):
        raise ValueError(f"unknown gamma strategy {strategy!r}")
    if not math.isfinite(theta_wrapped) or not math.isfinite(neg_log_psi):
        raise ValueError("theta_wrapped and neg_log_psi must be finite")

    if strategy == "dictionary":
        return _resolve_dictionary(theta_wrapped, neg_log_psi, omegas, max_gamma)
    return _resolve_envelope(theta_wrapped, neg_log_psi, omegas, max_gamma)


def _omega_from(theta_unwrapped: float, neg_log_psi: float) -> float:
    denom = theta_unwrapped
    if abs(denom) < _MIN_DENOMINATOR_RAD:
        denom = math.copysign(_MIN_DENOMINATOR_RAD, denom if denom != 0 else 1.0)
    return neg_log_psi / denom


def _resolve_dictionary(
    theta_wrapped: float,
    neg_log_psi: float,
    omegas: list[float],
    max_gamma: int,
) -> tuple[int, float]:
    best_gamma = 0
    best_residual = math.inf
    for omega_c in omegas:
        predicted = neg_log_psi / omega_c  # amplitude-side unwrapped phase
        gamma_c = int(round((predicted - theta_wrapped) / (2.0 * math.pi)))
        gamma_c = max(-max_gamma, min(max_gamma, gamma_c))
        candidate = theta_wrapped + 2.0 * math.pi * gamma_c
        residual = abs(candidate - predicted)
        if residual < best_residual:
            best_residual = residual
            best_gamma = gamma_c
    unwrapped = theta_wrapped + 2.0 * math.pi * best_gamma
    return best_gamma, _omega_from(unwrapped, neg_log_psi)


def _resolve_envelope(
    theta_wrapped: float,
    neg_log_psi: float,
    omegas: list[float],
    max_gamma: int,
) -> tuple[int, float]:
    lo = min(omegas) * 0.8
    hi = max(omegas) * 1.25
    centre = math.sqrt(lo * hi)
    best: tuple[float, int, float] | None = None
    fallback: tuple[float, int, float] | None = None
    for gamma in range(-max_gamma, max_gamma + 1):
        unwrapped = theta_wrapped + 2.0 * math.pi * gamma
        if abs(unwrapped) < _MIN_DENOMINATOR_RAD:
            continue
        omega = neg_log_psi / unwrapped
        if omega > 0:
            # Distance to the envelope centre in log space.
            score = abs(math.log(omega / centre))
            if lo <= omega <= hi:
                if best is None or score < best[0]:
                    best = (score, gamma, omega)
            if fallback is None or score < fallback[0]:
                fallback = (score, gamma, omega)
    chosen = best if best is not None else fallback
    if chosen is None:
        # No gamma gives a positive omega; report the principal value.
        return 0, _omega_from(theta_wrapped, neg_log_psi)
    return chosen[1], chosen[2]


def resolve_gamma_with_coarse(
    theta_wrapped: float,
    neg_log_psi: float,
    omega_coarse: float,
    max_gamma: int = 4,
) -> tuple[int, float]:
    """Unwrap the precise pair's phase using a coarse Omega-bar estimate.

    The amplitude side predicts the unwrapped phase as
    ``neg_log_psi / omega_coarse``; ``gamma`` is the integer bringing the
    wrapped measurement onto that prediction.  Robust as long as the
    coarse estimate is within ~60% of the truth (half a wrap at typical
    levers).
    """
    if not math.isfinite(omega_coarse) or omega_coarse <= 0:
        raise ValueError(
            f"omega_coarse must be finite positive, got {omega_coarse}"
        )
    predicted = neg_log_psi / omega_coarse
    gamma = int(round((predicted - theta_wrapped) / (2.0 * math.pi)))
    gamma = max(-max_gamma, min(max_gamma, gamma))
    unwrapped = theta_wrapped + 2.0 * math.pi * gamma
    return gamma, _omega_from(unwrapped, neg_log_psi)


def coarse_omega_estimate(
    theta_wrapped: float,
    neg_log_psi: float,
    reference_omegas: dict[str, float],
    max_gamma: int = 1,
) -> float:
    """Coarse Omega-bar from a small-lever pair's (theta, N) pair.

    A small-lever pair keeps ``|DeltaTheta| < pi`` for every plausible
    material, so the principal value (``gamma = 0``) is normally correct;
    if it falls far outside the physical envelope, the nearest in-envelope
    branch is used instead.
    """
    omegas = list(reference_omegas.values())
    if not omegas:
        raise ValueError("reference_omegas must not be empty")
    lo = min(omegas) * 0.5
    hi = max(omegas) * 2.0
    principal = _omega_from(theta_wrapped, neg_log_psi)
    if lo <= principal <= hi:
        return principal
    _, omega = _resolve_envelope(theta_wrapped, neg_log_psi, omegas, max_gamma)
    return omega


@dataclass
class FeatureMeasurement:
    """One session's extracted material feature and its diagnostics.

    Attributes:
        omegas: Omega-bar per selected subcarrier at the resolved gamma.
        delta_theta: Unwrapped ``Delta-Theta`` per selected subcarrier (rad).
        delta_psi: ``Delta-Psi`` per selected subcarrier.
        gamma: Resolved phase-wrap integer.
        pair: Antenna pair used.
        subcarriers: Selected subcarrier positions (0-based).
        material_name: Ground-truth label if known ("" otherwise).
        theta_aligned: Wrapped per-subcarrier phase changes, aligned to one
            branch (adding ``2 gamma pi`` to these gives ``delta_theta``);
            kept so alternative branches can be evaluated cheaply.
        neg_log_psi: Per-subcarrier ``-ln DeltaPsi``.
        omega_coarse: Coarse Omega-bar from the small-lever pair, or NaN
            when unavailable.  Appended to the feature vector: it is
            branch-independent, so it anchors branch resolution against
            the material database.
    """

    omegas: np.ndarray
    delta_theta: np.ndarray
    delta_psi: np.ndarray
    gamma: int
    pair: tuple[int, int]
    subcarriers: list[int] = field(default_factory=list)
    material_name: str = ""
    theta_aligned: np.ndarray | None = None
    neg_log_psi: np.ndarray | None = None
    omega_coarse: float = float("nan")
    include_coarse: bool = True

    @property
    def omega_mean(self) -> float:
        """Scalar feature: mean Omega-bar over the selected subcarriers."""
        return float(np.mean(self.omegas))

    @property
    def has_coarse(self) -> bool:
        """Whether a coarse-pair Omega-bar feature should be emitted."""
        return self.include_coarse and math.isfinite(self.omega_coarse)

    def vector(self) -> np.ndarray:
        """Feature vector for the classifier.

        Per-subcarrier Omega-bar values, plus the coarse-pair Omega-bar
        when available.
        """
        base = np.asarray(self.omegas, dtype=float)
        if self.has_coarse:
            return np.append(base, self.omega_coarse)
        return base

    def vector_for_gamma(self, gamma: int) -> np.ndarray:
        """The feature vector this session would have at another branch.

        Used by the identify-time branch search: the database is scanned
        for the branch whose features land nearest a known material.
        """
        if self.theta_aligned is None or self.neg_log_psi is None:
            raise ValueError(
                "measurement lacks per-subcarrier observables; "
                "re-extract with a current MaterialFeatureExtractor"
            )
        omegas = np.array(
            [
                _omega_from(theta + 2.0 * math.pi * gamma, n)
                for theta, n in zip(self.theta_aligned, self.neg_log_psi)
            ]
        )
        if self.has_coarse:
            return np.append(omegas, self.omega_coarse)
        return omegas

    def vectors_for_gammas(self, gammas: np.ndarray) -> np.ndarray:
        """:meth:`vector_for_gamma` of every branch in ``gammas`` at once.

        Row ``i`` equals ``vector_for_gamma(gammas[i])`` bit for bit: the
        same ``theta + 2 pi gamma``, the same ``_MIN_DENOMINATOR_RAD``
        clamp (an exact zero clamps to ``+``), the same division.
        """
        if self.theta_aligned is None or self.neg_log_psi is None:
            raise ValueError(
                "measurement lacks per-subcarrier observables; "
                "re-extract with a current MaterialFeatureExtractor"
            )
        theta = np.asarray(self.theta_aligned, dtype=float)
        shifts = 2.0 * math.pi * np.asarray(gammas, dtype=float)
        denom = theta[None, :] + shifts[:, None]
        small = np.abs(denom) < _MIN_DENOMINATOR_RAD
        tiny = denom[small]
        denom[small] = np.copysign(
            _MIN_DENOMINATOR_RAD, np.where(tiny != 0, tiny, 1.0)
        )
        omegas = np.asarray(self.neg_log_psi, dtype=float)[None, :] / denom
        if self.has_coarse:
            coarse = np.full((omegas.shape[0], 1), self.omega_coarse)
            return np.hstack([omegas, coarse])
        return omegas


@dataclass
class SessionFeatures:
    """All feature blocks extracted from one session.

    WiMi can fuse the Omega-bar blocks of several precise antenna pairs
    (Sec. III-F observes that a p-antenna receiver offers p(p-1)/2 usable
    pairs); each block is one :class:`FeatureMeasurement`.  The classifier
    consumes the concatenation of the block vectors.
    """

    measurements: list[FeatureMeasurement]
    material_name: str = ""
    #: Quality report of the source session when the extraction ran under
    #: quality gating (None for ungated extraction).
    quality: SessionQualityReport | None = None

    def __post_init__(self) -> None:
        if not self.measurements:
            raise ValueError("SessionFeatures needs at least one measurement")
        if not self.material_name:
            self.material_name = self.measurements[0].material_name

    def vector(self) -> np.ndarray:
        """Concatenated feature vector across blocks."""
        return np.concatenate([m.vector() for m in self.measurements])

    def block_slices(self) -> list[slice]:
        """Column ranges of each block inside :meth:`vector`."""
        slices = []
        offset = 0
        for m in self.measurements:
            size = m.vector().size
            slices.append(slice(offset, offset + size))
            offset += size
        return slices

    @property
    def omega_mean(self) -> float:
        """Scalar summary: mean Omega-bar of the first (main) block."""
        return self.measurements[0].omega_mean


class MaterialFeatureExtractor:
    """Computes :class:`FeatureMeasurement` from capture sessions."""

    def __init__(
        self,
        reference_omegas: dict[str, float],
        calibrator: PhaseCalibrator | None = None,
        amplitude: AmplitudeProcessor | None = None,
        gamma_strategy: str = "dictionary",
    ):
        if not reference_omegas:
            raise ValueError("reference_omegas must not be empty")
        self.reference_omegas = reference_omegas
        self.calibrator = calibrator if calibrator is not None else PhaseCalibrator()
        self.amplitude = amplitude if amplitude is not None else AmplitudeProcessor()
        self.gamma_strategy = gamma_strategy

    # ------------------------------------------------------------------

    def phase_observable(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> np.ndarray:
        """Per-subcarrier Eq. 18 wrapped phase change, shape ``(K,)``.

        In the paper's sign convention: measured CSI phase decreases with
        delay, so the raw difference is negated once.
        """
        base_pd = self.calibrator.averaged_phase_difference(
            session.baseline, pair
        )
        tar_pd = self.calibrator.averaged_phase_difference(session.target, pair)
        return -np.asarray(wrap_phase(tar_pd - base_pd))

    def amplitude_observable(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> np.ndarray:
        """Per-subcarrier Eq. 19 ``-ln DeltaPsi``, shape ``(K,)``."""
        base_ratio = self.amplitude.averaged_amplitude_ratio(
            session.baseline, pair
        )
        tar_ratio = self.amplitude.averaged_amplitude_ratio(
            session.target, pair
        )
        return -np.log(tar_ratio / base_ratio)

    def pair_observables(
        self,
        session: CaptureSession,
        pair: tuple[int, int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-subcarrier ``(theta_wrapped, -ln DeltaPsi)`` for one pair.

        ``theta_wrapped`` is the Eq. 18 phase change in the paper's sign
        convention; ``-ln DeltaPsi`` is the Eq. 19 amplitude observable.
        """
        return (
            self.phase_observable(session, pair),
            self.amplitude_observable(session, pair),
        )

    def measure(
        self,
        session: CaptureSession,
        pair: tuple[int, int],
        subcarriers: list[int],
        coarse_pair: tuple[int, int] | None = None,
        true_omega: float | None = None,
        include_coarse_feature: bool = True,
        coarse_fallback: bool = False,
    ) -> FeatureMeasurement:
        """Extract the material feature from one paired session.

        Args:
            session: The paired baseline/target capture.
            pair: Main (precise) antenna pair.
            subcarriers: Selected good subcarriers (0-based positions).
            coarse_pair: Small-lever pair for coarse gamma resolution; its
                Omega-bar estimate is also appended to the feature vector.
            true_omega: When the material is known (training), its
                ground-truth Omega-bar -- gamma is then resolved exactly,
                which is how the labelled feature database is built.
        """
        theta_wrapped_all, neg_log_psi_all = self.pair_observables(
            session, pair
        )
        coarse_observables = None
        if coarse_pair is not None and coarse_pair != pair:
            coarse_observables = self.pair_observables(session, coarse_pair)
        return self.measure_from_observables(
            pair,
            subcarriers,
            theta_wrapped_all,
            neg_log_psi_all,
            coarse_observables=coarse_observables,
            true_omega=true_omega,
            include_coarse_feature=include_coarse_feature,
            material_name=session.material_name,
            coarse_fallback=coarse_fallback,
        )

    def measure_from_observables(
        self,
        pair: tuple[int, int],
        subcarriers: list[int],
        theta_wrapped_all: np.ndarray,
        neg_log_psi_all: np.ndarray,
        coarse_observables: tuple[np.ndarray, np.ndarray] | None = None,
        true_omega: float | None = None,
        include_coarse_feature: bool = True,
        material_name: str = "",
        coarse_fallback: bool = False,
    ) -> FeatureMeasurement:
        """Extract the feature from precomputed per-pair observables.

        This is the stage-graph entry point: the pipeline engine memoizes
        :meth:`phase_observable` / :meth:`amplitude_observable` per
        (session, pair) and feeds the cached arrays here, so repeated
        extraction never re-runs calibration or denoising.

        Args:
            pair: Main (precise) antenna pair the observables belong to.
            subcarriers: Selected good subcarriers (0-based positions).
            theta_wrapped_all: Eq. 18 wrapped phase change, shape ``(K,)``.
            neg_log_psi_all: Eq. 19 ``-ln DeltaPsi``, shape ``(K,)``.
            coarse_observables: The same two arrays for the small-lever
                coarse pair, or ``None`` when unavailable.
            true_omega: Ground-truth Omega-bar during training.
            include_coarse_feature: Append the coarse Omega-bar to the
                feature vector.
            material_name: Ground-truth label if known.
        """
        if not subcarriers:
            raise ValueError("need at least one selected subcarrier")

        theta_sel = theta_wrapped_all[subcarriers]
        n_sel = neg_log_psi_all[subcarriers]

        # Boundary guard: a NaN here would otherwise surface three stages
        # later as a garbage classification.  Name the culprits.
        bad_theta = [
            int(k)
            for k, v in zip(subcarriers, theta_sel)
            if not math.isfinite(v)
        ]
        bad_n = [
            int(k)
            for k, v in zip(subcarriers, n_sel)
            if not math.isfinite(v)
        ]
        if bad_theta or bad_n:
            parts = []
            if bad_theta:
                parts.append(f"phase observable at subcarrier(s) {bad_theta}")
            if bad_n:
                parts.append(
                    f"amplitude observable at subcarrier(s) {bad_n}"
                )
            raise CorruptTraceError(
                f"non-finite {' and '.join(parts)} for antenna pair "
                f"{pair}; the channel is dead or saturated there -- "
                f"re-select subcarriers with these excluded"
            )
        psi_sel = np.exp(-n_sel)

        # Aggregate over the selected subcarriers (they share the
        # geometry, hence the same gamma).
        theta_agg = circular_mean(theta_sel)
        n_agg = float(np.mean(n_sel))

        # Coarse-pair estimate (branch-independent feature + gamma anchor).
        omega_coarse = float("nan")
        if coarse_observables is not None:
            # The coarse pair is aggregated over *all* subcarriers with
            # medians: its own good subcarriers are unknown (selection ran
            # on the main pair) and coarse robustness beats precision here.
            # Degraded subcarriers are simply excluded; if the whole coarse
            # pair is dead the estimate stays NaN and gamma resolution
            # falls back to the configured strategy.
            coarse_theta, coarse_n = coarse_observables
            coarse_theta_agg = circular_mean(coarse_theta, ignore_nan=True)
            coarse_n_agg = float(finite_median(coarse_n))
            if math.isfinite(coarse_theta_agg) and math.isfinite(coarse_n_agg):
                omega_coarse = coarse_omega_estimate(
                    coarse_theta_agg,
                    coarse_n_agg,
                    self.reference_omegas,
                )
        if (
            coarse_fallback
            and include_coarse_feature
            and not math.isfinite(omega_coarse)
        ):
            # Degraded capture: the small-lever pair is dead (or no live
            # substitute exists) but the feature vector must keep its
            # training-time width.  Estimate the coarse anchor from the
            # main pair's own observables instead -- coarser than a real
            # small-lever reading, still branch-independent.
            omega_coarse = coarse_omega_estimate(
                theta_agg, n_agg, self.reference_omegas
            )

        # Resolve gamma: exactly from the label during training, else from
        # the coarse pair, else from the configured fallback strategy.
        if true_omega is not None:
            gamma, _ = resolve_gamma_with_coarse(
                theta_agg, n_agg, true_omega, MAX_GAMMA
            )
        elif math.isfinite(omega_coarse) and omega_coarse > 0:
            gamma, _ = resolve_gamma_with_coarse(
                theta_agg, n_agg, omega_coarse, MAX_GAMMA
            )
        else:
            gamma, _ = resolve_gamma(
                theta_agg,
                n_agg,
                self.reference_omegas,
                MAX_GAMMA,
                self.gamma_strategy,
            )

        # Align each subcarrier's wrapped phase to the aggregate branch so
        # that a single ``+ 2 gamma pi`` moves all of them together.
        theta_aligned = np.array(
            [
                theta_agg + float(wrap_phase(theta_k - theta_agg))
                for theta_k in theta_sel
            ]
        )
        thetas = theta_aligned + 2.0 * math.pi * gamma
        omegas = np.array(
            [_omega_from(t, n) for t, n in zip(thetas, n_sel)]
        )

        return FeatureMeasurement(
            omegas=omegas,
            delta_theta=thetas,
            delta_psi=np.asarray(psi_sel),
            gamma=gamma,
            pair=pair,
            subcarriers=list(subcarriers),
            material_name=material_name,
            theta_aligned=theta_aligned,
            neg_log_psi=np.asarray(n_sel),
            omega_coarse=omega_coarse,
            include_coarse=include_coarse_feature,
        )
