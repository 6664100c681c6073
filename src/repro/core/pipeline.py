"""The end-to-end WiMi system (paper Fig. 5).

:class:`WiMi` is a facade over the stage-graph engine
(:mod:`repro.engine`), which executes the modules as memoized stages:

    CaptureSession
        -> phase calibration (antenna difference)        [core.phase]
        -> good-subcarrier selection                     [core.subcarrier]
        -> amplitude denoising + ratio                   [core.amplitude]
        -> material feature Omega-bar                    [core.feature]
        -> database + classifier                         [core.database]

Every stage result is a typed artifact keyed by a content hash of
(session bytes, antenna pair, stage-relevant config), so repeated
``extract``/``identify`` calls -- and experiment sweeps sharing a
:class:`repro.engine.StageCache` -- never recompute calibration or
denoising for data they have already seen.

Typical use::

    from repro import WiMi, WiMiConfig

    wimi = WiMi(reference_omegas, WiMiConfig())
    wimi.fit(training_sessions)           # sessions carry labels
    name = wimi.identify(test_session)    # -> "pepsi"

    names = wimi.identify_batch(test_sessions)      # batch variant
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from collections.abc import Mapping
from types import MappingProxyType

from repro.core.amplitude import AmplitudeProcessor
from repro.core.antenna import AntennaPairSelector
from repro.core.config import (
    KNN_K,
    MAX_GAMMA,
    OUTLIER_SIGMAS,
    SVM_C,
    WAVELET_LEVELS,
    WAVELET_NAME,
    WiMiConfig,
)
from repro.core.database import (
    DatabaseClassifier,
    MaterialDatabase,
    check_legacy_precision,
)
from repro.core.feature import (
    FeatureMeasurement,
    MaterialFeatureExtractor,
    SessionFeatures,
)
from repro.core.phase import PhaseCalibrator
from repro.core.streaming import (
    STREAM_HOP,
    STREAM_WINDOW_SIZE,
    StreamingExtractor,
)
from repro.core.subcarrier import SubcarrierSelector
from repro.csi.collector import CaptureSession
from repro.csi.quality import (
    CorruptTraceError,
    SessionQualityReport,
    gate_report,
    quality_thresholds,
)
from repro.dsp.stats import finite_mean
from repro.engine.artifacts import ClassificationArtifact, config_fingerprint
from repro.engine.cache import StageCache
from repro.engine.graph import PipelineEngine

#: Config fields that locate persistent state rather than shaping
#: results; excluded from the manifest config fingerprint so the same
#: trained model mounted at a different path stays the same model.
_LOCATION_FIELDS = ("artifact_store_path", "model_registry_path")


def _deployment_config_fingerprint(config: WiMiConfig) -> str:
    """Fingerprint of every result-shaping config field."""
    fields = tuple(
        f.name
        for f in dataclasses.fields(WiMiConfig)
        if f.name not in _LOCATION_FIELDS
    )
    return config_fingerprint(config, fields)


Pair = tuple[int, int]


def _as_pair(value) -> Pair:
    i, j = value
    return (int(i), int(j))


@dataclasses.dataclass(frozen=True)
class DeploymentCalibration:
    """The antenna pairs and good subcarriers fixed for one deployment.

    The paper chooses both once per deployment (Sec. III-B names the good
    subcarriers, Sec. III-F picks the most stable antenna pair) and
    reuses them for every measurement.  :meth:`WiMi.calibrate` builds
    this record; every view of the pipeline shares it, and the model
    registry stores it (:meth:`to_state`/:meth:`from_state`).  Fields are
    normalised to tuples of ints and ``subcarriers`` is a read-only
    mapping, so the record cannot change after it is built.

    Attributes:
        feature_pairs: Pairs whose feature blocks form the vector, the
            main pair first.
        ranked_pairs: Every precise pair, most stable first; a degraded
            session whose pair touches a dead antenna falls back along
            this ranking.
        coarse_pair: Smallest-lever pair for coarse gamma resolution
            (None when the deployment has none).
        subcarriers: Good subcarriers of each feature pair.
    """

    feature_pairs: tuple[Pair, ...]
    ranked_pairs: tuple[Pair, ...]
    coarse_pair: Pair | None
    subcarriers: Mapping[Pair, tuple[int, ...]]

    def __post_init__(self) -> None:
        fields = {
            "feature_pairs": tuple(_as_pair(p) for p in self.feature_pairs),
            "ranked_pairs": tuple(_as_pair(p) for p in self.ranked_pairs),
            "coarse_pair": (
                _as_pair(self.coarse_pair) if self.coarse_pair else None
            ),
            "subcarriers": MappingProxyType(
                {
                    _as_pair(pair): tuple(int(k) for k in chosen)
                    for pair, chosen in self.subcarriers.items()
                }
            ),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not self.feature_pairs:
            raise ValueError("a calibration needs at least one feature pair")
        missing = [p for p in self.feature_pairs if p not in self.subcarriers]
        if missing:
            raise ValueError(f"no subcarriers for feature pair(s) {missing}")

    @property
    def pair(self) -> Pair:
        """The main antenna pair."""
        return self.feature_pairs[0]

    @property
    def main_subcarriers(self) -> tuple[int, ...]:
        """The good subcarriers of the main pair (possibly empty)."""
        return self.subcarriers[self.pair]

    def to_state(self) -> dict:
        """JSON-ready state, in the registry bundle's calibration layout.

        ``pair`` and ``subcarriers`` are derived from the other fields;
        they are written so bundles keep one layout across versions.
        """
        return {
            "pair": list(self.pair),
            "feature_pairs": [list(p) for p in self.feature_pairs],
            "ranked_pairs": [list(p) for p in self.ranked_pairs],
            "coarse_pair": list(self.coarse_pair) if self.coarse_pair else None,
            "subcarriers": list(self.main_subcarriers),
            "subcarriers_by_pair": {
                f"{i},{j}": list(chosen)
                for (i, j), chosen in self.subcarriers.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "DeploymentCalibration":
        """Rebuild from :meth:`to_state`; refuses inconsistent state."""
        calibration = cls(
            feature_pairs=state["feature_pairs"] or (),
            ranked_pairs=state["ranked_pairs"],
            coarse_pair=state["coarse_pair"],
            subcarriers={
                tuple(key.split(",")): chosen
                for key, chosen in state["subcarriers_by_pair"].items()
            },
        )
        derived = calibration.to_state()
        for key in ("pair", "subcarriers"):
            if state[key] != derived[key]:
                raise ValueError(
                    f"saved calibration has {key}={state[key]!r} but its "
                    f"feature pairs give {derived[key]!r}"
                )
        return calibration


class WiMi:
    """Commodity Wi-Fi material identification, end to end.

    Args:
        reference_omegas: Material feature dictionary used to resolve the
            phase-wrap ``gamma`` (Eq. 21); normally the theory values of
            the candidate materials, see
            :func:`repro.core.feature.theory_reference_omegas`.
        config: Pipeline configuration; defaults to the paper's choices.
        cache: Stage-artifact cache.  Defaults to a private cache; pass a
            shared :class:`repro.engine.StageCache` to reuse calibration
            and denoising artifacts across several ``WiMi`` instances
            (e.g. a classifier sweep over one dataset).
    """

    def __init__(
        self,
        reference_omegas: dict[str, float],
        config: WiMiConfig | None = None,
        cache: StageCache | None = None,
    ):
        self.config = config if config is not None else WiMiConfig()
        self.calibrator = PhaseCalibrator()
        self.subcarrier_selector = SubcarrierSelector(self.calibrator)
        self.amplitude = AmplitudeProcessor(
            denoise=self.config.denoise_amplitude
        )
        self.pair_selector = AntennaPairSelector(self.subcarrier_selector)
        self.extractor = MaterialFeatureExtractor(
            reference_omegas,
            calibrator=self.calibrator,
            amplitude=self.amplitude,
            gamma_strategy=self.config.gamma_strategy,
        )
        if cache is not None:
            self.cache = cache
        elif self.config.artifact_store_path is not None:
            from repro.persist.store import ArtifactStore

            self.cache = StageCache(
                disk_store=ArtifactStore(self.config.artifact_store_path)
            )
        else:
            self.cache = StageCache()
        self.engine = PipelineEngine(
            extractor=self.extractor,
            subcarrier_selector=self.subcarrier_selector,
            config=self.config,
            cache=self.cache,
        )
        self.database = MaterialDatabase()
        self._classifier: DatabaseClassifier | None = None
        self._classifier_token: str = ""
        #: Fixed by :meth:`calibrate` (None before); extraction needs it.
        self.calibration: DeploymentCalibration | None = None

    # ------------------------------------------------------------------
    # Concurrency views
    # ------------------------------------------------------------------

    def clone_view(self, cache: StageCache | None = None) -> "WiMi":
        """A facade sharing this instance's state but owning its engine.

        The view shares the (read-only after ``fit``) heavy components --
        extractor, calibrator, denoiser, database, trained classifier,
        the frozen :class:`DeploymentCalibration` -- and, by default,
        the stage cache, but gets a *private*
        :class:`repro.engine.PipelineEngine` and therefore a private
        hook list.  That is the shape the serving worker pool needs: N
        threads identifying concurrently, every artifact shared through
        one :class:`repro.engine.StageCache`, per-worker hooks never
        contending.

        Args:
            cache: Stage cache of the view; defaults to sharing this
                instance's cache.  Pass a fresh ``StageCache()`` to get
                an artifact-cold view (used by the serving benchmark's
                sequential baseline).
        """
        view = copy.copy(self)
        view.cache = cache if cache is not None else self.cache
        view.engine = PipelineEngine(
            extractor=self.extractor,
            subcarrier_selector=self.subcarrier_selector,
            config=self.config,
            cache=view.cache,
        )
        return view

    # ------------------------------------------------------------------
    # Deployment calibration
    # ------------------------------------------------------------------

    def calibrate(self, sessions: list[CaptureSession]) -> "WiMi":
        """Fix the antenna pair and good subcarriers for a deployment.

        The paper performs both choices once per deployment (Sec. III-B
        names subcarriers 5, 20, 23, 24; Sec. III-F picks the most stable
        antenna pair) and then reuses them for every measurement.  ``fit``
        calls this automatically on the training sessions.  The result is
        :attr:`calibration`.
        """
        if not sessions:
            raise ValueError("need at least one calibration session")
        ranked = self._rank_pairs(sessions)

        # The coarse (smallest-lever) pair is reserved for gamma
        # resolution: it is "stable" in the variance sense but carries the
        # least material signal, so it must not crowd out a precise pair.
        coarse_pair = self._find_coarse_pair(sessions[0], None)
        precise = [p for p in ranked if p != coarse_pair] or ranked

        if self.config.antenna_pair is not None:
            pair = self.config.antenna_pair
            if max(pair) >= sessions[0].num_antennas:
                raise ValueError(
                    f"configured pair {pair} needs more antennas than the "
                    f"session's {sessions[0].num_antennas}"
                )
        else:
            pair = precise[0]

        # Feature pairs: the main pair, then the next most stable precise
        # ones.
        wanted = min(self.config.num_feature_pairs, len(precise))
        feature_pairs = [pair]
        for candidate in precise:
            if len(feature_pairs) >= wanted:
                break
            if candidate != pair:
                feature_pairs.append(candidate)

        override = self.config.subcarrier_override
        self.calibration = DeploymentCalibration(
            feature_pairs=tuple(feature_pairs),
            ranked_pairs=tuple(precise),
            coarse_pair=coarse_pair,
            subcarriers={
                fp: (
                    override
                    if override is not None
                    else self.engine.select_subcarriers(
                        sessions, fp, count=self.config.num_good_subcarriers
                    ).subcarriers
                )
                for fp in feature_pairs
            },
        )
        return self

    def _rank_pairs(self, sessions: list[CaptureSession]) -> list[tuple[int, int]]:
        """All antenna pairs, most stable first (pooled over sessions)."""
        if sessions[0].num_antennas < 2:
            raise ValueError("need at least two receive antennas")
        scores: dict[tuple[int, int], float] = {}
        probe = sessions[: min(len(sessions), 5)]
        for session in probe:
            for stat in self.pair_selector.rank(session):
                scores[stat.pair] = scores.get(stat.pair, 0.0) + stat.score
        return sorted(scores, key=lambda p: scores[p])

    def _find_coarse_pair(
        self,
        session: CaptureSession,
        main_pair: tuple[int, int] | None,
        exclude_antennas: tuple[int, ...] = (),
    ) -> tuple[int, int] | None:
        """The smallest-lever pair, used for coarse gamma resolution.

        ``-ln DeltaPsi`` scales with the pair's path-length-difference
        lever for any material, so the pair with the smallest aggregate
        ``|N|`` is the smallest-lever one -- identifiable from a single
        session without knowing the geometry.  ``exclude_antennas``
        removes quality-disqualified chains from the candidate set;
        returns None when no candidate (with a finite lever) remains.
        """
        if not self.config.use_coarse_pair or session.num_antennas < 3:
            return None
        try:
            candidates = [
                p
                for p in self.pair_selector.all_pairs(
                    session.baseline, exclude_antennas or None
                )
                if main_pair is None or p != main_pair
            ]
        except CorruptTraceError:
            return None
        best_pair = None
        best_n = float("inf")
        for pair in candidates:
            n_all = self.engine.observables(session, pair).neg_log_psi
            magnitude = abs(float(finite_mean(n_all)))
            if magnitude < best_n:
                best_n = magnitude
                best_pair = pair
        return best_pair

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------

    def _subcarriers_for(
        self,
        session: CaptureSession,
        pair: tuple[int, int],
        exclude: tuple[int, ...] = (),
    ) -> list[int]:
        """Calibrated subcarriers for ``pair``, or a fresh selection.

        A pair outside the calibration (a degraded session's substitute)
        takes the override, else the main pair's subcarriers.  Uses an
        explicit ``is None`` check: a legitimately-empty calibrated list
        must not fall through to re-selection.

        ``exclude`` (quality-disqualified subcarriers) removes members
        of the calibrated/override list and tops the selection back up
        to the original width from the session's own quality-filtered
        ranking -- the feature vector must keep its training-time width
        or the classifier rejects it.  Raises
        :class:`~repro.csi.quality.CorruptTraceError` when too few
        usable subcarriers remain to preserve that width.
        """
        selected = self.calibration.subcarriers.get(pair)
        if selected is None and self.config.subcarrier_override is not None:
            selected = self.config.subcarrier_override
        if selected is not None:
            if not exclude:
                return list(selected)
            banned = set(int(k) for k in exclude)
            kept = [k for k in selected if k not in banned]
            missing = len(selected) - len(kept)
            if missing == 0:
                return kept
            # Top up from a fresh quality-aware per-session selection so
            # the vector keeps its calibrated width.
            refill = self.engine.select_subcarriers(
                [session],
                pair,
                count=missing,
                exclude=tuple(banned | set(kept)),
            ).subcarriers
            if len(refill) < missing:
                raise CorruptTraceError(
                    f"cannot replace {missing} disqualified subcarrier(s) "
                    f"{sorted(banned & set(selected))} for pair {pair}: "
                    f"only {len(refill)} usable substitutes remain"
                )
            return sorted(kept + list(refill))
        if not exclude:
            return list(self.calibration.main_subcarriers)
        count = self.config.num_good_subcarriers
        chosen = list(
            self.engine.select_subcarriers(
                [session], pair, count=count, exclude=exclude
            ).subcarriers
        )
        if exclude and len(chosen) < count:
            raise CorruptTraceError(
                f"only {len(chosen)} usable subcarriers remain for pair "
                f"{pair} after excluding {sorted(set(exclude))} "
                f"(need {count})"
            )
        return chosen

    # ------------------------------------------------------------------
    # Quality boundary
    # ------------------------------------------------------------------

    def assess(self, session: CaptureSession) -> SessionQualityReport:
        """Memoized quality measurement of one session (both traces)."""
        return SessionQualityReport(
            baseline=self.engine.trace_quality(session.baseline).report,
            target=self.engine.trace_quality(session.target).report,
        )

    def _gate(self, session: CaptureSession) -> SessionQualityReport:
        """Measure + gate a session.

        Returns the report; raises
        :class:`~repro.csi.quality.CorruptTraceError` on hard failures,
        warns :class:`~repro.csi.quality.DegradedTraceWarning` on soft
        ones.
        """
        return gate_report(
            self.assess(session), label=session.material_name or "session"
        )

    def _usable_pairs(
        self, session: CaptureSession, dead: set[int]
    ) -> list[tuple[int, int]]:
        """Precise pairs not touching a dead antenna, most stable first."""
        usable = [
            p for p in self.calibration.ranked_pairs if dead.isdisjoint(p)
        ]
        if usable:
            return usable
        # Every calibrated pair is dead: rank the survivors on this
        # session alone.  rank() itself raises
        # CorruptTraceError when nothing usable remains.
        return [
            s.pair
            for s in self.pair_selector.rank(session, sorted(dead))
        ]

    def _degraded_plan(
        self,
        session: CaptureSession,
        quality: SessionQualityReport,
        pairs: list[tuple[int, int]],
    ) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
        """Feature pairs + coarse pair for a degraded session.

        Every pair touching a dead antenna is substituted by the next
        most stable usable pair (duplicating the best usable pair when
        the receiver has fewer live pairs than the calibrated feature
        width needs -- the vector must keep its training-time shape).
        The coarse pair is re-derived among live antennas, or dropped
        (None) when no live candidate exists.
        """
        dead = set(quality.dead_antennas)
        if dead:
            candidates = self._usable_pairs(session, dead)
            substituted: list[tuple[int, int]] = []
            for pair in pairs:
                if dead.isdisjoint(pair):
                    substituted.append(pair)
                    continue
                replacement = next(
                    (c for c in candidates if c not in substituted),
                    candidates[0],
                )
                substituted.append(replacement)
            pairs = substituted
        coarse = self.calibration.coarse_pair
        if coarse is not None and not dead.isdisjoint(coarse):
            coarse = None
        if (
            coarse is None
            and self.config.use_coarse_pair
            and session.num_antennas - len(dead) >= 3
        ):
            coarse = self._find_coarse_pair(
                session, pairs[0], exclude_antennas=tuple(sorted(dead))
            )
        return pairs, coarse

    def extract(
        self, session: CaptureSession, true_omega: float | None = None
    ) -> SessionFeatures:
        """Run the full pre-processing + feature chain on one session.

        Every stage is memoized: extracting the same session twice (or
        extracting it after ``fit`` already saw it) performs zero
        additional calibrator/denoiser executions.

        The session is measured and gated first; a degraded session is
        processed with fallbacks -- dead antennas excluded from pair
        choice, disqualified subcarriers replaced, the coarse anchor
        re-derived or approximated -- and the resulting
        :class:`~repro.core.feature.SessionFeatures` carries the
        :class:`~repro.csi.quality.SessionQualityReport`.

        Raises :class:`RuntimeError` before :meth:`calibrate` or
        :meth:`fit`: the pairs and subcarriers are the deployment's.
        """
        calibration = self.calibration
        if calibration is None:
            raise RuntimeError(
                "WiMi is not calibrated; call calibrate() or fit() first"
            )
        quality = self._gate(session)
        pairs = list(calibration.feature_pairs)
        coarse = calibration.coarse_pair
        exclude_sc: tuple[int, ...] = ()
        coarse_fallback = False
        if quality.is_degraded:
            pairs, coarse = self._degraded_plan(session, quality, pairs)
            exclude_sc = tuple(quality.bad_subcarriers)
            # Preserve the feature-vector width even when the coarse
            # anchor cannot be measured on a live small-lever pair.
            coarse_fallback = self.config.include_coarse_feature
        if (
            coarse is None
            and not coarse_fallback
            and self.config.use_coarse_pair
            and session.num_antennas >= 3
        ):
            coarse = self._find_coarse_pair(session, pairs[0])
        measurements = []
        for pair in pairs:
            subcarriers = self._subcarriers_for(
                session, pair, exclude=exclude_sc
            )
            artifact = self.engine.extract_feature(
                session,
                pair,
                tuple(subcarriers),
                coarse_pair=coarse if coarse != pair else None,
                true_omega=true_omega,
                include_coarse_feature=self.config.include_coarse_feature,
                coarse_fallback=coarse_fallback,
            )
            measurements.append(artifact.measurement)
        return SessionFeatures(
            measurements=measurements,
            material_name=session.material_name,
            quality=quality,
        )

    def extract_labelled(self, session: CaptureSession) -> SessionFeatures:
        """Extract with gamma resolved from the session's known label.

        Training sessions are labelled, so the phase-wrap integer can be
        fixed exactly from the material's ground-truth Omega-bar -- this
        is how the paper's feature database is built.
        """
        return self.extract(session, true_omega=self._true_omega_for(session))

    def _true_omega_for(self, session: CaptureSession) -> float | None:
        """Ground-truth Omega-bar for a labelled session, if known."""
        return self.extractor.reference_omegas.get(session.material_name)

    # ------------------------------------------------------------------
    # Batch APIs
    # ------------------------------------------------------------------

    def extract_batch(
        self,
        sessions: list[CaptureSession],
        true_omegas: list[float | None] | None = None,
    ) -> list[SessionFeatures]:
        """Extract many sessions with one denoiser pass per trace.

        Equivalent to ``[self.extract(s, t) for s, t in zip(...)]`` --
        the results are bit-identical -- but the denoising stage is
        warmed for the whole batch up front, so every antenna pair
        (feature pairs *and* the coarse pair) shares a single cleaned
        amplitude cube per trace.

        Args:
            sessions: Sessions to extract.
            true_omegas: Optional per-session ground-truth Omega-bar
                values (training mode); ``None`` entries mean unknown.
        """
        if true_omegas is None:
            true_omegas = [None] * len(sessions)
        if len(true_omegas) != len(sessions):
            raise ValueError(
                f"true_omegas length {len(true_omegas)} does not match "
                f"{len(sessions)} sessions"
            )
        # Single denoiser pass per trace: warm the hot stage for the
        # whole batch before any per-pair work fans out over the cubes.
        for session in sessions:
            self.engine.amplitude_denoise(session.baseline)
            self.engine.amplitude_denoise(session.target)
        return [
            self.extract(session, true_omega=omega)
            for session, omega in zip(sessions, true_omegas)
        ]

    def extract_labelled_batch(
        self, sessions: list[CaptureSession]
    ) -> list[SessionFeatures]:
        """Batch :meth:`extract_labelled` (training-side batch API)."""
        return self.extract_batch(
            sessions, [self._true_omega_for(s) for s in sessions]
        )

    def identify_batch(self, sessions: list[CaptureSession]) -> list[str]:
        """Identify many test sessions, reusing every cached stage.

        Returns predictions in session order; identical to calling
        :meth:`identify` per session.
        """
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        return [
            self._classify(features).label
            for features in self.extract_batch(sessions)
        ]

    def _omega_envelope(self) -> tuple[float, float]:
        """Generous physical envelope of the reference Omega-bar values."""
        values = self.extractor.reference_omegas.values()
        return (min(values) * 0.4, max(values) * 2.0)

    # ------------------------------------------------------------------
    # Training / identification
    # ------------------------------------------------------------------

    def fit(self, sessions: list[CaptureSession]) -> "WiMi":
        """Calibrate on the training sessions, extract their features and
        train the classifier."""
        if not sessions:
            raise ValueError("need at least one training session")
        self.calibrate(sessions)
        self.database = MaterialDatabase()
        for measurement in self.extract_labelled_batch(sessions):
            self.database.add(measurement)
        self._train_classifier()
        return self

    def _train_classifier(self) -> None:
        """Fit the configured classifier on the current database."""
        self._classifier = DatabaseClassifier(
            kind=self.config.classifier
        ).fit(self.database)
        self._classifier_token = self._compute_classifier_token()

    def _compute_classifier_token(self) -> str:
        """Content-derived token of the trained classifier.

        Training is fully deterministic (seeded SMO on a fixed dataset),
        so hashing the training data plus the classifier-shaping config
        identifies the *model*: two processes that trained on the same
        database -- or one that trained and one that loaded the result
        from the registry -- produce the same token, which is what makes
        persisted ``classify`` artifacts valid across processes.  Any
        change to data or config changes the token, so cached labels can
        never be served for a different model.
        """
        digest = hashlib.blake2b(digest_size=12)
        digest.update(self.database.content_hash().encode())
        digest.update(
            repr(
                (
                    self.config.classifier,
                    self._classifier.seed if self._classifier else 0,
                )
            ).encode()
        )
        return f"clf-{digest.hexdigest()}"

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._classifier is not None

    def _classify(self, features: SessionFeatures) -> ClassificationArtifact:
        """Run the classify stage on extracted features."""
        return self.engine.classify(
            features,
            classifier=self._classifier,
            classifier_token=self._classifier_token,
            envelope=self._omega_envelope(),
        )

    def identify(self, session: CaptureSession) -> str:
        """Identify the material of one test session."""
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        return self._classify(self.extract(session)).label

    def identify_measurement(
        self, measurement: SessionFeatures | FeatureMeasurement
    ) -> str:
        """Identify from a pre-extracted measurement."""
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        if isinstance(measurement, FeatureMeasurement):
            measurement = SessionFeatures(measurements=[measurement])
        return self._classify(measurement).label

    def identify_with_confidence(
        self, session: CaptureSession
    ) -> tuple[str, float]:
        """Identify a session and report how decisive the match is.

        The confidence is ``1 - d_nearest / d_second`` over the scaled
        database centroids: near 1 for a clean single-material target,
        near 0 for a target between two materials (e.g. a mixture) or an
        out-of-catalog liquid.  A deployment can threshold it to reject
        targets WiMi was never trained on.
        """
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        artifact = self._classify(self.extract(session))
        return artifact.label, artifact.confidence

    # ------------------------------------------------------------------
    # Streaming identification
    # ------------------------------------------------------------------

    def streaming_extractor(self, scene=None, material_name: str = ""):
        """A :class:`repro.core.streaming.StreamingExtractor` bound to
        this fitted pipeline.

        Push CSI packets as they arrive (``push_baseline`` /
        ``push_target``), poll :meth:`~repro.core.streaming
        .StreamingExtractor.estimate` for the converging preview, and
        :meth:`~repro.core.streaming.StreamingExtractor.finalize` for
        the classified result, which is :meth:`extract` of the buffered
        session.  See :mod:`repro.core.streaming` for the window
        semantics (``STREAM_WINDOW_SIZE``/``STREAM_HOP``).
        """
        return StreamingExtractor(
            self, scene=scene, material_name=material_name
        )

    # ------------------------------------------------------------------
    # Model registry (warm-start serving)
    # ------------------------------------------------------------------

    def save_to_registry(
        self,
        registry=None,
        name: str = "wimi",
        metrics: dict | None = None,
        promote: bool = True,
    ) -> str:
        """Persist the fitted model as a registry version; returns it.

        The bundle captures everything a fresh process needs to serve
        without retraining: reference Omega-bar dictionary, full config,
        deployment calibration (pairs/subcarriers), the feature database
        and the trained classifier.  The manifest records the
        result-shaping config fingerprint, the training-set hash, the
        classifier token and any caller-supplied ``metrics``.

        Args:
            registry: A :class:`repro.persist.ModelRegistry` or a path;
                defaults to ``config.model_registry_path``.
            name: Model name inside the registry.
            metrics: Evaluation numbers to record in the manifest.
            promote: Whether the new version becomes CURRENT.
        """
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        registry = self._resolve_registry(registry)

        db_meta, db_arrays = self.database.to_state()
        clf_meta, clf_arrays = self._classifier.to_state()
        meta = {
            "reference_omegas": {
                str(k): float(v)
                for k, v in self.extractor.reference_omegas.items()
            },
            "config": dataclasses.asdict(self.config),
            "calibration": self.calibration.to_state(),
            "database": db_meta,
            "classifier": clf_meta,
            "classifier_token": self._classifier_token,
        }
        arrays = {**db_arrays, **clf_arrays}
        manifest = {
            "config_fingerprint": _deployment_config_fingerprint(self.config),
            "training_set_hash": self.database.content_hash(),
            "classifier_token": self._classifier_token,
            "materials": self.database.labels,
            "num_entries": len(self.database),
            "metrics": metrics or {},
        }
        return registry.save(
            name, meta, arrays, manifest=manifest, promote=promote
        )

    @classmethod
    def from_registry(
        cls,
        registry,
        name: str = "wimi",
        version: str | None = None,
        cache: StageCache | None = None,
        config_overrides: dict | None = None,
    ) -> "WiMi":
        """Warm-start: rebuild a fitted pipeline from a registry bundle.

        The returned instance serves identify requests immediately --
        calibration, database and classifier are restored bit-exactly,
        and the classifier token matches what a fresh training run on
        the same data would produce, so persisted ``classify`` artifacts
        resolve across the process boundary.

        Args:
            registry: A :class:`repro.persist.ModelRegistry` or a path.
            name: Model name inside the registry.
            version: Version to load (default: CURRENT).
            cache: Optional stage cache (defaults to mounting the
                restored config's ``artifact_store_path``).
            config_overrides: Config fields to replace on load -- e.g.
                repoint ``artifact_store_path`` on a machine with a
                different filesystem layout.
        """
        from repro.persist.registry import ModelRegistry

        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        meta, arrays, _manifest = registry.load(name, version)

        config_dict = dict(meta["config"])
        check_legacy_precision(
            config_dict.pop("compute_precision", "float64"),
            "compute_precision",
        )
        # Bundles saved while these were config fields record them; only
        # the values the constants keep still load.
        for field, constant in (
            ("stream_window_size", STREAM_WINDOW_SIZE),
            ("stream_hop", STREAM_HOP),
            ("wavelet_name", WAVELET_NAME),
            ("wavelet_levels", WAVELET_LEVELS),
            ("outlier_sigmas", OUTLIER_SIGMAS),
            ("svm_c", SVM_C),
            ("knn_k", KNN_K),
            ("max_gamma", MAX_GAMMA),
            ("quality_thresholds", quality_thresholds()),
            ("degradation_policy", "degrade"),
        ):
            saved = config_dict.pop(field, constant)
            if saved != constant:
                raise ValueError(
                    f"saved state has {field}={saved!r}; the pipeline "
                    f"fixes {field}={constant!r}"
                )
        for field in ("subcarrier_override", "antenna_pair"):
            if config_dict.get(field) is not None:
                config_dict[field] = tuple(config_dict[field])
        config = WiMiConfig(**{**config_dict, **(config_overrides or {})})

        refs = meta["reference_omegas"]
        if not isinstance(refs, dict):
            raise ValueError(
                "saved state has a list-form reference_omegas; the "
                "pipeline needs a {material: omega} dictionary"
            )
        wimi = cls(
            {str(k): float(v) for k, v in refs.items()},
            config=config,
            cache=cache,
        )
        wimi.calibration = DeploymentCalibration.from_state(
            meta["calibration"]
        )
        wimi.database = MaterialDatabase.from_state(meta["database"], arrays)
        wimi._classifier = DatabaseClassifier.from_state(
            meta["classifier"], arrays
        )
        wimi._classifier_token = str(meta["classifier_token"])
        return wimi

    def _resolve_registry(self, registry):
        """Coerce a registry argument (or the configured path)."""
        from repro.persist.registry import ModelRegistry

        if isinstance(registry, ModelRegistry):
            return registry
        if registry is not None:
            return ModelRegistry(registry)
        if self.config.model_registry_path is None:
            raise ValueError(
                "no registry given and config.model_registry_path is unset"
            )
        return ModelRegistry(self.config.model_registry_path)
