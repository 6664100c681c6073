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

import dataclasses
import hashlib

import numpy as np

from repro.core.amplitude import AmplitudeProcessor
from repro.core.antenna import AntennaPairSelector
from repro.core.config import WiMiConfig
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
from repro.core.subcarrier import SubcarrierSelector
from repro.csi.collector import CaptureSession
from repro.csi.quality import (
    CorruptTraceError,
    QualityThresholds,
    SessionQualityReport,
    gate_report,
)
from repro.dsp.stats import finite_mean
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
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
        reference_omegas: dict[str, float] | list[float],
        config: WiMiConfig | None = None,
        cache: StageCache | None = None,
    ):
        self.config = config if config is not None else WiMiConfig()
        self.calibrator = PhaseCalibrator()
        self.subcarrier_selector = SubcarrierSelector(self.calibrator)
        denoiser = SpatiallySelectiveDenoiser(
            wavelet_name=self.config.wavelet_name,
            levels=self.config.wavelet_levels,
            outlier_sigmas=self.config.outlier_sigmas,
        )
        self.amplitude = AmplitudeProcessor(
            denoiser=denoiser, denoise=self.config.denoise_amplitude
        )
        self.pair_selector = AntennaPairSelector(self.subcarrier_selector)
        self.extractor = MaterialFeatureExtractor(
            reference_omegas,
            calibrator=self.calibrator,
            amplitude=self.amplitude,
            max_gamma=self.config.max_gamma,
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
        self._pair: tuple[int, int] | None = None
        self._feature_pairs: list[tuple[int, int]] | None = None
        self._ranked_pairs: list[tuple[int, int]] | None = None
        self._coarse_pair: tuple[int, int] | None = None
        self._subcarriers: list[int] | None = None
        self._subcarriers_by_pair: dict[tuple[int, int], list[int]] = {}

    # ------------------------------------------------------------------
    # Concurrency views
    # ------------------------------------------------------------------

    def clone_view(self, cache: StageCache | None = None) -> "WiMi":
        """A facade sharing this instance's state but owning its engine.

        The view shares the (read-only after ``fit``) heavy components --
        extractor, calibrator, denoiser, database, trained classifier --
        and, by default, the stage cache, but gets a *private*
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
        view = object.__new__(type(self))
        view.config = self.config
        view.calibrator = self.calibrator
        view.subcarrier_selector = self.subcarrier_selector
        view.amplitude = self.amplitude
        view.pair_selector = self.pair_selector
        view.extractor = self.extractor
        view.cache = cache if cache is not None else self.cache
        view.engine = PipelineEngine(
            extractor=self.extractor,
            subcarrier_selector=self.subcarrier_selector,
            config=self.config,
            cache=view.cache,
        )
        view.database = self.database
        view._classifier = self._classifier
        view._classifier_token = self._classifier_token
        view._pair = self._pair
        view._feature_pairs = (
            list(self._feature_pairs)
            if self._feature_pairs is not None
            else None
        )
        view._ranked_pairs = (
            list(self._ranked_pairs)
            if self._ranked_pairs is not None
            else None
        )
        view._coarse_pair = self._coarse_pair
        view._subcarriers = (
            list(self._subcarriers) if self._subcarriers is not None else None
        )
        view._subcarriers_by_pair = {
            pair: list(subcarriers)
            for pair, subcarriers in self._subcarriers_by_pair.items()
        }
        return view

    # ------------------------------------------------------------------
    # Deployment calibration
    # ------------------------------------------------------------------

    def calibrate(self, sessions: list[CaptureSession]) -> "WiMi":
        """Fix the antenna pair and good subcarriers for a deployment.

        The paper performs both choices once per deployment (Sec. III-B
        names subcarriers 5, 20, 23, 24; Sec. III-F picks the most stable
        antenna pair) and then reuses them for every measurement.  ``fit``
        calls this automatically on the training sessions.
        """
        if not sessions:
            raise ValueError("need at least one calibration session")
        ranked = self._rank_pairs(sessions)

        # The coarse (smallest-lever) pair is reserved for gamma
        # resolution: it is "stable" in the variance sense but carries the
        # least material signal, so it must not crowd out a precise pair.
        self._coarse_pair = self._find_coarse_pair(sessions[0], None)
        precise = [p for p in ranked if p != self._coarse_pair] or ranked
        # Keep the full precise ranking: a degraded identify-time session
        # whose calibrated pair touches a dead antenna falls back to the
        # next-best usable pair from this list.
        self._ranked_pairs = list(precise)

        if self.config.antenna_pair is not None:
            pair = self.config.antenna_pair
            if max(pair) >= sessions[0].num_antennas:
                raise ValueError(
                    f"configured pair {pair} needs more antennas than the "
                    f"session's {sessions[0].num_antennas}"
                )
        else:
            pair = precise[0]
        self._pair = pair

        # Feature pairs: the main pair, then the next most stable precise
        # ones.
        wanted = min(self.config.num_feature_pairs, len(precise))
        feature_pairs = [pair]
        for candidate in precise:
            if len(feature_pairs) >= wanted:
                break
            if candidate != pair:
                feature_pairs.append(candidate)
        self._feature_pairs = feature_pairs

        self._subcarriers_by_pair = {}
        for fp in feature_pairs:
            if self.config.subcarrier_override is not None:
                self._subcarriers_by_pair[fp] = list(
                    self.config.subcarrier_override
                )
            else:
                self._subcarriers_by_pair[fp] = list(
                    self.engine.select_subcarriers(
                        sessions, fp, count=self.config.num_good_subcarriers
                    ).subcarriers
                )
        self._subcarriers = self._subcarriers_by_pair[pair]
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

    @property
    def calibrated_coarse_pair(self) -> tuple[int, int] | None:
        """Small-lever pair fixed by :meth:`calibrate` (None before)."""
        return self._coarse_pair

    @property
    def calibrated_pair(self) -> tuple[int, int] | None:
        """Antenna pair fixed by :meth:`calibrate` (None before)."""
        return self._pair

    @property
    def calibrated_subcarriers(self) -> list[int] | None:
        """Subcarriers fixed by :meth:`calibrate` (None before).

        An explicitly calibrated *empty* selection is returned as ``[]``,
        not ``None`` (``None`` strictly means "calibrate was not run").
        """
        return list(self._subcarriers) if self._subcarriers is not None else None

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------

    def choose_pair(self, session: CaptureSession) -> tuple[int, int]:
        """The antenna pair for a session (calibrated, configured, or
        per-session best)."""
        if self._pair is not None:
            return self._pair
        if self.config.antenna_pair is not None:
            i, j = self.config.antenna_pair
            if max(i, j) >= session.num_antennas:
                raise ValueError(
                    f"configured pair {self.config.antenna_pair} needs more "
                    f"antennas than the session's {session.num_antennas}"
                )
            return (i, j)
        return self.pair_selector.best_pair(session)

    def choose_subcarriers(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> list[int]:
        """The subcarriers for a session (calibrated, override, or
        per-session selection)."""
        if self._subcarriers is not None:
            return list(self._subcarriers)
        if self.config.subcarrier_override is not None:
            return list(self.config.subcarrier_override)
        return list(
            self.engine.select_subcarriers(
                [session], pair, count=self.config.num_good_subcarriers
            ).subcarriers
        )

    def _session_pairs(
        self, session: CaptureSession
    ) -> list[tuple[int, int]]:
        """The feature pairs to extract for a session."""
        if self._feature_pairs is not None:
            return self._feature_pairs
        # Uncalibrated ad-hoc use: just the main pair.
        return [self.choose_pair(session)]

    def _subcarriers_for(
        self,
        session: CaptureSession,
        pair: tuple[int, int],
        exclude: tuple[int, ...] = (),
    ) -> list[int]:
        """Calibrated subcarriers for ``pair``, or a fresh selection.

        Uses an explicit ``is None`` check: a legitimately-empty
        calibrated list must not fall through to re-selection.

        ``exclude`` (quality-disqualified subcarriers) removes members
        of the calibrated/override list and tops the selection back up
        to the original width from the session's own quality-filtered
        ranking -- the feature vector must keep its training-time width
        or the classifier rejects it.  Raises
        :class:`~repro.csi.quality.CorruptTraceError` when too few
        usable subcarriers remain to preserve that width.
        """
        selected = self._subcarriers_by_pair.get(pair)
        if selected is None and self.config.subcarrier_override is not None:
            selected = list(self.config.subcarrier_override)
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
        if self._subcarriers is not None and not exclude:
            return list(self._subcarriers)
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

    def _gate(self, session: CaptureSession) -> SessionQualityReport | None:
        """Measure + gate a session under the configured policy.

        Returns the report (None under policy ``"skip"``); raises
        :class:`~repro.csi.quality.CorruptTraceError` on hard failures,
        warns :class:`~repro.csi.quality.DegradedTraceWarning` on soft
        ones.
        """
        if self.config.degradation_policy == "skip":
            return None
        report = self.assess(session)
        gate_report(
            report,
            self.config.degradation_policy,
            label=session.material_name or "session",
        )
        return report

    def _usable_pairs(
        self, session: CaptureSession, dead: set[int]
    ) -> list[tuple[int, int]]:
        """Precise pairs not touching a dead antenna, most stable first."""
        if self._ranked_pairs is not None:
            usable = [p for p in self._ranked_pairs if dead.isdisjoint(p)]
            if usable:
                return usable
        # Not calibrated (or every calibrated pair is dead): rank the
        # survivors on this session alone.  rank() itself raises
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
        coarse = self._coarse_pair
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

        Under quality gating (``config.degradation_policy`` not
        ``"skip"``) the session is measured and gated first; a degraded
        session is processed with fallbacks -- dead antennas excluded
        from pair choice, disqualified subcarriers replaced, the coarse
        anchor re-derived or approximated -- and the resulting
        :class:`~repro.core.feature.SessionFeatures` carries the
        :class:`~repro.csi.quality.SessionQualityReport`.
        """
        quality = self._gate(session)
        pairs = self._session_pairs(session)
        coarse = self._coarse_pair
        exclude_sc: tuple[int, ...] = ()
        coarse_fallback = False
        if quality is not None and quality.is_degraded:
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
        refs = self.extractor.reference_omegas
        if isinstance(refs, dict):
            return refs.get(session.material_name)
        return None

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

    def _reference_envelope(self) -> tuple[float, float]:
        """Generous physical envelope of the reference Omega-bar values."""
        refs = self.extractor.reference_omegas
        values = list(refs.values()) if isinstance(refs, dict) else list(refs)
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
            kind=self.config.classifier,
            svm_c=self.config.svm_c,
            knn_k=self.config.knn_k,
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
                    self.config.svm_c,
                    self.config.knn_k,
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
            envelope=self._reference_envelope(),
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
        semantics (``config.stream_window_size``/``stream_hop``).
        """
        from repro.core.streaming import StreamingExtractor

        return StreamingExtractor(
            self, scene=scene, material_name=material_name
        )

    def identify_streaming(
        self, session: CaptureSession, chunk_size: int = 1
    ) -> str:
        """Identify a session by replaying it through the streaming path.

        The baseline is pushed whole, the target in ``chunk_size``-packet
        chunks, and the finalized label is returned.  Finalize runs
        :meth:`extract` on the buffered packets, so the label is the
        :meth:`identify` label for any ``chunk_size``.
        """
        if self._classifier is None:
            raise RuntimeError("WiMi is not fitted; call fit() first")
        stream = self.streaming_extractor(
            scene=session.scene, material_name=session.material_name
        )
        stream.push_baseline(session.baseline)
        target = session.target
        step = max(int(chunk_size), 1)
        for start in range(0, len(target), step):
            stream.push_target(target.select(slice(start, start + step)))
        return stream.finalize().label

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
        refs = self.extractor.reference_omegas
        meta = {
            "reference_omegas": (
                {str(k): float(v) for k, v in refs.items()}
                if isinstance(refs, dict)
                else [float(v) for v in refs]
            ),
            "config": dataclasses.asdict(self.config),
            "calibration": {
                "pair": list(self._pair) if self._pair else None,
                "feature_pairs": (
                    [list(p) for p in self._feature_pairs]
                    if self._feature_pairs is not None
                    else None
                ),
                "ranked_pairs": (
                    [list(p) for p in self._ranked_pairs]
                    if self._ranked_pairs is not None
                    else None
                ),
                "coarse_pair": (
                    list(self._coarse_pair) if self._coarse_pair else None
                ),
                "subcarriers": (
                    list(self._subcarriers)
                    if self._subcarriers is not None
                    else None
                ),
                "subcarriers_by_pair": {
                    f"{i},{j}": list(subcarriers)
                    for (i, j), subcarriers in
                    self._subcarriers_by_pair.items()
                },
            },
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
        thresholds = config_dict.pop("quality_thresholds", None)
        for field in ("subcarrier_override", "antenna_pair"):
            if config_dict.get(field) is not None:
                config_dict[field] = tuple(config_dict[field])
        if config_overrides:
            config_dict.update(config_overrides)
            thresholds = config_dict.pop("quality_thresholds", thresholds)
        if thresholds is not None and not isinstance(
            thresholds, QualityThresholds
        ):
            thresholds = QualityThresholds(**thresholds)
        config = WiMiConfig(
            **config_dict,
            **(
                {"quality_thresholds": thresholds}
                if thresholds is not None
                else {}
            ),
        )

        refs = meta["reference_omegas"]
        reference_omegas = (
            {str(k): float(v) for k, v in refs.items()}
            if isinstance(refs, dict)
            else [float(v) for v in refs]
        )
        wimi = cls(reference_omegas, config=config, cache=cache)

        calibration = meta["calibration"]

        def _tuple_or_none(value):
            return tuple(int(v) for v in value) if value else None

        wimi._pair = _tuple_or_none(calibration["pair"])
        wimi._feature_pairs = (
            [tuple(int(v) for v in p) for p in calibration["feature_pairs"]]
            if calibration["feature_pairs"] is not None
            else None
        )
        wimi._ranked_pairs = (
            [tuple(int(v) for v in p) for p in calibration["ranked_pairs"]]
            if calibration["ranked_pairs"] is not None
            else None
        )
        wimi._coarse_pair = _tuple_or_none(calibration["coarse_pair"])
        wimi._subcarriers = (
            [int(k) for k in calibration["subcarriers"]]
            if calibration["subcarriers"] is not None
            else None
        )
        wimi._subcarriers_by_pair = {
            tuple(int(v) for v in key.split(",")): [int(k) for k in subs]
            for key, subs in calibration["subcarriers_by_pair"].items()
        }

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
