"""The pipeline engine: memoized execution of the WiMi stage graph.

:class:`PipelineEngine` owns the execution of the Fig. 5 chain as
declared in :mod:`repro.engine.stages`.  Every stage call resolves a
content-hash key (session/trace bytes + the stage's declared config
fields), consults the :class:`repro.engine.cache.StageCache`, and only
runs the underlying ``repro.core`` component on a miss.  Registered
hooks observe every resolution as a :class:`StageEvent`, which is how
the perf benchmarks count real denoiser executions.

The engine holds *no* mutable pipeline state of its own -- deployment
calibration (chosen pairs/subcarriers) stays in
:class:`repro.core.pipeline.WiMi` -- so one engine (or one shared cache)
can serve many ``WiMi`` facades concurrently, which is what makes the
experiment runner's config sweeps cheap.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

import numpy as np

from repro.core.amplitude import _AMPLITUDE_EPS, AmplitudeProcessor
from repro.core.config import MAX_GAMMA, WiMiConfig
from repro.core.feature import MaterialFeatureExtractor, SessionFeatures
from repro.core.subcarrier import SubcarrierSelector
from repro.csi.collector import CaptureSession
from repro.csi.model import CsiTrace
from repro.csi.quality import assess_trace
from repro.dsp.streaming import window_log_sums
from repro.engine.artifacts import (
    ClassificationArtifact,
    DenoisedTraceArtifact,
    FeatureArtifact,
    ObservablesArtifact,
    PhaseArtifact,
    SubcarrierArtifact,
    TraceQualityArtifact,
    config_fingerprint,
    features_fingerprint,
    make_key,
    session_fingerprint,
    trace_fingerprint,
)
from repro.engine.cache import StageCache, StageEvent
from repro.resilience.deadline import check_deadline
from repro.engine.stages import (
    AMPLITUDE_DENOISE,
    CLASSIFY,
    DENOISE_REVISION,
    FEATURE_EXTRACTION,
    OBSERVABLES,
    PHASE_CALIBRATION,
    SUBCARRIER_SELECTION,
    TRACE_QUALITY,
    StageSpec,
)

Hook = Callable[[StageEvent], None]


class PipelineEngine:
    """Memoizing executor of the WiMi stage graph.

    Args:
        extractor: Feature extractor (also provides the calibrator and
            amplitude processor used by the upstream stages).
        subcarrier_selector: Eq. 7 good-subcarrier selector.
        config: Pipeline configuration; stage keys embed only each
            stage's declared config fields.
        cache: Artifact store; pass a shared instance to reuse artifacts
            across several engines/facades.
    """

    def __init__(
        self,
        extractor: MaterialFeatureExtractor,
        subcarrier_selector: SubcarrierSelector,
        config: WiMiConfig,
        cache: StageCache | None = None,
    ):
        self.extractor = extractor
        self.subcarrier_selector = subcarrier_selector
        self.config = config
        self.cache = cache if cache is not None else StageCache()
        self._hooks: list[Hook] = []
        self._config_keys: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def add_hook(self, hook: Hook) -> None:
        """Register a callable fired on every stage resolution."""
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # Core resolution machinery
    # ------------------------------------------------------------------

    def _config_key(self, spec: StageSpec) -> str:
        key = self._config_keys.get(spec.name)
        if key is None:
            key = config_fingerprint(self.config, spec.config_fields)
            self._config_keys[spec.name] = key
        return key

    def _resolve(self, spec: StageSpec, key: str, compute: Callable[[], object]):
        def guarded_compute():
            # Deadline checkpoint at the stage boundary: a request whose
            # ambient deadline (repro.resilience.deadline_scope) already
            # lapsed stops here instead of executing the stage.  Cached
            # artifacts still resolve -- serving a hit costs nothing.
            check_deadline(spec.name)
            return compute()

        artifact, tier = self.cache.resolve_tier(spec.name, key, guarded_compute)
        if self._hooks:
            event = StageEvent(stage=spec.name, key=key, tier=tier)
            for hook in list(self._hooks):
                hook(event)
        return artifact

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def trace_quality(self, trace: CsiTrace) -> TraceQualityArtifact:
        """Degradation measurement of one trace (the quality boundary).

        Pure measurement -- the gating decision lives in the ``WiMi``
        facade.
        """
        key = make_key(
            trace_fingerprint(trace), self._config_key(TRACE_QUALITY)
        )

        def compute() -> TraceQualityArtifact:
            report = assess_trace(trace)
            return TraceQualityArtifact(key=key, report=report)

        return self._resolve(TRACE_QUALITY, key, compute)

    def phase_calibration(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> PhaseArtifact:
        """Eq. 18 wrapped phase change for one (session, pair)."""
        pair = (int(pair[0]), int(pair[1]))
        key = make_key(
            session_fingerprint(session),
            pair,
            self._config_key(PHASE_CALIBRATION),
        )

        def compute() -> PhaseArtifact:
            theta = self.extractor.phase_observable(session, pair)
            return PhaseArtifact(key=key, pair=pair, theta_wrapped=theta)

        return self._resolve(PHASE_CALIBRATION, key, compute)

    def amplitude_denoise(self, trace: CsiTrace) -> DenoisedTraceArtifact:
        """Denoised amplitude cube of one trace (the hot stage)."""
        key = make_key(
            trace_fingerprint(trace),
            self._config_key(AMPLITUDE_DENOISE),
            DENOISE_REVISION,
        )

        def compute() -> DenoisedTraceArtifact:
            cleaned = self.extractor.amplitude.clean_amplitudes(trace)
            return DenoisedTraceArtifact(key=key, amplitudes=cleaned)

        return self._resolve(AMPLITUDE_DENOISE, key, compute)

    def stream_window_denoise(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(log_sum, count)`` preview sums of one streaming window.

        ``rows`` is the raw ``(window, channels)`` |H| slab; the result
        is its per-channel clipped log-amplitude sums and counts after
        median imputation.  Not a cached stage: every window of a live
        stream is new data, so the call computes directly, with no key,
        event or store write.
        """
        return window_log_sums(rows, _AMPLITUDE_EPS)

    def observables(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> ObservablesArtifact:
        """Eq. 18/19 observables for one (session, pair).

        On a miss this pulls the phase artifact and both traces' denoised
        cubes (each itself memoized) and forms the pair's amplitude ratio
        from the cached cubes -- so N antenna pairs cost one denoiser
        pass per trace, not N.
        """
        pair = (int(pair[0]), int(pair[1]))
        key = make_key(
            session_fingerprint(session),
            pair,
            self._config_key(OBSERVABLES),
            DENOISE_REVISION,
        )

        def compute() -> ObservablesArtifact:
            phase = self.phase_calibration(session, pair)
            base = self.amplitude_denoise(session.baseline).amplitudes
            target = self.amplitude_denoise(session.target).amplitudes
            base_ratio = AmplitudeProcessor.averaged_ratio_from_clean(
                base, pair
            )
            target_ratio = AmplitudeProcessor.averaged_ratio_from_clean(
                target, pair
            )
            neg_log_psi = -np.log(target_ratio / base_ratio)
            return ObservablesArtifact(
                key=key,
                pair=pair,
                theta_wrapped=phase.theta_wrapped,
                neg_log_psi=neg_log_psi,
            )

        return self._resolve(OBSERVABLES, key, compute)

    def select_subcarriers(
        self,
        sessions: Iterable[CaptureSession],
        pair: tuple[int, int],
        count: int,
        exclude: tuple[int, ...] = (),
    ) -> SubcarrierArtifact:
        """Eq. 7 good-subcarrier selection pooled over ``sessions``.

        A single session reproduces the per-session selection exactly
        (pooling over one session is the identity).  ``exclude`` removes
        quality-disqualified subcarriers from the candidate set (it
        changes the output, so it is part of the cache key).
        """
        sessions = list(sessions)
        pair = (int(pair[0]), int(pair[1]))
        exclude = tuple(sorted(int(k) for k in exclude))
        pool = hashlib.blake2b(digest_size=12)
        for session in sessions:
            pool.update(session_fingerprint(session).encode())
        key = make_key(
            pool.hexdigest(),
            len(sessions),
            pair,
            count,
            exclude,
            self._config_key(SUBCARRIER_SELECTION),
        )

        def compute() -> SubcarrierArtifact:
            selected = self.subcarrier_selector.select_pooled(
                sessions, pair, count=count, exclude=exclude
            )
            return SubcarrierArtifact(
                key=key, pair=pair, subcarriers=tuple(int(k) for k in selected)
            )

        return self._resolve(SUBCARRIER_SELECTION, key, compute)

    def extract_feature(
        self,
        session: CaptureSession,
        pair: tuple[int, int],
        subcarriers: tuple[int, ...],
        coarse_pair: tuple[int, int] | None = None,
        true_omega: float | None = None,
        include_coarse_feature: bool = True,
        coarse_fallback: bool = False,
    ) -> FeatureArtifact:
        """Eq. 18-21 feature block for one (session, pair)."""
        pair = (int(pair[0]), int(pair[1]))
        subcarriers = tuple(int(k) for k in subcarriers)
        key = make_key(
            session_fingerprint(session),
            pair,
            subcarriers,
            coarse_pair,
            repr(true_omega),
            int(include_coarse_feature),
            int(coarse_fallback),
            self._config_key(FEATURE_EXTRACTION),
            # Observables config (wavelet etc.) and the denoiser revision
            # shape the inputs, so they must shape the key too.
            self._config_key(OBSERVABLES),
            DENOISE_REVISION,
        )

        def compute() -> FeatureArtifact:
            obs = self.observables(session, pair)
            coarse_observables = None
            if coarse_pair is not None and tuple(coarse_pair) != pair:
                coarse = self.observables(session, coarse_pair)
                coarse_observables = (
                    coarse.theta_wrapped,
                    coarse.neg_log_psi,
                )
            measurement = self.extractor.measure_from_observables(
                pair,
                list(subcarriers),
                obs.theta_wrapped,
                obs.neg_log_psi,
                coarse_observables=coarse_observables,
                true_omega=true_omega,
                include_coarse_feature=include_coarse_feature,
                material_name=session.material_name,
                coarse_fallback=coarse_fallback,
            )
            return FeatureArtifact(key=key, measurement=measurement)

        return self._resolve(FEATURE_EXTRACTION, key, compute)

    def classify(
        self,
        features: SessionFeatures,
        classifier,
        classifier_token: str,
        envelope: tuple[float, float] | None = None,
    ) -> ClassificationArtifact:
        """Database-aided branch resolution + prediction (+ confidence).

        Args:
            features: The session's extracted feature blocks.
            classifier: A fitted
                :class:`repro.core.database.DatabaseClassifier`.
            classifier_token: Unique token of this *trained* classifier
                instance (a new token per ``fit``), so cached labels can
                never outlive the model that produced them.
            envelope: Physical Omega-bar envelope for branch search.
        """
        key = make_key(
            features_fingerprint(features),
            classifier_token,
            repr(envelope),
            self._config_key(CLASSIFY),
        )

        def compute() -> ClassificationArtifact:
            label = classifier.resolve_branch_and_predict(
                features, max_gamma=MAX_GAMMA, envelope=envelope
            )
            confidence = classifier.confidence(features.vector())
            return ClassificationArtifact(
                key=key, label=str(label), confidence=float(confidence)
            )

        return self._resolve(CLASSIFY, key, compute)
