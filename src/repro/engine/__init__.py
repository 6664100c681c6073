"""Stage-graph pipeline engine.

The WiMi chain (phase calibration -> good-subcarrier selection ->
amplitude denoising -> Omega-bar extraction -> classification, paper
Fig. 5) is executed here as an explicit stage graph:

* :mod:`repro.engine.stages` declares each stage and the config fields
  its output depends on;
* :mod:`repro.engine.artifacts` defines the typed, frozen artifacts the
  stages exchange and the content-hash keying that identifies them;
* :mod:`repro.engine.cache` memoizes artifacts per (stage, key) with
  per-stage hit/miss statistics;
* :mod:`repro.engine.graph` runs it all, firing
  :class:`~repro.engine.cache.StageEvent` hooks on every resolution.

:class:`repro.core.pipeline.WiMi` is a thin facade over this engine;
experiments that sweep configurations share one
:class:`~repro.engine.cache.StageCache` so unchanged upstream stages are
never recomputed.
"""

from repro.engine.artifacts import (
    Artifact,
    ClassificationArtifact,
    DenoisedTraceArtifact,
    FeatureArtifact,
    ObservablesArtifact,
    PhaseArtifact,
    SubcarrierArtifact,
    config_fingerprint,
    features_fingerprint,
    session_fingerprint,
    trace_fingerprint,
)
from repro.engine.cache import (
    TIER_COMPUTE,
    TIER_DISK,
    TIER_MEMORY,
    StageCache,
    StageCounter,
    StageEvent,
    StageStats,
)
from repro.engine.graph import PipelineEngine
from repro.engine.stages import (
    AMPLITUDE_DENOISE,
    CLASSIFY,
    FEATURE_EXTRACTION,
    OBSERVABLES,
    PHASE_CALIBRATION,
    SUBCARRIER_SELECTION,
    StageSpec,
)

__all__ = [
    "AMPLITUDE_DENOISE",
    "Artifact",
    "CLASSIFY",
    "ClassificationArtifact",
    "DenoisedTraceArtifact",
    "FEATURE_EXTRACTION",
    "FeatureArtifact",
    "OBSERVABLES",
    "ObservablesArtifact",
    "PHASE_CALIBRATION",
    "PhaseArtifact",
    "PipelineEngine",
    "SUBCARRIER_SELECTION",
    "StageCache",
    "StageCounter",
    "StageEvent",
    "StageSpec",
    "StageStats",
    "SubcarrierArtifact",
    "TIER_COMPUTE",
    "TIER_DISK",
    "TIER_MEMORY",
    "config_fingerprint",
    "features_fingerprint",
    "session_fingerprint",
    "trace_fingerprint",
]
