"""Stage declarations of the WiMi processing graph.

Each stage of the paper's Fig. 5 chain is declared once, with the
:class:`repro.core.config.WiMiConfig` fields its output depends on.  The
engine uses the declarations to build cache keys (only the declared
config fields enter a stage's key, so e.g. a classifier sweep reuses
every upstream artifact).

The streaming preview's per-window reduction
(``PipelineEngine.stream_window_denoise``) is not a stage: every window
of a live stream is new data, so it is computed and never cached.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StageSpec:
    """Static description of one pipeline stage.

    Attributes:
        name: Stable stage identifier (also the stats bucket name).
        config_fields: ``WiMiConfig`` fields that parameterise the stage's
            output; they are hashed into every cache key of the stage.
    """

    name: str
    config_fields: tuple[str, ...] = ()


#: Quality boundary: per-trace degradation measurement (finite/live
#: fractions, loss rate, clipping rate) against the fixed thresholds.
TRACE_QUALITY = StageSpec(
    name="trace_quality",
    config_fields=(),
)

#: Eq. 5-6: inter-antenna phase differencing, packet-averaged, baseline
#: vs target.  Depends on data only.
PHASE_CALIBRATION = StageSpec(
    name="phase_calibration",
    config_fields=(),
)

#: Revision of the denoiser's numerics, hashed into the keys of
#: ``amplitude_denoise`` and the two stages built from denoised
#: amplitudes, ``observables`` and ``feature_extraction``.  Bump it when
#: the denoiser's output changes for the same input and config, so an
#: artifact store written by older code recomputes those stages instead
#: of serving their old outputs.
#: Revision 1: Eq. 13 keeps exact ties.
DENOISE_REVISION = 1

#: Sec. III-C: outlier rejection + spatially-selective wavelet filtering
#: of one trace's amplitude cube.  The pipeline's hot spot.
AMPLITUDE_DENOISE = StageSpec(
    name="amplitude_denoise",
    config_fields=("denoise_amplitude",),
)

#: Eq. 19 observable assembled from the denoised cubes of both traces.
OBSERVABLES = StageSpec(
    name="observables",
    config_fields=AMPLITUDE_DENOISE.config_fields,
)

#: Eq. 7: good-subcarrier selection, pooled over calibration sessions.
SUBCARRIER_SELECTION = StageSpec(
    name="subcarrier_selection",
    config_fields=(),
)

#: Eq. 18-21: Omega-bar with gamma resolution for one feature block.
FEATURE_EXTRACTION = StageSpec(
    name="feature_extraction",
    config_fields=("gamma_strategy",),
)

#: Sec. III-E: database-aided branch resolution + classification.
CLASSIFY = StageSpec(
    name="classify",
    config_fields=("classifier",),
)

