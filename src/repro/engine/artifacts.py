"""Typed stage artifacts and content-hash keying.

Every stage of the pipeline engine consumes and produces *artifacts*:
small frozen dataclasses that carry the stage output plus the cache key it
was computed under.  Keys are content hashes -- a session is identified by
the bytes of its CSI matrices, a config by the values of the stage's
declared fields -- so two ``WiMi`` instances (or two calls years apart in
one process) that see the same data and the same relevant knobs share the
same artifacts, while any change to either produces a fresh key.

A :class:`repro.csi.model.CsiTrace` is immutable (a frozen dataclass over
read-only arrays), so a trace's fingerprint is computed once and pinned on
the object: no write can make it stale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.feature import FeatureMeasurement
from repro.csi.quality import TraceQualityReport

#: Attribute used to pin a computed fingerprint on traces/sessions.
_FINGERPRINT_ATTR = "_engine_fingerprint"


def _hash_array(h: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    h.update(str(array.shape).encode())
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())


def trace_fingerprint(trace) -> str:
    """Content hash of one :class:`repro.csi.model.CsiTrace`.

    Hashes the stored complex array, so two traces with identical CSI
    get the same fingerprint regardless of labels or timestamps.  The
    result is pinned on the trace (its arrays are read-only), so repeated
    calls are O(1).
    """
    cached = getattr(trace, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    _hash_array(h, trace.matrix())
    fingerprint = h.hexdigest()
    try:
        object.__setattr__(trace, _FINGERPRINT_ATTR, fingerprint)
    except (AttributeError, TypeError):
        pass  # exotic trace type without a __dict__; recompute next time
    return fingerprint


def session_fingerprint(session) -> str:
    """Content hash of a paired capture session (baseline + target)."""
    cached = getattr(session, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(trace_fingerprint(session.baseline).encode())
    h.update(trace_fingerprint(session.target).encode())
    fingerprint = h.hexdigest()
    try:
        object.__setattr__(session, _FINGERPRINT_ATTR, fingerprint)
    except (AttributeError, TypeError):
        pass
    return fingerprint


def config_fingerprint(config, fields: tuple[str, ...]) -> str:
    """Stable hash of the stage-relevant subset of a config.

    Only the named fields enter the key, so e.g. changing the classifier
    does not invalidate cached denoising artifacts.
    """
    if not fields:
        return "-"
    h = hashlib.blake2b(digest_size=8)
    for name in fields:
        h.update(name.encode())
        h.update(repr(getattr(config, name)).encode())
    return h.hexdigest()


def features_fingerprint(features) -> str:
    """Content hash of a :class:`repro.core.feature.SessionFeatures`.

    Includes the per-subcarrier observables (not just the final vector)
    because identify-time branch resolution re-derives alternative-gamma
    vectors from them.
    """
    h = hashlib.blake2b(digest_size=16)
    for m in features.measurements:
        _hash_array(h, np.asarray(m.omegas, dtype=float))
        h.update(str(m.pair).encode())
        h.update(str(m.gamma).encode())
        h.update(str(tuple(m.subcarriers)).encode())
        h.update(repr(float(m.omega_coarse)).encode())
        h.update(b"1" if m.include_coarse else b"0")
        if m.theta_aligned is not None:
            _hash_array(h, np.asarray(m.theta_aligned, dtype=float))
        if m.neg_log_psi is not None:
            _hash_array(h, np.asarray(m.neg_log_psi, dtype=float))
    return h.hexdigest()


def make_key(*parts) -> str:
    """Join key parts into one cache key string."""
    return "|".join(str(p) for p in parts)


def _freeze(array: np.ndarray) -> np.ndarray:
    """Read-only view so cached artifacts cannot be mutated downstream."""
    array = np.asarray(array)
    array.setflags(write=False)
    return array


# ----------------------------------------------------------------------
# Artifact types (one per stage output)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    """Base: every artifact remembers the cache key it lives under."""

    key: str


@dataclass(frozen=True)
class TraceQualityArtifact(Artifact):
    """Output of ``trace_quality``: degradation measurement of one trace."""

    report: TraceQualityReport


@dataclass(frozen=True)
class PhaseArtifact(Artifact):
    """Output of ``phase_calibration``: Eq. 18 wrapped phase change.

    Attributes:
        pair: Antenna pair the phases were differenced over.
        theta_wrapped: Per-subcarrier wrapped ``Delta-Theta`` (paper sign
            convention), shape ``(K,)``.
    """

    pair: tuple[int, int]
    theta_wrapped: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_wrapped", _freeze(self.theta_wrapped))


@dataclass(frozen=True)
class DenoisedTraceArtifact(Artifact):
    """Output of ``amplitude_denoise``: cleaned ``|H|`` for one trace.

    Attributes:
        amplitudes: Denoised amplitude cube, shape ``(M, K, A)``.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes))


@dataclass(frozen=True)
class ObservablesArtifact(Artifact):
    """Combined per-pair observables feeding feature extraction.

    Attributes:
        pair: Antenna pair.
        theta_wrapped: Eq. 18 wrapped phase change, shape ``(K,)``.
        neg_log_psi: Eq. 19 ``-ln DeltaPsi``, shape ``(K,)``.
    """

    pair: tuple[int, int]
    theta_wrapped: np.ndarray
    neg_log_psi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_wrapped", _freeze(self.theta_wrapped))
        object.__setattr__(self, "neg_log_psi", _freeze(self.neg_log_psi))


@dataclass(frozen=True)
class SubcarrierArtifact(Artifact):
    """Output of ``subcarrier_selection``: the good subcarriers.

    Attributes:
        pair: Antenna pair the Eq. 7 variances were computed over.
        subcarriers: Selected 0-based report positions, ascending.
    """

    pair: tuple[int, int]
    subcarriers: tuple[int, ...]


@dataclass(frozen=True)
class FeatureArtifact(Artifact):
    """Output of ``feature_extraction``: one Omega-bar feature block."""

    measurement: FeatureMeasurement


@dataclass(frozen=True)
class ClassificationArtifact(Artifact):
    """Output of ``classify``: the identified material.

    Attributes:
        label: Predicted material name.
        confidence: ``1 - d_nearest / d_second`` over the scaled database
            centroids (NaN if unavailable).
    """

    label: str
    confidence: float = float("nan")
