"""Artifact (de)serialization: the npz/json hybrid payload codec.

Every frozen :mod:`repro.engine.artifacts` dataclass round-trips through
a single self-describing payload format with **no third-party
dependencies**:

* numeric arrays travel as entries of an uncompressed ``.npz`` archive
  (bit-exact for float64, the repo-wide dtype);
* scalars, strings, tuples and nested plain dataclasses travel as one
  JSON document stored *inside* the same archive as a ``uint8`` byte
  array (``np.savez`` cannot hold strings without pickling, and pickle
  is deliberately banned -- a store file must never execute code on
  read).

On top of the payload sits a small integrity frame::

    MAGIC (8 bytes) | blake2b-128 digest of payload | payload

:func:`unframe` verifies the digest before a single payload byte is
parsed, so truncated or bit-flipped store files are detected up front
and reported as :class:`IntegrityError` -- the store maps that to a
cache miss, never a crash.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.csi.quality import TraceQualityReport, quality_thresholds
from repro.core.feature import FeatureMeasurement
from repro.engine.artifacts import (
    Artifact,
    ClassificationArtifact,
    DenoisedTraceArtifact,
    FeatureArtifact,
    ObservablesArtifact,
    PhaseArtifact,
    SubcarrierArtifact,
    TraceQualityArtifact,
)

#: Leading bytes of every framed payload (format version 1).
MAGIC = b"WIMIART1"

#: Digest width of the integrity frame (blake2b-128).
_DIGEST_SIZE = 16

#: Name of the JSON member inside the npz archive.
_META_MEMBER = "__meta__"


class IntegrityError(ValueError):
    """A framed payload failed verification (truncated/corrupt/foreign)."""


# ----------------------------------------------------------------------
# Payload codec: (meta dict, arrays dict) <-> bytes
# ----------------------------------------------------------------------


def pack(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Encode a JSON-able ``meta`` dict plus named arrays into npz bytes."""
    if _META_MEMBER in arrays:
        raise ValueError(f"array name {_META_MEMBER!r} is reserved")
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    members = {_META_MEMBER: np.frombuffer(meta_bytes, dtype=np.uint8)}
    for name, array in arrays.items():
        members[name] = np.ascontiguousarray(array)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


def unpack(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode :func:`pack` output back into ``(meta, arrays)``.

    ``allow_pickle`` stays off: a payload can only ever contain plain
    arrays and JSON, so a malicious or damaged file cannot run code.
    """
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        if _META_MEMBER not in archive:
            raise IntegrityError("payload has no metadata member")
        meta = json.loads(archive[_META_MEMBER].tobytes().decode("utf-8"))
        arrays = {
            name: archive[name]
            for name in archive.files
            if name != _META_MEMBER
        }
    return meta, arrays


def payload_array_dtypes(data: bytes) -> dict[str, str]:
    """Dtype string of every array member in a framed artifact file.

    Used by the store's stats walk to report what dtypes live on disk:
    the npz payload stores each member's dtype natively, so the census
    needs no re-materialising of the full artifact object.  Raises
    :class:`IntegrityError` on damaged input like any other read.
    """
    _, arrays = unpack(unframe(data))
    return {name: str(array.dtype) for name, array in arrays.items()}


def frame(payload: bytes) -> bytes:
    """Wrap payload bytes in the MAGIC + digest integrity frame."""
    import hashlib

    digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    return MAGIC + digest + payload


def unframe(data: bytes) -> bytes:
    """Verify and strip the integrity frame; raises :class:`IntegrityError`.

    Detects short reads (truncation), foreign files (magic mismatch) and
    payload damage (digest mismatch) before any parsing happens.
    """
    import hashlib

    header = len(MAGIC) + _DIGEST_SIZE
    if len(data) < header:
        raise IntegrityError(
            f"file too short to be a framed payload ({len(data)} bytes)"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise IntegrityError("bad magic: not a WiMi artifact file")
    digest = data[len(MAGIC):header]
    payload = data[header:]
    actual = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
    if actual != digest:
        raise IntegrityError("payload digest mismatch (corrupt file)")
    return payload


# ----------------------------------------------------------------------
# Artifact <-> payload
# ----------------------------------------------------------------------


def _pair(meta_value) -> tuple[int, int]:
    i, j = meta_value
    return (int(i), int(j))


def _optional_array(arrays: dict, name: str) -> np.ndarray | None:
    value = arrays.get(name)
    return None if value is None else np.asarray(value)


def _encode_quality_report(report: TraceQualityReport) -> tuple[dict, dict]:
    meta = {
        "num_packets": report.num_packets,
        "num_antennas": report.num_antennas,
        "num_subcarriers": report.num_subcarriers,
        "finite_fraction": report.finite_fraction,
        "loss_rate": report.loss_rate,
        "sequence_gaps": report.sequence_gaps,
        "duplicate_packets": report.duplicate_packets,
        "reordered_packets": report.reordered_packets,
        "clipped_packets": report.clipped_packets,
        "clipping_rate": report.clipping_rate,
        "thresholds": quality_thresholds(),
    }
    arrays = {
        "antenna_finite_fraction": report.antenna_finite_fraction,
        "subcarrier_finite_fraction": report.subcarrier_finite_fraction,
        "antenna_live_fraction": report.antenna_live_fraction,
        "subcarrier_live_fraction": report.subcarrier_live_fraction,
    }
    return meta, arrays


def _decode_quality_report(meta: dict, arrays: dict) -> TraceQualityReport:
    # A report is only meaningful under the gate that judged it: one
    # gated against other thresholds is refused (the store quarantines
    # it and the stage recomputes).
    if meta["thresholds"] != quality_thresholds():
        raise ValueError(
            f"trace_quality report gated with thresholds "
            f"{meta['thresholds']!r}; the gate fixes {quality_thresholds()!r}"
        )
    return TraceQualityReport(
        num_packets=int(meta["num_packets"]),
        num_antennas=int(meta["num_antennas"]),
        num_subcarriers=int(meta["num_subcarriers"]),
        finite_fraction=float(meta["finite_fraction"]),
        antenna_finite_fraction=np.asarray(arrays["antenna_finite_fraction"]),
        subcarrier_finite_fraction=np.asarray(
            arrays["subcarrier_finite_fraction"]
        ),
        antenna_live_fraction=np.asarray(arrays["antenna_live_fraction"]),
        subcarrier_live_fraction=np.asarray(
            arrays["subcarrier_live_fraction"]
        ),
        loss_rate=float(meta["loss_rate"]),
        sequence_gaps=int(meta["sequence_gaps"]),
        duplicate_packets=int(meta["duplicate_packets"]),
        reordered_packets=int(meta["reordered_packets"]),
        clipped_packets=int(meta["clipped_packets"]),
        clipping_rate=float(meta["clipping_rate"]),
    )


def serialize_artifact(artifact: Artifact) -> bytes:
    """One artifact -> framed payload bytes (see module docstring)."""
    meta: dict = {"type": type(artifact).__name__, "key": artifact.key}
    arrays: dict[str, np.ndarray] = {}

    if isinstance(artifact, PhaseArtifact):
        meta["pair"] = list(artifact.pair)
        arrays["theta_wrapped"] = artifact.theta_wrapped
    elif isinstance(artifact, DenoisedTraceArtifact):
        arrays["amplitudes"] = artifact.amplitudes
    elif isinstance(artifact, ObservablesArtifact):
        meta["pair"] = list(artifact.pair)
        arrays["theta_wrapped"] = artifact.theta_wrapped
        arrays["neg_log_psi"] = artifact.neg_log_psi
    elif isinstance(artifact, SubcarrierArtifact):
        meta["pair"] = list(artifact.pair)
        meta["subcarriers"] = list(artifact.subcarriers)
    elif isinstance(artifact, ClassificationArtifact):
        meta["label"] = artifact.label
        meta["confidence"] = artifact.confidence
    elif isinstance(artifact, TraceQualityArtifact):
        report_meta, report_arrays = _encode_quality_report(artifact.report)
        meta["report"] = report_meta
        arrays.update(report_arrays)
    elif isinstance(artifact, FeatureArtifact):
        m = artifact.measurement
        meta["measurement"] = {
            "gamma": m.gamma,
            "pair": list(m.pair),
            "subcarriers": list(m.subcarriers),
            "material_name": m.material_name,
            "omega_coarse": m.omega_coarse,
            "include_coarse": m.include_coarse,
        }
        arrays["omegas"] = m.omegas
        arrays["delta_theta"] = m.delta_theta
        arrays["delta_psi"] = m.delta_psi
        if m.theta_aligned is not None:
            arrays["theta_aligned"] = m.theta_aligned
        if m.neg_log_psi is not None:
            arrays["neg_log_psi"] = m.neg_log_psi
    else:
        raise TypeError(
            f"no serialization for artifact type {type(artifact).__name__}"
        )
    return frame(pack(meta, arrays))


def deserialize_artifact(data: bytes) -> Artifact:
    """Framed payload bytes -> the original artifact, bit-identically.

    Raises :class:`IntegrityError` on any damage or unknown type; the
    store turns that into a miss.
    """
    meta, arrays = unpack(unframe(data))
    kind = meta.get("type")
    key = meta.get("key", "")

    if kind == "PhaseArtifact":
        return PhaseArtifact(
            key=key,
            pair=_pair(meta["pair"]),
            theta_wrapped=np.asarray(arrays["theta_wrapped"]),
        )
    if kind == "DenoisedTraceArtifact":
        return DenoisedTraceArtifact(
            key=key, amplitudes=np.asarray(arrays["amplitudes"])
        )
    if kind == "ObservablesArtifact":
        return ObservablesArtifact(
            key=key,
            pair=_pair(meta["pair"]),
            theta_wrapped=np.asarray(arrays["theta_wrapped"]),
            neg_log_psi=np.asarray(arrays["neg_log_psi"]),
        )
    if kind == "SubcarrierArtifact":
        return SubcarrierArtifact(
            key=key,
            pair=_pair(meta["pair"]),
            subcarriers=tuple(int(k) for k in meta["subcarriers"]),
        )
    if kind == "ClassificationArtifact":
        return ClassificationArtifact(
            key=key,
            label=str(meta["label"]),
            confidence=float(meta["confidence"]),
        )
    if kind == "TraceQualityArtifact":
        return TraceQualityArtifact(
            key=key, report=_decode_quality_report(meta["report"], arrays)
        )
    if kind == "FeatureArtifact":
        m = meta["measurement"]
        measurement = FeatureMeasurement(
            omegas=np.asarray(arrays["omegas"]),
            delta_theta=np.asarray(arrays["delta_theta"]),
            delta_psi=np.asarray(arrays["delta_psi"]),
            gamma=int(m["gamma"]),
            pair=_pair(m["pair"]),
            subcarriers=[int(k) for k in m["subcarriers"]],
            material_name=str(m["material_name"]),
            theta_aligned=_optional_array(arrays, "theta_aligned"),
            neg_log_psi=_optional_array(arrays, "neg_log_psi"),
            omega_coarse=float(m["omega_coarse"]),
            include_coarse=bool(m["include_coarse"]),
        )
        return FeatureArtifact(key=key, measurement=measurement)
    raise IntegrityError(f"unknown artifact type {kind!r} in payload")
