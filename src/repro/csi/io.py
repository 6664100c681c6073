"""CSI trace serialisation.

A real WiMi deployment would log Intel 5300 CSI to disk and process it
offline; this module provides the equivalent for simulated traces and for
interoperating with external captures:

* a compact binary format (``.wimi``) closely modelled on the CSI Tool's
  log layout — per-packet records with a little-endian header and int16
  I/Q samples under a per-packet scale,
* NumPy ``.npz`` round-tripping for bulk storage of whole sessions.

The binary format is intentionally lossy in the same way the hardware is
(16-bit I/Q under automatic gain), so quantities computed from a reloaded
trace match the original to CSI-Tool-like precision.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from repro.csi.collector import CaptureSession
from repro.csi.model import CsiTrace
from repro.csi.quality import CorruptTraceError

#: Magic bytes and version of the binary trace format.
_MAGIC = b"WIMI"
_VERSION = 1

#: Per-packet record header: timestamp (f64), sequence (u32),
#: num_subcarriers (u16), num_antennas (u16), scale (f64).
_PACKET_HEADER = struct.Struct("<dIHHd")

#: File header: magic, version (u16), packet count (u32), carrier (f64).
_FILE_HEADER = struct.Struct("<4sHId")


def save_trace(trace: CsiTrace, path: str | Path) -> None:
    """Write a trace to a ``.wimi`` binary log.

    I/Q components are stored as int16 under a per-packet scale chosen so
    the largest component uses the full range (the CSI Tool's automatic
    gain, at 16 instead of 8 bits).
    """
    path = Path(path)
    with path.open("wb") as f:
        f.write(
            _FILE_HEADER.pack(_MAGIC, _VERSION, len(trace), trace.carrier_hz)
        )
        for csi, timestamp, sequence in zip(
            trace.csi, trace.timestamps_s, trace.sequences
        ):
            peak = max(
                float(np.abs(csi.real).max(initial=0.0)),
                float(np.abs(csi.imag).max(initial=0.0)),
            )
            scale = peak / 32767.0 if peak > 0 else 1.0
            f.write(
                _PACKET_HEADER.pack(
                    float(timestamp), int(sequence), *csi.shape, scale
                )
            )
            quantised = np.empty(csi.shape + (2,), dtype=np.int16)
            quantised[:, :, 0] = np.round(csi.real / scale)
            quantised[:, :, 1] = np.round(csi.imag / scale)
            f.write(quantised.tobytes())


def load_trace(path: str | Path) -> CsiTrace:
    """Read a trace written by :func:`save_trace`.

    Validates the structure as it goes and raises
    :class:`~repro.csi.quality.CorruptTraceError` (a ``ValueError``)
    carrying the byte offset of the damage on truncated or bit-flipped
    files, rather than leaking ``struct.error`` or returning garbage.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _FILE_HEADER.size:
        raise CorruptTraceError(
            f"{path}: truncated file header "
            f"({len(data)} of {_FILE_HEADER.size} bytes)",
            byte_offset=len(data),
        )
    magic, version, count, carrier = _FILE_HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise CorruptTraceError(
            f"{path}: not a WiMi trace (bad magic {magic!r} at offset 0)",
            byte_offset=0,
        )
    if version != _VERSION:
        raise CorruptTraceError(
            f"{path}: unsupported format version {version} "
            f"(expected {_VERSION})",
            byte_offset=4,
        )
    if not math.isfinite(carrier) or carrier <= 0:
        raise CorruptTraceError(
            f"{path}: corrupt carrier frequency {carrier!r} in file header",
            byte_offset=10,
        )
    offset = _FILE_HEADER.size
    csi = timestamps = sequences = None
    for index in range(count):
        if offset + _PACKET_HEADER.size > len(data):
            raise CorruptTraceError(
                f"{path}: truncated packet header for packet {index} "
                f"at offset {offset} (file has {len(data)} bytes, "
                f"header promised {count} packets)",
                byte_offset=offset,
            )
        timestamp, sequence, num_sc, num_ant, scale = _PACKET_HEADER.unpack_from(
            data, offset
        )
        if num_sc == 0 or num_ant == 0:
            raise CorruptTraceError(
                f"{path}: corrupt packet {index} header at offset {offset}: "
                f"empty dimensions ({num_sc} subcarriers x {num_ant} antennas)",
                byte_offset=offset,
            )
        if csi is None:
            # Preallocate from the first header, for no more packets than
            # the file can hold (a corrupt count must not size the array).
            record = _PACKET_HEADER.size + num_sc * num_ant * 2 * 2
            capacity = min(count, (len(data) - offset) // record)
            csi = np.empty((capacity, num_sc, num_ant), dtype=np.complex128)
            timestamps = np.empty(capacity)
            sequences = np.empty(capacity, dtype=np.int64)
        elif (num_sc, num_ant) != csi.shape[1:]:
            raise CorruptTraceError(
                f"{path}: corrupt packet {index} header at offset {offset}: "
                f"dimensions ({num_sc}, {num_ant}) disagree with the "
                f"trace's {csi.shape[1:]}",
                byte_offset=offset,
            )
        if not math.isfinite(scale) or scale <= 0:
            raise CorruptTraceError(
                f"{path}: corrupt packet {index} header at offset {offset}: "
                f"bad quantisation scale {scale!r}",
                byte_offset=offset,
            )
        if not math.isfinite(timestamp):
            raise CorruptTraceError(
                f"{path}: corrupt packet {index} header at offset {offset}: "
                f"non-finite timestamp {timestamp!r}",
                byte_offset=offset,
            )
        offset += _PACKET_HEADER.size
        body = num_sc * num_ant * 2 * 2  # int16 I/Q
        if offset + body > len(data):
            raise CorruptTraceError(
                f"{path}: truncated packet body for packet {index} at "
                f"offset {offset} (need {body} bytes, "
                f"{len(data) - offset} remain)",
                byte_offset=offset,
            )
        raw = np.frombuffer(
            data, dtype=np.int16, count=num_sc * num_ant * 2, offset=offset
        ).reshape(num_sc, num_ant, 2)
        offset += body
        csi[index] = (raw[:, :, 0].astype(float) + 1j * raw[:, :, 1]) * scale
        timestamps[index] = timestamp
        sequences[index] = sequence
    if csi is None:
        return CsiTrace(carrier_hz=carrier, label=path.stem)
    return CsiTrace(csi, timestamps, sequences, carrier, path.stem)


def save_session(session: CaptureSession, path: str | Path) -> None:
    """Write a paired session (baseline + target) to a ``.npz`` archive."""
    path = Path(path)
    np.savez_compressed(
        path,
        baseline=session.baseline.matrix(),
        target=session.target.matrix(),
        baseline_timestamps=session.baseline.timestamps(),
        target_timestamps=session.target.timestamps(),
        baseline_sequences=session.baseline.sequences,
        target_sequences=session.target.sequences,
        carrier_hz=np.array([session.baseline.carrier_hz]),
        material_name=np.array([session.material_name]),
    )


def _archived_trace(archive, name: str, carrier_hz: float) -> CsiTrace:
    """Trace ``name`` of a session archive, with its saved receive times
    and sequence numbers (loss and reordering stay visible); archives
    written without them get evenly spaced ones."""
    times, sequences = f"{name}_timestamps", f"{name}_sequences"
    if times not in archive.files or sequences not in archive.files:
        return CsiTrace.from_matrix(archive[name], carrier_hz=carrier_hz)
    return CsiTrace(
        csi=archive[name],
        timestamps_s=archive[times],
        sequences=archive[sequences],
        carrier_hz=carrier_hz,
    )


def load_session(path: str | Path) -> CaptureSession:
    """Read a session written by :func:`save_session`.

    The scene metadata is not serialised (it describes the simulator, not
    the measurement); the loaded session carries a default scene.
    """
    from repro.csi.simulator import SimulationScene

    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        required = {"baseline", "target", "carrier_hz", "material_name"}
        missing = required - set(archive.files)
        if missing:
            raise ValueError(f"{path}: missing arrays {sorted(missing)}")
        carrier = float(archive["carrier_hz"][0])
        baseline = _archived_trace(archive, "baseline", carrier)
        target = _archived_trace(archive, "target", carrier)
        material = str(archive["material_name"][0])
    return CaptureSession(
        baseline=baseline,
        target=target,
        material_name=material,
        scene=SimulationScene(),
    )
