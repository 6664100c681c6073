"""Composable, seeded fault injectors for CSI traces and ``.wimi`` logs.

Each injector models one receiver-side failure mode of a commodity Intel
5300 capture chain:

* :class:`PacketLoss` -- dropped CSI reports (sequence gaps remain
  visible, exactly as on real hardware).
* :class:`PacketReorder` -- out-of-order delivery from the logging path.
* :class:`DuplicatePackets` -- duplicated sequence numbers (firmware
  retransmit echoes).
* :class:`AntennaDropout` -- one RF chain dead (NaN or zeroed readings).
* :class:`AgcClipping` -- an AGC-saturated burst: I/Q components of a
  contiguous packet run slammed onto the ADC rail.
* :class:`SubcarrierErasure` -- zeroed or NaN subcarriers (pilot
  stripping, interpolation bugs, interference nulls).
* :class:`TimestampJitter` -- host-clock jitter on receive timestamps.

Injectors are frozen dataclasses applied through :func:`inject` /
:func:`inject_session` with an explicit seed, so any degraded capture is
exactly reproducible.  :func:`truncate_file` and :func:`flip_bits`
damage on-disk ``.wimi`` logs for exercising :mod:`repro.csi.io`'s
corruption handling.

None of the injectors mutate their input (a trace is read-only): every
application returns a new :class:`~repro.csi.model.CsiTrace`.  Packet
faults are one index selection of the trace, matrix faults write into a
copy of its CSI array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.csi.collector import CaptureSession
from repro.csi.model import CsiTrace


@runtime_checkable
class TraceFault(Protocol):
    """A deterministic-given-``rng`` transformation of a trace."""

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        """Return a degraded copy of ``trace``."""
        ...


def _check_rate(name: str, value: float, upper: float = 1.0) -> None:
    if not 0.0 <= value <= upper:
        raise ValueError(f"{name} must be in [0, {upper}], got {value}")


@dataclass(frozen=True)
class PacketLoss:
    """Drop packets independently with probability ``rate``.

    Kept packets retain their original sequence numbers and timestamps,
    so the loss remains visible as sequence gaps -- exactly what
    :func:`repro.csi.quality.assess_trace` measures as ``loss_rate``.
    ``min_keep`` packets always survive (an all-dropped capture is a
    different failure -- an empty file -- not packet loss).
    """

    rate: float
    min_keep: int = 2

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)
        if self.min_keep < 1:
            raise ValueError(f"min_keep must be >= 1, got {self.min_keep}")

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        n = len(trace)
        keep = rng.random(n) >= self.rate
        if keep.sum() < min(self.min_keep, n):
            forced = rng.choice(n, size=min(self.min_keep, n), replace=False)
            keep[forced] = True
        return trace.select(np.flatnonzero(keep))


@dataclass(frozen=True)
class PacketReorder:
    """Swap a ``fraction`` of adjacent packet pairs (late delivery)."""

    fraction: float

    def __post_init__(self) -> None:
        _check_rate("fraction", self.fraction)

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        n = len(trace)
        order = np.arange(n)
        num_swaps = int(round(self.fraction * max(n - 1, 0)))
        if num_swaps > 0:
            positions = rng.choice(n - 1, size=num_swaps, replace=False)
            for pos in positions:
                order[[pos, pos + 1]] = order[[pos + 1, pos]]
        return trace.select(order)


@dataclass(frozen=True)
class DuplicatePackets:
    """Re-deliver packets with probability ``rate`` (same sequence number)."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        duplicated = rng.random(len(trace)) < self.rate
        return trace.select(np.repeat(np.arange(len(trace)), 1 + duplicated))


@dataclass(frozen=True)
class AntennaDropout:
    """Kill one RF chain for the whole trace.

    ``antenna=None`` picks the victim from ``rng``.  ``mode="nan"``
    models a parser that flags missing chains; ``mode="zero"`` models the
    nastier real-world case where the dead chain reads as silence --
    finite, plausible-looking, and (phase-wise) perfectly "stable"
    garbage that only a live-fraction check can disqualify.
    """

    antenna: int | None = None
    mode: str = "nan"

    def __post_init__(self) -> None:
        if self.mode not in ("nan", "zero"):
            raise ValueError(f"mode must be 'nan' or 'zero', got {self.mode!r}")
        if self.antenna is not None and self.antenna < 0:
            raise ValueError(f"antenna must be >= 0, got {self.antenna}")

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        num_ant = trace.num_antennas
        if num_ant == 0:
            return trace
        victim = (
            int(rng.integers(num_ant)) if self.antenna is None else self.antenna
        )
        if victim >= num_ant:
            raise ValueError(
                f"antenna {victim} out of range [0, {num_ant})"
            )
        fill = complex("nan+nanj") if self.mode == "nan" else 0.0 + 0.0j
        matrix = trace.matrix().copy()
        matrix[:, :, victim] = fill
        return replace(trace, csi=matrix)


@dataclass(frozen=True)
class AgcClipping:
    """Saturate a contiguous burst of packets on the ADC rail.

    For each packet of a burst covering ``fraction`` of the trace, I/Q
    components are clipped at ``level`` times the packet's own peak
    component -- the flat-topped waveform an overdriven AGC produces.
    """

    fraction: float
    level: float = 0.3

    def __post_init__(self) -> None:
        _check_rate("fraction", self.fraction)
        if not 0.0 < self.level <= 1.0:
            raise ValueError(f"level must be in (0, 1], got {self.level}")

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        n = len(trace)
        burst = int(round(self.fraction * n))
        if burst == 0 or n == 0:
            return trace
        start = int(rng.integers(max(n - burst, 0) + 1))
        matrix = trace.matrix().copy()
        rows = matrix[start:start + burst]
        components = np.stack([np.abs(rows.real), np.abs(rows.imag)], axis=1)
        peaks = np.where(np.isfinite(components), components, 0.0)
        rails = self.level * peaks.max(axis=(1, 2, 3))
        # A burst packet without a finite non-zero component stays as is.
        live = rails > 0.0
        rail, clipped = rails[live, None, None], rows[live]
        rows[live] = np.clip(clipped.real, -rail, rail) + 1j * np.clip(
            clipped.imag, -rail, rail
        )
        return replace(trace, csi=matrix)


@dataclass(frozen=True)
class SubcarrierErasure:
    """Erase subcarriers to NaN or zero.

    ``scope="column"`` kills a ``rate`` share of whole subcarrier columns
    for the full trace (interference null, pilot stripping);
    ``scope="cells"`` erases independent ``(packet, subcarrier, antenna)``
    cells with probability ``rate`` (sporadic parser glitches).
    """

    rate: float
    mode: str = "nan"
    scope: str = "column"

    def __post_init__(self) -> None:
        _check_rate("rate", self.rate)
        if self.mode not in ("nan", "zero"):
            raise ValueError(f"mode must be 'nan' or 'zero', got {self.mode!r}")
        if self.scope not in ("column", "cells"):
            raise ValueError(
                f"scope must be 'column' or 'cells', got {self.scope!r}"
            )

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        matrix = trace.matrix().copy()
        if matrix.size == 0:
            return trace
        fill = complex("nan+nanj") if self.mode == "nan" else 0.0 + 0.0j
        num_sc = matrix.shape[1]
        if self.scope == "column":
            victims = int(round(self.rate * num_sc))
            if victims > 0:
                columns = rng.choice(num_sc, size=victims, replace=False)
                matrix[:, columns, :] = fill
        else:
            mask = rng.random(matrix.shape) < self.rate
            matrix[mask] = fill
        return replace(trace, csi=matrix)


@dataclass(frozen=True)
class TimestampJitter:
    """Add zero-mean Gaussian jitter (std ``std_s`` seconds) to timestamps."""

    std_s: float

    def __post_init__(self) -> None:
        if self.std_s < 0:
            raise ValueError(f"std_s must be >= 0, got {self.std_s}")

    def apply(self, trace: CsiTrace, rng: np.random.Generator) -> CsiTrace:
        offsets = rng.normal(0.0, self.std_s, size=len(trace))
        return replace(trace, timestamps_s=trace.timestamps_s + offsets)


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------


def inject(
    trace: CsiTrace,
    faults: Sequence[TraceFault],
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> CsiTrace:
    """Apply a fault chain to a trace, in order, under one seeded stream.

    Exactly one of ``seed``/``rng`` selects the randomness source;
    passing neither uses a fresh default generator (non-reproducible --
    fine for ad-hoc exploration, wrong for experiments).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    elif seed is not None:
        raise ValueError("pass either seed or rng, not both")
    degraded = trace
    for fault in faults:
        degraded = fault.apply(degraded, rng)
    return degraded


def inject_session(
    session: CaptureSession,
    faults: Sequence[TraceFault],
    seed: int | None = None,
    baseline_faults: Sequence[TraceFault] | None = None,
) -> CaptureSession:
    """Apply fault chains to both traces of a paired session.

    ``faults`` hits the target trace; ``baseline_faults`` (default: the
    same chain) hits the baseline.  Both draw from one seeded stream so
    a single ``seed`` pins the whole degraded session.
    """
    rng = np.random.default_rng(seed)
    if baseline_faults is None:
        baseline_faults = faults
    return replace(
        session,
        baseline=inject(session.baseline, baseline_faults, rng=rng),
        target=inject(session.target, faults, rng=rng),
    )


# ----------------------------------------------------------------------
# On-disk faults for ``.wimi`` logs
# ----------------------------------------------------------------------


def truncate_file(path: str | Path, keep_fraction: float = 0.5) -> int:
    """Truncate a file to ``keep_fraction`` of its bytes; returns new size."""
    _check_rate("keep_fraction", keep_fraction)
    path = Path(path)
    data = path.read_bytes()
    kept = int(len(data) * keep_fraction)
    path.write_bytes(data[:kept])
    return kept


def flip_bits(
    path: str | Path, num_flips: int = 8, seed: int | None = None
) -> list[int]:
    """Flip ``num_flips`` random bits in a file; returns hit byte offsets."""
    if num_flips < 0:
        raise ValueError(f"num_flips must be >= 0, got {num_flips}")
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data or num_flips == 0:
        return []
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, len(data), size=num_flips)
    bits = rng.integers(0, 8, size=num_flips)
    for offset, bit in zip(offsets, bits):
        data[int(offset)] ^= 1 << int(bit)
    path.write_bytes(bytes(data))
    return sorted(int(o) for o in offsets)
