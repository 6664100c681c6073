"""CSI data containers.

These are the interchange types of the whole system: the simulator emits
them, the pre-processing modules consume them.  A real deployment would
construct the same objects from Intel 5300 CSI Tool ``.dat`` parses, which
is why nothing downstream of this module knows the data is synthetic.

A :class:`CsiTrace` is one read-only ``(packets, subcarriers, antennas)``
array, so every stage reads it without a copy and the content fingerprint
keying cached stage artifacts cannot go stale.  :class:`CsiPacket` is the
per-packet type streams ingest and traces hand out as views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class CsiPacket:
    """CSI of one received packet.

    Attributes:
        csi: Complex channel matrix, shape ``(num_subcarriers, num_antennas)``.
        timestamp_s: Receive time in seconds from session start.
        sequence: Packet sequence number.
    """

    csi: np.ndarray
    timestamp_s: float = 0.0
    sequence: int = 0

    def __post_init__(self) -> None:
        csi = np.asarray(self.csi)
        if csi.ndim != 2:
            raise ValueError(
                f"csi must be 2-D (subcarriers, antennas), got shape {csi.shape}"
            )
        if not np.iscomplexobj(csi):
            raise TypeError("csi must be a complex array")
        object.__setattr__(self, "csi", csi)

    @property
    def num_subcarriers(self) -> int:
        """Number of reported subcarriers."""
        return self.csi.shape[0]

    @property
    def num_antennas(self) -> int:
        """Number of receive antennas."""
        return self.csi.shape[1]

    def amplitude(self) -> np.ndarray:
        """``|H|`` per subcarrier/antenna."""
        return np.abs(self.csi)

    def phase(self) -> np.ndarray:
        """``angle(H)`` per subcarrier/antenna, in ``(-pi, pi]``."""
        return np.angle(self.csi)


@dataclass(frozen=True, eq=False)
class CsiTrace:
    """A time-ordered CSI capture session, stored as one dense array.

    ``csi`` is complex128 ``(packets, subcarriers, antennas)``;
    ``timestamps_s`` (receive times from session start) and ``sequences``
    are ``(packets,)``.  All three are C-contiguous and read-only, taken
    without a copy when they already are (the caller hands them over).
    """

    csi: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0, 0), complex)
    )
    timestamps_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sequences: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    carrier_hz: float = 5.32e9
    label: str = ""

    def __post_init__(self) -> None:
        for name, dtype, ndim in (
            ("csi", np.complex128, 3),
            ("timestamps_s", np.float64, 1),
            ("sequences", np.int64, 1),
        ):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if array.ndim != ndim:
                raise ValueError(f"{name} must be {ndim}-D, got {array.shape}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if not self.timestamps_s.shape == self.sequences.shape == (len(self),):
            raise ValueError(
                f"{len(self)} packets need as many timestamps and sequences"
            )

    def __reduce__(self):
        # numpy unpickles arrays writeable; __init__ freezes them again.
        return CsiTrace, (
            self.csi, self.timestamps_s, self.sequences, self.carrier_hz,
            self.label,
        )

    def __len__(self) -> int:
        return self.csi.shape[0]

    def __iter__(self) -> Iterator[CsiPacket]:
        return (self[m] for m in range(len(self)))

    def __getitem__(self, index: int) -> CsiPacket:
        """Packet ``index`` as a read-only view of the trace."""
        index = int(index)
        return CsiPacket(
            csi=self.csi[index],
            timestamp_s=float(self.timestamps_s[index]),
            sequence=int(self.sequences[index]),
        )

    @property
    def packets(self) -> list[CsiPacket]:
        """Every packet as a read-only :class:`CsiPacket` view."""
        return list(self)

    @property
    def num_subcarriers(self) -> int:
        """Subcarriers per packet."""
        return self.csi.shape[1]

    @property
    def num_antennas(self) -> int:
        """Antennas per packet."""
        return self.csi.shape[2]

    def matrix(self) -> np.ndarray:
        """The stored ``(packets, subcarriers, antennas)`` array (no copy)."""
        return self.csi

    def amplitudes(self) -> np.ndarray:
        """``|H|`` over the whole trace, same shape as :meth:`matrix`."""
        return np.abs(self.csi)

    def phases(self) -> np.ndarray:
        """``angle(H)`` over the whole trace, same shape as :meth:`matrix`."""
        return np.angle(self.csi)

    def timestamps(self) -> np.ndarray:
        """Packet receive times (seconds from session start)."""
        return self.timestamps_s

    def select(self, index) -> "CsiTrace":
        """The packets at ``index`` (a slice or an index array) as a trace.

        A slice gives views of this trace's arrays; an index array (loss,
        reordering, duplication) gives new ones.
        """
        return replace(
            self, csi=self.csi[index], timestamps_s=self.timestamps_s[index],
            sequences=self.sequences[index],
        )

    def subset(self, num_packets: int) -> "CsiTrace":
        """First ``num_packets`` packets as a new trace (paper Fig. 18)."""
        if num_packets < 0:
            raise ValueError(f"num_packets must be >= 0, got {num_packets}")
        return self.select(slice(0, num_packets))

    @staticmethod
    def from_packets(
        packets: Iterable[CsiPacket],
        carrier_hz: float = 5.32e9,
        label: str = "",
    ) -> "CsiTrace":
        """Stack per-packet CSI (stream ingest, tests) into one trace."""
        packets = list(packets)
        if not packets:
            return CsiTrace(carrier_hz=carrier_hz, label=label)
        shapes = {p.csi.shape for p in packets}
        if len(shapes) > 1:
            raise ValueError(f"inconsistent packet shapes in trace: {shapes}")
        return CsiTrace(
            csi=np.stack([p.csi for p in packets]),
            timestamps_s=[p.timestamp_s for p in packets],
            sequences=[p.sequence for p in packets],
            carrier_hz=carrier_hz,
            label=label,
        )

    @staticmethod
    def from_matrix(
        matrix: np.ndarray,
        carrier_hz: float = 5.32e9,
        packet_interval_s: float = 0.01,
        label: str = "",
    ) -> "CsiTrace":
        """Build a trace from a dense ``(packets, subcarriers, antennas)``
        array (stored as is when C-contiguous complex128), with evenly
        spaced timestamps (10 ms default, as the paper's receiver logs CSI
        every 10 ms) and sequence numbers from 0."""
        sequences = np.arange(np.shape(matrix)[0])
        return CsiTrace(
            csi=matrix,
            timestamps_s=sequences * packet_interval_s,
            sequences=sequences,
            carrier_hz=carrier_hz,
            label=label,
        )
