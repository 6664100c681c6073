"""CSI capture substrate -- the reproduction's Intel 5300 stand-in.

The paper collects CSI with the Linux 802.11n CSI Tool on an Intel 5300
NIC: 30 grouped subcarriers of a 20 MHz channel, 3 RX antennas, one packet
every 10 ms.  We have no such hardware, so this package *simulates* the
capture end to end:

* :mod:`repro.csi.subcarriers` -- the 802.11n subcarrier grid and the
  Intel 5300's 30-subcarrier grouped report.
* :mod:`repro.csi.model` -- :class:`CsiPacket` / :class:`CsiTrace`
  containers, the data the rest of the system consumes.
* :mod:`repro.csi.impairments` -- every hardware nuisance the paper's
  pre-processing exists to defeat: CFO/SFO/packet-boundary-delay phase
  corruption (common across antennas on one board), per-antenna
  measurement noise, amplitude outliers and impulse noise, quantisation.
* :mod:`repro.csi.simulator` -- ties geometry + environment + material +
  impairments into packet streams.
* :mod:`repro.csi.collector` -- the paper's Data Collection Module:
  paired baseline (no target) / target capture sessions.
* :mod:`repro.csi.faults` -- seeded, composable fault injectors
  modelling degraded commodity captures (packet loss, dead antennas,
  AGC clipping, NaN subcarriers, damaged ``.wimi`` files).
* :mod:`repro.csi.quality` -- the quality boundary: trace assessment,
  gating thresholds and the ``CorruptTraceError`` /
  ``DegradedTraceWarning`` taxonomy.
"""

from repro.csi.collector import CaptureSession, DataCollector, SessionConfig
from repro.csi.impairments import HardwareProfile, IntelQuantizer
from repro.csi.io import load_session, load_trace, save_session, save_trace
from repro.csi.model import CsiPacket, CsiTrace
from repro.csi.quality import (
    CorruptTraceError,
    DegradedTraceWarning,
    SessionQualityReport,
    TraceQualityReport,
    assess_trace,
)
from repro.csi.simulator import CsiSimulator, SimulationScene
from repro.csi.subcarriers import (
    INTEL5300_NUM_SUBCARRIERS,
    intel5300_subcarrier_indices,
    subcarrier_frequencies,
)

__all__ = [
    "CaptureSession",
    "CorruptTraceError",
    "CsiPacket",
    "CsiSimulator",
    "CsiTrace",
    "DataCollector",
    "DegradedTraceWarning",
    "HardwareProfile",
    "INTEL5300_NUM_SUBCARRIERS",
    "IntelQuantizer",
    "SessionConfig",
    "SessionQualityReport",
    "SimulationScene",
    "TraceQualityReport",
    "assess_trace",
    "intel5300_subcarrier_indices",
    "load_session",
    "load_trace",
    "save_session",
    "save_trace",
    "subcarrier_frequencies",
]
