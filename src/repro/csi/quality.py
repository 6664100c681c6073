"""Trace quality assessment and gating.

Commodity Intel 5300 captures routinely arrive degraded: dropped or
reordered packets, duplicated sequence numbers, AGC-saturated bursts,
dead antennas, zeroed or NaN subcarriers.  The paper's chain silently
assumes complete finite CSI; this module is the boundary where that
assumption is *checked* instead of hoped for.

* :func:`assess_trace` measures a :class:`TraceQualityReport` -- per
  antenna / per subcarrier finite and live fractions, packet-loss rate
  from sequence gaps, duplicate/reorder counts, AGC clipping rate.
* :func:`gate_report` gates a measured session: hard failures raise,
  soft issues warn and the pipeline adapts.
* The typed taxonomy -- :class:`CorruptTraceError` for input that must
  not be processed, :class:`DegradedTraceWarning` for input that can be
  processed with fallbacks -- is shared by :mod:`repro.csi.io` (file
  level), the pipeline (stage level) and the serving layer (request
  level, surfaced as ``faults.*`` counters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.csi.model import CsiTrace

#: Amplitudes below this count as "not live" (a dead or zeroed channel).
_LIVE_EPS = 1e-12

#: A component within this relative distance of the packet's peak counts
#: as sitting on the ADC rail.
_RAIL_TOLERANCE = 0.995

#: Fraction of a packet's I/Q components on the rail that flags the
#: packet as AGC-clipped.  Unclipped captures put only the peak
#: component there; a saturated burst flattens a large share.
_CLIPPED_COMPONENT_FRACTION = 0.2

class CorruptTraceError(ValueError):
    """The input is too damaged to process (hard gate).

    Raised by :mod:`repro.csi.io` on structurally broken ``.wimi``
    files (with the byte offset of the damage) and by the quality gate
    on traces below the gate's thresholds.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        #: Byte offset of the damage for file-level corruption, else None.
        self.byte_offset = byte_offset


class DegradedTraceWarning(UserWarning):
    """The input is damaged but still usable with fallbacks (soft gate)."""


# The quality gate's thresholds: one fixed gate for every deployment.

#: Fewer packets than this is a hard failure (the variance statistics
#: need a window).
MIN_PACKETS = 2
#: Hard ceiling on the sequence-gap loss rate.
MAX_LOSS_RATE = 0.6
#: Hard ceiling on the AGC-clipped packet share.
MAX_CLIPPING_RATE = 0.5
#: Hard floor on the whole-trace finite fraction.
MIN_FINITE_FRACTION = 0.5
#: An antenna or subcarrier whose live fraction (see
#: :class:`TraceQualityReport`) falls below this is disqualified --
#: excluded from selection, reported as dead/bad.
MIN_CHANNEL_LIVE_FRACTION = 0.75
#: Hard floor on qualified antennas (the phase-difference calibration
#: needs a pair).
MIN_LIVE_ANTENNAS = 2
#: Hard floor on qualified subcarriers.
MIN_LIVE_SUBCARRIERS = 2


def quality_thresholds() -> dict:
    """The gate's thresholds by name, as stored reports and registry
    bundles record them."""
    return {
        "min_packets": MIN_PACKETS,
        "max_loss_rate": MAX_LOSS_RATE,
        "max_clipping_rate": MAX_CLIPPING_RATE,
        "min_finite_fraction": MIN_FINITE_FRACTION,
        "min_channel_live_fraction": MIN_CHANNEL_LIVE_FRACTION,
        "min_live_antennas": MIN_LIVE_ANTENNAS,
        "min_live_subcarriers": MIN_LIVE_SUBCARRIERS,
    }


@dataclass(frozen=True)
class TraceQualityReport:
    """Measured quality of one CSI trace, gated against the thresholds.

    All fractions are in ``[0, 1]``.  "Finite" counts entries whose real
    and imaginary parts are finite.  "Live" is judged per packet, because
    the report quantises every packet against its own peak and a strongly
    attenuated chain reads exactly 0 on many samples while it is alive:
    an antenna is live in a packet when at least one of its subcarriers
    reads a finite non-zero value (a zeroed or NaN chain is dead), and a
    subcarrier sample is live when it is finite and some live antenna
    reads non-zero on that subcarrier in that packet.

    Attributes:
        num_packets: Packets in the trace.
        num_antennas: Antennas per packet.
        num_subcarriers: Subcarriers per packet.
        finite_fraction: Finite share of all CSI entries.
        antenna_finite_fraction: Per-antenna finite share, shape ``(A,)``.
        subcarrier_finite_fraction: Per-subcarrier finite share, ``(K,)``,
            measured over live antennas only (a dead chain must read as
            an antenna failure, not as a whole-band one).
        antenna_live_fraction: Per-antenna share of live packets, shape
            ``(A,)``.
        subcarrier_live_fraction: Per-subcarrier live sample share,
            ``(K,)``, over live antennas only.
        loss_rate: Missing share of the sequence-number span.
        sequence_gaps: Count of missing sequence numbers.
        duplicate_packets: Packets re-using an already-seen sequence.
        reordered_packets: Adjacent sequence inversions.
        clipped_packets: Packets flagged as AGC-saturated.
        clipping_rate: ``clipped_packets / num_packets``.
    """

    num_packets: int
    num_antennas: int
    num_subcarriers: int
    finite_fraction: float
    antenna_finite_fraction: np.ndarray
    subcarrier_finite_fraction: np.ndarray
    antenna_live_fraction: np.ndarray
    subcarrier_live_fraction: np.ndarray
    loss_rate: float
    sequence_gaps: int
    duplicate_packets: int
    reordered_packets: int
    clipped_packets: int
    clipping_rate: float

    # -- channel qualification -----------------------------------------

    @property
    def dead_antennas(self) -> tuple[int, ...]:
        """Antennas below the per-channel live-fraction threshold."""
        return tuple(
            int(a)
            for a in np.flatnonzero(
                self.antenna_live_fraction < MIN_CHANNEL_LIVE_FRACTION
            )
        )

    @property
    def bad_subcarriers(self) -> tuple[int, ...]:
        """Subcarriers below the per-channel live-fraction threshold."""
        return tuple(
            int(k)
            for k in np.flatnonzero(
                self.subcarrier_live_fraction < MIN_CHANNEL_LIVE_FRACTION
            )
        )

    @property
    def live_antennas(self) -> tuple[int, ...]:
        """Antennas that pass qualification."""
        dead = set(self.dead_antennas)
        return tuple(a for a in range(self.num_antennas) if a not in dead)

    @property
    def live_subcarriers(self) -> tuple[int, ...]:
        """Subcarriers that pass qualification."""
        bad = set(self.bad_subcarriers)
        return tuple(k for k in range(self.num_subcarriers) if k not in bad)

    # -- gating ---------------------------------------------------------

    @property
    def hard_failures(self) -> tuple[str, ...]:
        """Threshold violations that make the trace unprocessable."""
        issues = []
        if self.num_packets < MIN_PACKETS:
            issues.append(
                f"only {self.num_packets} packets (need >= {MIN_PACKETS})"
            )
        if self.loss_rate > MAX_LOSS_RATE:
            issues.append(
                f"loss rate {self.loss_rate:.0%} above {MAX_LOSS_RATE:.0%}"
            )
        if self.clipping_rate > MAX_CLIPPING_RATE:
            issues.append(
                f"AGC clipping rate {self.clipping_rate:.0%} above "
                f"{MAX_CLIPPING_RATE:.0%}"
            )
        if self.finite_fraction < MIN_FINITE_FRACTION:
            issues.append(
                f"finite fraction {self.finite_fraction:.0%} below "
                f"{MIN_FINITE_FRACTION:.0%}"
            )
        if len(self.live_antennas) < MIN_LIVE_ANTENNAS:
            issues.append(
                f"only {len(self.live_antennas)} live antennas "
                f"(need >= {MIN_LIVE_ANTENNAS})"
            )
        if len(self.live_subcarriers) < MIN_LIVE_SUBCARRIERS:
            issues.append(
                f"only {len(self.live_subcarriers)} live subcarriers "
                f"(need >= {MIN_LIVE_SUBCARRIERS})"
            )
        return tuple(issues)

    @property
    def degradations(self) -> tuple[str, ...]:
        """Soft issues a degradation-aware pipeline can work around."""
        issues = []
        if self.dead_antennas:
            issues.append(f"dead antenna(s) {list(self.dead_antennas)}")
        if self.bad_subcarriers:
            issues.append(f"bad subcarrier(s) {list(self.bad_subcarriers)}")
        if self.sequence_gaps:
            issues.append(
                f"{self.sequence_gaps} lost packet(s) "
                f"({self.loss_rate:.0%} loss)"
            )
        if self.duplicate_packets:
            issues.append(f"{self.duplicate_packets} duplicated packet(s)")
        if self.reordered_packets:
            issues.append(f"{self.reordered_packets} reordered packet(s)")
        if self.clipped_packets:
            issues.append(
                f"{self.clipped_packets} AGC-clipped packet(s) "
                f"({self.clipping_rate:.0%})"
            )
        if self.finite_fraction < 1.0:
            issues.append(
                f"non-finite CSI entries "
                f"({1.0 - self.finite_fraction:.1%} of the trace)"
            )
        return tuple(issues)

    @property
    def is_corrupt(self) -> bool:
        """Whether the trace fails a hard gate."""
        return bool(self.hard_failures)

    @property
    def is_degraded(self) -> bool:
        """Whether the trace carries soft issues (fallbacks needed)."""
        return bool(self.degradations)

    def to_dict(self) -> dict:
        """Plain-data rendering for JSON artifacts and metric snapshots."""
        return {
            "num_packets": self.num_packets,
            "num_antennas": self.num_antennas,
            "num_subcarriers": self.num_subcarriers,
            "finite_fraction": round(self.finite_fraction, 6),
            "loss_rate": round(self.loss_rate, 6),
            "sequence_gaps": self.sequence_gaps,
            "duplicate_packets": self.duplicate_packets,
            "reordered_packets": self.reordered_packets,
            "clipping_rate": round(self.clipping_rate, 6),
            "dead_antennas": list(self.dead_antennas),
            "bad_subcarriers": list(self.bad_subcarriers),
            "is_corrupt": self.is_corrupt,
            "is_degraded": self.is_degraded,
            "hard_failures": list(self.hard_failures),
            "degradations": list(self.degradations),
        }


@dataclass(frozen=True)
class SessionQualityReport:
    """Quality of a paired capture session (baseline + target)."""

    baseline: TraceQualityReport
    target: TraceQualityReport

    @property
    def dead_antennas(self) -> tuple[int, ...]:
        """Union of both traces' dead antennas."""
        return tuple(
            sorted(
                set(self.baseline.dead_antennas)
                | set(self.target.dead_antennas)
            )
        )

    @property
    def bad_subcarriers(self) -> tuple[int, ...]:
        """Union of both traces' disqualified subcarriers."""
        return tuple(
            sorted(
                set(self.baseline.bad_subcarriers)
                | set(self.target.bad_subcarriers)
            )
        )

    @property
    def is_corrupt(self) -> bool:
        """Whether either trace fails a hard gate."""
        return self.baseline.is_corrupt or self.target.is_corrupt

    @property
    def is_degraded(self) -> bool:
        """Whether either trace carries soft issues."""
        return self.baseline.is_degraded or self.target.is_degraded

    @property
    def issues(self) -> tuple[str, ...]:
        """All issues of both traces, prefixed by the trace they afflict."""
        out = []
        for prefix, report in (("baseline", self.baseline),
                               ("target", self.target)):
            for issue in report.hard_failures + report.degradations:
                out.append(f"{prefix}: {issue}")
        return tuple(out)

    def to_dict(self) -> dict:
        """Plain-data rendering (JSON artifacts, metric snapshots)."""
        return {
            "baseline": self.baseline.to_dict(),
            "target": self.target.to_dict(),
            "dead_antennas": list(self.dead_antennas),
            "bad_subcarriers": list(self.bad_subcarriers),
            "is_corrupt": self.is_corrupt,
            "is_degraded": self.is_degraded,
        }


# ----------------------------------------------------------------------
# Assessment
# ----------------------------------------------------------------------


def _fraction(mask: np.ndarray, axis: tuple[int, ...]) -> np.ndarray:
    """Mean of a boolean mask along ``axis`` without empty-slice warnings."""
    total = 1
    for a in axis:
        total *= mask.shape[a]
    if total == 0:
        return np.zeros([s for i, s in enumerate(mask.shape) if i not in axis])
    return mask.sum(axis=axis) / float(total)


def _clipped_packet_count(matrix: np.ndarray) -> int:
    """Packets whose I/Q components pile up on the per-packet ADC rail."""
    if matrix.shape[0] == 0:
        return 0
    components = np.stack([np.abs(matrix.real), np.abs(matrix.imag)], axis=-1)
    components = np.where(np.isfinite(components), components, 0.0)
    rails = components.max(axis=(1, 2, 3))  # per-packet peak component
    at_rail = components >= _RAIL_TOLERANCE * rails[:, None, None, None]
    clipped = (rails > _LIVE_EPS) & (
        at_rail.mean(axis=(1, 2, 3)) >= _CLIPPED_COMPONENT_FRACTION
    )
    return int(clipped.sum())


def assess_trace(trace: CsiTrace) -> TraceQualityReport:
    """Measure a :class:`TraceQualityReport` for one trace.

    Pure measurement -- never raises on degraded input (that is
    :func:`gate_report`'s job).  Deterministic in the trace content.
    """
    matrix = trace.matrix()
    num_packets, num_sc, num_ant = matrix.shape

    finite = np.isfinite(matrix.real) & np.isfinite(matrix.imag)
    with np.errstate(invalid="ignore"):
        live = finite & (np.abs(np.where(finite, matrix, 0.0)) > _LIVE_EPS)
    finite_fraction = float(finite.mean()) if finite.size else 0.0

    # An exact zero alone does not mean death: the report quantises each
    # packet against its own peak, so a strongly attenuated chain reads 0
    # on a large share of its samples while staying live.  A chain is
    # dead in a packet only when none of its subcarriers reads a finite
    # non-zero value there.
    antenna_live = _fraction(live.any(axis=1), axis=(0,))
    alive = antenna_live >= MIN_CHANNEL_LIVE_FRACTION
    # Per-subcarrier fractions see *live antennas only*; otherwise one
    # dead chain of three drags every subcarrier to a 2/3 live fraction
    # and a single antenna failure masquerades as a whole-band failure.
    # A sample is live when it is finite and its subcarrier reads
    # non-zero on some live antenna in that packet: a non-finite cell is
    # always dead, a zero only when the whole subcarrier is silent.
    columns = alive if alive.any() else slice(None)
    sc_finite = _fraction(finite[:, :, columns], axis=(0, 2))
    sc_live = _fraction(
        finite[:, :, columns] & live[:, :, columns].any(axis=2, keepdims=True),
        axis=(0, 2),
    )

    sequences = trace.sequences
    unique = np.unique(sequences).size
    duplicates = sequences.size - unique
    span = int(sequences.max() - sequences.min() + 1) if sequences.size else 0
    gaps = max(span - unique, 0)
    loss_rate = gaps / span if span > 0 else 0.0
    reordered = int(np.count_nonzero(np.diff(sequences) < 0))

    clipped = _clipped_packet_count(matrix)

    return TraceQualityReport(
        num_packets=num_packets,
        num_antennas=num_ant,
        num_subcarriers=num_sc,
        finite_fraction=finite_fraction,
        antenna_finite_fraction=_fraction(finite, axis=(0, 1)),
        subcarrier_finite_fraction=sc_finite,
        antenna_live_fraction=antenna_live,
        subcarrier_live_fraction=sc_live,
        loss_rate=float(loss_rate),
        sequence_gaps=int(gaps),
        duplicate_packets=int(duplicates),
        reordered_packets=int(reordered),
        clipped_packets=int(clipped),
        clipping_rate=clipped / num_packets if num_packets else 0.0,
    )


def gate_report(
    report: SessionQualityReport, label: str = "session"
) -> SessionQualityReport:
    """Gate an already-measured session report.

    Hard failures raise :class:`CorruptTraceError`; degradations emit a
    :class:`DegradedTraceWarning` and the caller is expected to adapt.
    Returns the report for chaining.
    """
    import warnings

    failures = report.baseline.hard_failures + report.target.hard_failures
    if failures:
        raise CorruptTraceError(
            f"{label} rejected by quality gate: " + "; ".join(failures)
        )
    if report.is_degraded:
        warnings.warn(
            DegradedTraceWarning(
                f"{label} degraded, applying fallbacks: "
                + "; ".join(report.issues)
            ),
            stacklevel=3,
        )
    return report
