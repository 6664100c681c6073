"""Trace quality assessment and gating.

Commodity Intel 5300 captures routinely arrive degraded: dropped or
reordered packets, duplicated sequence numbers, AGC-saturated bursts,
dead antennas, zeroed or NaN subcarriers.  The paper's chain silently
assumes complete finite CSI; this module is the boundary where that
assumption is *checked* instead of hoped for.

* :func:`assess_trace` measures a :class:`TraceQualityReport` -- per
  antenna / per subcarrier finite and live fractions, packet-loss rate
  from sequence gaps, duplicate/reorder counts, AGC clipping rate.
* :func:`gate_trace` / :func:`gate_session` apply configurable
  :class:`QualityThresholds` under a policy: ``"raise"`` (any
  degradation is an error), ``"degrade"`` (hard failures raise, soft
  issues warn and the pipeline adapts), ``"skip"`` (no gating).
* The typed taxonomy -- :class:`CorruptTraceError` for input that must
  not be processed, :class:`DegradedTraceWarning` for input that can be
  processed with fallbacks -- is shared by :mod:`repro.csi.io` (file
  level), the pipeline (stage level) and the serving layer (request
  level, surfaced as ``faults.*`` counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

#: Recognised degradation policies (pipeline-wide).
POLICIES = ("raise", "degrade", "skip")


class CorruptTraceError(ValueError):
    """The input is too damaged to process (hard gate).

    Raised by :mod:`repro.csi.io` on structurally broken ``.wimi``
    files (with the byte offset of the damage) and by the quality gate
    on traces below the configured thresholds.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        #: Byte offset of the damage for file-level corruption, else None.
        self.byte_offset = byte_offset


class DegradedTraceWarning(UserWarning):
    """The input is damaged but still usable with fallbacks (soft gate)."""


@dataclass(frozen=True)
class QualityThresholds:
    """Gating thresholds of the quality boundary.

    Attributes:
        min_packets: Fewer packets than this is a hard failure (the
            variance statistics need a window).
        max_loss_rate: Hard ceiling on the sequence-gap loss rate.
        max_clipping_rate: Hard ceiling on the AGC-clipped packet share.
        min_finite_fraction: Hard floor on the whole-trace finite
            fraction.
        min_channel_live_fraction: An antenna or subcarrier whose live
            (finite and non-zero) sample fraction falls below this is
            disqualified -- excluded from selection, reported as
            dead/bad.
        min_live_antennas: Hard floor on qualified antennas (the
            phase-difference calibration needs a pair).
        min_live_subcarriers: Hard floor on qualified subcarriers.
    """

    min_packets: int = 2
    max_loss_rate: float = 0.6
    max_clipping_rate: float = 0.5
    min_finite_fraction: float = 0.5
    min_channel_live_fraction: float = 0.75
    min_live_antennas: int = 2
    min_live_subcarriers: int = 2

    def __post_init__(self) -> None:
        if self.min_packets < 1:
            raise ValueError(f"min_packets must be >= 1, got {self.min_packets}")
        for name in (
            "max_loss_rate",
            "max_clipping_rate",
            "min_finite_fraction",
            "min_channel_live_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_live_antennas < 1:
            raise ValueError(
                f"min_live_antennas must be >= 1, got {self.min_live_antennas}"
            )
        if self.min_live_subcarriers < 1:
            raise ValueError(
                f"min_live_subcarriers must be >= 1, got "
                f"{self.min_live_subcarriers}"
            )

    def with_overrides(self, **changes) -> "QualityThresholds":
        """A copy of these thresholds with some fields replaced."""
        return replace(self, **changes)


#: Default thresholds used wherever none are configured.
DEFAULT_THRESHOLDS = QualityThresholds()


@dataclass(frozen=True)
class TraceQualityReport:
    """Measured quality of one CSI trace, gated against thresholds.

    All fractions are in ``[0, 1]``.  "Finite" counts entries whose real
    and imaginary parts are finite; "live" additionally requires a
    non-negligible magnitude (a zeroed antenna is finite but dead).

    Attributes:
        num_packets: Packets in the trace.
        num_antennas: Antennas per packet.
        num_subcarriers: Subcarriers per packet.
        finite_fraction: Finite share of all CSI entries.
        antenna_finite_fraction: Per-antenna finite share, shape ``(A,)``.
        subcarrier_finite_fraction: Per-subcarrier finite share, ``(K,)``,
            measured over live antennas only (a dead chain must read as
            an antenna failure, not as a whole-band one).
        antenna_live_fraction: Per-antenna live share, shape ``(A,)``.
        subcarrier_live_fraction: Per-subcarrier live share, ``(K,)``,
            over live antennas only.
        loss_rate: Missing share of the sequence-number span.
        sequence_gaps: Count of missing sequence numbers.
        duplicate_packets: Packets re-using an already-seen sequence.
        reordered_packets: Adjacent sequence inversions.
        clipped_packets: Packets flagged as AGC-saturated.
        clipping_rate: ``clipped_packets / num_packets``.
        thresholds: The thresholds the report was gated against.
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
    thresholds: QualityThresholds = field(default_factory=QualityThresholds)

    # -- channel qualification -----------------------------------------

    @property
    def dead_antennas(self) -> tuple[int, ...]:
        """Antennas below the per-channel live-fraction threshold."""
        floor = self.thresholds.min_channel_live_fraction
        return tuple(
            int(a)
            for a in np.flatnonzero(self.antenna_live_fraction < floor)
        )

    @property
    def bad_subcarriers(self) -> tuple[int, ...]:
        """Subcarriers below the per-channel live-fraction threshold."""
        floor = self.thresholds.min_channel_live_fraction
        return tuple(
            int(k)
            for k in np.flatnonzero(self.subcarrier_live_fraction < floor)
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
        t = self.thresholds
        issues = []
        if self.num_packets < t.min_packets:
            issues.append(
                f"only {self.num_packets} packets (need >= {t.min_packets})"
            )
        if self.loss_rate > t.max_loss_rate:
            issues.append(
                f"loss rate {self.loss_rate:.0%} above {t.max_loss_rate:.0%}"
            )
        if self.clipping_rate > t.max_clipping_rate:
            issues.append(
                f"AGC clipping rate {self.clipping_rate:.0%} above "
                f"{t.max_clipping_rate:.0%}"
            )
        if self.finite_fraction < t.min_finite_fraction:
            issues.append(
                f"finite fraction {self.finite_fraction:.0%} below "
                f"{t.min_finite_fraction:.0%}"
            )
        if len(self.live_antennas) < t.min_live_antennas:
            issues.append(
                f"only {len(self.live_antennas)} live antennas "
                f"(need >= {t.min_live_antennas})"
            )
        if len(self.live_subcarriers) < t.min_live_subcarriers:
            issues.append(
                f"only {len(self.live_subcarriers)} live subcarriers "
                f"(need >= {t.min_live_subcarriers})"
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

    @property
    def is_clean(self) -> bool:
        """Whether the trace is pristine."""
        return not self.is_corrupt and not self.is_degraded

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


def assess_trace(
    trace: CsiTrace, thresholds: QualityThresholds | None = None
) -> TraceQualityReport:
    """Measure a :class:`TraceQualityReport` for one trace.

    Pure measurement -- never raises on degraded input (that is
    :func:`gate_trace`'s job).  Deterministic in the trace content.
    """
    thresholds = thresholds if thresholds is not None else DEFAULT_THRESHOLDS
    matrix = trace.matrix()
    num_packets, num_sc, num_ant = (
        matrix.shape if matrix.ndim == 3 else (0, 0, 0)
    )

    finite = np.isfinite(matrix.real) & np.isfinite(matrix.imag)
    with np.errstate(invalid="ignore"):
        live = finite & (np.abs(np.where(finite, matrix, 0.0)) > _LIVE_EPS)
    finite_fraction = float(finite.mean()) if finite.size else 0.0

    # Per-antenna fractions see all subcarriers; per-subcarrier fractions
    # see *live antennas only*.  Otherwise one dead chain of three drags
    # every subcarrier to a 2/3 live fraction and a single antenna
    # failure masquerades as a whole-band failure.
    antenna_live = _fraction(live, axis=(0, 1))
    alive = antenna_live >= thresholds.min_channel_live_fraction
    if alive.any() and not alive.all():
        sc_finite = _fraction(finite[:, :, alive], axis=(0, 2))
        sc_live = _fraction(live[:, :, alive], axis=(0, 2))
    else:
        sc_finite = _fraction(finite, axis=(0, 2))
        sc_live = _fraction(live, axis=(0, 2))

    sequences = [int(p.sequence) for p in trace]
    unique = len(set(sequences))
    duplicates = len(sequences) - unique
    span = (max(sequences) - min(sequences) + 1) if sequences else 0
    gaps = max(span - unique, 0)
    loss_rate = gaps / span if span > 0 else 0.0
    reordered = sum(
        1 for a, b in zip(sequences, sequences[1:]) if b < a
    )

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
        thresholds=thresholds,
    )


def validate_policy(policy: str) -> str:
    """Check a degradation policy name."""
    if policy not in POLICIES:
        raise ValueError(
            f"degradation policy must be one of {POLICIES}, got {policy!r}"
        )
    return policy


def gate_report(
    report: TraceQualityReport | SessionQualityReport,
    policy: str = "degrade",
    label: str = "trace",
) -> TraceQualityReport | SessionQualityReport:
    """Apply a degradation policy to an already-measured report.

    * ``"raise"``: any hard failure *or* degradation raises
      :class:`CorruptTraceError`.
    * ``"degrade"``: hard failures raise; degradations emit a
      :class:`DegradedTraceWarning` and the caller is expected to adapt.
    * ``"skip"``: no gating at all.

    Returns the report for chaining.
    """
    import warnings

    validate_policy(policy)
    if policy == "skip":
        return report
    if isinstance(report, SessionQualityReport):
        failures = (
            report.baseline.hard_failures + report.target.hard_failures
        )
        issues = report.issues
    else:
        failures = report.hard_failures
        issues = report.hard_failures + report.degradations
    if failures:
        raise CorruptTraceError(
            f"{label} rejected by quality gate: " + "; ".join(failures)
        )
    if report.is_degraded:
        if policy == "raise":
            raise CorruptTraceError(
                f"{label} degraded (policy 'raise'): " + "; ".join(issues)
            )
        warnings.warn(
            DegradedTraceWarning(
                f"{label} degraded, applying fallbacks: " + "; ".join(issues)
            ),
            stacklevel=3,
        )
    return report


def gate_trace(
    trace: CsiTrace,
    thresholds: QualityThresholds | None = None,
    policy: str = "degrade",
    label: str = "trace",
) -> TraceQualityReport:
    """Assess one trace and apply a degradation policy to the result."""
    report = assess_trace(trace, thresholds)
    gate_report(report, policy, label=label or trace.label or "trace")
    return report


def assess_session(
    session, thresholds: QualityThresholds | None = None
) -> SessionQualityReport:
    """Assess both traces of a paired capture session."""
    return SessionQualityReport(
        baseline=assess_trace(session.baseline, thresholds),
        target=assess_trace(session.target, thresholds),
    )


def gate_session(
    session,
    thresholds: QualityThresholds | None = None,
    policy: str = "degrade",
    label: str = "session",
) -> SessionQualityReport:
    """Assess a session and apply a degradation policy to the result."""
    report = assess_session(session, thresholds)
    gate_report(report, policy, label=label)
    return report
