"""Streaming feature extraction: packets in, converging Omega-bar out.

The batch pipeline buffers a whole paired capture before the first DSP
stage runs, so identify latency grows with trace length.
:class:`StreamingExtractor` consumes packets *one at a time* (or in
micro-chunks), keeps cheap running state for a converging preview, and
hands the buffered capture to the batch pipeline when the stream ends:

* phase side -- one ``(subcarrier, antenna pair)`` grid of circular
  resultants (:class:`repro.dsp.streaming.RunningCircularStats`),
  updated in O(K) per packet, converging to exactly the batch circular
  mean;
* amplitude side -- every window of :data:`STREAM_WINDOW_SIZE` raw
  amplitude rows (one starts every :data:`STREAM_HOP` packets) is
  median-imputed as it completes, and its
  per-channel sums of clipped log-amplitude and finite counts are added
  to two running ``(channels,)`` arrays.  A window is computed once and
  folded into the sums, never cached: each is new data.

``estimate()`` can be polled at any time for the preview Omega-bar with
a per-window confidence; a poll is O(K): the mean log amplitude ratio of
a pair is the difference of two running means, and each preview term is
rebuilt only when its input changes (phase grids per pushed packet,
amplitude aggregates per landed window).  The preview skips the
Sec. III-C denoiser (8-packet windows are too short for its 3-sigma
screen, and it runs no Eq. 8-13 correlation filter), so it tracks but
does not equal the final answer.  ``finalize()`` builds the
:class:`CaptureSession` from the buffered packets and returns exactly
``wimi.extract(session)`` and its classification: one extraction path,
one quality gate, one set of degraded-capture fallbacks.

Determinism: all accumulators ingest one packet per step and the window
schedule depends only on the packet count, so the preview state is a
pure function of the packet sequence -- chunk sizes 1, 7 and full-trace
give bit-identical results.  The Omega-bar history behind the
confidence is fed as each window lands, not when the caller polls, so
the finalized estimate does not depend on the poll cadence either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import MAX_GAMMA
from repro.core.feature import (
    SessionFeatures,
    coarse_omega_estimate,
    resolve_gamma,
    resolve_gamma_with_coarse,
)
from repro.csi.collector import CaptureSession
from repro.csi.model import CsiPacket, CsiTrace
from repro.dsp.ringbuffer import RowRingBuffer
from repro.dsp.stats import circular_mean, finite_mean, finite_median, wrap_phase
from repro.dsp.streaming import RunningCircularStats, RunningVariance


@dataclass(frozen=True)
class StreamingEstimate:
    """Snapshot of the converging material-feature estimate.

    Attributes:
        omega: Current Omega-bar estimate (NaN until at least one
            window has landed on each trace).
        gamma: Phase-wrap integer resolved for the current estimate.
        confidence: Heuristic in [0, 1]: phase-resultant concentration
            of both traces times a convergence score of the per-window
            Omega-bar history.  0 while no estimate exists.
        baseline_packets: Packets ingested into the baseline trace.
        target_packets: Packets ingested into the target trace.
        windows: Preview windows landed so far (both traces).
    """

    omega: float
    gamma: int
    confidence: float
    baseline_packets: int
    target_packets: int
    windows: int

    @property
    def ready(self) -> bool:
        """Whether a finite Omega-bar estimate exists yet."""
        return math.isfinite(self.omega)


@dataclass
class StreamingResult:
    """Finalized output of a streaming session.

    Attributes:
        label: Predicted material.
        confidence: Classifier confidence (centroid-margin score).
        features: Extracted feature blocks (same type the batch path
            produces, including the quality report).
        estimate: Final streaming estimate snapshot.
        session: The reassembled capture session (for auditing).
    """

    label: str
    confidence: float
    features: SessionFeatures
    estimate: StreamingEstimate
    session: CaptureSession


class _TraceStream:
    """Running state of one trace (baseline or target) of a stream."""

    def __init__(self, num_subcarriers: int, num_antennas: int, engine):
        self.num_subcarriers = num_subcarriers
        self.num_antennas = num_antennas
        self._engine = engine
        pairs = [
            (i, j)
            for i in range(num_antennas)
            for j in range(i + 1, num_antennas)
        ]
        #: Column of each antenna pair (``i < j``) in the phase grid.
        self._pair_column = {pair: col for col, pair in enumerate(pairs)}
        self._first = np.array([i for i, _ in pairs], dtype=np.intp)
        self._second = np.array([j for _, j in pairs], dtype=np.intp)
        self._phase = RunningCircularStats((num_subcarriers, len(pairs)))
        self.packets: list[CsiPacket] = []
        channels = num_subcarriers * num_antennas
        # Raw |H| rows in one contiguous arena: each window is a
        # zero-copy view of it instead of an np.stack over a row list.
        self._rows = RowRingBuffer(channels)
        #: Running per-channel sum of clipped log |H| over landed windows.
        self._log_sum = np.zeros(channels)
        #: Running per-channel count of the samples in ``_log_sum``.
        self._count = np.zeros(channels, dtype=np.int64)
        # The phase grids, built on first use and dropped by the one
        # event that changes their input, a pushed packet.  Read-only, as
        # callers get views of them.
        self._phase_grids: dict[str, np.ndarray] = {}
        self._next_start = 0
        self.windows = 0
        self.carrier_hz: float | None = None

    def __len__(self) -> int:
        return len(self.packets)

    # ------------------------------------------------------------------

    def push(self, packet: CsiPacket) -> None:
        """Ingest one packet; add any window it completes to the sums."""
        if packet.csi.shape != (self.num_subcarriers, self.num_antennas):
            raise ValueError(
                f"packet shape {packet.csi.shape} does not match the "
                f"stream's ({self.num_subcarriers}, {self.num_antennas})"
            )
        self.packets.append(packet)
        self._rows.append(np.abs(packet.csi).ravel())
        csi = packet.csi
        # A zero reading has no phase; NaN keeps it out of the mean, as
        # in the batch phase calibration.
        product = csi[:, self._first] * np.conj(csi[:, self._second])
        phase = np.angle(product)
        phase[product == 0] = np.nan
        self._phase.add(phase)
        self._phase_grids.clear()
        n = len(self._rows)
        while self._next_start + STREAM_WINDOW_SIZE <= n:
            start = self._next_start
            # Zero-copy: the window is a read-only view of the row arena.
            log_sum, count = self._engine.stream_window_denoise(
                self._rows.window(start, start + STREAM_WINDOW_SIZE)
            )
            self._log_sum += log_sum
            self._count += count
            self.windows += 1
            self._next_start += STREAM_HOP

    # ------------------------------------------------------------------

    def _column(self, pair: tuple[int, int]) -> tuple[int, bool]:
        """Phase-grid column of ``pair`` and whether it is reversed."""
        i, j = int(pair[0]), int(pair[1])
        if (i, j) in self._pair_column:
            return self._pair_column[(i, j)], False
        return self._pair_column[(j, i)], True

    def _phase_grid(self, statistic: str) -> np.ndarray:
        """The ``(K, pairs)`` grid of a :class:`RunningCircularStats`
        statistic (``"mean"``, ``"resultant_length"``), built at most
        once per pushed packet."""
        grid = self._phase_grids.get(statistic)
        if grid is None:
            grid = self._phase_grids[statistic] = getattr(
                self._phase, statistic
            )()
            grid.flags.writeable = False
        return grid

    def phase_mean(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier circular mean of the pair's phase difference."""
        column, reversed_pair = self._column(pair)
        mean = self._phase_grid("mean")[:, column]
        # angle(H_j conj H_i) = -angle(H_i conj H_j) per packet, and the
        # circular mean commutes with negation.
        return -mean if reversed_pair else mean

    def phase_resultant(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier resultant length (concentration) of the pair."""
        column, _ = self._column(pair)
        return self._phase_grid("resultant_length")[:, column]

    def mean_log_ratio(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier mean log amplitude ratio over landed windows.

        The difference of the two antennas' running mean log amplitudes,
        so O(K) whatever the stream length.  NaN on a subcarrier where
        either antenna has no sample yet (no window, or a column dead in
        every window).
        """
        mean = np.full(self._count.shape, math.nan)
        np.divide(self._log_sum, self._count, out=mean, where=self._count > 0)
        mean = mean.reshape(self.num_subcarriers, self.num_antennas)
        return mean[:, int(pair[0])] - mean[:, int(pair[1])]

    def to_trace(self, label: str) -> CsiTrace:
        """The accumulated packets as a :class:`CsiTrace`."""
        kwargs = {}
        if self.carrier_hz is not None:
            kwargs["carrier_hz"] = self.carrier_hz
        return CsiTrace.from_packets(self.packets, label=label, **kwargs)


#: Packets per preview window: each window of this many consecutive
#: packets is reduced (:func:`repro.dsp.streaming.window_log_sums`) and
#: added to the preview's running sums as soon as it completes.
STREAM_WINDOW_SIZE = 8

#: Stride (packets) between consecutive preview windows.  Below the
#: window size, so windows overlap and a packet in the overlap counts
#: once per window that covers it.
STREAM_HOP = 4


class StreamingExtractor:
    """Consumes CSI packets incrementally, emits converging Omega-bar.

    Built from a *fitted* :class:`~repro.core.pipeline.WiMi`; the
    preview reuses its deployment calibration (antenna pair, good
    subcarriers, coarse pair) and its engine's window reduction
    (``stream_window_denoise``), and :meth:`finalize` is its batch
    ``extract`` and classifier.  Windows are :data:`STREAM_WINDOW_SIZE`
    packets long and start every :data:`STREAM_HOP` packets.

    Args:
        wimi: Fitted pipeline facade.
        scene: Deployment scene recorded on the finalized session
            (optional; replays pass the original session's scene).
        material_name: Ground-truth label, when known (replays).
    """

    def __init__(self, wimi, scene=None, material_name: str = ""):
        if not wimi.is_fitted:
            raise RuntimeError(
                "WiMi is not fitted; streaming extraction needs the "
                "calibrated pairs/subcarriers and a trained classifier"
            )
        self._wimi = wimi
        self._scene = scene
        self._material_name = material_name
        calibration = wimi.calibration
        self._pair = calibration.pair
        self._subcarriers = list(calibration.main_subcarriers)
        #: The calibrated coarse pair, when distinct from the main one.
        self._coarse = (
            calibration.coarse_pair
            if calibration.coarse_pair != self._pair
            else None
        )
        if not self._subcarriers:
            raise RuntimeError(
                "WiMi has no calibrated subcarriers to stream against"
            )
        self._baseline: _TraceStream | None = None
        self._target: _TraceStream | None = None
        self._omega_track = RunningVariance()
        self._tracked_windows = 0
        #: Landed windows per trace and the amplitude aggregates built
        #: from them (:meth:`_amplitude_aggregates`).
        self._amplitude_memo = ((-1, -1), (math.nan, math.nan))
        #: The poll answer for the packets ingested so far (None: stale).
        self._poll: StreamingEstimate | None = None
        self._result: StreamingResult | None = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has run (no more packets accepted)."""
        return self._result is not None

    def _coerce_packets(self, packets) -> tuple[list[CsiPacket], float | None]:
        if isinstance(packets, CsiPacket):
            return [packets], None
        if isinstance(packets, CsiTrace):
            return packets.packets, packets.carrier_hz
        return list(packets), None

    def _stream_for(
        self, which: str, first: CsiPacket
    ) -> _TraceStream:
        existing = self._baseline if which == "baseline" else self._target
        if existing is not None:
            return existing
        num_sc, num_ant = first.csi.shape
        other = self._target if which == "baseline" else self._baseline
        if other is not None and (
            num_sc != other.num_subcarriers or num_ant != other.num_antennas
        ):
            raise ValueError(
                f"{which} packet shape {(num_sc, num_ant)} does not match "
                f"the paired trace's "
                f"({other.num_subcarriers}, {other.num_antennas})"
            )
        stream = _TraceStream(num_sc, num_ant, self._wimi.engine)
        if which == "baseline":
            self._baseline = stream
        else:
            self._target = stream
        return stream

    def _push(self, which: str, packets) -> None:
        if self._result is not None:
            raise RuntimeError("stream already finalized")
        items, carrier_hz = self._coerce_packets(packets)
        if not items:
            return
        stream = self._stream_for(which, items[0])
        if carrier_hz is not None:
            stream.carrier_hz = carrier_hz
        for packet in items:
            stream.push(packet)
            self._poll = None
            self._track()

    def push_baseline(self, packets) -> None:
        """Ingest baseline packets (a packet, a trace, or an iterable)."""
        self._push("baseline", packets)

    def push_target(self, packets) -> None:
        """Ingest target packets (a packet, a trace, or an iterable)."""
        self._push("target", packets)

    # ------------------------------------------------------------------
    # Observables from running state
    # ------------------------------------------------------------------

    # Preview Eq. 18/19 observables for a pair: the same construction as
    # the batch ``observables`` stage, with the running circular
    # resultants standing in for the packet-axis circular mean and the
    # running window means of log amplitude for the full-trace denoised
    # cubes.

    def _theta(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier Eq. 18 phase observable of ``pair``."""
        return -np.asarray(
            wrap_phase(
                self._target.phase_mean(pair)
                - self._baseline.phase_mean(pair)
            )
        )

    def _neg_log_psi(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier Eq. 19 amplitude observable of ``pair``."""
        return -(
            self._target.mean_log_ratio(pair)
            - self._baseline.mean_log_ratio(pair)
        )

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def _windows(self) -> int:
        total = 0
        for stream in (self._baseline, self._target):
            if stream is not None:
                total += stream.windows
        return total

    def estimate(self) -> StreamingEstimate:
        """Current Omega-bar estimate from the data so far.

        A poll does O(K) work on top of what ingest already paid: the
        phase resultants and the window log-amplitude sums are running
        sums, a trace's phase grids are rebuilt only after it took a
        packet and the amplitude aggregates only after a window landed,
        and repeated polls between two packets return the same
        snapshot.  NaN omega / zero confidence until both traces have at
        least one landed window.  Unlike :meth:`finalize` this
        aggregates NaN-tolerantly (a degraded subcarrier is simply
        excluded mid-stream; the quality gate runs at finalize).
        """
        if self._result is not None:
            return self._result.estimate
        if self._poll is None:
            self._poll = self._snapshot(self._resolve())
        return self._poll

    def _track(self) -> None:
        """Feed the Omega-bar history once per newly landed window.

        Runs after every ingested packet, so the history behind the
        confidence is a function of the packet sequence alone, not of
        how often the caller polls.  The estimate it builds is the poll
        answer until the next packet.
        """
        if self._baseline is None or self._target is None:
            return
        windows = self._windows()
        if windows <= self._tracked_windows:
            return
        resolved = self._resolve()
        if resolved is not None:
            self._omega_track.add(resolved[1])
            self._tracked_windows = windows
        self._poll = self._snapshot(resolved)

    def _resolve(self) -> tuple[int, float] | None:
        """``(gamma, omega)`` from the running state; None while empty."""
        if self._baseline is None or self._target is None:
            return None
        wimi = self._wimi
        n_agg, c_n_agg = self._amplitude_aggregates()
        theta_agg = circular_mean(
            self._theta(self._pair)[self._subcarriers], ignore_nan=True
        )
        if not (math.isfinite(theta_agg) and math.isfinite(n_agg)):
            return None

        # Coarse anchor from the calibrated small-lever pair, when live.
        omega_coarse = math.nan
        coarse = self._coarse
        if coarse is not None:
            c_theta_agg = circular_mean(self._theta(coarse), ignore_nan=True)
            if math.isfinite(c_theta_agg) and math.isfinite(c_n_agg):
                omega_coarse = coarse_omega_estimate(
                    c_theta_agg, c_n_agg, wimi.extractor.reference_omegas
                )
        if math.isfinite(omega_coarse) and omega_coarse > 0:
            gamma, omega = resolve_gamma_with_coarse(
                theta_agg, n_agg, omega_coarse, MAX_GAMMA
            )
        else:
            gamma, omega = resolve_gamma(
                theta_agg,
                n_agg,
                wimi.extractor.reference_omegas,
                MAX_GAMMA,
                wimi.config.gamma_strategy,
            )
        return int(gamma), float(omega)

    def _amplitude_aggregates(self) -> tuple[float, float]:
        """Finite mean of the main pair's selected Eq. 19 observable and
        finite median of the coarse pair's (NaN when absent or empty).

        Both read only the landed windows, so they are rebuilt once per
        landed window, not once per poll.
        """
        key = (self._baseline.windows, self._target.windows)
        if self._amplitude_memo[0] != key:
            n_agg = float(
                finite_mean(self._neg_log_psi(self._pair)[self._subcarriers])
            )
            coarse = self._coarse
            c_n_agg = (
                math.nan
                if coarse is None
                else float(finite_median(self._neg_log_psi(coarse)))
            )
            self._amplitude_memo = (key, (n_agg, c_n_agg))
        return self._amplitude_memo[1]

    def _snapshot(
        self, resolved: tuple[int, float] | None
    ) -> StreamingEstimate:
        """The estimate for a resolved ``(gamma, omega)`` (None: empty)."""
        if resolved is None:
            gamma, omega, confidence = 0, math.nan, 0.0
        else:
            gamma, omega = resolved
            confidence = self._confidence(self._pair, self._subcarriers)
        return StreamingEstimate(
            omega=omega,
            gamma=gamma,
            confidence=confidence,
            baseline_packets=len(self._baseline) if self._baseline else 0,
            target_packets=len(self._target) if self._target else 0,
            windows=self._windows(),
        )

    def _confidence(self, pair, subcarriers) -> float:
        """Phase concentration x Omega-bar convergence, in [0, 1]."""
        concentrations = []
        for stream in (self._baseline, self._target):
            r = finite_mean(
                np.asarray(stream.phase_resultant(pair))[subcarriers]
            )
            concentrations.append(r if math.isfinite(r) else 0.0)
        concentration = min(concentrations)
        if self._omega_track.count >= 2:
            mean = abs(self._omega_track.mean)
            spread = self._omega_track.std / max(mean, 1e-12)
            convergence = 1.0 / (1.0 + spread)
        else:
            # A single window: concentration alone, discounted.
            convergence = 0.5
        return float(min(max(concentration * convergence, 0.0), 1.0))

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------

    def finalize(self) -> StreamingResult:
        """Close the stream: batch features of the buffered capture, label.

        Returns exactly what ``wimi.extract`` and the classifier give for
        the reassembled session -- quality gating (raises on hard
        failures, warns on degradations) and every degraded-capture
        fallback included.  Idempotent: repeated calls return the same
        result.
        """
        if self._result is not None:
            return self._result
        if not self._baseline or not self._target:
            raise RuntimeError(
                "cannot finalize: both baseline and target packets are "
                "required"
            )
        wimi = self._wimi
        session = CaptureSession(
            baseline=self._baseline.to_trace("baseline/stream"),
            target=self._target.to_trace("target/stream"),
            material_name=self._material_name,
            scene=self._scene,
        )
        features = wimi.extract(session)
        artifact = wimi._classify(features)

        main = features.measurements[0]
        estimate = StreamingEstimate(
            omega=float(main.omega_mean),
            gamma=int(main.gamma),
            confidence=self._confidence(main.pair, main.subcarriers),
            baseline_packets=len(self._baseline),
            target_packets=len(self._target),
            windows=self._windows(),
        )
        self._result = StreamingResult(
            label=artifact.label,
            confidence=artifact.confidence,
            features=features,
            estimate=estimate,
            session=session,
        )
        return self._result
