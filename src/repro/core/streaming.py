"""Streaming feature extraction: packets in, converging Omega-bar out.

The batch pipeline buffers a whole paired capture before the first DSP
stage runs, so identify latency grows with trace length.
:class:`StreamingExtractor` consumes packets *one at a time* (or in
micro-chunks) and keeps per-trace running state instead:

* phase side -- one ``(subcarrier, antenna pair)`` grid of circular
  resultants (:class:`repro.dsp.streaming.RunningCircularStats`),
  updated in O(K) per packet, converging to exactly the batch circular
  mean;
* amplitude side -- raw amplitude rows buffered and denoised in
  fixed-size overlapping windows as each window completes (the
  ``stream_window_denoise`` engine stage, so windows are cached by
  content), overlap-added into a running denoised estimate.

``estimate()`` can be polled at any time for the current Omega-bar with
a per-window confidence.  A poll does O(K) new work: the amplitude
observables only change when a window lands, so each trace memoizes
its per-pair mean log ratio per window.  ``finalize()`` emits a tail
window covering the last packets, runs the session through the same
quality gate and degraded-capture fallbacks as the batch path, and
extracts :class:`~repro.core.feature.SessionFeatures` via the existing
``measure_from_observables`` + gamma-resolution machinery.

Determinism: all accumulators ingest one packet per step and the window
schedule depends only on the final packet count, so the finalized
features are a pure function of the packet sequence -- chunk sizes 1, 7
and full-trace give bit-identical results.  The Omega-bar history
behind the confidence is fed as each window lands, not when the caller
polls, so the finalized estimate does not depend on the poll cadence
either.  The finalized *values* differ from the batch path only
through the windowed-vs-full-trace wavelet denoise (documented
tolerance in ``tests/test_perf_equivalence.py``); predictions match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.amplitude import _AMPLITUDE_EPS
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
from repro.dsp.streaming import (
    OverlapWindowDenoiser,
    RollingMad,
    RunningCircularStats,
    RunningVariance,
)


@dataclass(frozen=True)
class StreamingEstimate:
    """Snapshot of the converging material-feature estimate.

    Attributes:
        omega: Current Omega-bar estimate (NaN until at least one
            denoised window exists on each trace).
        gamma: Phase-wrap integer resolved for the current estimate.
        confidence: Heuristic in [0, 1]: phase-resultant concentration
            of both traces times a convergence score of the per-window
            Omega-bar history.  0 while no estimate exists.
        baseline_packets: Packets ingested into the baseline trace.
        target_packets: Packets ingested into the target trace.
        windows_denoised: Denoised windows so far (both traces).
        amplitude_mad: Rolling MAD of the target's per-packet log
            amplitude ratio (raw-data noise diagnostic; NaN while
            empty).
    """

    omega: float
    gamma: int
    confidence: float
    baseline_packets: int
    target_packets: int
    windows_denoised: int
    amplitude_mad: float

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

    def __init__(self, num_subcarriers: int, num_antennas: int, denoise):
        self.num_subcarriers = num_subcarriers
        self.num_antennas = num_antennas
        self._denoise = denoise  # (rows, start) -> denoised rows
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
        # Raw |H| rows in one contiguous arena: each denoise window is a
        # zero-copy view of it instead of an np.stack over a row list.
        self._rows = RowRingBuffer(channels)
        self._den_sum = np.zeros((0, channels))
        self._weight = np.zeros((0, channels), dtype=np.int64)
        self._next_start = 0
        self._covered_end = 0
        self.windows_denoised = 0
        self.carrier_hz: float | None = None
        #: pair -> (windows_denoised when computed, mean log ratio).
        self._ratio_memo: dict[tuple[int, int], tuple[int, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.packets)

    # ------------------------------------------------------------------

    def push(
        self, packet: CsiPacket, window_size: int, hop: int
    ) -> np.ndarray:
        """Ingest one packet; denoise any window it completes.

        Returns the packet's raw amplitude row (for diagnostics).
        """
        if packet.csi.shape != (self.num_subcarriers, self.num_antennas):
            raise ValueError(
                f"packet shape {packet.csi.shape} does not match the "
                f"stream's ({self.num_subcarriers}, {self.num_antennas})"
            )
        self.packets.append(packet)
        row = self._rows.append(np.abs(packet.csi).ravel())
        csi = packet.csi
        self._phase.add(
            np.angle(csi[:, self._first] * np.conj(csi[:, self._second]))
        )
        n = len(self._rows)
        while self._next_start + window_size <= n:
            self._emit_window(self._next_start, window_size)
            self._next_start += hop
        return row

    def _emit_window(self, start: int, window_size: int) -> None:
        stop = min(start + window_size, len(self._rows))
        # Zero-copy: the window is a contiguous read-only view of the
        # row arena; the denoise stage hashes and reads it, never
        # mutates it (its outputs are fresh arrays).
        slab = self._rows.window(start, stop)
        out = np.asarray(self._denoise(slab, start), dtype=float)
        self._ensure_capacity(stop)
        OverlapWindowDenoiser.accumulate(
            self._den_sum, self._weight, start, out
        )
        self._covered_end = max(self._covered_end, stop)
        self.windows_denoised += 1

    def finalize_windows(self, window_size: int) -> None:
        """Emit the tail window so every packet is denoised at least once."""
        n = len(self._rows)
        if n == 0 or self._covered_end >= n:
            return
        self._emit_window(max(n - window_size, 0), window_size)

    def _ensure_capacity(self, rows: int) -> None:
        have = self._den_sum.shape[0]
        if have >= rows:
            return
        capacity = max(16, 2 * have, rows)
        channels = self._den_sum.shape[1]
        den_sum = np.zeros((capacity, channels))
        den_sum[:have] = self._den_sum
        weight = np.zeros((capacity, channels), dtype=np.int64)
        weight[:have] = self._weight
        self._den_sum = den_sum
        self._weight = weight

    # ------------------------------------------------------------------

    def _column(self, pair: tuple[int, int]) -> tuple[int, bool]:
        """Phase-grid column of ``pair`` and whether it is reversed."""
        i, j = int(pair[0]), int(pair[1])
        if (i, j) in self._pair_column:
            return self._pair_column[(i, j)], False
        return self._pair_column[(j, i)], True

    def phase_mean(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier circular mean of the pair's phase difference."""
        column, reversed_pair = self._column(pair)
        mean = self._phase.mean()[:, column]
        # angle(H_j conj H_i) = -angle(H_i conj H_j) per packet, and the
        # circular mean commutes with negation.
        return -mean if reversed_pair else mean

    def phase_resultant(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier resultant length (concentration) of the pair."""
        column, _ = self._column(pair)
        return self._phase.resultant_length()[:, column]

    def denoised(self) -> np.ndarray:
        """Current denoised cube ``(n, K, A)``; NaN where not yet covered.

        Resolves the overlap buffers on every call, so it costs O(n);
        the poll path reads :meth:`mean_log_ratio`, which calls this
        once per pair per window.
        """
        n = len(self._rows)
        if n == 0:
            raise ValueError("empty stream")
        self._ensure_capacity(n)
        den = OverlapWindowDenoiser.resolve(
            self._den_sum[:n], self._weight[:n]
        )
        den = np.clip(den, _AMPLITUDE_EPS, None)
        return den.reshape(n, self.num_subcarriers, self.num_antennas)

    def mean_log_ratio(self, pair: tuple[int, int]) -> np.ndarray:
        """Per-subcarrier mean log amplitude ratio over denoised packets.

        Memoized per window: rows no window covers yet are NaN and the
        finite mean skips them, so the value only changes when a window
        lands.  The returned array is read-only.
        """
        key = (int(pair[0]), int(pair[1]))
        memo = self._ratio_memo.get(key)
        if memo is not None and memo[0] == self.windows_denoised:
            return memo[1]
        value = self._reduce_log_ratio(key)
        value.setflags(write=False)
        self._ratio_memo[key] = (self.windows_denoised, value)
        return value

    def _reduce_log_ratio(self, pair: tuple[int, int]) -> np.ndarray:
        """The full-cube reduction behind :meth:`mean_log_ratio`."""
        i, j = pair
        den = self.denoised()
        return finite_mean(np.log(den[:, :, i] / den[:, :, j]), axis=0)

    def to_trace(self, label: str) -> CsiTrace:
        """The accumulated packets as a :class:`CsiTrace`."""
        kwargs = {}
        if self.carrier_hz is not None:
            kwargs["carrier_hz"] = self.carrier_hz
        return CsiTrace(packets=list(self.packets), label=label, **kwargs)


class StreamingExtractor:
    """Consumes CSI packets incrementally, emits converging Omega-bar.

    Built from a *fitted* :class:`~repro.core.pipeline.WiMi`; reuses its
    deployment calibration (antenna pairs, good subcarriers), its
    engine (streaming windows are cached ``stream_window_denoise``
    stage artifacts) and, at :meth:`finalize`, its quality gate,
    degraded-capture fallbacks and classifier.

    Args:
        wimi: Fitted pipeline facade.
        scene: Deployment scene recorded on the finalized session
            (optional; replays pass the original session's scene).
        window_size: Streaming window override (default
            ``config.stream_window_size``).
        hop: Window stride override (default ``config.stream_hop``).
        material_name: Ground-truth label, when known (replays).
    """

    def __init__(
        self,
        wimi,
        scene=None,
        window_size: int | None = None,
        hop: int | None = None,
        material_name: str = "",
    ):
        if not wimi.is_fitted:
            raise RuntimeError(
                "WiMi is not fitted; streaming extraction needs the "
                "calibrated pairs/subcarriers and a trained classifier"
            )
        self._wimi = wimi
        self._scene = scene
        self._material_name = material_name
        config = wimi.config
        self.window_size = (
            int(window_size) if window_size is not None
            else config.stream_window_size
        )
        self.hop = int(hop) if hop is not None else config.stream_hop
        if self.window_size < 1:
            raise ValueError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        if not 1 <= self.hop <= self.window_size:
            raise ValueError(
                f"hop must be in [1, window_size={self.window_size}], "
                f"got {self.hop}"
            )
        self._pair = wimi.calibrated_pair
        self._subcarriers = wimi.calibrated_subcarriers
        if self._pair is None or not self._subcarriers:
            raise RuntimeError(
                "WiMi has no calibrated pair/subcarriers to stream against"
            )
        self._baseline: _TraceStream | None = None
        self._target: _TraceStream | None = None
        self._omega_track = RunningVariance()
        self._tracked_windows = 0
        self._ratio_mad = RollingMad(window=4 * self.window_size)
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
            return list(packets.packets), packets.carrier_hz
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
        engine = self._wimi.engine
        stream = _TraceStream(
            num_sc,
            num_ant,
            denoise=lambda rows, start: engine.stream_window_denoise(
                rows, start
            ).amplitudes,
        )
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
        i, j = self._pair
        for packet in items:
            row = stream.push(packet, self.window_size, self.hop)
            if which == "target":
                amp = np.clip(
                    row.reshape(stream.num_subcarriers, stream.num_antennas),
                    _AMPLITUDE_EPS,
                    None,
                )
                self._ratio_mad.add(
                    finite_mean(np.log(amp[:, i] / amp[:, j]))
                )
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

    def _observables(
        self, pair: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 18/19 observables for ``pair`` from the running state.

        Same construction as the batch ``observables`` stage, with the
        running circular resultants standing in for the packet-axis
        circular mean and the overlap-added windows standing in for the
        full-trace denoised cubes.
        """
        base = self._baseline
        target = self._target
        theta = -np.asarray(
            wrap_phase(target.phase_mean(pair) - base.phase_mean(pair))
        )
        neg_log_psi = -(
            target.mean_log_ratio(pair) - base.mean_log_ratio(pair)
        )
        return theta, neg_log_psi

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def _windows_denoised(self) -> int:
        total = 0
        for stream in (self._baseline, self._target):
            if stream is not None:
                total += stream.windows_denoised
        return total

    def estimate(self) -> StreamingEstimate:
        """Current Omega-bar estimate from the data so far.

        A poll does O(K) work on top of what ingest already paid: the
        phase resultants are running sums, the amplitude observables are
        memoized per window, and repeated polls between two packets
        return the same snapshot.  NaN omega / zero confidence until
        both traces have at least one denoised window.  Unlike
        :meth:`finalize` this aggregates NaN-tolerantly (a degraded
        subcarrier is simply excluded mid-stream; the hard quality
        gate runs at finalize).
        """
        if self._result is not None:
            return self._result.estimate
        if self._poll is None:
            self._poll = self._snapshot(self._resolve())
        return self._poll

    def _track(self) -> None:
        """Feed the Omega-bar history once per newly denoised window.

        Runs after every ingested packet, so the history behind the
        confidence is a function of the packet sequence alone, not of
        how often the caller polls.  The estimate it builds is the poll
        answer until the next packet.
        """
        if self._baseline is None or self._target is None:
            return
        windows = self._windows_denoised()
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
        pair = self._pair
        sel = self._subcarriers
        theta_all, neg_all = self._observables(pair)
        theta_sel = theta_all[sel]
        n_sel = neg_all[sel]
        if not np.isfinite(theta_sel).any() or not np.isfinite(n_sel).any():
            return None
        theta_agg = circular_mean(theta_sel, ignore_nan=True)
        n_agg = float(finite_mean(n_sel))
        if not (math.isfinite(theta_agg) and math.isfinite(n_agg)):
            return None

        # Coarse anchor from the calibrated small-lever pair, when live.
        omega_coarse = math.nan
        coarse = wimi.calibrated_coarse_pair
        if coarse is not None and tuple(coarse) != tuple(pair):
            c_theta, c_n = self._observables(coarse)
            c_theta_agg = circular_mean(c_theta, ignore_nan=True)
            c_n_agg = float(finite_median(c_n))
            if math.isfinite(c_theta_agg) and math.isfinite(c_n_agg):
                omega_coarse = coarse_omega_estimate(
                    c_theta_agg, c_n_agg, wimi.extractor.reference_omegas
                )
        if math.isfinite(omega_coarse) and omega_coarse > 0:
            gamma, omega = resolve_gamma_with_coarse(
                theta_agg, n_agg, omega_coarse, wimi.config.max_gamma
            )
        else:
            gamma, omega = resolve_gamma(
                theta_agg,
                n_agg,
                wimi.extractor.reference_omegas,
                wimi.config.max_gamma,
                wimi.config.gamma_strategy,
            )
        return int(gamma), float(omega)

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
            windows_denoised=self._windows_denoised(),
            amplitude_mad=self._ratio_mad.value(),
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
        """Close the stream: tail windows, quality gate, features, label.

        Runs the exact batch-path session machinery -- quality gating
        (warns/raises per ``config.degradation_policy``), dead-pair
        substitution, subcarrier exclusion + top-up, coarse re-derivation
        -- over observables assembled from the streaming state, then
        classifies.  Idempotent: repeated calls return the same result.
        """
        if self._result is not None:
            return self._result
        if not self._baseline or not self._target:
            raise RuntimeError(
                "cannot finalize: both baseline and target packets are "
                "required"
            )
        wimi = self._wimi
        self._baseline.finalize_windows(self.window_size)
        self._target.finalize_windows(self.window_size)

        session = CaptureSession(
            baseline=self._baseline.to_trace("baseline/stream"),
            target=self._target.to_trace("target/stream"),
            material_name=self._material_name,
            scene=self._scene,
        )
        quality = wimi._gate(session)
        pairs = wimi._session_pairs(session)
        coarse = wimi.calibrated_coarse_pair
        exclude_sc: tuple[int, ...] = ()
        coarse_fallback = False
        if quality is not None and quality.is_degraded:
            pairs, coarse = wimi._degraded_plan(session, quality, pairs)
            exclude_sc = tuple(quality.bad_subcarriers)
            coarse_fallback = wimi.config.include_coarse_feature
        if (
            coarse is None
            and not coarse_fallback
            and wimi.config.use_coarse_pair
            and session.num_antennas >= 3
        ):
            # Uncalibrated coarse pair: fall back to the batch derivation
            # (one full denoiser pass; only reachable when calibrate()
            # found no coarse pair, never on the streaming hot path).
            coarse = wimi._find_coarse_pair(session, pairs[0])

        coarse_obs = None
        if coarse is not None:
            coarse_obs = self._observables(coarse)
        measurements = []
        for pair in pairs:
            subcarriers = wimi._subcarriers_for(
                session, pair, exclude=exclude_sc
            )
            theta_all, neg_all = self._observables(pair)
            measurement = wimi.extractor.measure_from_observables(
                pair,
                list(subcarriers),
                theta_all,
                neg_all,
                coarse_observables=(
                    coarse_obs if coarse is not None and coarse != pair
                    else None
                ),
                true_omega=None,
                include_coarse_feature=wimi.config.include_coarse_feature,
                material_name=session.material_name,
                coarse_fallback=coarse_fallback,
            )
            measurements.append(measurement)
        features = SessionFeatures(
            measurements=measurements,
            material_name=session.material_name,
            quality=quality,
        )
        artifact = wimi._classify(features)

        main = measurements[0]
        estimate = StreamingEstimate(
            omega=float(main.omega_mean),
            gamma=int(main.gamma),
            confidence=self._confidence(main.pair, main.subcarriers),
            baseline_packets=len(self._baseline),
            target_packets=len(self._target),
            windows_denoised=self._windows_denoised(),
            amplitude_mad=self._ratio_mad.value(),
        )
        self._result = StreamingResult(
            label=artifact.label,
            confidence=artifact.confidence,
            features=features,
            estimate=estimate,
            session=session,
        )
        return self._result
