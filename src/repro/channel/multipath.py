"""Ray-based multipath channel model.

Commodity Wi-Fi uses omni-directional antennas, so indoor CSI is a sum of a
line-of-sight (LoS) ray and many reflected rays (walls, furniture, shelves).
This is the root of both WiMi challenges: reflections corrupt per-subcarrier
phase/amplitude differently at different frequencies (frequency-selective
fading), and they fluctuate over time.

The model here is geometric: each non-LoS :class:`Path` is a single-bounce
reflection off a point reflector.  For antenna ``a`` and subcarrier
frequency ``f_k`` the reflected ray contributes

    g * exp(j psi0) * exp(-j 2 pi f_k tau_a)

where ``tau_a`` is the Tx -> reflector -> antenna propagation delay, ``g``
the reflection gain and ``psi0`` a static phase from the bounce.  Because
``tau_a`` differs by centimetres across antennas and by the full excess
delay across subcarriers, both the per-subcarrier and the per-antenna
structure of real multipath emerge naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.geometry import LinkGeometry, Point
from repro.channel.propagation import SPEED_OF_LIGHT


@dataclass(frozen=True)
class Path:
    """A single-bounce reflected ray.

    Attributes:
        reflector: Reflection point coordinates (metres).
        gain: Reflection amplitude relative to the (unit) LoS ray.
        static_phase: Phase shift of the bounce itself (radians).
        jitter_scale: How strongly this path participates in temporal
            fading (1.0 = nominal; see the CSI simulator).
        extra_delay_s: Additional excess delay (seconds) beyond the
            single-bounce geometry, modelling multi-bounce reverberation.
            Indoor RMS delay spreads of 30-80 ns are what makes fading
            *frequency selective* across a 20 MHz channel -- the basis of
            the paper's good-subcarrier selection.
    """

    reflector: Point
    gain: float
    static_phase: float = 0.0
    jitter_scale: float = 1.0
    extra_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.gain < 0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")
        if self.jitter_scale < 0:
            raise ValueError(
                f"jitter_scale must be >= 0, got {self.jitter_scale}"
            )
        if self.extra_delay_s < 0:
            raise ValueError(
                f"extra_delay_s must be >= 0, got {self.extra_delay_s}"
            )

    def delay_to(self, tx: Point, rx: Point) -> float:
        """Propagation delay (s) of Tx -> reflector -> rx."""
        d1 = math.hypot(self.reflector[0] - tx[0], self.reflector[1] - tx[1])
        d2 = math.hypot(self.reflector[0] - rx[0], self.reflector[1] - rx[1])
        return (d1 + d2) / SPEED_OF_LIGHT + self.extra_delay_s


class MultipathChannel:
    """LoS + reflections channel for a given link geometry.

    The channel returns, for each antenna and subcarrier, the *static*
    complex response.  Temporal fluctuation (people moving, fans, thermal
    drift) is layered on top by the CSI simulator via per-packet phase
    jitter so that the "good subcarrier" statistics of paper Eq. 7 are
    meaningful.
    """

    def __init__(self, geometry: LinkGeometry, paths: list[Path]):
        self.geometry = geometry
        self.paths = list(paths)
        self._rx_positions = geometry.rx_positions()
        self._tx = geometry.tx_position
        self._los_delays = np.array(
            [d / SPEED_OF_LIGHT for d in geometry.los_lengths()]
        )

    @property
    def num_antennas(self) -> int:
        """Number of receive antennas."""
        return len(self._rx_positions)

    def los_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """LoS-only response, shape ``(num_subcarriers, num_antennas)``.

        Unit amplitude; the phase encodes the Tx -> antenna delay, which is
        what gives closely-spaced antennas their static inter-antenna phase
        offset (it cancels in the baseline/target difference).
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        return np.exp(
            -2j * math.pi * freqs[:, None] * self._los_delays[None, :]
        )

    def reflection_delays(self) -> np.ndarray:
        """Delays of each path to each antenna, shape ``(P, A)``."""
        if not self.paths:
            return np.zeros((0, len(self._rx_positions)))
        return np.array(
            [
                [path.delay_to(self._tx, rx) for rx in self._rx_positions]
                for path in self.paths
            ]
        )

    def reflection_response(
        self,
        frequencies_hz: np.ndarray,
        phase_offsets: np.ndarray | None = None,
        gain_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sum of reflected rays, shape ``(num_subcarriers, num_antennas)``.

        Args:
            frequencies_hz: Subcarrier frequencies.
            phase_offsets: Optional per-path extra phase (radians), shape
                ``(P,)`` -- the simulator's per-packet jitter hook.
            gain_factors: Optional per-path gain multipliers, shape ``(P,)``.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        num_ant = len(self._rx_positions)
        response = np.zeros((freqs.size, num_ant), dtype=complex)
        if not self.paths:
            return response
        delays = self.reflection_delays()
        for p, path in enumerate(self.paths):
            extra = 0.0 if phase_offsets is None else float(phase_offsets[p])
            gain = path.gain if gain_factors is None else (
                path.gain * float(gain_factors[p])
            )
            phase = (
                -2.0 * math.pi * freqs[:, None] * delays[p][None, :]
                + path.static_phase
                + extra
            )
            response += gain * np.exp(1j * phase)
        return response

    def reflection_response_batch(
        self,
        frequencies_hz: np.ndarray,
        phase_offsets: np.ndarray | None = None,
        gain_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-packet sum of reflected rays, shape ``(M, K, A)``.

        Batched form of :meth:`reflection_response`: ``phase_offsets`` and
        ``gain_factors`` carry one row per packet, shape ``(M, P)``.  The
        per-path accumulation order matches the scalar method, so the two
        agree to floating-point rounding.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        num_ant = len(self._rx_positions)
        if phase_offsets is None and gain_factors is None:
            raise ValueError(
                "batched response needs per-packet phase_offsets or "
                "gain_factors to determine the packet count"
            )
        num_packets = (
            phase_offsets if phase_offsets is not None else gain_factors
        ).shape[0]
        response = np.zeros((num_packets, freqs.size, num_ant), dtype=complex)
        if not self.paths:
            return response
        delays = self.reflection_delays()
        for p, path in enumerate(self.paths):
            base_phase = (
                -2.0 * math.pi * freqs[:, None] * delays[p][None, :]
                + path.static_phase
            )
            if phase_offsets is None:
                phase = np.broadcast_to(
                    base_phase[None, :, :],
                    (num_packets,) + base_phase.shape,
                )
            else:
                phase = base_phase[None, :, :] + phase_offsets[:, p, None, None]
            if gain_factors is None:
                gains = np.full(num_packets, path.gain)
            else:
                gains = path.gain * gain_factors[:, p]
            response += gains[:, None, None] * np.exp(1j * phase)
        return response

    def total_response_batch(
        self,
        frequencies_hz: np.ndarray,
        los_multiplier: np.ndarray | complex = 1.0,
        phase_offsets: np.ndarray | None = None,
        gain_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched :meth:`total_response`, shape ``(M, K, A)``.

        The LoS term is static across packets, so it is built once and
        broadcast against the per-packet reflection sum.
        """
        los = self._los_with_multiplier(frequencies_hz, los_multiplier)
        reflections = self.reflection_response_batch(
            frequencies_hz, phase_offsets, gain_factors
        )
        return los[None, :, :] + reflections

    def with_phase_drift(
        self, rng: np.random.Generator, sigma_rad: float
    ) -> "MultipathChannel":
        """A copy of this channel with each path's static phase perturbed.

        Models the slow change of a room between capture sessions (a door
        moved, somebody shifted a chair): the reflectors stay put but each
        bounce's phase drifts by ``N(0, sigma * jitter_scale)``.  Used by
        the data collector so that repetitions in one deployment share the
        same multipath structure, as in the paper's protocol, while still
        differing slightly from one another.
        """
        if sigma_rad < 0:
            raise ValueError(f"sigma_rad must be >= 0, got {sigma_rad}")
        drifted = [
            Path(
                reflector=p.reflector,
                gain=p.gain,
                static_phase=p.static_phase
                + rng.normal(0.0, sigma_rad * p.jitter_scale),
                jitter_scale=p.jitter_scale,
                extra_delay_s=p.extra_delay_s,
            )
            for p in self.paths
        ]
        return MultipathChannel(self.geometry, drifted)

    def total_response(
        self,
        frequencies_hz: np.ndarray,
        los_multiplier: np.ndarray | complex = 1.0,
        phase_offsets: np.ndarray | None = None,
        gain_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full channel ``H[k, a] = LoS * multiplier + reflections``.

        ``los_multiplier`` is how the target enters the channel: when a
        beaker stands on the LoS, the simulator passes the per-antenna
        penetration response (Eq. 2-4 physics) here.  Reflected rays do not
        cross the beaker in this layout, so they are unchanged -- which is
        why the baseline/target difference isolates the target.
        """
        los = self._los_with_multiplier(frequencies_hz, los_multiplier)
        return los + self.reflection_response(
            frequencies_hz, phase_offsets, gain_factors
        )

    def _los_with_multiplier(
        self,
        frequencies_hz: np.ndarray,
        los_multiplier: np.ndarray | complex = 1.0,
    ) -> np.ndarray:
        """LoS response with the target multiplier applied, shape ``(K, A)``."""
        los = self.los_response(frequencies_hz)
        multiplier = np.asarray(los_multiplier, dtype=complex)
        if multiplier.ndim == 0:
            los = los * multiplier
        elif multiplier.ndim == 1:
            # One multiplier per antenna.
            if multiplier.size != los.shape[1]:
                raise ValueError(
                    f"per-antenna multiplier has size {multiplier.size}, "
                    f"channel has {los.shape[1]} antennas"
                )
            los = los * multiplier[None, :]
        else:
            # Full (subcarrier, antenna) grid.
            if multiplier.shape != los.shape:
                raise ValueError(
                    f"multiplier shape {multiplier.shape} != channel shape "
                    f"{los.shape}"
                )
            los = los * multiplier
        return los


def random_paths(
    geometry: LinkGeometry,
    num_paths: int,
    gain_range: tuple[float, float],
    rng: np.random.Generator,
    room_half_width: float = 3.0,
    jitter_scale: float = 1.0,
    delay_spread_s: float = 40e-9,
) -> list[Path]:
    """Scatter ``num_paths`` reflectors around the link.

    Reflectors land in a box around the link, excluding a small guard zone
    around the LoS so that they model wall/furniture bounces rather than
    the target itself.  Gains are drawn uniformly from ``gain_range`` and
    decay mildly with excess delay.  Each path also receives an
    exponentially-distributed reverberation delay (mean ``delay_spread_s``)
    so the channel is genuinely frequency selective across the 20 MHz band
    -- several fades per band, as indoor measurements show.
    """
    if num_paths < 0:
        raise ValueError(f"num_paths must be >= 0, got {num_paths}")
    if delay_spread_s < 0:
        raise ValueError(f"delay_spread_s must be >= 0, got {delay_spread_s}")
    lo, hi = gain_range
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid gain range {gain_range}")
    paths: list[Path] = []
    distance = geometry.distance
    while len(paths) < num_paths:
        x = rng.uniform(-0.5, distance + 0.5)
        y = rng.uniform(-room_half_width, room_half_width)
        if abs(y) < 0.3:
            continue  # too close to the LoS corridor
        reflector = (x, y)
        extra_delay = rng.exponential(delay_spread_s)
        # Later reverberation arrives weaker (absorption per bounce).
        decay = math.exp(-extra_delay / (3.0 * delay_spread_s))
        gain = rng.uniform(lo, hi) * decay
        paths.append(
            Path(
                reflector=reflector,
                gain=gain,
                static_phase=rng.uniform(0.0, 2.0 * math.pi),
                jitter_scale=jitter_scale * rng.uniform(0.6, 1.4),
                extra_delay_s=extra_delay,
            )
        )
    return paths
