"""Hardware impairment models for the simulated Intel 5300 capture.

Each impairment here corresponds to a nuisance named in the paper
(Section II-C and III-B) and to the pre-processing step that defeats it:

========================  =========================================  =====================
Impairment                 Model                                      Defeated by
==========================  =======================================  =====================
CFO (carrier freq. offset)  random per-packet phase offset ``beta``   antenna phase
SFO + PBD                   random per-packet phase slope over        difference (common
                            subcarrier index ``k (lam_b + lam_s)``    across antennas)
Measurement noise ``Z``     per-antenna complex AWGN                  time-window averaging
Amplitude outliers          rare large multiplicative spikes          3-sigma rejection
Impulse noise               frequent additive spikes, independent     wavelet correlation
                            across subcarriers (uncorrelated across   denoiser
                            DWT scales)
Quantisation                int8 real/imag per packet (CSI Tool        --
                            report format)
==========================  =======================================  =====================

The crucial structural property (paper Eq. 5-6): the CFO/SFO/PBD phase
corruption is **identical on all antennas of one board** because they share
the sampling and oscillator clock -- that is the entire basis of the
phase-difference calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IntelQuantizer:
    """Int8 real/imag quantisation of the CSI Tool report format.

    The CSI Tool stores each CSI entry as signed 8-bit real and imaginary
    parts with a per-packet automatic scale.  We reproduce that: scale the
    packet so its largest component magnitude hits ``max_level``, round,
    and scale back.
    """

    max_level: int = 127
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")

    def apply(self, csi: np.ndarray) -> np.ndarray:
        """Quantise one packet's CSI matrix; returns a new array."""
        if not self.enabled:
            return np.array(csi, dtype=complex)
        csi = np.asarray(csi, dtype=complex)
        peak = max(np.abs(csi.real).max(initial=0.0),
                   np.abs(csi.imag).max(initial=0.0))
        if peak == 0.0:
            return csi.copy()
        scale = self.max_level / peak
        real = np.round(csi.real * scale) / scale
        imag = np.round(csi.imag * scale) / scale
        return real + 1j * imag

    def apply_batch(self, csi: np.ndarray) -> np.ndarray:
        """Quantise a packet block ``(M, K, A)`` with per-packet scales.

        Matches :meth:`apply` called per packet: each packet gets its own
        automatic scale from its own peak component.
        """
        if not self.enabled:
            return np.array(csi, dtype=complex)
        csi = np.asarray(csi, dtype=complex)
        if csi.shape[0] == 0:
            return csi.copy()
        peak = np.maximum(
            np.abs(csi.real).max(axis=(1, 2), initial=0.0),
            np.abs(csi.imag).max(axis=(1, 2), initial=0.0),
        )
        safe = np.where(peak > 0.0, peak, 1.0)
        scale = (self.max_level / safe)[:, None, None]
        quantised = (
            np.round(csi.real * scale) / scale
            + 1j * (np.round(csi.imag * scale) / scale)
        )
        silent = peak == 0.0
        if silent.any():
            quantised[silent] = csi[silent]
        return quantised


@dataclass(frozen=True)
class HardwareProfile:
    """All impairment knobs for one simulated NIC.

    Attributes:
        sfo_pbd_slope_range: Per-packet phase slope across subcarrier index
            (radians per subcarrier step), uniform in ``[-a, a]``.  Bundles
            the SFO and packet-boundary-delay terms ``k (lam_b + lam_s)``.
        cfo_full_circle: If True the per-packet common phase offset
            ``beta`` is uniform over ``[0, 2 pi)`` -- what makes raw phase
            useless (paper Fig. 2).
        phase_noise_rad: Std-dev of the per-antenna phase measurement noise
            ``Z`` (radians).
        antenna_noise_factors: Per-antenna multipliers on measurement noise.
            Real boards have unequal RF chains; the default makes the third
            antenna noisiest, which is why the paper's antenna pair 1&2
            wins in Fig. 21.
        amplitude_noise: Std-dev of multiplicative amplitude noise.
        common_gain_jitter: Std-dev of the per-packet *common* gain
            fluctuation (AGC steps, transmit-power control).  It affects
            every antenna and subcarrier of a packet identically, which
            is precisely why the inter-antenna amplitude *ratio* is far
            more stable than either amplitude (paper Fig. 8).
        outlier_probability: Per-packet probability of an amplitude
            outlier -- a whole-packet gain excursion (beyond the 3-sigma
            band, paper Fig. 3).  Common across antennas (an AGC glitch
            rescales the entire report), so the ratio cancels it; the
            3-sigma rejection still matters for single-antenna uses.
        outlier_magnitude_range: Multiplicative outlier magnitude range.
        impulse_probability: Per-(packet, antenna) probability of an
            impulse event -- a short time-domain burst whose FFT adds
            noise comparable to the signal across all subcarriers of that
            packet (paper Fig. 3).
        impulse_magnitude: Impulse amplitude relative to the antenna's
            mean CSI magnitude.
        quantizer: Int8 report quantiser.
    """

    sfo_pbd_slope_range: float = 0.08
    cfo_full_circle: bool = True
    phase_noise_rad: float = 0.04
    antenna_noise_factors: tuple[float, ...] = (1.0, 1.05, 1.65)
    amplitude_noise: float = 0.012
    common_gain_jitter: float = 0.15
    outlier_probability: float = 0.03
    outlier_magnitude_range: tuple[float, float] = (1.6, 3.0)
    impulse_probability: float = 0.10
    impulse_magnitude: float = 0.35
    quantizer: IntelQuantizer = field(default_factory=IntelQuantizer)

    def __post_init__(self) -> None:
        if self.sfo_pbd_slope_range < 0:
            raise ValueError("sfo_pbd_slope_range must be >= 0")
        if (
            self.phase_noise_rad < 0
            or self.amplitude_noise < 0
            or self.common_gain_jitter < 0
        ):
            raise ValueError("noise std-devs must be >= 0")
        if not 0 <= self.outlier_probability <= 1:
            raise ValueError(
                f"outlier_probability must be in [0,1], got "
                f"{self.outlier_probability}"
            )
        if not 0 <= self.impulse_probability <= 1:
            raise ValueError(
                f"impulse_probability must be in [0,1], got "
                f"{self.impulse_probability}"
            )
        lo, hi = self.outlier_magnitude_range
        if not 1.0 <= lo <= hi:
            raise ValueError(
                f"invalid outlier magnitude range {self.outlier_magnitude_range}"
            )
        if any(f < 0 for f in self.antenna_noise_factors):
            raise ValueError("antenna noise factors must be >= 0")

    def noise_factor(self, antenna: int) -> float:
        """Noise multiplier for antenna index ``antenna`` (cycled)."""
        factors = self.antenna_noise_factors
        return factors[antenna % len(factors)]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def clock_phase_error(
        self, num_subcarriers: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One packet's common clock phase error, shape ``(K,)``.

        ``phi_err[k] = k * (lam_b + lam_s) + beta`` -- identical for every
        antenna on the board (shared clocks), random across packets.
        """
        slope = rng.uniform(-self.sfo_pbd_slope_range, self.sfo_pbd_slope_range)
        offset = rng.uniform(0.0, 2.0 * math.pi) if self.cfo_full_circle else 0.0
        k = np.arange(num_subcarriers, dtype=float)
        return k * slope + offset

    def apply_to_packet(
        self, clean_csi: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Corrupt one packet's clean channel matrix.

        Order matters and mirrors a real receive chain: clock phase error
        (baseband processing), per-antenna measurement noise, amplitude
        disturbances (outliers / impulses in the reported magnitudes),
        then report quantisation.
        """
        csi = np.asarray(clean_csi, dtype=complex)
        num_sc, num_ant = csi.shape

        # 1. Clock errors: common across antennas (paper Eq. 5).
        clock = self.clock_phase_error(num_sc, rng)
        csi = csi * np.exp(1j * clock)[:, None]

        # 2. Per-antenna measurement noise Z: phase jitter plus
        #    multiplicative amplitude noise, scaled per RF chain.
        factors = np.array(
            [self.noise_factor(a) for a in range(num_ant)], dtype=float
        )
        phase_z = rng.normal(0.0, self.phase_noise_rad, size=csi.shape)
        amp_z = rng.normal(0.0, self.amplitude_noise, size=csi.shape)
        csi = csi * (1.0 + amp_z * factors[None, :])
        csi = csi * np.exp(1j * phase_z * factors[None, :])

        # 3. Common-mode gain: per-packet AGC / Tx-power fluctuation plus
        #    rare whole-packet outlier excursions.  Identical across
        #    antennas, so the amplitude ratio cancels it (Fig. 8).
        if self.common_gain_jitter > 0:
            csi = csi * (1.0 + rng.normal(0.0, self.common_gain_jitter))
        if self.outlier_probability > 0 and rng.random() < self.outlier_probability:
            lo, hi = self.outlier_magnitude_range
            magnitude = rng.uniform(lo, hi)
            if rng.random() < 0.5:
                magnitude = 1.0 / magnitude
            csi = csi * magnitude

        # 4. Impulse noise: a short time-domain burst hitting one
        #    antenna's receive chain during one packet.  Its FFT spreads
        #    pseudo-randomly over all subcarriers ("weakly correlated at
        #    different frequencies", paper Sec. III-C), and in the
        #    per-subcarrier *time series* it is an isolated spike -- the
        #    case the wavelet correlation denoiser is built for.
        if self.impulse_probability > 0:
            for a in range(num_ant):
                if rng.random() >= self.impulse_probability:
                    continue
                level = float(np.mean(np.abs(csi[:, a])))
                if level == 0.0:
                    level = 1.0
                scale = self.impulse_magnitude * level
                burst = scale * (
                    rng.standard_normal(num_sc)
                    + 1j * rng.standard_normal(num_sc)
                ) / math.sqrt(2.0)
                csi[:, a] = csi[:, a] + burst

        # 5. Report quantisation.
        return self.quantizer.apply(csi)

    # ------------------------------------------------------------------
    # Batched application (vectorised capture path)
    # ------------------------------------------------------------------

    def draw_packet_impairments(
        self, num_subcarriers: int, num_antennas: int, rng: np.random.Generator
    ) -> "PacketImpairmentDraws":
        """Consume one packet's worth of impairment randomness.

        Draws from ``rng`` in *exactly* the order :meth:`apply_to_packet`
        does, without touching any CSI.  This lets the simulator separate
        the sequential RNG stream (which fixes the seed -> trace mapping)
        from the arithmetic, which can then run vectorised over all
        packets at once.
        """
        slope = rng.uniform(
            -self.sfo_pbd_slope_range, self.sfo_pbd_slope_range
        )
        offset = (
            rng.uniform(0.0, 2.0 * math.pi) if self.cfo_full_circle else 0.0
        )
        shape = (num_subcarriers, num_antennas)
        phase_z = rng.normal(0.0, self.phase_noise_rad, size=shape)
        amp_z = rng.normal(0.0, self.amplitude_noise, size=shape)
        common_gain = (
            1.0 + rng.normal(0.0, self.common_gain_jitter)
            if self.common_gain_jitter > 0
            else 1.0
        )
        outlier_mult = 1.0
        if self.outlier_probability > 0 and rng.random() < self.outlier_probability:
            lo, hi = self.outlier_magnitude_range
            magnitude = rng.uniform(lo, hi)
            if rng.random() < 0.5:
                magnitude = 1.0 / magnitude
            outlier_mult = magnitude
        impulses: list[tuple[int, np.ndarray]] = []
        if self.impulse_probability > 0:
            for a in range(num_antennas):
                if rng.random() >= self.impulse_probability:
                    continue
                burst = rng.standard_normal(num_subcarriers) + 1j * (
                    rng.standard_normal(num_subcarriers)
                )
                impulses.append((a, burst))
        return PacketImpairmentDraws(
            clock_slope=slope,
            clock_offset=offset,
            phase_z=phase_z,
            amp_z=amp_z,
            common_gain=common_gain,
            outlier_mult=outlier_mult,
            impulses=impulses,
        )

    def apply_to_packets(
        self, clean_csi: np.ndarray, draws: list["PacketImpairmentDraws"]
    ) -> np.ndarray:
        """Batched :meth:`apply_to_packet` over a block ``(M, K, A)``.

        ``draws`` must come from :meth:`draw_packet_impairments`, one entry
        per packet.  Identical maths to the scalar path, reassociated only
        where IEEE multiplication by exactly 1.0 is a no-op, so results
        match the per-packet path to floating-point rounding.
        """
        csi = np.array(clean_csi, dtype=complex)
        num_packets, num_sc, num_ant = csi.shape
        if len(draws) != num_packets:
            raise ValueError(
                f"{len(draws)} draw records for {num_packets} packets"
            )
        if num_packets == 0:
            return csi

        # 1. Clock errors (common across antennas).
        k = np.arange(num_sc, dtype=float)
        slopes = np.array([d.clock_slope for d in draws])
        offsets = np.array([d.clock_offset for d in draws])
        clock = k[None, :] * slopes[:, None] + offsets[:, None]
        csi = csi * np.exp(1j * clock)[:, :, None]

        # 2. Per-antenna measurement noise.
        factors = np.array(
            [self.noise_factor(a) for a in range(num_ant)], dtype=float
        )
        phase_z = np.stack([d.phase_z for d in draws])
        amp_z = np.stack([d.amp_z for d in draws])
        csi = csi * (1.0 + amp_z * factors[None, None, :])
        csi = csi * np.exp(1j * phase_z * factors[None, None, :])

        # 3. Common-mode gain and outlier excursions (x * 1.0 is exact for
        #    untriggered packets, so one broadcast multiply suffices).
        common = np.array([d.common_gain for d in draws])
        csi = csi * common[:, None, None]
        outlier = np.array([d.outlier_mult for d in draws])
        csi = csi * outlier[:, None, None]

        # 4. Impulse bursts: rare, applied sparsely.  The burst level
        #    depends on the already-corrupted packet, exactly as in the
        #    scalar path.
        for m, d in enumerate(draws):
            for a, burst in d.impulses:
                level = float(np.mean(np.abs(csi[m, :, a])))
                if level == 0.0:
                    level = 1.0
                scale = self.impulse_magnitude * level
                csi[m, :, a] = csi[m, :, a] + scale * burst / math.sqrt(2.0)

        # 5. Report quantisation.
        return self.quantizer.apply_batch(csi)


@dataclass(frozen=True)
class PacketImpairmentDraws:
    """One packet's pre-drawn impairment randomness.

    Produced by :meth:`HardwareProfile.draw_packet_impairments`; the field
    order mirrors the draw order of :meth:`HardwareProfile.apply_to_packet`
    so the sequential RNG stream is preserved exactly.
    """

    clock_slope: float
    clock_offset: float
    phase_z: np.ndarray
    amp_z: np.ndarray
    common_gain: float
    outlier_mult: float
    impulses: list[tuple[int, np.ndarray]]


def clean_profile() -> HardwareProfile:
    """A profile with every impairment disabled -- for unit tests."""
    return HardwareProfile(
        sfo_pbd_slope_range=0.0,
        cfo_full_circle=False,
        phase_noise_rad=0.0,
        antenna_noise_factors=(0.0, 0.0, 0.0),
        amplitude_noise=0.0,
        common_gain_jitter=0.0,
        outlier_probability=0.0,
        impulse_probability=0.0,
        quantizer=IntelQuantizer(enabled=False),
    )
