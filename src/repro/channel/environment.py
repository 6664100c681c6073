"""Indoor environment presets: hall, lab, library.

The paper evaluates in three environments chosen for their multipath
richness (Section IV): an empty hall (low), a laboratory/office (medium)
and a library full of shelves (high).  An :class:`Environment` bundles the
knobs the CSI simulator needs:

* how many reflected rays and how strong they are,
* how much those rays fluctuate over time (temporal jitter -- what makes
  per-subcarrier variance, paper Eq. 7, informative),
* the receiver noise floor.

Reflection strength additionally grows with the Tx-Rx distance -- the
paper's Fig. 17 observation that "the amount of multipath and diffraction
increase as the distance increases" -- because a longer LoS is weaker
relative to the fixed reflectors around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.geometry import LinkGeometry
from repro.channel.multipath import MultipathChannel, random_paths

#: Reference Tx-Rx distance at which preset gains are calibrated (metres).
REFERENCE_DISTANCE_M = 2.0


@dataclass(frozen=True)
class Environment:
    """A multipath environment preset.

    Attributes:
        name: Preset label (``"hall"``, ``"lab"``, ``"library"``).
        num_paths: Number of single-bounce reflected rays.
        gain_range: Relative reflection amplitude range at the reference
            distance (LoS = 1).
        temporal_jitter_rad: Std-dev of the per-packet phase wander of each
            reflected ray (radians).  Models people/air movement.
        gain_jitter: Std-dev of per-packet relative gain fluctuation.
        session_drift_rad: Std-dev of the per-*session* phase drift of each
            reflected ray -- how much the room changes between two
            repetitions of a measurement in the same deployment.
        noise_floor: Std-dev of complex AWGN added per subcarrier/antenna,
            relative to the unit LoS.
        room_half_width: Half-width of the reflector box (metres).
        delay_spread_s: Mean reverberation excess delay of the reflected
            rays (seconds); sets how frequency selective the fading is
            across the 20 MHz band.
    """

    name: str
    num_paths: int
    gain_range: tuple[float, float]
    temporal_jitter_rad: float
    gain_jitter: float
    session_drift_rad: float
    noise_floor: float
    room_half_width: float = 3.0
    delay_spread_s: float = 60e-9

    def __post_init__(self) -> None:
        if self.num_paths < 0:
            raise ValueError(f"num_paths must be >= 0, got {self.num_paths}")
        if (
            self.temporal_jitter_rad < 0
            or self.gain_jitter < 0
            or self.session_drift_rad < 0
        ):
            raise ValueError("jitter parameters must be >= 0")
        if self.noise_floor < 0:
            raise ValueError(f"noise_floor must be >= 0, got {self.noise_floor}")

    def scaled_gain_range(self, distance_m: float) -> tuple[float, float]:
        """Reflection gain range at a given Tx-Rx distance.

        Reflections are anchored to the room, so when the LoS gets longer
        (and therefore weaker) the *relative* reflection strength grows
        roughly linearly with distance.
        """
        if distance_m <= 0:
            raise ValueError(f"distance must be positive, got {distance_m}")
        scale = distance_m / REFERENCE_DISTANCE_M
        lo, hi = self.gain_range
        return (lo * scale, hi * scale)

    def build_channel(
        self, geometry: LinkGeometry, rng: np.random.Generator
    ) -> MultipathChannel:
        """Instantiate a concrete multipath channel in this environment."""
        paths = random_paths(
            geometry,
            num_paths=self.num_paths,
            gain_range=self.scaled_gain_range(geometry.distance),
            rng=rng,
            room_half_width=self.room_half_width,
            delay_spread_s=self.delay_spread_s,
        )
        return MultipathChannel(geometry, paths)


#: The three presets of the paper, calibrated at the 2 m reference link.
_PRESETS: dict[str, Environment] = {
    "hall": Environment(
        name="hall",
        num_paths=3,
        gain_range=(0.008, 0.025),
        temporal_jitter_rad=0.9,
        gain_jitter=0.05,
        session_drift_rad=0.10,
        noise_floor=0.010,
        room_half_width=5.0,
        delay_spread_s=50e-9,
    ),
    "lab": Environment(
        name="lab",
        num_paths=8,
        gain_range=(0.015, 0.045),
        temporal_jitter_rad=1.1,
        gain_jitter=0.08,
        session_drift_rad=0.15,
        noise_floor=0.014,
        room_half_width=3.0,
        delay_spread_s=70e-9,
    ),
    "library": Environment(
        name="library",
        num_paths=12,
        gain_range=(0.025, 0.075),
        temporal_jitter_rad=1.8,
        gain_jitter=0.10,
        session_drift_rad=0.20,
        noise_floor=0.018,
        room_half_width=2.5,
        delay_spread_s=90e-9,
    ),
}


def make_environment(name: str) -> Environment:
    """Look up a preset by name (``hall`` / ``lab`` / ``library``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise KeyError(f"unknown environment {name!r}; known: {known}") from None
