"""Testbed geometry: link, antenna array, and the beaker on the LoS.

The paper's setup (Section IV) is a router 2 m from a laptop whose Intel
5300 NIC has three antennas; the liquid stands in a cylindrical beaker on
the line of sight.  For the material feature, the quantity that matters is
the *difference* ``D1 - D2`` between the path lengths two receiving
antennas' rays travel inside the liquid (Eq. 18-19) -- non-zero because the
antennas sit a few centimetres apart, so their rays cut slightly different
chords through the cylinder.

Everything is modelled in a 2-D horizontal plane:

* transmitter at the origin,
* receiver antennas on a vertical line at ``x = distance``, spaced
  ``antenna_spacing`` apart (default half a wavelength at 5.32 GHz),
* the beaker a circle of diameter ``container.diameter`` centred on the LoS
  (with an optional lateral offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.channel.materials import CONTAINER_MATERIALS, Material

#: Free-space wavelength at 5.32 GHz, ~5.63 cm.  The paper quotes "the
#: wavelength (6 cm) of the signal" for its diffraction argument (Fig. 19).
WAVELENGTH_5GHZ_M = 0.0563

#: Default receiver antenna spacing: half a wavelength.
DEFAULT_ANTENNA_SPACING_M = WAVELENGTH_5GHZ_M / 2.0

Point = tuple[float, float]


def chord_length(p0: Point, p1: Point, center: Point, radius: float) -> float:
    """Length of the part of segment ``p0 -> p1`` inside the given circle.

    Standard line-circle intersection, clipped to the segment.  Returns 0.0
    when the segment misses the circle.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0.0:
        return 0.0
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    fx = p0[0] - center[0]
    fy = p0[1] - center[1]
    a = dx * dx + dy * dy
    if a == 0.0:
        return 0.0
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.0
    sqrt_disc = math.sqrt(disc)
    t1 = (-b - sqrt_disc) / (2.0 * a)
    t2 = (-b + sqrt_disc) / (2.0 * a)
    # Clip the entry/exit parameters to the segment [0, 1].
    t_enter = max(t1, 0.0)
    t_exit = min(t2, 1.0)
    if t_exit <= t_enter:
        return 0.0
    return (t_exit - t_enter) * math.sqrt(a)


@dataclass(frozen=True)
class CylinderTarget:
    """A liquid-filled cylindrical beaker standing on the LoS.

    Attributes:
        diameter: Outer diameter in metres (paper sizes: 14.3, 11, 8.9,
            6.1, 3.2 cm).
        height: Beaker height in metres (23 cm in the paper); kept for
            completeness -- the 2-D ray model does not use it.
        wall_thickness: Container wall thickness in metres.
        wall_material_name: Key into the container-material table
            (``"plastic"`` or ``"glass"``, Fig. 20).
        lateral_offset: Perpendicular displacement of the beaker centre from
            the LoS, in metres.
    """

    diameter: float = 0.143
    height: float = 0.23
    wall_thickness: float = 0.003
    wall_material_name: str = "plastic"
    lateral_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.diameter <= 0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")
        if self.wall_thickness < 0:
            raise ValueError(
                f"wall thickness must be >= 0, got {self.wall_thickness}"
            )
        if 2.0 * self.wall_thickness >= self.diameter:
            raise ValueError(
                "wall thickness leaves no room for liquid: "
                f"{self.wall_thickness} vs diameter {self.diameter}"
            )
        if self.wall_material_name not in CONTAINER_MATERIALS:
            known = ", ".join(sorted(CONTAINER_MATERIALS))
            raise ValueError(
                f"unknown wall material {self.wall_material_name!r}; "
                f"known: {known}"
            )

    @property
    def outer_radius(self) -> float:
        """Outer radius of the beaker (metres)."""
        return self.diameter / 2.0

    @property
    def inner_radius(self) -> float:
        """Radius of the liquid column (metres)."""
        return self.diameter / 2.0 - self.wall_thickness

    @property
    def wall_material(self) -> Material:
        """The container wall material definition."""
        return CONTAINER_MATERIALS[self.wall_material_name]

    def diffraction_factor(self, wavelength_m: float = WAVELENGTH_5GHZ_M) -> float:
        """Fraction of received energy that penetrates (vs diffracts around).

        The paper observes (Fig. 19) that once the beaker diameter drops
        below the wavelength (~6 cm), diffraction around the target starts
        to dominate and identification degrades.  We model the penetrating
        fraction with a smooth logistic in ``diameter / wavelength``: ~1 for
        large beakers, falling steeply below one wavelength.
        """
        if wavelength_m <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_m}")
        ratio = self.diameter / wavelength_m
        return 1.0 / (1.0 + math.exp(-6.0 * (ratio - 0.75)))


@dataclass(frozen=True)
class AntennaArray:
    """A uniform linear receiver array perpendicular to the LoS.

    Antenna positions are returned centred on the array phase centre, i.e.
    for 3 antennas at spacing ``s`` the offsets are ``(-s, 0, +s)``.
    """

    num_antennas: int = 3
    spacing: float = DEFAULT_ANTENNA_SPACING_M

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError(
                f"need at least one antenna, got {self.num_antennas}"
            )
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    def offsets(self) -> list[float]:
        """Perpendicular offsets of each antenna from the array centre."""
        mid = (self.num_antennas - 1) / 2.0
        return [(i - mid) * self.spacing for i in range(self.num_antennas)]

    def pairs(self) -> list[tuple[int, int]]:
        """All unordered antenna index pairs, e.g. [(0,1), (0,2), (1,2)]."""
        return [
            (i, j)
            for i in range(self.num_antennas)
            for j in range(i + 1, self.num_antennas)
        ]


@dataclass(frozen=True)
class LinkGeometry:
    """The full Tx -> target -> Rx-array layout.

    Attributes:
        distance: Tx-Rx separation in metres (paper default 2 m; Fig. 17
            sweeps 1-3 m).
        array: The receiver antenna array.
        target_position: Fractional position of the beaker centre along the
            LoS (0 = at Tx, 1 = at Rx; default mid-link).
    """

    distance: float = 2.0
    array: AntennaArray = field(default_factory=AntennaArray)
    target_position: float = 0.5

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        if not 0.0 < self.target_position < 1.0:
            raise ValueError(
                "target_position must be strictly inside (0, 1), "
                f"got {self.target_position}"
            )

    @property
    def tx_position(self) -> Point:
        """Transmitter coordinates (origin)."""
        return (0.0, 0.0)

    def rx_positions(self) -> list[Point]:
        """Coordinates of each receiver antenna."""
        return [(self.distance, off) for off in self.array.offsets()]

    def target_center(self, target: CylinderTarget) -> Point:
        """Beaker centre coordinates."""
        return (
            self.distance * self.target_position,
            target.lateral_offset,
        )

    def los_lengths(self) -> list[float]:
        """Straight-line Tx -> antenna distances, one per antenna."""
        tx = self.tx_position
        return [
            math.hypot(p[0] - tx[0], p[1] - tx[1]) for p in self.rx_positions()
        ]

    def liquid_path_lengths(self, target: CylinderTarget) -> list[float]:
        """Chord each antenna's LoS ray cuts through the *liquid* column.

        These are the ``D_i`` of Eq. 14-19.  Different antennas see
        different chords because their rays cross the cylinder at different
        lateral positions, which is exactly what makes ``D1 - D2`` non-zero.
        """
        center = self.target_center(target)
        tx = self.tx_position
        return [
            chord_length(tx, rx, center, target.inner_radius)
            for rx in self.rx_positions()
        ]

    def wall_path_lengths(self, target: CylinderTarget) -> list[float]:
        """Chord each ray cuts through the container *wall* annulus."""
        center = self.target_center(target)
        tx = self.tx_position
        lengths = []
        for rx in self.rx_positions():
            outer = chord_length(tx, rx, center, target.outer_radius)
            inner = chord_length(tx, rx, center, target.inner_radius)
            lengths.append(max(outer - inner, 0.0))
        return lengths
