"""Dielectric material catalog for WiMi.

The paper identifies ten household liquids by how much they change the phase
and amplitude of a 5 GHz Wi-Fi signal that penetrates them.  Both effects are
fully determined by the material's *complex relative permittivity*

    eps_r = eps' - j eps''

at the carrier frequency: the real part ``eps'`` sets the in-medium
wavelength (hence the phase constant ``beta``) and the imaginary part
``eps''`` sets the loss (hence the attenuation constant ``alpha``).

The catalog below replaces the physical liquids of the paper's testbed.  The
values are representative of published dielectric measurements of these
liquids around 5 GHz (water-based liquids follow the Debye relaxation of
water, shifted by solutes; ionic solutes add a conductivity term to
``eps''``).  What matters for the reproduction is the *relative geometry* of
the materials in (eps', eps'') space: pure water / sweet water / Pepsi / Coke
are close together (hard to separate), oil is far from everything (easy), and
the saltwater concentration series moves monotonically with salinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Permittivity of free space (F/m).
EPSILON_0 = 8.8541878128e-12

#: Default carrier frequency: 5 GHz band, channel around 5.32 GHz as used by
#: the Intel 5300 setups in the CSI Tool literature.
DEFAULT_FREQUENCY_HZ = 5.32e9


@dataclass(frozen=True)
class Material:
    """A homogeneous material with a complex permittivity at 5 GHz.

    Attributes:
        name: Human-readable label, e.g. ``"pepsi"``.
        eps_real: Real part of the relative permittivity (``eps'``).
        eps_imag: Imaginary part of the relative permittivity (``eps''``),
            including any conductivity contribution, as a positive number.
        conductivity: Ionic conductivity in S/m.  Stored separately so the
            catalog can re-derive ``eps''`` at other frequencies.
        description: Short provenance note.
    """

    name: str
    eps_real: float
    eps_imag: float
    conductivity: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.eps_real < 1.0:
            raise ValueError(
                f"eps_real must be >= 1 (vacuum), got {self.eps_real} "
                f"for {self.name!r}"
            )
        if self.eps_imag < 0.0:
            raise ValueError(
                f"eps_imag must be >= 0, got {self.eps_imag} for {self.name!r}"
            )
        if self.conductivity < 0.0:
            raise ValueError(
                f"conductivity must be >= 0, got {self.conductivity} "
                f"for {self.name!r}"
            )

    @property
    def complex_permittivity(self) -> complex:
        """Relative permittivity ``eps' - j eps''`` (engineering convention)."""
        return complex(self.eps_real, -self.eps_imag)

    def effective_eps_imag(self, frequency_hz: float) -> float:
        """Loss factor at ``frequency_hz`` including the conductivity term.

        ``eps_imag`` is calibrated at :data:`DEFAULT_FREQUENCY_HZ`; the
        conductivity contribution ``sigma / (omega eps_0)`` scales inversely
        with frequency, so we re-scale only that part.
        """
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        omega_ref = 2.0 * math.pi * DEFAULT_FREQUENCY_HZ
        omega = 2.0 * math.pi * frequency_hz
        sigma_part_ref = self.conductivity / (omega_ref * EPSILON_0)
        dipolar_part = max(self.eps_imag - sigma_part_ref, 0.0)
        return dipolar_part + self.conductivity / (omega * EPSILON_0)


#: Free space / air.  ``eps'' = 0`` makes ``alpha_free = 0`` exactly, which is
#: the limit the paper takes in Eq. 21 (``alpha_free`` is a constant ~0).
AIR = Material(
    name="air",
    eps_real=1.000536,
    eps_imag=0.0,
    description="dry air at room temperature",
)


def _conductivity_loss(sigma: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Loss-factor contribution of ionic conductivity ``sigma`` (S/m)."""
    return sigma / (2.0 * math.pi * frequency_hz * EPSILON_0)


def saltwater(grams_per_100ml: float) -> Material:
    """Saline water at the given concentration (g NaCl per 100 ml).

    Models the Fig. 16 experiment (1.2, 2.7 and 5.9 g/100 ml).  Dissolved
    NaCl *lowers* ``eps'`` slightly (dielectric decrement ~ -1.0 per g/100ml
    around this range) and *raises* the loss strongly through ionic
    conductivity (~ 1.5 S/m per g/100ml at low concentrations, saturating).
    """
    if grams_per_100ml < 0:
        raise ValueError(f"concentration must be >= 0, got {grams_per_100ml}")
    base = pure_water()
    # Dielectric decrement and conductivity rise, both mildly saturating.
    eps_real = base.eps_real - 1.05 * grams_per_100ml
    eps_real = max(eps_real, 40.0)
    sigma = 1.55 * grams_per_100ml / (1.0 + 0.045 * grams_per_100ml)
    eps_imag = base.eps_imag + _conductivity_loss(sigma)
    return Material(
        name=f"saltwater_{grams_per_100ml:g}g",
        eps_real=eps_real,
        eps_imag=eps_imag,
        conductivity=sigma,
        description=f"NaCl solution, {grams_per_100ml:g} g / 100 ml",
    )


def pure_water() -> Material:
    """Distilled water at ~25 C, Debye model evaluated near 5.32 GHz."""
    return Material(
        name="pure_water",
        eps_real=71.5,
        eps_imag=20.8,
        description="distilled water, Debye relaxation at 5.32 GHz",
    )


def mixture(
    first: Material,
    second: Material,
    fraction_first: float,
    name: str | None = None,
) -> Material:
    """Effective-medium mixture of two liquids (Lichtenecker rule).

    The paper's Discussion notes WiMi "cannot identify the target's
    material if it is comprised of two or more materials" -- it always
    reports a single material.  This helper builds the effective medium a
    mixed or emulsified target presents to the RF link (logarithmic
    Lichtenecker mixing of the complex permittivity), so that limitation
    can be demonstrated: the mixture's feature lands between the
    components' and WiMi maps it onto whichever pure catalog entry is
    nearest.

    Args:
        first: One component.
        second: The other component.
        fraction_first: Volume fraction of ``first`` in [0, 1].
        name: Label; defaults to ``mix_<first>_<second>_<fraction>``.
    """
    if not 0.0 <= fraction_first <= 1.0:
        raise ValueError(
            f"fraction_first must be in [0, 1], got {fraction_first}"
        )
    f = fraction_first
    # Lichtenecker: ln(eps_mix) = f ln(eps_1) + (1-f) ln(eps_2), applied
    # to the complex permittivity.
    import cmath

    eps_mix = cmath.exp(
        f * cmath.log(first.complex_permittivity)
        + (1.0 - f) * cmath.log(second.complex_permittivity)
    )
    label = name or f"mix_{first.name}_{second.name}_{f:g}"
    return Material(
        name=label,
        eps_real=max(eps_mix.real, 1.0),
        eps_imag=max(-eps_mix.imag, 0.0),
        conductivity=f * first.conductivity + (1.0 - f) * second.conductivity,
        description=(
            f"{f:.0%} {first.name} / {1 - f:.0%} {second.name} "
            "(Lichtenecker effective medium)"
        ),
    )


def _build_paper_liquids() -> dict[str, Material]:
    """The ten liquids of Fig. 15, in the paper's A..J order."""
    water = pure_water()
    liquids = {
        # A: vinegar -- ~5% acetic acid in water; slight decrement, some
        # ionic loss from dissociation.
        "vinegar": Material(
            "vinegar", 67.0, 25.64, conductivity=0.35,
            description="rice vinegar, ~5% acetic acid",
        ),
        # B: honey -- supersaturated sugar, little free water; low eps.
        "honey": Material(
            "honey", 10.5, 3.4,
            description="honey, ~17% moisture",
        ),
        # C: soy sauce -- very salty (~16 g NaCl / 100 ml): huge ionic loss.
        "soy": Material(
            "soy", 52.0, 38.0, conductivity=4.6,
            description="soy sauce, high salinity",
        ),
        # D: milk -- water + fat/protein/lactose; moderate decrement.
        "milk": Material(
            "milk", 62.5, 22.10, conductivity=0.28,
            description="whole milk",
        ),
        # E: pepsi -- ~11 g sugar / 100 ml cola, carbonated, phosphoric acid.
        "pepsi": Material(
            "pepsi", 65.6, 21.27, conductivity=0.13,
            description="Pepsi cola",
        ),
        # F: liquor -- ~50%vol ethanol-water (baijiu); ethanol relaxation
        # pulls eps' down hard and keeps loss high at 5 GHz.
        "liquor": Material(
            "liquor", 33.0, 26.0,
            description="52%vol distilled liquor (ethanol-water)",
        ),
        # G: pure water -- the Debye reference.
        "pure_water": water,
        # H: oil -- non-polar; tiny permittivity and loss.
        "oil": Material(
            "oil", 2.55, 0.17,
            description="vegetable (peanut) oil",
        ),
        # I: coke -- same category as pepsi, slightly different sugar/acid
        # balance: deliberately close to pepsi (the paper's hard pair).
        "coke": Material(
            "coke", 64.9, 21.88, conductivity=0.15,
            description="Coca-Cola",
        ),
        # J: sweet water -- ~8 g sugar / 100 ml.  Sucrose lowers eps' but
        # barely moves the loss at 5 GHz (relaxation broadening offsets the
        # water displacement), keeping it adjacent to pure water.
        "sweet_water": Material(
            "sweet_water", 67.1, 20.77,
            description="sucrose solution, ~8 g / 100 ml",
        ),
    }
    return liquids


#: Paper's class labels A..J (Fig. 15) in order.
PAPER_LIQUID_ORDER: tuple[str, ...] = (
    "vinegar",
    "honey",
    "soy",
    "milk",
    "pepsi",
    "liquor",
    "pure_water",
    "oil",
    "coke",
    "sweet_water",
)

#: Container wall materials (Fig. 20).  Thin solid shells.
CONTAINER_MATERIALS: dict[str, Material] = {
    "plastic": Material(
        "plastic", 2.6, 0.02,
        description="polypropylene beaker wall",
    ),
    "glass": Material(
        "glass", 5.5, 0.05,
        description="borosilicate beaker wall",
    ),
}


@dataclass
class MaterialCatalog:
    """A named collection of :class:`Material` definitions.

    The catalog is the reproduction's stand-in for "a shelf of liquids": the
    experiment harness asks it for materials by name, and the feature module
    uses its physical envelope (range of plausible ``Omega-bar`` values) to
    resolve the integer phase-wrap ``gamma`` of Eq. 21.
    """

    materials: dict[str, Material] = field(default_factory=dict)

    def add(self, material: Material) -> None:
        """Register ``material`` under its name; re-adding replaces it."""
        self.materials[material.name] = material

    def get(self, name: str) -> Material:
        """Look up a material; raises ``KeyError`` with suggestions."""
        if name in self.materials:
            return self.materials[name]
        known = ", ".join(sorted(self.materials))
        raise KeyError(f"unknown material {name!r}; catalog has: {known}")

    def __contains__(self, name: str) -> bool:
        return name in self.materials

    def __len__(self) -> int:
        return len(self.materials)

    def __iter__(self):
        return iter(self.materials.values())

    @property
    def names(self) -> list[str]:
        """All registered material names, insertion-ordered."""
        return list(self.materials)

    def subset(self, names: list[str] | tuple[str, ...]) -> "MaterialCatalog":
        """A new catalog holding only ``names`` (order preserved)."""
        return MaterialCatalog({n: self.get(n) for n in names})


def default_catalog() -> MaterialCatalog:
    """Catalog with the paper's ten liquids plus the saltwater series.

    Names: the ten Fig. 15 liquids (see :data:`PAPER_LIQUID_ORDER`), the
    Fig. 16 concentration series (``saltwater_1.2g`` etc.), and ``air``.
    """
    catalog = MaterialCatalog()
    for material in _build_paper_liquids().values():
        catalog.add(material)
    for concentration in (1.2, 2.7, 5.9):
        catalog.add(saltwater(concentration))
    catalog.add(AIR)
    return catalog
