"""RF propagation substrate for the WiMi reproduction.

This package models everything that happens to a Wi-Fi signal between the
transmitter and the receiver in the paper's testbed:

* :mod:`repro.channel.materials` -- a dielectric catalog for the paper's ten
  liquids (plus the saltwater concentration series and container walls),
  expressed as complex relative permittivity at the 5 GHz carrier.
* :mod:`repro.channel.propagation` -- the plane-wave physics of Section II-B:
  permittivity to attenuation constant ``alpha`` and phase constant ``beta``,
  and the phase/amplitude change a penetrating ray suffers (Eq. 2-4).
* :mod:`repro.channel.geometry` -- the testbed geometry: transmitter,
  receiver antenna array, cylindrical beaker on the LoS, and the chord
  lengths ``D_i`` each antenna's ray travels inside the liquid.
* :mod:`repro.channel.multipath` -- a ray-based multipath channel producing
  per-subcarrier frequency-selective responses.
* :mod:`repro.channel.environment` -- the hall / lab / library presets
  (low / medium / high multipath) used throughout the evaluation.
"""

from repro.channel.environment import Environment, make_environment
from repro.channel.geometry import (
    AntennaArray,
    CylinderTarget,
    LinkGeometry,
    chord_length,
)
from repro.channel.materials import (
    AIR,
    Material,
    MaterialCatalog,
    default_catalog,
    saltwater,
)
from repro.channel.multipath import MultipathChannel, Path
from repro.channel.propagation import (
    amplitude_ratio_through,
    attenuation_constant,
    penetration_response,
    phase_change_through,
    phase_constant,
    propagation_constants,
)

__all__ = [
    "AIR",
    "AntennaArray",
    "CylinderTarget",
    "Environment",
    "LinkGeometry",
    "Material",
    "MaterialCatalog",
    "MultipathChannel",
    "Path",
    "amplitude_ratio_through",
    "attenuation_constant",
    "chord_length",
    "default_catalog",
    "make_environment",
    "penetration_response",
    "phase_change_through",
    "phase_constant",
    "propagation_constants",
    "saltwater",
]
