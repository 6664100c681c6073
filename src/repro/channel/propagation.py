"""Plane-wave propagation physics (paper Section II-B).

A time-harmonic plane wave in a lossy, non-magnetic medium propagates as
``exp(-gamma z)`` with complex propagation constant

    gamma = alpha + j beta = j omega sqrt(mu_0 eps_0 (eps' - j eps''))

``alpha`` (Np/m) is the *attenuation constant* and ``beta`` (rad/m) the
*phase constant*.  The closed forms used here are the standard ones (e.g.
Balanis, "Advanced Engineering Electromagnetics"):

    beta  = omega sqrt(mu eps'/2) * sqrt( sqrt(1 + tan^2 delta) + 1 )
    alpha = omega sqrt(mu eps'/2) * sqrt( sqrt(1 + tan^2 delta) - 1 )

with ``tan delta = eps''/eps'``.  From these the paper's Eq. 3 and Eq. 4
follow directly:

    delta_phi = D (beta_tar - beta_free)               (phase change)
    A_tar/A_free = exp(-D (alpha_tar - alpha_free))    (amplitude ratio)

for a ray travelling distance ``D`` inside the target.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.channel.materials import DEFAULT_FREQUENCY_HZ, EPSILON_0, Material

#: Permeability of free space (H/m).  All materials here are non-magnetic.
MU_0 = 4.0e-7 * math.pi

#: Speed of light in vacuum (m/s).
SPEED_OF_LIGHT = 1.0 / math.sqrt(MU_0 * EPSILON_0)


def propagation_constants(
    material: Material, frequency_hz: float = DEFAULT_FREQUENCY_HZ
) -> tuple[float, float]:
    """Return ``(alpha, beta)`` for ``material`` at ``frequency_hz``.

    ``alpha`` is in nepers/metre, ``beta`` in radians/metre.  Uses the
    frequency-corrected loss factor so that conductive materials (saltwater,
    soy sauce) keep the right dispersion.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    omega = 2.0 * math.pi * frequency_hz
    eps_real = material.eps_real
    eps_imag = material.effective_eps_imag(frequency_hz)
    if eps_real <= 0:
        raise ValueError(f"eps_real must be positive, got {eps_real}")
    tan_delta = eps_imag / eps_real
    root = math.sqrt(1.0 + tan_delta * tan_delta)
    scale = omega * math.sqrt(MU_0 * EPSILON_0 * eps_real / 2.0)
    beta = scale * math.sqrt(root + 1.0)
    alpha = scale * math.sqrt(root - 1.0)
    return alpha, beta


def propagation_constants_array(
    material: Material, frequencies_hz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of :func:`propagation_constants` over a frequency grid.

    Returns ``(alpha, beta)`` arrays of the same shape as
    ``frequencies_hz``.  Elementwise identical (to the ulp) to calling the
    scalar form per frequency; this is the hot-path variant the CSI
    simulator uses to build the per-subcarrier penetration grid in one go.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    if np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    eps_real = material.eps_real
    if eps_real <= 0:
        raise ValueError(f"eps_real must be positive, got {eps_real}")
    omega = 2.0 * math.pi * freqs
    # Inline Material.effective_eps_imag over the grid: the conductivity
    # term scales inversely with frequency, the dipolar part is fixed.
    omega_ref = 2.0 * math.pi * DEFAULT_FREQUENCY_HZ
    sigma_part_ref = material.conductivity / (omega_ref * EPSILON_0)
    dipolar_part = max(material.eps_imag - sigma_part_ref, 0.0)
    eps_imag = dipolar_part + material.conductivity / (omega * EPSILON_0)
    tan_delta = eps_imag / eps_real
    root = np.sqrt(1.0 + tan_delta * tan_delta)
    scale = omega * math.sqrt(MU_0 * EPSILON_0 * eps_real / 2.0)
    beta = scale * np.sqrt(root + 1.0)
    alpha = scale * np.sqrt(root - 1.0)
    return alpha, beta


def penetration_response_array(
    material: Material,
    path_length_m: float,
    frequencies_hz: np.ndarray,
    reference: Material | None = None,
) -> np.ndarray:
    """Vector form of :func:`penetration_response` over a frequency grid.

    Returns the complex multiplier per frequency, shape of
    ``frequencies_hz``.
    """
    from repro.channel.materials import AIR

    if path_length_m < 0:
        raise ValueError(f"path length must be >= 0, got {path_length_m}")
    ref = reference if reference is not None else AIR
    alpha_tar, beta_tar = propagation_constants_array(material, frequencies_hz)
    alpha_ref, beta_ref = propagation_constants_array(ref, frequencies_hz)
    ratio = np.exp(-path_length_m * (alpha_tar - alpha_ref))
    phase = path_length_m * (beta_tar - beta_ref)
    return ratio * np.exp(-1j * phase)


def attenuation_constant(
    material: Material, frequency_hz: float = DEFAULT_FREQUENCY_HZ
) -> float:
    """Attenuation constant ``alpha`` (Np/m) of ``material``."""
    alpha, _ = propagation_constants(material, frequency_hz)
    return alpha


def phase_constant(
    material: Material, frequency_hz: float = DEFAULT_FREQUENCY_HZ
) -> float:
    """Phase constant ``beta`` (rad/m) of ``material``."""
    _, beta = propagation_constants(material, frequency_hz)
    return beta


def phase_change_through(
    material: Material,
    path_length_m: float,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    reference: Material | None = None,
) -> float:
    """Paper Eq. 3: extra phase (rad) accrued by crossing ``path_length_m``.

    The change is relative to travelling the same distance in ``reference``
    (air by default): ``D (beta_tar - beta_free)``.  Positive for any
    material denser than air.
    """
    from repro.channel.materials import AIR

    if path_length_m < 0:
        raise ValueError(f"path length must be >= 0, got {path_length_m}")
    ref = reference if reference is not None else AIR
    beta_tar = phase_constant(material, frequency_hz)
    beta_ref = phase_constant(ref, frequency_hz)
    return path_length_m * (beta_tar - beta_ref)


def amplitude_ratio_through(
    material: Material,
    path_length_m: float,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    reference: Material | None = None,
) -> float:
    """Paper Eq. 4 (linear form): ``A_tar / A_free`` for a penetrating ray.

    Equals ``exp(-D (alpha_tar - alpha_free))``; in (0, 1] for lossy
    materials.
    """
    from repro.channel.materials import AIR

    if path_length_m < 0:
        raise ValueError(f"path length must be >= 0, got {path_length_m}")
    ref = reference if reference is not None else AIR
    alpha_tar = attenuation_constant(material, frequency_hz)
    alpha_ref = attenuation_constant(ref, frequency_hz)
    return math.exp(-path_length_m * (alpha_tar - alpha_ref))


def penetration_response(
    material: Material,
    path_length_m: float,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    reference: Material | None = None,
) -> complex:
    """Complex channel multiplier for a ray crossing the target.

    Combines Eq. 3 and Eq. 4: the field is multiplied by
    ``exp(-D (alpha_tar - alpha_free)) * exp(-j D (beta_tar - beta_free))``
    relative to the free-space ray.  This is what the CSI simulator applies
    to the LoS path when the target is present.
    """
    ratio = amplitude_ratio_through(material, path_length_m, frequency_hz, reference)
    phase = phase_change_through(material, path_length_m, frequency_hz, reference)
    return ratio * cmath.exp(-1j * phase)


def material_feature_theory(
    material: Material,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    reference: Material | None = None,
) -> float:
    """Ground-truth value of the paper's material feature (Eq. 21).

    ``Omega-bar = (alpha_tar - alpha_free) / (beta_tar - beta_free)``,
    positive for every lossy liquid.

    Note on the paper: substituting Eq. 20 into Eq. 21 gives
    ``-ln(DeltaPsi) = (D1-D2)(alpha_tar - alpha_free)`` over
    ``DeltaTheta + 2 gamma pi = (D1-D2)(beta_tar - beta_free)``, i.e. the
    *positive* form above; the paper's printed right-hand side
    ``(alpha_free - alpha_tar)/(beta_tar - beta_free)`` carries a sign typo.
    We use the self-consistent positive form everywhere.

    The WiMi pipeline estimates this from CSI alone; this helper computes it
    from the catalog physics, for verifying the estimator and for resolving
    the phase-wrap integer ``gamma``.
    """
    from repro.channel.materials import AIR

    ref = reference if reference is not None else AIR
    alpha_tar, beta_tar = propagation_constants(material, frequency_hz)
    alpha_ref, beta_ref = propagation_constants(ref, frequency_hz)
    beta_diff = beta_tar - beta_ref
    if abs(beta_diff) < 1e-12:
        raise ValueError(
            f"material {material.name!r} is indistinguishable from the "
            "reference medium: beta_tar == beta_free"
        )
    return (alpha_tar - alpha_ref) / beta_diff
