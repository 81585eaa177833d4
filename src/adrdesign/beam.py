"""Gaussian beam propagation through a thin lens and encircled-power evaluation.

The transmitter is a small-waist source (a VCSEL facet) placed near a thin
plano-convex lens. The lens re-images the waist; downstream of the lens the
field is again Gaussian with a new waist radius, Rayleigh range and waist
position. The receiver only ever sees the transformed beam, so the rest of
the library works exclusively with :class:`PropagatedBeam`.

All quantities are SI (metres, watts, radians) unless noted otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SourceBeam",
    "LensSpec",
    "PropagatedBeam",
    "rayleigh_range",
    "transform_through_lens",
    "beam_radius",
    "encircled_fraction",
    "encircled_power",
]


@dataclass(frozen=True)
class SourceBeam:
    """Gaussian beam at the source, before the lens.

    Parameters
    ----------
    waist_radius:
        1/e^2 intensity radius at the waist [m].
    wavelength:
        Vacuum wavelength [m].
    medium_index:
        Refractive index of the propagation medium (>= 1).
    power:
        Total optical power carried by the beam [W].
    """

    waist_radius: float
    wavelength: float
    medium_index: float = 1.0
    power: float = 0.010

    def __post_init__(self):
        if self.waist_radius <= 0:
            raise ValueError(f"waist_radius must be positive, got {self.waist_radius}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.medium_index < 1:
            raise ValueError(f"medium_index must be >= 1, got {self.medium_index}")
        if self.power < 0:
            raise ValueError(f"power must be non-negative, got {self.power}")


@dataclass(frozen=True)
class LensSpec:
    """Thin lens: focal length and distance from the source waist to the lens."""

    focal_length: float
    waist_to_lens_distance: float = 0.0

    def __post_init__(self):
        if self.focal_length <= 0:
            raise ValueError(f"focal_length must be positive, got {self.focal_length}")
        if self.waist_to_lens_distance < 0:
            raise ValueError(
                f"waist_to_lens_distance must be >= 0, got {self.waist_to_lens_distance}"
            )


@dataclass(frozen=True)
class PropagatedBeam:
    """Gaussian beam downstream of the lens.

    Attributes
    ----------
    waist_radius:
        Transformed waist radius w0' [m].
    rayleigh_range:
        Transformed Rayleigh range z_R' [m].
    waist_position:
        Axial position of the transformed waist, measured from the lens [m].
    power:
        Total optical power [W] (the lens is treated as lossless).
    """

    waist_radius: float
    rayleigh_range: float
    waist_position: float
    power: float

    def __post_init__(self):
        if self.waist_radius <= 0:
            raise ValueError(f"waist_radius must be positive, got {self.waist_radius}")
        if self.rayleigh_range <= 0:
            raise ValueError(f"rayleigh_range must be positive, got {self.rayleigh_range}")
        if self.power < 0:
            raise ValueError(f"power must be non-negative, got {self.power}")


def rayleigh_range(waist_radius: float, wavelength: float, medium_index: float = 1.0) -> float:
    """Rayleigh range of a Gaussian beam.

    Parameters
    ----------
    waist_radius:
        Waist radius w0 [m].
    wavelength:
        Vacuum wavelength [m].
    medium_index:
        Refractive index of the medium.

    Returns
    -------
    float
        z_R = pi * w0^2 * n / lambda [m].
    """
    if waist_radius <= 0:
        raise ValueError(f"waist_radius must be positive, got {waist_radius}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if medium_index < 1:
        raise ValueError(f"medium_index must be >= 1, got {medium_index}")
    return math.pi * waist_radius**2 * medium_index / wavelength


def transform_through_lens(beam: SourceBeam, lens: LensSpec) -> PropagatedBeam:
    """Image a Gaussian beam through a thin lens.

    With the source waist a distance d in front of a lens of focal length f,
    the magnification is M = f / sqrt((d - f)^2 + z_R^2) and the transformed
    beam has

        w0' = M * w0,   z_R' = M^2 * z_R,   z0' = f + M^2 * (d - f),

    where z0' is measured from the lens along the optical axis. M is finite
    for every d >= 0 because z_R > 0.
    """
    z_r = rayleigh_range(beam.waist_radius, beam.wavelength, beam.medium_index)
    d = lens.waist_to_lens_distance
    f = lens.focal_length
    mag = f / math.sqrt((d - f) ** 2 + z_r**2)
    return PropagatedBeam(
        waist_radius=mag * beam.waist_radius,
        rayleigh_range=mag**2 * z_r,
        waist_position=f + mag**2 * (d - f),
        power=beam.power,
    )


def beam_radius(beam: PropagatedBeam, z):
    """Beam radius at axial distance ``z`` from the transformed waist.

    ``z`` is measured from the waist, not from the lens; callers evaluating
    at a plane a distance D from the lens pass ``D - beam.waist_position``.
    Accepts scalars or numpy arrays.
    """
    z = np.asarray(z, dtype=float)
    w = beam.waist_radius * np.sqrt(1.0 + (z / beam.rayleigh_range) ** 2)
    return float(w) if w.ndim == 0 else w


def encircled_fraction(beam: PropagatedBeam, z, rho0):
    """Fraction 1 - exp(-2 rho0^2 / w(z)^2) of the power inside a centred aperture."""
    rho0 = np.asarray(rho0, dtype=float)
    if np.any(rho0 < 0):
        raise ValueError("aperture radius rho0 must be >= 0")
    w = beam_radius(beam, z)
    return 1.0 - np.exp(-2.0 * rho0**2 / np.asarray(w) ** 2)


def encircled_power(beam: PropagatedBeam, z, rho0):
    """Optical power collected by a centred circular aperture.

    Parameters
    ----------
    beam:
        Transformed beam.
    z:
        Axial distance from the transformed waist [m].
    rho0:
        Aperture radius [m], must be >= 0.

    Returns
    -------
    float or ndarray
        P = P_total * (1 - exp(-2 rho0^2 / w(z)^2)) [W].
    """
    p = beam.power * encircled_fraction(beam, z, rho0)
    return float(p) if np.ndim(p) == 0 else p
