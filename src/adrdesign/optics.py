"""Compound parabolic concentrator (CPC) geometry and length truncation.

A CPC with acceptance half-angle theta and refractive index n reaches the
etendue-limited concentration gain n^2 / sin^2(theta). Truncating its length
trades a little gain for a much shorter package; the two-constant model used
here keeps the acceptance angle fixed and scales length and gain by
configurable factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THETA_CPC_MAX",
    "CpcSpec",
    "CpcGeometry",
    "TruncationSpec",
    "cpc_entrance_diameter",
    "cpc_length",
    "cpc_derive",
    "apply_truncation",
]

# Largest admissible acceptance half-angle. The receiver's field of view is
# capped at 90 deg and spans (2*n_tier + 1) acceptance cones, so theta can
# never exceed 30 deg.
THETA_CPC_MAX = math.pi / 6

# Relative slack of every FOV and acceptance-angle cap test: tolerates the
# 1-ulp overshoot of an angle derived from pi/2.
CAP_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class CpcSpec:
    """Defining parameters of one concentrator."""

    acceptance_angle: float  # half-angle [rad]
    refractive_index: float = 1.7
    exit_diameter: float = 1.5e-3  # [m]

    def __post_init__(self):
        if not 0 < self.acceptance_angle <= THETA_CPC_MAX * CAP_SLACK:
            raise ValueError(
                f"acceptance_angle {math.degrees(self.acceptance_angle):.3f} deg outside "
                f"(0, 30] deg; angles above 30 deg are unreachable for a receiver whose "
                f"field of view is capped at 90 deg"
            )
        if self.refractive_index < 1:
            raise ValueError(f"refractive_index must be >= 1, got {self.refractive_index}")
        if self.exit_diameter <= 0:
            raise ValueError(f"exit_diameter must be positive, got {self.exit_diameter}")


@dataclass(frozen=True)
class CpcGeometry:
    """Derived dimensions of a (possibly truncated) concentrator."""

    acceptance_angle: float
    exit_diameter: float
    entrance_diameter: float
    length: float
    gain: float

    @property
    def entrance_area(self) -> float:
        return math.pi * self.entrance_diameter**2 / 4.0


@dataclass(frozen=True)
class TruncationSpec:
    """Length-truncation constants.

    length_ratio is the kept fraction of the full length; gain_retention is
    the kept fraction of the concentration gain. The acceptance angle is
    treated as unchanged, which holds for length_ratio >= 0.5; shorter cuts
    are outside the model's validity range and rejected.
    """

    length_ratio: float = 0.6
    gain_retention: float = 0.9

    def __post_init__(self):
        if not 0.5 <= self.length_ratio <= 1.0:
            raise ValueError(
                f"length_ratio {self.length_ratio} outside [0.5, 1]; below 0.5 the "
                f"acceptance angle is no longer preserved"
            )
        if not 0.0 < self.gain_retention <= 1.0:
            raise ValueError(f"gain_retention must be in (0, 1], got {self.gain_retention}")


def cpc_entrance_diameter(exit_diameter, refractive_index: float, theta):
    """Etendue-limited entrance aperture D1 = D2 n / sin(theta). Array-capable."""
    return exit_diameter * refractive_index / np.sin(theta)


def cpc_length(entrance_diameter, exit_diameter, theta):
    """Full CPC length L = (D1 + D2) / (2 tan(theta)). Array-capable."""
    return (entrance_diameter + exit_diameter) / (2.0 * np.tan(theta))


def cpc_derive(spec: CpcSpec) -> CpcGeometry:
    """Gain, entrance aperture and length of a full CPC; gain = (D1 / D2)^2 = n^2 / sin^2(theta)."""
    theta, d2 = spec.acceptance_angle, spec.exit_diameter
    d1 = float(cpc_entrance_diameter(d2, spec.refractive_index, theta))
    return CpcGeometry(
        acceptance_angle=theta,
        exit_diameter=d2,
        entrance_diameter=d1,
        length=float(cpc_length(d1, d2, theta)),
        gain=(d1 / d2) ** 2,
    )


def apply_truncation(geom: CpcGeometry, trunc: TruncationSpec) -> CpcGeometry:
    """Scale a full-length CPC by the truncation constants.

    Entrance diameter scales by sqrt(gain_retention), length by length_ratio
    and gain by gain_retention. Exit diameter and acceptance angle are
    unchanged.
    """
    root_g = math.sqrt(trunc.gain_retention)
    return CpcGeometry(
        acceptance_angle=geom.acceptance_angle,
        exit_diameter=geom.exit_diameter,
        entrance_diameter=root_g * geom.entrance_diameter,
        length=trunc.length_ratio * geom.length,
        gain=trunc.gain_retention * geom.gain,
    )
