"""Angle-diversity receiver (ADR) composition: PD arrays + CPC tiers.

An ADR is a central CPC element surrounded by hexagonal tiers of identical
tilted elements. Each element couples a CPC to a square array of square
PIN photodiodes. Given the two primary design variables, the per-PD
bandwidth B and the receiver half-angle field of view, every physical
dimension of the receiver follows in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .optics import (CAP_SLACK, THETA_CPC_MAX, TruncationSpec, cpc_entrance_diameter,
                     cpc_length, require_at_least, require_positive)

__all__ = [
    "EPSILON_0",
    "DEFAULT_K_PD",
    "PdPhysical",
    "AdrConfig",
    "AdrGeometry",
    "PRESETS",
    "preset",
    "element_count",
    "acceptance_angle",
    "pd_bandwidth_full",
    "pd_bandwidth_optimal",
    "pd_side_from_bandwidth",
    "k_pd_from_physical",
    "geometry",
]

EPSILON_0 = 8.8541878128e-12  # vacuum permittivity [F/m]

# Area-bandwidth constant of the PD front end, B = 1 / (K_PD * D_PD).
# Calibrated so that the 2x2-array single-tier preset reproduces the
# reference design point (B, FOV) = (2.1 GHz, 30 deg) -> (1.99 cm, 2.12 cm^2);
# see adrdesign.calibrate for the fit and its residuals.
DEFAULT_K_PD = 1.746e-6  # [s/m]


@dataclass(frozen=True)
class PdPhysical:
    """Physical PD constants for deriving the area-bandwidth constant.

    load_resistance is the junction series resistance plus the TIA load.
    depletion_thickness is optional; when absent only the optimal-thickness
    bandwidth is defined.
    """

    relative_permittivity: float
    load_resistance: float
    saturation_velocity: float
    depletion_thickness: Optional[float] = None

    def __post_init__(self):
        for name in ("relative_permittivity", "load_resistance", "saturation_velocity"):
            require_positive(name, getattr(self, name))
        if self.depletion_thickness is not None:
            require_positive("depletion_thickness", self.depletion_thickness)


@dataclass(frozen=True)
class AdrConfig:
    """A named receiver configuration (tiers, array size, constants)."""

    n_tier: int
    n_pd: int  # PDs per array, a perfect square
    fill_factor: float = 0.7
    n_cpc: float = 1.7
    k_pd: float = DEFAULT_K_PD  # [s/m]; compose from PD constants with k_pd_from_physical
    truncation: Optional[TruncationSpec] = None

    def __post_init__(self):
        if self.n_tier < 0 or int(self.n_tier) != self.n_tier:
            raise ValueError(f"n_tier must be a non-negative integer, got {self.n_tier}")
        root = int(round(math.sqrt(self.n_pd)))
        if self.n_pd < 1 or root * root != self.n_pd:
            raise ValueError(f"n_pd must be a perfect square >= 1, got {self.n_pd}")
        if not 0 < self.fill_factor <= 1:
            raise ValueError(f"fill_factor must be in (0, 1], got {self.fill_factor}")
        require_at_least("n_cpc", self.n_cpc, 1)
        require_positive("k_pd", self.k_pd)

    @property
    def tau(self) -> float:
        return 1.0 if self.truncation is None else self.truncation.length_ratio

    @property
    def gain_retention(self) -> float:
        return 1.0 if self.truncation is None else self.truncation.gain_retention


@dataclass(frozen=True)
class AdrGeometry:
    """Derived receiver dimensions at a design point (B, FOV)."""

    theta_cpc: float
    tilt_angles: tuple  # tilt of tier i relative to the central axis [rad]
    pd_side: float
    exit_diameter: float
    entrance_diameter: float
    height: float
    top_area: float
    element_count: int


# Table of standard configurations: (n_tier, PDs per array).
_PRESET_TABLE = {
    "config1": (1, 4),
    "config2": (1, 16),
    "config3": (1, 64),
    "config4": (2, 4),
    "config5": (2, 16),
    "config6": (3, 4),
}

PRESETS = {name: AdrConfig(n_tier=nt, n_pd=npd) for name, (nt, npd) in _PRESET_TABLE.items()}


def preset(name: str, truncation: Optional[TruncationSpec] = None) -> AdrConfig:
    """Look up a standard configuration, optionally with truncated CPCs."""
    try:
        cfg = PRESETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
    return replace(cfg, truncation=truncation) if truncation is not None else cfg


def element_count(n_tier: int) -> int:
    """Total receiver elements: 1 central plus 6*i per hexagonal tier i."""
    if n_tier < 0 or int(n_tier) != n_tier:
        raise ValueError(f"n_tier must be a non-negative integer, got {n_tier}")
    return 1 + sum(6 * i for i in range(1, int(n_tier) + 1))


def acceptance_angle(fov: float, n_tier: int) -> float:
    """CPC acceptance half-angle for a target receiver field of view.

    Adjacent tiers are tilted by twice the acceptance angle (touching,
    non-overlapping cones), so theta = FOV / (2*n_tier + 1). FOV is a
    half-angle in (0, fov_cap(n_tier)]: at most 90 deg, and theta at most 30 deg.
    """
    if n_tier < 0 or int(n_tier) != n_tier:
        raise ValueError(f"n_tier must be a non-negative integer, got {n_tier}")
    if not fov_valid(n_tier, fov):
        raise ValueError(
            f"FOV {math.degrees(fov):.3f} deg outside (0, {math.degrees(fov_cap(n_tier)):.4g}] "
            f"deg for {n_tier} tier(s): the half-angle FOV is capped at 90 deg and each "
            f"acceptance angle at 30 deg; add tiers or reduce FOV"
        )
    return _theta(int(n_tier), fov)


def _theta(n_tier, fov):
    """theta = FOV / (2*n_tier + 1): the central cone plus two per tier. Array-capable."""
    return fov / (2 * n_tier + 1)


def fov_cap(n_tier):
    """Largest valid FOV for a tier count: min(pi/2, (2*n_tier+1)*pi/6). Array-capable."""
    return np.minimum(math.pi / 2, (2 * n_tier + 1) * THETA_CPC_MAX)


def fov_valid(n_tier, fov):
    """Whether each FOV lies in (0, fov_cap(n_tier)], up to CAP_SLACK (NaN: no). Array-capable."""
    return (np.asarray(fov) > 0) & (fov <= fov_cap(n_tier) * CAP_SLACK)


def pd_bandwidth_full(phys: PdPhysical, area: float) -> float:
    """PD bandwidth from junction capacitance and transit time.

    B = 1 / sqrt((2 pi R C_p)^2 + (l / (0.44 v_s))^2), C_p = e0 er A / l.
    Requires the depletion thickness to be set.
    """
    if phys.depletion_thickness is None:
        raise ValueError("depletion_thickness is required for the full bandwidth model")
    require_positive("area", area)
    ell = phys.depletion_thickness
    c_p = EPSILON_0 * phys.relative_permittivity * area / ell
    rc = 2.0 * math.pi * phys.load_resistance * c_p
    transit = ell / (0.44 * phys.saturation_velocity)
    return 1.0 / math.sqrt(rc**2 + transit**2)


def pd_bandwidth_optimal(phys: PdPhysical, area: float) -> float:
    """Upper-bound bandwidth at the optimal depletion thickness."""
    require_positive("area", area)
    return _area_bandwidth(k_pd_from_physical(phys), math.sqrt(area))


def k_pd_from_physical(phys: PdPhysical) -> float:
    """Compose the area-bandwidth constant from PD material constants."""
    return math.sqrt(
        4.0 * math.pi * EPSILON_0 * phys.relative_permittivity
        * phys.load_resistance / (0.44 * phys.saturation_velocity)
    )


def pd_side_from_bandwidth(bandwidth: float, k_pd: float = DEFAULT_K_PD) -> float:
    """Side length of a square PD that reaches the given bandwidth."""
    require_positive("bandwidth", bandwidth)
    require_positive("k_pd", k_pd)
    return _area_bandwidth(k_pd, bandwidth)


def ring_sum(n_tier, theta):
    """Projected-area factor 1 + sum_i 6 i cos(2 i theta) over each row's tiers; broadcasts."""
    total = 1.0
    for i in range(1, int(np.max(n_tier, initial=0)) + 1):
        total = total + 6 * i * (i <= n_tier) * np.cos(2 * i * theta)
    return total


# Raw closed forms, array-capable and unvalidated; geometry(), the link
# budget, the sweeps and the optimizer boundaries all evaluate these.
# Every dimension scales with 1/B through D2, so height = h(theta) / B and
# top area = a(theta) / B^2; the boundaries invert h and a directly. cfg may
# also hold each constant as a column, one receiver per row of the grids.

def _sqrt(x):
    """math.sqrt of a scalar constant, so scalar callers get floats; np.sqrt of a column."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _area_bandwidth(k_pd: float, x):
    """B * d_PD = 1 / K_PD, solved for the PD side d_PD or the bandwidth B."""
    return 1.0 / (k_pd * x)


def _exit_diameter(cfg: AdrConfig, b):
    """CPC exit aperture D2 that covers the square array of N_PD PDs at fill factor FF."""
    return _area_bandwidth(cfg.k_pd, b) * _sqrt(cfg.n_pd / cfg.fill_factor)


def _entrance_diameter(cfg: AdrConfig, b, theta):
    """Entrance aperture D1, scaled by sqrt(gain_retention) when truncated.

    D1 is linear in D2; scaling D2 costs no array operation for scalar B."""
    d2 = _sqrt(cfg.gain_retention) * _exit_diameter(cfg, b)
    return cpc_entrance_diameter(d2, cfg.n_cpc, theta)


def _height_coeff(cfg: AdrConfig, theta):
    """h(theta) = receiver height * B [m Hz]: the (truncated) CPC length at B = 1 Hz."""
    d2 = _exit_diameter(cfg, 1.0)
    return cfg.tau * cpc_length(cpc_entrance_diameter(d2, cfg.n_cpc, theta), d2, theta)


def _area_coeff(cfg: AdrConfig, theta):
    """a(theta) = top area * B^2 [m^2 Hz^2]: entrance discs projected over all tiers at B = 1 Hz."""
    return np.pi / 4.0 * _entrance_diameter(cfg, 1.0, theta) ** 2 * ring_sum(cfg.n_tier, theta)


def _height(cfg: AdrConfig, b, theta):
    return _height_coeff(cfg, theta) / b


def _top_area(cfg: AdrConfig, b, theta):
    return _area_coeff(cfg, theta) / np.square(b)


def geometry(cfg: AdrConfig, bandwidth: float, fov: float) -> AdrGeometry:
    """Full receiver geometry at a design point.

    Derivation chain: theta from the FOV, PD side from the bandwidth, exit
    aperture from the array layout, entrance aperture from the concentrator
    gain, then overall height and projected top area over all tiers. When
    the configuration carries a truncation, entrance diameter, height and
    area are scaled by sqrt(gain_retention), length_ratio and gain_retention.
    """
    require_positive("bandwidth", bandwidth)
    theta = acceptance_angle(fov, cfg.n_tier)
    return AdrGeometry(
        theta_cpc=theta,
        tilt_angles=tuple(2 * i * theta for i in range(1, cfg.n_tier + 1)),
        pd_side=_area_bandwidth(cfg.k_pd, bandwidth),
        exit_diameter=_exit_diameter(cfg, bandwidth),
        entrance_diameter=float(_entrance_diameter(cfg, bandwidth, theta)),
        height=float(_height(cfg, bandwidth, theta)),
        top_area=float(_top_area(cfg, bandwidth, theta)),
        element_count=element_count(cfg.n_tier),
    )
