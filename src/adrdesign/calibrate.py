"""Fit of the two front-end constants the published data sheet leaves open.

The area-bandwidth constant K_PD is pinned by the 2x2-array single-tier
design point (2.1 GHz, 30 deg) -> (height 1.99 cm, top area 2.12 cm^2);
the TIA load resistance is then pinned by the three quoted peak rates.
The shipped defaults (K_PD = 1.746e-6 s/m, R_L = 1150 ohm) land every
anchor within 2 percent; `run_calibration` re-fits both and reports the
residuals so the provenance of the defaults stays checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import adr
from .link import LinkContext, NoiseModel, _rate_raw
from .optimizer import golden_max

__all__ = [
    "Anchor",
    "DIMENSION_ANCHORS",
    "RATE_ANCHORS",
    "CalibrationResult",
    "residual_report",
    "fit_k_pd",
    "fit_load_resistance",
    "run_calibration",
]

_B_REF = 2.1e9
_FOV_REF = math.radians(30.0)


@dataclass(frozen=True)
class Anchor:
    name: str
    preset: str
    bandwidth: float  # [Hz]
    target: float  # height [m], area [m^2] or rate [bit/s]


# Reference operating points used to pin the two unmeasured constants.
DIMENSION_ANCHORS = (
    Anchor("height_cm", "config1", _B_REF, 1.99e-2),
    Anchor("area_cm2", "config1", _B_REF, 2.12e-4),
)
RATE_ANCHORS = (
    Anchor("peak_rate_config1", "config1", 2.1e9, 14.00e9),
    Anchor("peak_rate_config2", "config2", 2.7e9, 18.56e9),
    Anchor("peak_rate_config3", "config3", 3.5e9, 24.53e9),
)


@dataclass(frozen=True)
class CalibrationResult:
    k_pd: float
    load_resistance: float
    residuals: dict  # anchor name -> relative error at the fitted constants
    frozen_residuals: dict  # anchor name -> relative error at the shipped defaults


def _dim_values(k_pd: float) -> tuple:
    cfg = replace(adr.PRESETS["config1"], k_pd=k_pd)
    geo = adr.geometry(cfg, _B_REF, _FOV_REF)
    return geo.height, geo.top_area


def _rate_values(ctx: LinkContext, k_pd: float, load_resistance: float) -> list:
    noise = replace(ctx.noise, load_resistance=load_resistance)
    ctx = LinkContext(beam=ctx.beam, link=ctx.link, noise=noise)
    out = []
    for anchor in RATE_ANCHORS:
        cfg = replace(adr.PRESETS[anchor.preset], k_pd=k_pd)
        out.append(float(_rate_raw(cfg, ctx, anchor.bandwidth, _FOV_REF)))
    return out


def _residuals(anchors: tuple, values) -> dict:
    """Relative error of each value against its anchor's target."""
    return {a.name: (v - a.target) / a.target for a, v in zip(anchors, values)}


def fit_k_pd() -> float:
    """Least-squares fit of K_PD to the height / area anchor pair."""

    def loss(k):
        return -sum(r**2 for r in _residuals(DIMENSION_ANCHORS, _dim_values(k)).values())

    k, _ = golden_max(loss, 1.2e-6, 2.4e-6, rel_tol=1e-10)
    return k


def fit_load_resistance(ctx: LinkContext, k_pd: float) -> float:
    """Least-squares fit of the TIA load to the three peak-rate anchors."""

    def loss(rl):
        rates = _rate_values(ctx, k_pd, rl)
        return -sum(r**2 for r in _residuals(RATE_ANCHORS, rates).values())

    rl, _ = golden_max(loss, 400.0, 2400.0, rel_tol=1e-10)
    return rl


def residual_report(ctx: LinkContext, k_pd: float, load_resistance: float) -> dict:
    """Relative error of every anchor at the given constants."""
    return {**_residuals(DIMENSION_ANCHORS, _dim_values(k_pd)),
            **_residuals(RATE_ANCHORS, _rate_values(ctx, k_pd, load_resistance))}


def run_calibration(ctx: LinkContext) -> CalibrationResult:
    """Re-fit both constants and report residuals at the fit and at the
    shipped defaults."""
    k_fit = fit_k_pd()
    rl_fit = fit_load_resistance(ctx, k_fit)
    return CalibrationResult(
        k_pd=k_fit,
        load_resistance=rl_fit,
        residuals=residual_report(ctx, k_fit, rl_fit),
        frozen_residuals=residual_report(ctx, adr.DEFAULT_K_PD,
                                         NoiseModel().load_resistance),
    )
