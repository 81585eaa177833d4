"""Link budget: received power, noise PSD, electrical SNR and achievable rate.

In a fully aligned link the central receiver element collects essentially
all of the incident power; its entrance aperture is the collecting circle.
The per-array EGC stage keeps the bandwidth of a single PD while the noise
floor picks up one thermal contribution per PD in the array, which is why
the thermal PSD below is multiplied by the array size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adr
from .adr import AdrConfig, require_at_least, require_positive
from .beam import PropagatedBeam, beam_radius, encircled_fraction

__all__ = [
    "BOLTZMANN",
    "ELEMENTARY_CHARGE",
    "LinkParams",
    "NoiseModel",
    "LinkBudget",
    "LinkContext",
    "spot_radius",
    "received_power",
    "noise_psd",
    "achievable_rate",
    "link_budget",
]

BOLTZMANN = 1.380649e-23  # [J/K]
ELEMENTARY_CHARGE = 1.602176634e-19  # [C]


@dataclass(frozen=True)
class LinkParams:
    """Link distance and receiver-chain constants."""

    distance: float = 3.0  # [m]
    responsivity: float = 0.6  # [A/W]
    snr_gap: float = 2.6  # linear SNR gap to capacity at the target BER
    transmit_power_cap: float = 0.016  # [W], eye-safety limit

    def __post_init__(self):
        for name in ("distance", "responsivity", "transmit_power_cap"):
            require_positive(name, getattr(self, name))
        require_at_least("snr_gap", self.snr_gap, 1)


@dataclass(frozen=True)
class NoiseModel:
    """Noise PSD constants.

    mode 'thermal_only' keeps just the TIA thermal term (the operating
    approximation for PIN + TIA front ends); 'full' adds shot noise and,
    when a RIN figure is supplied, the laser intensity-noise term.
    """

    temperature: float = 300.0  # [K]
    load_resistance: float = 1150.0  # [ohm]
    noise_figure: float = 10 ** 0.5  # linear (5 dB)
    mode: str = "thermal_only"
    rin: Optional[float] = None  # [1/Hz]

    def __post_init__(self):
        require_positive("temperature", self.temperature)
        require_positive("load_resistance", self.load_resistance)
        require_at_least("noise_figure", self.noise_figure, 1)  # linear
        if self.mode not in ("thermal_only", "full"):
            raise ValueError(f"mode must be 'thermal_only' or 'full', got {self.mode!r}")
        if self.rin is not None:
            if self.mode != "full":
                raise ValueError(f"rin needs mode 'full'; mode {self.mode!r} has no RIN term")
            require_at_least("rin", self.rin, 0)


@dataclass(frozen=True)
class LinkBudget:
    """Evaluated budget at one design point."""

    received_power: float  # [W]
    noise_psd: float  # [A^2/Hz]
    snr: float
    rate: float  # [bit/s]
    rin_included: bool  # False without a RIN figure


@dataclass(frozen=True)
class LinkContext:
    """Everything the rate evaluation needs besides the receiver config.

    The transmitted power is the beam's; it must not exceed the link's
    eye-safety cap.
    """

    beam: PropagatedBeam
    link: LinkParams
    noise: NoiseModel

    def __post_init__(self):
        if self.beam.power > self.link.transmit_power_cap:
            raise ValueError(
                f"transmit power {self.beam.power} W above the "
                f"{self.link.transmit_power_cap} W eye-safety cap"
            )


def spot_radius(ctx: LinkContext) -> float:
    """Beam radius at the receiver plane."""
    return beam_radius(ctx.beam, ctx.link.distance - ctx.beam.waist_position)


def _received_power_raw(cfg: AdrConfig, beam: PropagatedBeam, link: LinkParams, b, fov):
    """FF P_t inside the central element's entrance aperture; array-capable, unvalidated."""
    d1 = adr._entrance_diameter(cfg, b, adr._theta(cfg.n_tier, np.asarray(fov, dtype=float)))
    # FF * P_t first: near saturation the fraction is 1 - 1 ulp, and P_t times
    # it alone can round that ulp away, tying the rates of neighbouring FOVs.
    collected = cfg.fill_factor * beam.power
    return collected * encircled_fraction(beam, link.distance - beam.waist_position, d1 / 2.0)


def _check_point(cfg: AdrConfig, bandwidth: float, fov: float) -> None:
    adr.acceptance_angle(fov, cfg.n_tier)
    require_positive("bandwidth", bandwidth)


def received_power(cfg: AdrConfig, bandwidth: float, fov: float,
                   beam: PropagatedBeam, link: LinkParams) -> float:
    """Power collected by the aligned central element [W]."""
    _check_point(cfg, bandwidth, fov)
    return float(_received_power_raw(cfg, beam, link, bandwidth, fov))


def noise_psd(nm: NoiseModel, n_pd: int, received: float = 0.0,
              responsivity: float = LinkParams.responsivity):
    """Total noise PSD [A^2/Hz] referred to one PD-TIA chain times the array.

    thermal_only: N0 = 4 kT / R_L * F_n * N_PD
    full:         adds 2 q R P_r and, if RIN is set, RIN (R P_r)^2.
    """
    if np.any(np.asarray(n_pd) < 1):  # one count, or a column of them
        raise ValueError(f"n_pd must be >= 1, got {n_pd}")
    thermal = 4.0 * BOLTZMANN * nm.temperature / nm.load_resistance * nm.noise_figure * n_pd
    if nm.mode == "thermal_only":
        return thermal
    photo = responsivity * np.asarray(received, dtype=float)
    total = thermal + 2.0 * ELEMENTARY_CHARGE * photo
    if nm.rin is not None:
        total = total + nm.rin * photo**2
    return float(total) if np.ndim(total) == 0 else total


def _budget_raw(cfg: AdrConfig, ctx: LinkContext, b, fov) -> tuple:
    """(P_r, N0, SNR, rate) at design points, array-capable, no validation.

    SNR = (R P_r)^2 / (N0 B) at the EGC output; rate = B log2(1 + SNR / gap).
    """
    p_r = _received_power_raw(cfg, ctx.beam, ctx.link, b, fov)
    n0 = noise_psd(ctx.noise, cfg.n_pd, p_r, ctx.link.responsivity)
    b = np.asarray(b, dtype=float)
    snr = (ctx.link.responsivity * p_r) ** 2 / (n0 * b)
    return p_r, n0, snr, b * np.log2(1.0 + snr / ctx.link.snr_gap)


def _rate_raw(cfg: AdrConfig, ctx: LinkContext, b, fov):
    """Achievable rate, array-capable, no domain validation."""
    return _budget_raw(cfg, ctx, b, fov)[3]


def achievable_rate(cfg: AdrConfig, bandwidth: float, fov: float, ctx: LinkContext) -> float:
    """Rate R = B log2(1 + SNR / gap) at a design point [bit/s]."""
    _check_point(cfg, bandwidth, fov)
    return float(_rate_raw(cfg, ctx, bandwidth, fov))


def link_budget(cfg: AdrConfig, bandwidth: float, fov: float, ctx: LinkContext) -> LinkBudget:
    """Evaluate the whole budget at one design point."""
    _check_point(cfg, bandwidth, fov)
    p_r, n0, snr, rate = (float(x) for x in _budget_raw(cfg, ctx, bandwidth, fov))
    return LinkBudget(
        received_power=p_r,
        noise_psd=n0,
        snr=snr,
        rate=rate,
        rin_included=ctx.noise.rin is not None,
    )
