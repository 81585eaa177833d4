"""Rate maximisation over (B, FOV) under FOV and dimension constraints.

The rate decreases monotonically with FOV, and both receiver dimensions
decrease monotonically with B and FOV. The optimum therefore always sits on
the lower boundary of the feasible region, which collapses the 2-D problem
to a 1-D search along B: for every bandwidth the binding FOV is

    f_fov(B) = max(fov_min, f_height^-1(B), f_area^-1(B)),

where the inverse boundary functions are obtained by bisection (each
boundary is strictly monotone). The search itself is a dense log-spaced
grid followed by golden-section refinement; the analytic partial
derivatives are provided for verification, not for the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import adr
from .adr import AdrConfig, fov_cap, fov_valid, require_positive, ring_sum
from .link import LinkContext, _rate_raw, _received_power_raw, noise_psd, spot_radius
from .optics import CAP_SLACK

__all__ = [
    "ConstraintSet",
    "SolverOptions",
    "OptimumResult",
    "RateGradients",
    "BoundaryOutOfRange",
    "dimension_boundary",
    "invert_dimension_boundary",
    "unified_boundary",
    "maximize_rate_constrained",
    "analytic_gradients",
    "golden_max",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class BoundaryOutOfRange(ValueError):
    """Requested bandwidth lies below the image of the boundary function.

    Below the boundary's minimum the dimension bound is violated at every
    admissible FOV, so no inverse exists and the bandwidth is infeasible.
    """


@dataclass(frozen=True)
class ConstraintSet:
    """Minimum FOV plus optional caps on receiver height and top area."""

    fov_min: float  # [rad]
    l_max: Optional[float] = None  # [m]
    a_max: Optional[float] = None  # [m^2]

    def __post_init__(self):
        if not 0 < self.fov_min <= math.pi / 2 * CAP_SLACK:
            raise ValueError(
                f"fov_min {math.degrees(self.fov_min):.3f} deg outside (0, 90] deg"
            )
        for name in ("l_max", "a_max"):
            if getattr(self, name) is not None:
                require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class SolverOptions:
    b_min: float = 0.1e9
    b_max: float = 20e9
    grid_points: int = 2000
    b_rel_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.b_min < self.b_max:
            raise ValueError("need 0 < b_min < b_max")
        if self.grid_points < 8:
            raise ValueError("grid_points must be >= 8")


@dataclass(frozen=True)
class OptimumResult:
    feasible: bool
    b_star: float
    fov_star: float
    rate_star: float
    active_constraints: frozenset = frozenset()
    boundary_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    diagnostic: str = ""


@dataclass(frozen=True)
class RateGradients:
    """Closed-form partials at an interior design point (all negative)."""

    d_rate_d_fov: float
    d_height_d_fov: float
    d_area_d_fov: float
    d_d1_d_theta: float


# Each dimension is coeff(theta) / B^power: height h(theta) / B, top area
# a(theta) / B^2. Its boundary is B = (coeff(theta) / bound)^(1 / power).
_DIMENSIONS = {"height": (adr._height_coeff, 1), "area": (adr._area_coeff, 2)}


def _boundary(cfg: AdrConfig, which: str, theta, bound: float):
    """B at which the dimension equals its bound, as a function of theta (array-capable)."""
    coeff, power = _DIMENSIONS[which]
    return (coeff(cfg, theta) / bound) ** (1.0 / power)


def dimension_boundary(cfg: AdrConfig, which: str, fov: float, bound: float) -> float:
    """Bandwidth at which the given dimension equals its bound, for one FOV.

    Truncation constants are folded in, so the bound applies to the
    truncated dimension when the configuration carries a truncation.
    """
    if which not in _DIMENSIONS:
        raise ValueError(f"which must be 'height' or 'area', got {which!r}")
    require_positive("bound", bound)
    theta = adr.acceptance_angle(fov, cfg.n_tier)
    return float(_boundary(cfg, which, theta, bound))


def _invert_boundary_grid(cfg: AdrConfig, which: str, b, bound: float,
                          iters: int = 110) -> np.ndarray:
    """Vectorised bisection inverse of a boundary function.

    Returns the FOV on the boundary for each bandwidth, +inf where the
    bandwidth lies below the boundary image (bound violated at every FOV).
    Each step compares coeff(theta) with its boundary value bound * B^power,
    which needs no root.
    """
    coeff, power = _DIMENSIONS[which]
    cap = fov_cap(cfg.n_tier)
    divisor = 2 * cfg.n_tier + 1
    b = np.atleast_1d(np.asarray(b, dtype=float))
    target = bound * b**power
    below_image = coeff(cfg, cap / divisor) > target
    lo = np.full(b.shape, 1e-9)
    hi = np.full(b.shape, cap)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        too_small = coeff(cfg, mid / divisor) > target  # dimension decreasing in FOV
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(below_image, np.inf, out)


def invert_dimension_boundary(cfg: AdrConfig, which: str, bandwidth: float,
                              bound: float) -> float:
    """Unique FOV with dimension_boundary(cfg, which, FOV, bound) == bandwidth.

    Bisection on the strictly decreasing boundary; the residual
    |f(FOV) - B| / B is driven below 1e-10. Raises BoundaryOutOfRange when
    the bandwidth is below the boundary image.
    """
    if which not in _DIMENSIONS:
        raise ValueError(f"which must be 'height' or 'area', got {which!r}")
    require_positive("bandwidth", bandwidth)
    require_positive("bound", bound)
    fov = float(_invert_boundary_grid(cfg, which, bandwidth, bound)[0])
    if not math.isfinite(fov):
        raise BoundaryOutOfRange(
            f"bandwidth {bandwidth / 1e9:.4g} GHz is below the {which} boundary for "
            f"bound {bound:g}; the bound is violated at every admissible FOV"
        )
    residual = abs(dimension_boundary(cfg, which, fov, bound) - bandwidth) / bandwidth
    if residual > 1e-10:
        raise RuntimeError(f"bisection failed to converge, residual {residual:.3e}")
    return fov


def _unified_grid(cfg: AdrConfig, cs: ConstraintSet, b) -> np.ndarray:
    """f_fov over an array of bandwidths; +inf marks infeasible bandwidths."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    out = np.full(b.shape, cs.fov_min)
    if cs.l_max is not None:
        out = np.maximum(out, _invert_boundary_grid(cfg, "height", b, cs.l_max))
    if cs.a_max is not None:
        out = np.maximum(out, _invert_boundary_grid(cfg, "area", b, cs.a_max))
    return np.where(fov_valid(cfg.n_tier, out), out, np.inf)


def unified_boundary(cfg: AdrConfig, cs: ConstraintSet, bandwidth: float) -> float:
    """Binding FOV at one bandwidth: max of the minimum-FOV line and the
    inverse dimension boundaries. Returns +inf when the bandwidth is
    infeasible (required FOV above the admissible cap); infeasibility is a
    value here, not an error."""
    require_positive("bandwidth", bandwidth)
    return float(_unified_grid(cfg, cs, bandwidth)[0])


def golden_max(f, lo: float, hi: float, rel_tol: float = 1e-6,
               max_iter: int = 200) -> tuple:
    """Golden-section maximisation of a unimodal scalar function."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi)):
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _active_constraints(cfg: AdrConfig, cs: ConstraintSet, b: float, fov: float,
                        rel_tol: float = 1e-6) -> frozenset:
    active = set()
    if abs(fov - cs.fov_min) <= rel_tol * cs.fov_min:
        active.add("fov")
    geo = adr.geometry(cfg, b, fov)
    if cs.l_max is not None and abs(geo.height - cs.l_max) <= rel_tol * cs.l_max:
        active.add("height")
    if cs.a_max is not None and abs(geo.top_area - cs.a_max) <= rel_tol * cs.a_max:
        active.add("area")
    return frozenset(active)


def _infeasible_diagnostic(cfg: AdrConfig, cs: ConstraintSet, opts: SolverOptions) -> str:
    cap = fov_cap(cfg.n_tier)
    parts = []
    if not fov_valid(cfg.n_tier, cs.fov_min):
        parts.append(
            f"fov_min {math.degrees(cs.fov_min):.2f} deg exceeds the "
            f"{math.degrees(cap):.2f} deg cap for {cfg.n_tier} tier(s)"
        )
    for which, bound in (("height", cs.l_max), ("area", cs.a_max)):
        if bound is None:
            continue
        b_needed = float(_boundary(cfg, which, cs.fov_min / (2 * cfg.n_tier + 1), bound))
        if b_needed > opts.b_max:
            parts.append(
                f"{which} bound {bound:g} needs B >= {b_needed / 1e9:.3g} GHz at "
                f"fov_min, above the search range"
            )
        b_floor = float(_boundary(cfg, which, cap / (2 * cfg.n_tier + 1), bound))
        if b_floor > opts.b_max:
            parts.append(
                f"{which} bound {bound:g} is unreachable below "
                f"{opts.b_max / 1e9:.3g} GHz at any FOV"
            )
    return "; ".join(parts) or "no feasible bandwidth in the search range"


def maximize_rate_constrained(cfg: AdrConfig, ctx: LinkContext, cs: ConstraintSet,
                              options: Optional[SolverOptions] = None) -> OptimumResult:
    """Maximise the rate along the unified constraint boundary.

    Dense log-spaced grid over the bandwidth range, then golden-section
    refinement around the best cell. The optimum FOV is f_fov(B*); which
    constraints are active there is reported to 1e-6 relative equality.
    """
    opts = options or SolverOptions()
    b = np.geomspace(opts.b_min, opts.b_max, opts.grid_points)
    fov = _unified_grid(cfg, cs, b)
    feasible = np.isfinite(fov)
    rates = np.full(b.shape, -np.inf)
    if feasible.any():
        rates[feasible] = _rate_raw(cfg, ctx, b[feasible], fov[feasible])
    trace = np.column_stack([b[feasible], fov[feasible], rates[feasible]])
    if not feasible.any():
        return OptimumResult(
            feasible=False, b_star=math.nan, fov_star=math.nan, rate_star=math.nan,
            boundary_trace=trace, diagnostic=_infeasible_diagnostic(cfg, cs, opts),
        )

    i = int(np.argmax(rates))
    lo = b[max(i - 1, 0)]
    hi = b[min(i + 1, len(b) - 1)]

    def objective(bb: float) -> float:
        ff = float(_unified_grid(cfg, cs, bb)[0])
        if not math.isfinite(ff):
            return -math.inf
        return float(_rate_raw(cfg, ctx, bb, ff))

    b_star, rate_star = golden_max(objective, lo, hi, rel_tol=opts.b_rel_tol)
    if rates[i] > rate_star:  # keep the grid point if refinement stalled on a plateau edge
        b_star, rate_star = float(b[i]), float(rates[i])
    fov_star = float(_unified_grid(cfg, cs, b_star)[0])
    return OptimumResult(
        feasible=True,
        b_star=float(b_star),
        fov_star=fov_star,
        rate_star=float(rate_star),
        active_constraints=_active_constraints(cfg, cs, b_star, fov_star),
        boundary_trace=trace,
    )


def analytic_gradients(cfg: AdrConfig, ctx: LinkContext, bandwidth: float,
                       fov: float) -> RateGradients:
    """Closed-form partial derivatives at an interior design point.

    Valid strictly inside the domain (0 < theta < 30 deg) and for the
    thermal-only noise model, where the noise PSD does not depend on the
    received power. Every returned value is negative: rate and both
    dimensions shrink as the FOV widens.
    """
    theta = adr.acceptance_angle(fov, cfg.n_tier)
    cap = fov_cap(cfg.n_tier)
    if not (1e-9 < fov < cap / CAP_SLACK):
        raise ValueError(
            f"FOV {math.degrees(fov):.3f} deg is not interior to (0, "
            f"{math.degrees(cap):.1f}) deg"
        )
    require_positive("bandwidth", bandwidth)
    if ctx.noise.mode != "thermal_only":
        raise ValueError("analytic gradients assume the thermal-only noise model")

    divisor = 2 * cfg.n_tier + 1
    s, c, t = math.sin(theta), math.cos(theta), math.tan(theta)
    d2 = adr._exit_diameter(cfg, bandwidth)
    d1 = float(adr._entrance_diameter(cfg, bandwidth, theta))
    area = float(adr._top_area(cfg, bandwidth, theta))
    p_r = float(_received_power_raw(cfg, ctx.beam, ctx.link, bandwidth, fov))
    w_spot = spot_radius(ctx)
    r_pd = ctx.link.responsivity

    d_d1_d_theta = -d1 / t  # D1 is proportional to 1 / sin(theta)
    # d/dD1 of FF P_t (1 - exp(-D1^2 / (2 w^2))); the exponential is kept
    # explicit because FF P_t - P_r cancels once the aperture saturates
    d_pr_d_theta = (cfg.fill_factor * ctx.beam.power * d1 / w_spot**2
                    * math.exp(-(d1**2) / (2.0 * w_spot**2)) * d_d1_d_theta)
    n0 = float(noise_psd(ctx.noise, cfg.n_pd))
    gap = ctx.link.snr_gap
    d_rate_d_pr = (2.0 * bandwidth / math.log(2.0)) * (
        r_pd**2 * p_r / (gap * n0 * bandwidth + (r_pd * p_r) ** 2)
    )
    d_rate_d_fov = d_rate_d_pr * d_pr_d_theta / divisor

    d_height_d_theta = -cfg.tau * d2 * (cfg.n_cpc * (1.0 + c * c) / s + 1.0) / (2.0 * s * s)
    ring = float(ring_sum(cfg.n_tier, theta))
    ring_slope = -sum(
        12.0 * i * i * math.sin(2 * i * theta) for i in range(1, cfg.n_tier + 1)
    )
    d_area_d_theta = area * (ring_slope / ring - 2.0 / t)
    return RateGradients(
        d_rate_d_fov=d_rate_d_fov,
        d_height_d_fov=d_height_d_theta / divisor,
        d_area_d_fov=d_area_d_theta / divisor,
        d_d1_d_theta=d_d1_d_theta,
    )
