"""Rate maximisation over (B, FOV) under FOV and dimension constraints.

The rate falls with FOV and both receiver dimensions fall with B and FOV, so
the optimum sits on the lower edge of the feasible region. Both dimension
boundaries are explicit in FOV, B_h = h(theta) / l_max and
B_a = sqrt(a(theta) / a_max), so the edge is the segment FOV = fov_min and
the curve B = B_lo(FOV) = max(B_h, B_a)(FOV). The search zooms a grid along
each piece, batched over many constraint sets, without inverting a
boundary, and solves each corner of the curve in closed form. The inverse
f_fov(B) = max(fov_min, B_h^-1(B), B_a^-1(B)), bracketed on a tabulated FOV
grid and refined by secant steps, serves the boundary trace, feasible-region
masks and callers. Complex steps through the same kernels give the corner
steps their slopes and give the partial derivatives that serve verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import adr
from .adr import AdrConfig, fov_cap, fov_valid, require_positive
from .link import LinkContext, _rate_raw
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
]


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
        if self.fov_min < np.finfo(float).tiny:  # the search divides by it
            raise ValueError(f"fov_min {self.fov_min!r} rad is subnormal")
        for name in ("l_max", "a_max"):
            if getattr(self, name) is not None:
                require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class SolverOptions:
    """Bandwidth search range [Hz], bandwidths evaluated per grid pass, and
    the relative width of the final bracket around B*."""

    b_min: float = 0.1e9
    b_max: float = 20e9
    grid_points: int = 2000
    b_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("b_min", "b_max", "b_rel_tol"):
            require_positive(name, getattr(self, name))
        if not self.b_min < self.b_max:
            raise ValueError("need b_min < b_max")
        if (isinstance(self.grid_points, bool) or not isinstance(self.grid_points, Integral)
                or self.grid_points < 8):
            raise ValueError(f"grid_points must be an integer >= 8, got {self.grid_points!r}")


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
    """Partials at an interior design point, by complex step through the kernels."""

    d_rate_d_fov: float
    d_height_d_fov: float
    d_area_d_fov: float
    d_d1_d_theta: float


# Each dimension is coeff(theta) / B^power: height h(theta) / B, top area
# a(theta) / B^2. Its boundary is B = (coeff(theta) / bound)^(1 / power).
_DIMENSIONS = {"height": (adr._height_coeff, 1), "area": (adr._area_coeff, 2)}


def _boundary(cfg: AdrConfig, which: str, fov, bound: float):
    """B at which the dimension equals its bound, as a function of FOV (array-capable)."""
    coeff, power = _DIMENSIONS[which]
    return (coeff(cfg, adr._theta(cfg.n_tier, fov)) / bound) ** (1.0 / power)


def dimension_boundary(cfg: AdrConfig, which: str, fov: float, bound: float) -> float:
    """Bandwidth at which the given dimension equals its bound, for one FOV.

    Truncation constants are folded in, so the bound applies to the
    truncated dimension when the configuration carries a truncation.
    """
    if which not in _DIMENSIONS:
        raise ValueError(f"which must be 'height' or 'area', got {which!r}")
    require_positive("bound", bound)
    adr.acceptance_angle(fov, cfg.n_tier)
    with np.errstate(over="ignore"):
        b = float(_boundary(cfg, which, fov, bound))
    if math.isinf(b):  # coeff / bound overflows
        raise ValueError(f"{which} bound {bound:g} is too small: its boundary overflows "
                         f"at FOV {fov:g} rad")
    return b


# Geometric FOV table that brackets each inverse, fine enough that log-log
# interpolation starts within ~1e-4 of the root; the secant steps after it
# reach float precision.
_FOV_FLOOR = 1e-9
_TABLE_POINTS = 512
_SECANT_STEPS = 4


def _invert_boundary_grid(cfg: AdrConfig, which: str, b, bound: float) -> np.ndarray:
    """Vectorised inverse of a boundary function, exact to float precision.

    Returns the FOV on the boundary for each bandwidth, +inf where the
    bandwidth lies below the boundary image (bound violated at every FOV),
    and the 1e-9 FOV floor where the bound holds even there. The root of
    coeff(theta) = bound * B^power is bracketed on a geometric FOV table,
    started by log-log interpolation inside the bracket and refined by
    secant steps on log coeff against log FOV, clipped to the bracket.
    """
    coeff, power = _DIMENSIONS[which]
    b = np.atleast_1d(np.asarray(b, dtype=float))
    target = bound * b**power
    fov_tab = np.geomspace(_FOV_FLOOR, fov_cap(cfg.n_tier), _TABLE_POINTS)
    coeff_tab = coeff(cfg, adr._theta(cfg.n_tier, fov_tab))
    below_image = coeff_tab[-1] > target
    x_tab, g_tab = np.log(fov_tab), np.log(coeff_tab)  # g_tab strictly decreasing
    log_target = np.log(target)
    j = np.clip(np.searchsorted(-g_tab, -log_target), 1, _TABLE_POINTS - 1)
    x_lo, x_hi = x_tab[j - 1], x_tab[j]
    # from the bracket's lower end along its chord, the first step is the
    # log-log interpolation; each later one is a secant step
    x, r = x_lo, g_tab[j - 1] - log_target
    slope = (g_tab[j] - g_tab[j - 1]) / (x_hi - x_lo)
    for _ in range(1 + _SECANT_STEPS):
        x_new = np.clip(x - r / slope, x_lo, x_hi)
        r_new = np.log(coeff(cfg, adr._theta(cfg.n_tier, np.exp(x_new))) / target)
        dx, dr = x_new - x, r_new - r
        descending = dx * dr < 0  # a usable secant: the residual falls as x rises
        slope = np.where(descending, dr / np.where(descending, dx, 1.0), slope)
        x, r = x_new, r_new
    return np.where(below_image, np.inf, np.exp(x))


def invert_dimension_boundary(cfg: AdrConfig, which: str, bandwidth: float,
                              bound: float) -> float:
    """Unique FOV with dimension_boundary(cfg, which, FOV, bound) == bandwidth.

    Bracketed secant inverse of the strictly decreasing boundary; the
    residual |f(FOV) - B| / B must come out below 1e-10. Raises
    BoundaryOutOfRange when the bandwidth is below the boundary image, and
    ValueError when it is above the image down to the 1e-9 rad FOV floor or
    when the bound is so small that the boundary overflows there.
    """
    require_positive("bandwidth", bandwidth)
    if bandwidth > dimension_boundary(cfg, which, _FOV_FLOOR, bound):
        raise ValueError(f"at {bandwidth / 1e9:.4g} GHz the {which} stays under its bound "
                         f"{bound:g} at every FOV down to the {_FOV_FLOOR:g} rad floor")
    fov = float(_invert_boundary_grid(cfg, which, bandwidth, bound)[0])
    if not math.isfinite(fov):
        raise BoundaryOutOfRange(
            f"bandwidth {bandwidth / 1e9:.4g} GHz is below the {which} boundary for "
            f"bound {bound:g}; the bound is violated at every admissible FOV"
        )
    residual = abs(dimension_boundary(cfg, which, fov, bound) - bandwidth) / bandwidth
    if residual > 1e-10:
        raise RuntimeError(f"boundary inverse failed to converge, residual {residual:.3e}")
    return fov


def _unified_grid(cfg: AdrConfig, cs: ConstraintSet, b) -> np.ndarray:
    """f_fov over positive bandwidths (+inf: infeasible). Only those in [B_lo(cap), B_lo(fov_min)),
    widened by 1e-9, are inverted: +inf below, fov_min above when fov_min clears the 1e-9 floor."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    caps = [(w, v) for w, v in (("height", cs.l_max), ("area", cs.a_max)) if v is not None]
    with np.errstate(over="ignore"):  # a tiny fov_min needs B = inf
        lo, hi = (max((_boundary(cfg, w, fov, v) for w, v in caps), default=0.0)
                  for fov in (fov_cap(cfg.n_tier), cs.fov_min))
    below = b < lo * (1 - 1e-9)
    on = ~below & ~((b >= hi * (1 + 1e-9)) & (cs.fov_min > _FOV_FLOOR * (1 + 1e-9)))
    out = np.where(below, np.inf, cs.fov_min)
    for which, bound in caps:
        out[on] = np.maximum(out[on], _invert_boundary_grid(cfg, which, b[on], bound))
    return np.where(fov_valid(cfg.n_tier, out), out, np.inf)


def unified_boundary(cfg: AdrConfig, cs: ConstraintSet, bandwidth: float) -> float:
    """Binding FOV at one bandwidth: max of the minimum-FOV line and the
    inverse dimension boundaries. Returns +inf when the bandwidth is
    infeasible (required FOV above the admissible cap); infeasibility is a
    value here, not an error."""
    require_positive("bandwidth", bandwidth)
    return float(_unified_grid(cfg, cs, bandwidth)[0])


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
        with np.errstate(over="ignore"):  # a tiny fov_min or bound needs B = inf
            b_needed, b_floor = (float(_boundary(cfg, which, fov, bound))
                                 for fov in (cs.fov_min, cap))
        if b_needed > opts.b_max:
            parts.append(
                f"{which} bound {bound:g} needs B >= {b_needed / 1e9:.3g} GHz at "
                f"fov_min, above the search range"
            )
        if b_floor > opts.b_max:
            parts.append(
                f"{which} bound {bound:g} is unreachable below "
                f"{opts.b_max / 1e9:.3g} GHz at any FOV"
            )
    return "; ".join(parts) or "no feasible bandwidth in the search range"


def _solve(cfg, ctx: LinkContext, fov_min, l_max, a_max, opts: SolverOptions) -> tuple:
    """(rate, B, FOV) at the optimum of each of K constraint sets; NaN where infeasible.

    cfg is one AdrConfig for every set, or a sequence of K, one per set. l_max
    and a_max hold K caps each, or are None for no cap. Each set zooms
    the segment FOV = fov_min over B in [max(b_min, B_lo(fov_min)), b_max]
    and the curve B = B_lo(FOV) over FOV in [fov_min, cap], where B_lo must
    lie in [b_min, b_max], with one bracket per piece, and keeps the better.
    A bracket stops once it spans less than b_rel_tol in B, stops narrowing
    or holds no feasible point. A piece whose best first-pass point is an end
    (exact: t = 0 gives lo, and hi is set) stops there when its neighbour cell
    is smooth and the inner point beside that end is feasible and no higher:
    the zoom would only come back to the same end. A cell beside the best
    point that holds a corner of the curve (where the binding cap changes or
    B_lo leaves the range, so a zoom's rate error is first order in its
    width) is solved for the corner instead, and so is a curve cell that B_lo
    crosses from above b_max to below b_min, with no feasible grid point. The
    next pass prices each corner with a point just inside either side, and
    the piece ends there when neither point nor an earlier pass beats it;
    else it zooms the smooth sub-piece that holds its best point.
    """
    fov_min = np.atleast_1d(np.asarray(fov_min, dtype=float))
    if fov_min.size:  # ConstraintSet checks each field on its own: its extremes check all sets
        for extreme in (np.min, np.max):
            ConstraintSet(*(None if v is None else float(extreme(v))
                            for v in (fov_min, l_max, a_max)))
    k, n = fov_min.size, opts.grid_points
    if isinstance(cfg, AdrConfig):  # one receiver: its constants stay scalars
        receivers = lambda owner: cfg
    elif len(cfg) == k:  # one per set: what the kernels read, as columns taken per row
        cols = {name: np.array([getattr(c, name) for c in cfg], dtype=float)[:, None] for name
                in ("k_pd", "n_pd", "fill_factor", "n_cpc", "tau", "gain_retention", "n_tier")}
        receivers = lambda owner: SimpleNamespace(**{c: col[owner] for c, col in cols.items()})
    else:
        raise ValueError(f"{len(cfg)} receivers for {k} constraint sets")
    n_tier = np.ravel(receivers(np.arange(k)).n_tier)  # of each set, or one for all
    bounds = [(which, np.broadcast_to(np.asarray(bound, dtype=float), (k,))[:, None])
              for which, bound in (("height", l_max), ("area", a_max)) if bound is not None]

    def b_lo(fov, owner):
        """max(B_h, B_a) at each row of FOVs (0 without caps), and whether the second of two
        caps binds; inf, far above b_max, where a tiny FOV overflows the coefficients."""
        rcv = receivers(owner)
        with np.errstate(over="ignore"):
            each = [_boundary(rcv, which, fov, bound[owner])
                    for which, bound in bounds] or [np.zeros(fov.shape)]
        return np.maximum(each[0], each[-1]), each[-1] > each[0]

    def corner(f0, f1, owner, switch, sign, edge):
        """FOV in each cell (f0, f1) (columns) where the binding cap changes (switch) or B_lo
        crosses edge: from the chord of the log residual, Newton steps on log FOV with slopes
        by complex step; a step out of the cell bisects it, and a root stops after a step
        below 1e-8, which leaves an error of the order of its square."""
        rcv, caps = receivers(owner), [(w, bound[owner]) for w, bound in (bounds[0], bounds[-1])]

        def residual(f):  # sign makes it positive at f0 and negative at f1
            h, a = (_boundary(rcv, w, f, bound) for w, bound in caps)
            return sign * np.log(np.where(switch, h / a, np.where(h.real >= a.real, h, a) / edge))

        with np.errstate(all="ignore"):  # a tiny FOV overflows the coefficients: NaN, left
            g = residual(np.hstack([f0, f1]))
            t = g[:, :1] / (g[:, :1] - g[:, 1:])
            f, go = f0 * (f1 / f0) ** np.where((t > 0) & (t < 1), t, 0.5), True
            while np.any(go):
                g = residual(f * (1 + 1e-20j))
                left = ~(g.real <= 0)
                f0, f1 = np.where(left, f, f0), np.where(left, f1, f)
                du = g.real * 1e-20 / g.imag
                step, last = f * np.exp(-du), np.abs(du) < 1e-8
                f = np.where(go, np.where(last | (step > f0) & (step < f1), step,
                                          f0 * np.sqrt(f1 / f0)), f)
                go &= ~last & (f1 - f0 > 1e-15 * f1)  # or the cell closes on float resolution
        return f[:, 0]

    # rows 0..k-1 are the segments, rows k..2k-1 the curves of the same sets
    seg_lo = np.maximum(opts.b_min, b_lo(fov_min[:, None], np.arange(k))[0][:, 0])
    lo = np.concatenate([seg_lo, fov_min])
    hi = np.concatenate([np.full(k, opts.b_max), np.maximum(fov_min, fov_cap(n_tier))])
    best = np.full((3, 2 * k), -np.inf)  # rate, B, FOV of each piece
    corners = np.full((2 * k, 2), np.nan)  # FOVs of the corners beside a curve's best point
    at_corner = np.zeros(2 * k, dtype=bool)  # rows to price at their corners in the next pass
    valid = fov_valid(n_tier, fov_min)
    rows = np.flatnonzero(np.concatenate([valid & (seg_lo <= opts.b_max), valid & bool(bounds)]))
    # pass 1 adds an inner point just inside each end, at t = 1e-7 and 1 - 1e-7 (columns n, n + 1)
    t = np.append(np.linspace(0.0, 1.0, n), [1e-7, 1.0 - 1e-7])
    while rows.size:
        # geometric grids from lo to hi, clipped so that brackets only shrink
        x = np.minimum(lo[rows, None] * (hi[rows, None] / lo[rows, None]) ** t, hi[rows, None])
        x[:, n - 1] = hi[rows]
        owner, curve, m, priced = rows % k, rows >= k, np.arange(rows.size), at_corner[rows]
        pricing = priced.any()
        if pricing:  # instead of a grid: each corner, and a point just inside either side
            q = rows[priced]
            x[priced] = np.nan
            x[priced, :6] = (corners[q, :, None] * (hi[q] / lo[q])[:, None, None]
                             ** np.array([0.0, -1e-7, 1e-7])).reshape(-1, 6)
        b, fov = x.copy(), np.where(curve[:, None], x, fov_min[owner, None])
        binding = np.zeros(x.shape, dtype=bool)
        b[curve], binding[curve] = b_lo(x[curve], owner[curve])
        if pricing:  # where B_lo leaves [b_min, b_max] the corner lies on that bound
            b[priced, :6:3] = np.clip(b[priced, :6:3], opts.b_min, opts.b_max)
        feasible = (b >= opts.b_min) & (b <= opts.b_max)
        # the kernel runs on whole rows, each infeasible point replaced by its row's first
        # feasible one, so it sees only points of the search; rows without one are skipped
        grid = feasible[:, :n]
        live, first = grid.any(axis=1), np.argmax(grid, axis=1)
        b_at, fov_at = (np.where(feasible, v, v[m, first, None])[live] for v in (b, fov))
        rates = np.full(x.shape, -np.inf)
        rates[live] = np.where(feasible[live],
                               _rate_raw(receivers(owner[live]), ctx, b_at, fov_at), -np.inf)
        i = np.argmax(rates[:, :n], axis=1)
        better = rates[m, i] > best[0, rows]
        best[:, rows[better]] = np.stack([rates[m, i], b[m, i], fov[m, i]])[:, better]
        j, jj = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
        smooth = feasible[m, j] & feasible[m, jj] & (binding[m, j] == binding[m, jj])
        b_ends = np.where(smooth, np.stack([b[m, j], b[m, jj]]), 0.0)  # read only if smooth
        done = (~live
                | (smooth & (np.ptp(b_ends, axis=0) <= opts.b_rel_tol * b_ends.max(axis=0)))
                | (x[m, jj] - x[m, j] >= hi[rows] - lo[rows]))
        if t.size > n:  # an end certified by its inner point is what the zoom would return
            inner = np.where(i == 0, n, n + 1)
            done |= ((i == 0) | (i == n - 1)) & smooth & feasible[m, inner] & (
                rates[m, inner] <= rates[m, i])
            t = t[:n]
        # a curve whose B_lo crosses all of [b_min, b_max] inside one cell has no feasible
        # grid point: that cell holds two corners, at b_max and at b_min
        jump = ~live & curve & (b[:, n - 1] < opts.b_min)
        if jump.any():
            cross = np.maximum((b[:, :n] > opts.b_max).sum(axis=1) - 1, 0)
            jump &= b[m, np.minimum(cross + 1, n - 1)] < opts.b_min
            i, j, jj = (np.where(jump, cross + d, v) for d, v in ((0, i), (0, j), (1, jj)))
            done &= ~jump
        sub_lo, sub_hi = x[m, j], x[m, jj]
        if pricing:
            # a priced row ends at a corner that neither point beside it nor an earlier pass
            # beats; else it zooms the sub-piece, between corners, that holds its best point
            c, p = corners[q], best[2, q, None]
            sub_lo[priced] = np.max(np.where(c < p, c, lo[q, None]), axis=1)
            sub_hi[priced] = np.min(np.where(c > p, c, hi[q, None]), axis=1)
            done[priced] = ~live[priced] | ((i[priced] % 3 == 0)
                                            & (rates[priced, i[priced]] == best[0, q]))
            at_corner[q] = False
        lo[rows], hi[rows] = sub_lo, sub_hi
        kink = ~(done | smooth | priced)
        if kink.any():
            # a cell beside the best point where the binding cap changes, or where B_lo
            # leaves [b_min, b_max], holds a corner: solve for it, to price it in the next pass
            kink = np.flatnonzero(kink)
            jumps = jump[kink]
            a, z = (np.where(jumps, v[kink], np.stack(c)[:, kink])
                    for v, c in ((j, (j, i)), (jj, (i, jj))))
            fa, fz = feasible[kink, a], feasible[kink, z]
            switch = fa & fz & (binding[kink, a] != binding[kink, z])
            cut = switch | (fa != fz) | jumps
            side, r = np.nonzero(cut)
            below = np.fmin(b[kink, a], b[kink, z]) < opts.b_min
            edge = np.where(jumps, np.array([[opts.b_max], [opts.b_min]]),
                            np.where(below, opts.b_min, opts.b_max))
            sign = np.where(switch & binding[kink, a], -1.0, 1.0)
            corners[rows[kink]] = np.nan
            corners[rows[kink[r]], side] = corner(
                *(v[cut][:, None] for v in (x[kink, a], x[kink, z])), owner[kink[r]],
                *(v[cut][:, None] for v in (switch, sign, edge)))
            at_corner[rows[kink]] = True
        rows = rows[~done]
    out = np.where(best[0, k:] > best[0, :k], best[:, k:], best[:, :k])
    return tuple(np.where(out[0] > -np.inf, out, np.nan))


def maximize_rate_constrained(cfg: AdrConfig, ctx: LinkContext, cs: ConstraintSet,
                              options: Optional[SolverOptions] = None) -> OptimumResult:
    """Maximise the rate along the lower edge of the feasible region: the
    one-set case of the batched search above. The boundary trace is f_fov
    and the rate at grid_points log-spaced bandwidths over the whole range,
    through the inverse boundaries. Which constraints are active at the
    optimum is reported to 1e-6 relative equality.
    """
    opts = options or SolverOptions()
    b = np.geomspace(opts.b_min, opts.b_max, opts.grid_points)
    fov = _unified_grid(cfg, cs, b)
    on = np.isfinite(fov)
    trace = np.column_stack([b[on], fov[on], _rate_raw(cfg, ctx, b[on], fov[on])])
    rate, b_star, fov_star = (float(v[0]) for v in
                              _solve(cfg, ctx, cs.fov_min, cs.l_max, cs.a_max, opts))
    feasible = not math.isnan(rate)  # NaN: no feasible point on either piece
    return OptimumResult(
        feasible=feasible, b_star=b_star, fov_star=fov_star, rate_star=rate, boundary_trace=trace,
        active_constraints=(_active_constraints(cfg, cs, b_star, fov_star) if feasible
                            else frozenset()),
        diagnostic="" if feasible else _infeasible_diagnostic(cfg, cs, opts),
    )


def analytic_gradients(cfg: AdrConfig, ctx: LinkContext, bandwidth: float,
                       fov: float) -> RateGradients:
    """Partial derivatives at an interior design point, by complex step.

    Each partial is Im f(FOV + ih) / h through the kernels that the search
    and the sweeps evaluate (Squire & Trapp, SIAM Rev. 40(1), 1998). No
    difference is taken, so it is exact to rounding, and no formula is
    restated here. Valid strictly inside the domain (0 < theta < 30 deg),
    for either noise model. Rate and both dimensions shrink as the FOV
    widens, so every value is negative; the rate partial reads 0 where the
    saturated aperture's term underflows.
    """
    adr.acceptance_angle(fov, cfg.n_tier)
    cap = fov_cap(cfg.n_tier)
    if not (1e-9 < fov < cap / CAP_SLACK):
        raise ValueError(f"FOV {math.degrees(fov):.3f} deg is not interior to (0, "
                         f"{math.degrees(cap):.1f}) deg")
    require_positive("bandwidth", bandwidth)
    # shape (1,): the noise PSD turns 0-d results into floats; a step of 1e-30 FOV
    # underflows the rate partial where the aperture is saturated
    h = 1e-20 * fov
    b, fov_step = np.array([bandwidth]), np.array([fov + 1j * h])
    theta = adr._theta(cfg.n_tier, fov_step)
    slope = lambda f: float(f.imag[0]) / h
    return RateGradients(
        d_rate_d_fov=slope(_rate_raw(cfg, ctx, b, fov_step)),
        d_height_d_fov=slope(adr._height(cfg, b, theta)),
        d_area_d_fov=slope(adr._top_area(cfg, b, theta)),
        d_d1_d_theta=slope(adr._entrance_diameter(cfg, b, theta)) * (2 * cfg.n_tier + 1),
    )
