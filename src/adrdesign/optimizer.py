"""Rate maximisation over (B, FOV) under FOV and dimension constraints.

The rate falls with FOV and both receiver dimensions fall with B and FOV, so
the optimum sits on the lower edge of the feasible region. Both dimension
boundaries are explicit in FOV, B_h = h(theta) / l_max and
B_a = sqrt(a(theta) / a_max), so the edge is the segment FOV = fov_min and
the curve B = B_lo(FOV) = max(B_h, B_a)(FOV). The search prices one grid
along each piece, batched over many constraint sets, then solves beside its
best point for the root of the rate's slope and for a corner of the curve.
One bracketed root loop on log x, with complex-step slopes, serves these,
each end where B_lo leaves [b_min, b_max], and the inverse f_fov(B) =
max(fov_min, B_h^-1(B), B_a^-1(B)) of the boundary trace, feasible-region
masks and callers. Complex steps also give the partials that serve verification.
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
    """Bandwidth search range [Hz], and the points of the search's grid along
    each edge piece, which are also the boundary trace's bandwidths."""

    b_min: float = 0.1e9
    b_max: float = 20e9
    grid_points: int = 2000

    def __post_init__(self):
        for name in ("b_min", "b_max"):
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
_FOV_FLOOR = 1e-9  # the lower end of the scalar inverse


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


def _bracket_root(residual, f, g, step):
    """x inside each bracket f (rows of two x > 0) where residual, g at f, changes sign: from
    the chord of g, log x moves down by step(x, r, xp, rp), r the residual at x (1 + 1e-20j)
    signed to fall across f, xp, rp the last point's. A step out of the bracket bisects it; a
    root stops after a step below 1e-8, or once its bracket closes on float resolution."""
    with np.errstate(all="ignore"):  # a tiny FOV overflows the coefficients: NaN, left
        g = residual(f) if g is None else g
        sign = np.where(g[:, :1] > g[:, 1:], 1.0, -1.0)
        f0, f1 = f[:, :1], f[:, 1:]
        xp, rp = f0, sign * g[:, :1]
        t = g[:, :1] / (g[:, :1] - g[:, 1:])
        f, go = f0 * (f1 / f0) ** np.where((t > 0) & (t < 1), t, 0.5), True
        while np.any(go):
            r = sign * residual(f * (1 + 1e-20j))
            left = ~(r.real <= 0)
            f0, f1 = np.where(left, f, f0), np.where(left, f1, f)
            du, xp, rp = step(f, r, xp, rp), f, r
            x, last = f * np.exp(-du), np.abs(du) < 1e-8
            f = np.where(go, np.where(last | (x > f0) & (x < f1), x, f0 * np.sqrt(f1 / f0)), f)
            go &= ~last & (f1 - f0 > 1e-15 * f1)
    return f[:, 0]


def _boundary_root(rcv, caps, f, edge=None, g=None):
    """FOV inside each bracket f (rows of two FOVs) where B_lo, the larger boundary of the
    (dimension, bound) pairs caps, falls to edge (a column), or where the binding cap of two
    changes (edge None). rcv is the receiver, or its constants as columns, one row per
    bracket. g, the log residual at f, saves evaluating it. Newton steps leave an error of
    the order of the last step's square."""
    def residual(f):  # log(B_lo / edge), or log(B_h / B_a) at a switch
        each = [_boundary(rcv, w, f, bound) for w, bound in caps]
        h, a = each[0], each[-1]
        return np.log(h / a if edge is None else np.where(h.real >= a.real, h, a) / edge)

    return _bracket_root(residual, f, g, lambda x, r, *previous: r.real * 1e-20 / r.imag)


def invert_dimension_boundary(cfg: AdrConfig, which: str, bandwidth: float,
                              bound: float) -> float:
    """Unique FOV with dimension_boundary(cfg, which, FOV, bound) == bandwidth.

    One bracketed root of the strictly decreasing boundary on [1e-9 rad, FOV
    cap]; the residual |f(FOV) - B| / B must come out below 1e-10. Raises
    BoundaryOutOfRange when the bandwidth is below the boundary image, and
    ValueError when it is above the image down to the 1e-9 rad FOV floor or
    when the bound is so small that the boundary overflows there.
    """
    require_positive("bandwidth", bandwidth)
    ends = np.array([[_FOV_FLOOR, fov_cap(cfg.n_tier)]])
    b_floor, b_cap = (dimension_boundary(cfg, which, fov, bound) for fov in ends[0])
    if bandwidth > b_floor:
        raise ValueError(f"at {bandwidth / 1e9:.4g} GHz the {which} stays under its bound "
                         f"{bound:g} at every FOV down to the {_FOV_FLOOR:g} rad floor")
    if bandwidth < b_cap:
        raise BoundaryOutOfRange(
            f"bandwidth {bandwidth / 1e9:.4g} GHz is below the {which} boundary for "
            f"bound {bound:g}; the bound is violated at every admissible FOV"
        )
    fov = float(_boundary_root(cfg, [(which, bound)], ends, bandwidth)[0])
    residual = abs(dimension_boundary(cfg, which, fov, bound) - bandwidth) / bandwidth
    if residual > 1e-10:
        raise RuntimeError(f"boundary inverse failed to converge, residual {residual:.3e}")
    return fov


def _unified_grid(cfg: AdrConfig, cs: ConstraintSet, b) -> np.ndarray:
    """f_fov over positive bandwidths (+inf: infeasible): +inf below B_lo(cap), fov_min at or
    above B_lo(fov_min), and between them the root of B_lo(FOV) = B on [fov_min, cap]."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    caps = [(w, v) for w, v in (("height", cs.l_max), ("area", cs.a_max)) if v is not None]
    ends = np.array([cs.fov_min, fov_cap(cfg.n_tier)])
    with np.errstate(over="ignore"):  # B_lo at both ends; a tiny fov_min needs B = inf
        b_ends = np.max([_boundary(cfg, w, ends, v) for w, v in caps] or [np.zeros(2)], axis=0)
    out = np.where(b < b_ends[1], np.inf, cs.fov_min)
    on = np.flatnonzero((b >= b_ends[1]) & (b < b_ends[0]))
    if on.size:
        out[on] = _boundary_root(cfg, caps, np.broadcast_to(ends, (on.size, 2)), b[on, None],
                                 np.log(b_ends / b[on, None]))
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
    and a_max hold K caps each, or are None for no cap. Each set searches
    the segment FOV = fov_min over B in [max(b_min, B_lo(fov_min)), b_max]
    and the curve B = B_lo(FOV) over the FOVs in [fov_min, cap] where B_lo
    lies in [b_min, b_max] (solved before the search, so every point priced
    is feasible), and keeps the better. One kernel call prices grid_points
    geometric points along each piece. Its best point x_i splits the bracket
    [x_i-1, x_i+1]; where the binding cap changes beside x_i, the corner
    solved in that cell does. In each half the optimum is the root of the
    slope dR/d(log x) where the slope falls from positive to negative, else
    an end, so an optimum at a grid point or a corner is that point's rate.
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

    def b_lo(fov, owner, second=None):
        """max(B_h, B_a) at each row of FOVs (0 without caps; inf where a tiny FOV overflows),
        and whether the second of two caps binds, or is picked by the column second."""
        rcv = receivers(owner)
        with np.errstate(over="ignore"):
            each = [_boundary(rcv, which, fov, bound[owner])
                    for which, bound in bounds] or [np.zeros(fov.shape)]
        second = each[-1] > each[0] if second is None else second
        return np.where(second, each[-1], each[0]), second

    def corner(f, owner, edge=None, g=None):
        return _boundary_root(receivers(owner), [(w, bound[owner]) for w, bound in bounds],
                              f, edge, g)

    def price(x, rows, second=None):
        """Rate, B, FOV and binding cap at x along each row's piece (second as in b_lo)."""
        owner, curve = rows % k, rows >= k
        b, fov = x.copy(), np.where(curve[:, None], x, fov_min[owner, None])
        binding = np.zeros(x.shape, dtype=bool)
        b[curve], binding[curve] = b_lo(x[curve], owner[curve],
                                        None if second is None else second[curve])
        np.clip(b.real, opts.b_min, opts.b_max, out=b.real)  # the rounding of B_lo at an end
        return _rate_raw(receivers(owner), ctx, b, fov), b, fov, binding

    # rows 0..k-1 are the segments, rows k..2k-1 the curves of the same sets
    ends = np.column_stack([fov_min, np.maximum(fov_min, fov_cap(n_tier))])  # ends of each curve
    b_lo_ends = b_lo(ends, np.arange(k))[0]
    valid = fov_valid(n_tier, fov_min)
    seg_lo = np.maximum(opts.b_min, b_lo_ends[:, 0])
    has_curve = (valid & bool(bounds) & (b_lo_ends[:, 1] <= opts.b_max)
                 & (b_lo_ends[:, 0] >= opts.b_min))
    # a curve that starts above b_max starts instead where B_lo falls to b_max, and one
    # that ends below b_min ends where B_lo falls to b_min
    edge = np.array([opts.b_max, opts.b_min])
    s, e = np.nonzero(has_curve[:, None] & ((b_lo_ends - edge) * [1, -1] > 0))
    if s.size:
        ends[s, e] = corner(ends[s], s, edge[e, None], np.log(b_lo_ends[s] / edge[e, None]))
    lo = np.concatenate([seg_lo, ends[:, 0]])
    hi = np.concatenate([np.full(k, opts.b_max), ends[:, 1]])
    best = np.full((3, 2 * k), -np.inf)  # rate, B, FOV of each piece
    rows = np.flatnonzero(np.concatenate([valid & (seg_lo <= opts.b_max), has_curve]))
    if rows.size:
        # geometric grids from lo to hi (exact: t = 0 gives lo, and hi is set)
        x = np.minimum(lo[rows, None] * (hi[rows, None] / lo[rows, None])
                       ** np.linspace(0.0, 1.0, n), hi[rows, None])
        x[:, n - 1] = hi[rows]
        rates, b, fov, binding = price(x, rows)
        m, i = np.arange(rows.size), np.argmax(rates, axis=1)
        j, jj = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
        split = x[m, i]
        kink = np.flatnonzero(binding[m, j] != binding[m, jj])
        if kink.size:  # the cell beside the best point where the binding cap changes
            left = binding[kink, j[kink]] != binding[kink, i[kink]]
            cell = np.where(left, [j[kink], i[kink]], [i[kink], jj[kink]])
            split[kink] = corner(x[kink[:, None], cell.T], rows[kink] % k)
        # two brackets a row, [x_j, split] and [split, x_jj], each on the side of one cap
        halves = np.column_stack([x[m, j], split, split, x[m, jj]]).reshape(-1, 2)
        side = np.column_stack([binding[m, j], binding[m, jj]]).reshape(-1, 1)
        slope = lambda z, h: price(z, rows.repeat(2)[h], side[h])[0].imag / 1e-20  # dR/dlog x
        g = slope(halves * (1 + 1e-20j), slice(None))
        rise = np.flatnonzero((g[:, 0] > 0) & (g[:, 1] < 0))
        # each half's root (secant steps), or where its slope does not fall from positive
        # to negative, its better end: the split, or a grid point no higher than x_i
        at = np.column_stack([split, split])
        if rise.size:
            at.reshape(-1)[rise] = _bracket_root(lambda z: slope(z, rise), halves[rise], g[rise],
                                     lambda x, r, xp, rp: r * np.log(x / xp) / (r - rp))
        # x_i, and each half's point where it is a root or a corner; the first of equals wins
        cand = np.stack([rates[m, i], b[m, i], fov[m, i]])[:, :, None].repeat(3, axis=2)
        new = np.flatnonzero(np.any(at != x[m, i, None], axis=1))
        if new.size:
            cand[:, new, 1:] = price(at[new], rows[new])[:3]
        best[:, rows] = cand[:, m, np.argmax(cand[0], axis=1)]
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
    h = 1e-20 * fov  # a step of 1e-30 FOV underflows the rate partial of a saturated aperture
    b, fov_step = bandwidth, fov + 1j * h
    theta = adr._theta(cfg.n_tier, fov_step)
    slope = lambda f: float(np.imag(f)) / h
    return RateGradients(
        d_rate_d_fov=slope(_rate_raw(cfg, ctx, b, fov_step)),
        d_height_d_fov=slope(adr._height(cfg, b, theta)),
        d_area_d_fov=slope(adr._top_area(cfg, b, theta)),
        d_d1_d_theta=slope(adr._entrance_diameter(cfg, b, theta)) * (2 * cfg.n_tier + 1),
    )
