import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adrdesign import (
    BoundaryOutOfRange,
    ConstraintSet,
    SolverOptions,
    TruncationSpec,
    achievable_rate,
    analytic_gradients,
    dimension_boundary,
    geometry,
    invert_dimension_boundary,
    load_config,
    maximize_rate_constrained,
    optimizer,
    preset,
    unified_boundary,
)
from adrdesign.adr import PRESETS, AdrConfig, fov_cap
from adrdesign.link import _rate_raw
from adrdesign.optimizer import _invert_boundary_grid, _unified_grid

FOV30 = math.radians(30.0)
TRUNC = TruncationSpec(0.6, 0.9)


def _random_cfg(rng, truncated_allowed=True):
    name = str(rng.choice(["config1", "config2", "config3", "config4", "config5"]))
    trunc = TRUNC if truncated_allowed and rng.random() < 0.5 else None
    return preset(name, truncation=trunc)


# ---------------------------------------------------------------- boundaries

def test_height_boundary_defining_identity(rng):
    for _ in range(30):
        cfg = _random_cfg(rng)
        fov = rng.uniform(math.radians(8), 0.98 * fov_cap(cfg.n_tier))
        l_max = rng.uniform(0.002, 0.05)
        b = dimension_boundary(cfg, "height", fov, l_max)
        assert geometry(cfg, b, fov).height == pytest.approx(l_max, rel=1e-9)


def test_area_boundary_defining_identity(rng):
    for _ in range(30):
        cfg = _random_cfg(rng)
        fov = rng.uniform(math.radians(8), 0.98 * fov_cap(cfg.n_tier))
        a_max = rng.uniform(0.2e-4, 10e-4)
        b = dimension_boundary(cfg, "area", fov, a_max)
        assert geometry(cfg, b, fov).top_area == pytest.approx(a_max, rel=1e-9)


def test_doubling_height_bound_halves_boundary():
    cfg = preset("config2")
    b1 = dimension_boundary(cfg, "height", FOV30, 0.01)
    b2 = dimension_boundary(cfg, "height", FOV30, 0.02)
    assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)


def test_inverse_round_trips(rng):
    for _ in range(40):
        cfg = _random_cfg(rng)
        fov = rng.uniform(math.radians(6), 0.98 * fov_cap(cfg.n_tier))
        for which, bound in (("height", rng.uniform(0.002, 0.05)),
                             ("area", rng.uniform(0.2e-4, 10e-4))):
            b = dimension_boundary(cfg, which, fov, bound)
            back = invert_dimension_boundary(cfg, which, b, bound)
            assert abs(back - fov) <= 1e-8


def test_inverse_monotone_against_scan(rng):
    # oracle: a dense scan of the forward boundary over 1000 FOV points
    cfg = preset("config2")
    cap = fov_cap(cfg.n_tier)
    fovs = np.linspace(math.radians(2), cap, 1000)
    for which, bound in (("height", 0.01), ("area", 2e-4)):
        fwd = np.array([dimension_boundary(cfg, which, float(f), bound) for f in fovs])
        bs = np.geomspace(fwd.min() * 1.01, fwd.max() * 0.5, 25)
        inv = [invert_dimension_boundary(cfg, which, float(b), bound) for b in bs]
        # decreasing inverse
        assert all(a > b for a, b in zip(inv, inv[1:]))
        # agreement with scan bracketing
        for b, f in zip(bs, inv):
            j = int(np.searchsorted(-fwd, -b))  # fwd is decreasing
            lo = fovs[max(j - 1, 0)]
            hi = fovs[min(j, len(fovs) - 1)]
            assert lo - 1e-9 <= f <= hi + 1e-9


def test_below_image_signals_out_of_range():
    cfg = preset("config2")
    cap = fov_cap(cfg.n_tier)
    floor = dimension_boundary(cfg, "height", cap, 0.01)
    with pytest.raises(BoundaryOutOfRange):
        invert_dimension_boundary(cfg, "height", 0.5 * floor, 0.01)


def test_boundaries_reject_non_finite_input():
    cfg = preset("config1")
    cs = ConstraintSet(fov_min=FOV30, l_max=0.01)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            dimension_boundary(cfg, "height", FOV30, bad)
        with pytest.raises(ValueError, match="finite"):
            invert_dimension_boundary(cfg, "area", bad, 1e-4)
        with pytest.raises(ValueError, match="finite"):
            invert_dimension_boundary(cfg, "area", 2e9, bad)
        with pytest.raises(ValueError, match="finite"):
            unified_boundary(cfg, cs, bad)
        with pytest.raises(ValueError, match="l_max"):
            ConstraintSet(fov_min=FOV30, l_max=bad)
        with pytest.raises(ValueError, match="a_max"):
            ConstraintSet(fov_min=FOV30, a_max=bad)


def test_invalid_boundary_name():
    with pytest.raises(ValueError):
        dimension_boundary(preset("config1"), "width", FOV30, 0.01)


# ------------------------------------------------- inverse against an oracle

def _bisection_inverse(cfg, which, b, bound, iters=110):
    """The former 110-step vectorised bisection inverse, kept as an oracle."""
    coeff, power = optimizer._DIMENSIONS[which]
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


ALL_PRESETS = ("config1", "config2", "config3", "config4", "config5", "config6")


def _random_any_cfg(rng):
    """Any preset, tier 0 included, with or without truncated CPCs."""
    cfg = preset(str(rng.choice(ALL_PRESETS)), truncation=TRUNC if rng.random() < 0.5 else None)
    return replace(cfg, n_tier=0) if rng.random() < 0.2 else cfg


def test_inverse_matches_bisection_oracle(rng):
    # targets bound * B^power spread from below the boundary image (+inf) to
    # above the coefficient at the 1e-9 FOV floor
    reached_inf = reached_floor = 0
    for _ in range(60):
        cfg = _random_any_cfg(rng)
        which = str(rng.choice(["height", "area"]))
        coeff, power = optimizer._DIMENSIONS[which]
        divisor = 2 * cfg.n_tier + 1
        top = float(coeff(cfg, 1e-9 / divisor))
        bottom = float(coeff(cfg, fov_cap(cfg.n_tier) / divisor))
        target = np.exp(rng.uniform(math.log(bottom) - 3, math.log(top) + 3, 500))
        bound = float(np.median(target / np.geomspace(0.1e9, 20e9, 500) ** power))
        b = (target / bound) ** (1.0 / power)
        new = _invert_boundary_grid(cfg, which, b, bound)
        old = _bisection_inverse(cfg, which, b, bound)
        assert np.array_equal(np.isinf(new), np.isinf(old))
        finite = np.isfinite(old)
        assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12 * old[finite])
        reached_inf += int((~finite).sum())
        reached_floor += int((old[finite] <= 1e-9 * (1 + 1e-12)).sum())
    assert reached_inf > 0 and reached_floor > 0


def test_inverse_warning_free_at_domain_edges():
    # bounds decades too small (every bandwidth below the image) and decades
    # too large (the bound holds at the FOV floor) must raise no float warning
    b = np.geomspace(0.1e9, 20e9, 200)
    for n_tier in range(4):
        for trunc in (None, TRUNC):
            cfg = AdrConfig(n_tier=n_tier, n_pd=4, truncation=trunc)
            for which, bound in (("height", 0.01), ("area", 2e-4)):
                power = optimizer._DIMENSIONS[which][1]
                for scale in (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e30):
                    scaled = bound * scale**power
                    with warnings.catch_warnings(), np.errstate(all="raise"):
                        warnings.simplefilter("error")
                        new = _invert_boundary_grid(cfg, which, b, scaled)
                    old = _bisection_inverse(cfg, which, b, scaled)
                    assert np.array_equal(np.isinf(new), np.isinf(old))
                    finite = np.isfinite(old)
                    assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12 * old[finite])
                    if scale <= 1e-6:
                        assert np.all(np.isinf(new))
                    if scale >= 1e30:
                        assert np.allclose(new, 1e-9, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------- unified boundary

def test_unified_without_dimension_constraints_is_fov_floor():
    cfg = preset("config3")
    cs = ConstraintSet(fov_min=math.radians(25))
    for b in (0.2e9, 1e9, 4e9, 19e9):
        assert unified_boundary(cfg, cs, b) == math.radians(25)


def test_unified_height_dominates_midrange():
    # small height cap with a loose area cap: one boundary controls the region
    cfg = preset("config2")
    cs = ConstraintSet(fov_min=math.radians(20), l_max=0.01, a_max=10e-4)
    for b in np.geomspace(2e9, 10e9, 15):
        fov = unified_boundary(cfg, cs, float(b))
        assert math.isfinite(fov)
        assert fov == pytest.approx(
            invert_dimension_boundary(cfg, "height", float(b), 0.01), rel=1e-9
        )
        assert fov > cs.fov_min


def test_unified_point_satisfies_all_constraints_with_one_equality(rng):
    for _ in range(25):
        cfg = _random_cfg(rng)
        cs = ConstraintSet(
            fov_min=rng.uniform(math.radians(10), math.radians(40)),
            l_max=rng.uniform(0.004, 0.04),
            a_max=rng.uniform(0.4e-4, 8e-4),
        )
        b = float(rng.uniform(1e9, 15e9))
        fov = unified_boundary(cfg, cs, b)
        if not math.isfinite(fov):
            continue
        geo = geometry(cfg, b, fov)
        assert geo.height <= cs.l_max * (1 + 1e-9)
        assert geo.top_area <= cs.a_max * (1 + 1e-9)
        assert fov >= cs.fov_min * (1 - 1e-12)
        hits = [
            abs(fov - cs.fov_min) <= 1e-9 * cs.fov_min,
            abs(geo.height - cs.l_max) <= 1e-6 * cs.l_max,
            abs(geo.top_area - cs.a_max) <= 1e-6 * cs.a_max,
        ]
        assert any(hits)


def test_unified_infeasible_is_a_value_not_an_error():
    cfg = preset("config1")
    cs = ConstraintSet(fov_min=FOV30, l_max=1e-4)
    assert unified_boundary(cfg, cs, 1e9) == math.inf


# ------------------------------------------------------------------ solvers

def test_fov_only_reference_peaks(ctx10):
    # frozen independent-search values; the quoted triple is asserted in the
    # acceptance suite at its stated tolerances
    expected = {
        "config1": (14.24214e9, 1.9905e9),
        "config2": (18.77918e9, 2.6287e9),
        "config3": (24.73866e9, 3.4744e9),
    }
    for name, (rate, b) in expected.items():
        res = maximize_rate_constrained(preset(name), ctx10, ConstraintSet(FOV30))
        assert res.feasible
        assert res.rate_star == pytest.approx(rate, rel=1e-4)
        assert res.b_star == pytest.approx(b, rel=1e-2)
        assert res.fov_star == pytest.approx(FOV30, rel=1e-9)
        assert res.active_constraints == frozenset({"fov"})


def _largest_fov_with_rate(cfg, ctx, target):
    """Largest minimum-FOV whose best achievable rate still meets target."""
    lo, hi = math.radians(5), fov_cap(cfg.n_tier)
    if maximize_rate_constrained(cfg, ctx, ConstraintSet(lo)).rate_star < target:
        return None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if maximize_rate_constrained(cfg, ctx, ConstraintSet(mid)).rate_star >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rate_fov_tradeoff_thresholds(ctx10):
    cfg = preset("config2")
    fov10 = math.degrees(_largest_fov_with_rate(cfg, ctx10, 10e9))
    fov20 = math.degrees(_largest_fov_with_rate(cfg, ctx10, 20e9))
    assert abs(fov10 - 65.0) <= 3.0
    assert abs(fov20 - 28.0) <= 3.0


def test_constrained_compact_design_pair(ctx16):
    # strict 0.5 cm / 0.5 cm^2 box at the 16 mW cap; frozen search values
    cs = ConstraintSet(fov_min=FOV30, l_max=0.005, a_max=0.5e-4)
    trunc = maximize_rate_constrained(preset("config1", truncation=TRUNC), ctx16, cs)
    orig = maximize_rate_constrained(preset("config1"), ctx16, cs)
    assert trunc.rate_star == pytest.approx(11.3859e9, rel=1e-3)
    assert orig.rate_star == pytest.approx(8.6033e9, rel=1e-3)
    assert trunc.rate_star > orig.rate_star
    assert trunc.active_constraints == frozenset({"height", "area"})
    assert orig.active_constraints == frozenset({"height"})


def test_constrained_midsize_pair_as_set(ctx16):
    # 1 cm height cap with a loose area cap, truncated 2x2 single tier;
    # the reference pairing of {17, 19.5} Gb/s across the 15 / 30 deg floors
    # is asserted as a set (sorted match), not as an ordered pair
    rates = []
    for fov_min_deg in (15.0, 30.0):
        cs = ConstraintSet(fov_min=math.radians(fov_min_deg), l_max=0.01, a_max=2e-4)
        res = maximize_rate_constrained(preset("config1", truncation=TRUNC), ctx16, cs)
        rates.append(res.rate_star)
    for got, want in zip(sorted(rates), sorted((17e9, 19.5e9))):
        assert abs(got - want) <= 0.10 * want


def test_infeasible_constraints_reported_with_diagnostic(ctx10):
    res = maximize_rate_constrained(
        preset("config1"), ctx10, ConstraintSet(fov_min=FOV30, l_max=1e-5)
    )
    assert not res.feasible
    assert math.isnan(res.rate_star)
    assert "height" in res.diagnostic
    # over-cap FOV floor for a tierless receiver
    res = maximize_rate_constrained(
        preset("config1"), ctx10, ConstraintSet(fov_min=math.radians(89))
    )
    assert res.feasible  # 89 deg is fine for one tier
    cfg0 = preset("config1")
    from dataclasses import replace
    cfg0 = replace(cfg0, n_tier=0)
    res = maximize_rate_constrained(cfg0, ctx10, ConstraintSet(fov_min=math.radians(40)))
    assert not res.feasible
    assert "cap" in res.diagnostic


def test_boundary_optimality_and_brute_force(rng, ctx10):
    # no feasible grid point may beat the solver; perturbing the FOV upward
    # from the reported optimum must reduce the rate
    b_grid = np.geomspace(0.1e9, 20e9, 50)
    for _ in range(20):
        cfg = _random_cfg(rng)
        cap = fov_cap(cfg.n_tier)
        cs = ConstraintSet(
            fov_min=rng.uniform(math.radians(10), math.radians(45)),
            l_max=rng.uniform(0.004, 0.03),
            a_max=rng.uniform(0.3e-4, 6e-4),
        )
        res = maximize_rate_constrained(cfg, ctx10, cs)
        fov_grid = np.linspace(math.radians(1), cap, 50)
        bb, ff = np.meshgrid(b_grid, fov_grid, indexing="ij")
        from adrdesign.adr import _height, _top_area
        theta = ff / (2 * cfg.n_tier + 1)
        feas = (
            (_height(cfg, bb, theta) <= cs.l_max)
            & (_top_area(cfg, bb, theta) <= cs.a_max)
            & (ff >= cs.fov_min)
        )
        if not feas.any():
            assert not res.feasible
            continue
        assert res.feasible
        rates = _rate_raw(cfg, ctx10, bb, ff)
        assert np.nanmax(rates[feas]) <= res.rate_star * (1 + 1e-6)
        eps = math.radians(0.5)
        if res.fov_star + eps < cap:
            perturbed = achievable_rate(cfg, res.b_star, res.fov_star + eps, ctx10)
            assert perturbed < res.rate_star


def test_feasible_set_identity(rng):
    # {height <= l_max} must equal {fov >= inverse_height(B)} cell by cell
    cfg = preset("config2")
    cap = fov_cap(cfg.n_tier)
    l_max = 0.012
    b = np.geomspace(0.1e9, 20e9, 60)
    fov = np.linspace(math.radians(2), cap, 60)
    bb, ff = np.meshgrid(b, fov, indexing="ij")
    from adrdesign.adr import _height
    direct = _height(cfg, bb, ff / 3.0) <= l_max
    inv = _unified_grid(cfg, ConstraintSet(fov_min=1e-9, l_max=l_max), b)
    via_inverse = ff >= inv[:, None]
    assert np.array_equal(direct, via_inverse)


def test_truncation_effect_on_optima(ctx16):
    # without dimension constraints the truncated variant is slightly worse
    # (bounded by the gain retention); with the height bound active at the
    # original optimum it wins
    for name in ("config1", "config2", "config3"):
        free_o = maximize_rate_constrained(preset(name), ctx16, ConstraintSet(FOV30))
        free_t = maximize_rate_constrained(preset(name, truncation=TRUNC), ctx16,
                                           ConstraintSet(FOV30))
        assert free_t.rate_star <= free_o.rate_star
        assert (free_o.rate_star - free_t.rate_star) / free_o.rate_star <= 0.10

    cases = [
        ("config1", ConstraintSet(FOV30, l_max=0.005, a_max=0.5e-4)),
        ("config2", ConstraintSet(FOV30, l_max=0.02, a_max=4e-4)),
        ("config3", ConstraintSet(FOV30, l_max=0.02, a_max=4e-4)),
    ]
    for name, cs in cases:
        res_o = maximize_rate_constrained(preset(name), ctx16, cs)
        assert "height" in res_o.active_constraints
        res_t = maximize_rate_constrained(preset(name, truncation=TRUNC), ctx16, cs)
        assert res_t.rate_star >= res_o.rate_star


def test_solver_matches_bisection_oracle(rng, monkeypatch):
    # the search never inverts a boundary, so it is checked against the former
    # B-grid zoom run on the former bisection inverse: feasibility, active sets
    # and diagnostics identical, R* never lower by more than 1e-9 relative.
    # The boundary trace does invert: the same bandwidths under both inverses,
    # FOV and rate to 1e-12 relative.
    contexts = _noise_contexts()
    feasible = 0
    for _ in range(40):
        cfg = _random_any_cfg(rng)
        ctx = contexts[(float(rng.choice([10.0, 16.0])),
                        str(rng.choice(["thermal_only", "full"])))]
        cs = ConstraintSet(
            fov_min=rng.uniform(math.radians(5), fov_cap(cfg.n_tier)),
            l_max=10 ** rng.uniform(-3.5, -1.4) if rng.random() < 0.8 else None,
            a_max=10 ** rng.uniform(-6.5, -3.1) if rng.random() < 0.8 else None,
        )
        opts = SolverOptions(grid_points=int(rng.choice([400, 2000])))
        new = maximize_rate_constrained(cfg, ctx, cs, opts)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_invert_boundary_grid", _bisection_inverse)
            old_feasible, old_rate, old_active, old_diagnostic = _grid_zoom_oracle(
                cfg, ctx, cs, opts)
            old_trace = maximize_rate_constrained(cfg, ctx, cs, opts).boundary_trace
        assert new.feasible == old_feasible
        assert new.active_constraints == old_active
        assert new.diagnostic == old_diagnostic
        if old_feasible:
            feasible += 1
            assert new.rate_star >= old_rate * (1 - 1e-9)
        assert new.boundary_trace.shape == old_trace.shape
        assert np.array_equal(new.boundary_trace[:, 0], old_trace[:, 0])
        assert np.allclose(new.boundary_trace[:, 1:], old_trace[:, 1:], rtol=1e-12, atol=0)
    assert 0 < feasible < 40


def _grid_zoom_oracle(cfg, ctx, cs, opts):
    """The former B-grid zoom over f_fov, kept as an oracle for the search:
    (feasible, R*, active constraints, diagnostic)."""
    lo, hi = opts.b_min, opts.b_max
    rate_star = -math.inf
    while True:
        b = np.geomspace(lo, hi, opts.grid_points)
        fov = _unified_grid(cfg, cs, b)
        feasible = np.isfinite(fov)
        rates = np.full(b.shape, -np.inf)
        rates[feasible] = _rate_raw(cfg, ctx, b[feasible], fov[feasible])
        i = int(np.argmax(rates))
        if rates[i] > rate_star:
            rate_star, b_star, fov_star = float(rates[i]), float(b[i]), float(fov[i])
        width = hi - lo
        lo, hi = b[max(i - 1, 0)], b[min(i + 1, len(b) - 1)]
        if not feasible.any() or hi - lo <= opts.b_rel_tol * hi or hi - lo >= width:
            break
    if rate_star == -math.inf:
        return False, math.nan, frozenset(), optimizer._infeasible_diagnostic(cfg, cs, opts)
    return True, rate_star, optimizer._active_constraints(cfg, cs, b_star, fov_star), ""


def _noise_contexts():
    return {
        (pt, mode): load_config(None, overrides={
            ("beam", "pt_mw"): pt, ("noise", "mode"): mode,
            ("noise", "rin_per_hz"): 1e-14 if mode == "full" else None,
        }).context()
        for pt in (10.0, 16.0) for mode in ("thermal_only", "full")
    }


def test_search_matches_grid_zoom_oracle(rng):
    # the explicit two-piece search against the former B-grid zoom: the same
    # feasibility, active sets and diagnostics, and R* never lower by more
    # than 1e-9 relative. Draws cover every preset, tier 0, truncation, both
    # noise models, 400- and 2000-point grids and infeasible caps.
    contexts = _noise_contexts()
    seen = {"infeasible": 0, "segment": 0, "curve": 0, "kink": 0}
    for _ in range(120):
        cfg = _random_any_cfg(rng)
        ctx = contexts[(float(rng.choice([10.0, 16.0])),
                        str(rng.choice(["thermal_only", "full"])))]
        cap = fov_cap(cfg.n_tier)
        if rng.random() < 0.25:
            # both caps meet at one (B, FOV) point: the edge has a kink there
            fov_min = rng.uniform(math.radians(5), 0.8 * cap)
            geo = geometry(cfg, rng.uniform(1e9, 10e9), rng.uniform(fov_min, cap))
            cs = ConstraintSet(fov_min, l_max=geo.height, a_max=geo.top_area)
        else:
            cs = ConstraintSet(
                fov_min=rng.uniform(math.radians(5), min(math.pi / 2, 1.5 * cap)
                                    if rng.random() < 0.2 else cap),
                l_max=10 ** rng.uniform(-3.5, -1.4) if rng.random() < 0.8 else None,
                a_max=10 ** rng.uniform(-6.5, -3.1) if rng.random() < 0.8 else None,
            )
        opts = SolverOptions(grid_points=int(rng.choice([400, 2000])))
        res = maximize_rate_constrained(cfg, ctx, cs, opts)
        feasible, rate, active, diagnostic = _grid_zoom_oracle(cfg, ctx, cs, opts)
        assert res.feasible == feasible
        assert res.active_constraints == active
        assert res.diagnostic == diagnostic
        if not feasible:
            seen["infeasible"] += 1
            continue
        assert res.rate_star >= rate * (1 - 1e-9)
        if "fov" in active:
            seen["segment"] += 1
        else:
            seen["kink" if active == {"height", "area"} else "curve"] += 1
    assert min(seen.values()) > 0, seen


def test_tiny_fov_min_solves_without_float_warnings(ctx10):
    # the curve starts at fov_min, where the boundary coefficients overflow;
    # those points are infeasible, not float errors (warnings are errors here)
    cfg = preset("config2")
    ref = maximize_rate_constrained(cfg, ctx10, ConstraintSet(1e-9, l_max=0.01, a_max=2e-4))
    for fov_min in (1e-30, 1e-200):
        res = maximize_rate_constrained(cfg, ctx10, ConstraintSet(fov_min, l_max=0.01, a_max=2e-4))
        assert res.active_constraints == ref.active_constraints == {"height"}
        assert res.rate_star == pytest.approx(ref.rate_star, rel=1e-12)
    rates = optimizer._solve(cfg, ctx10, np.array([1e-200, 1e-200]), np.array([1e-6, 0.01]),
                             None, SolverOptions(grid_points=400))[0]
    assert np.isnan(rates[0]) and rates[1] == pytest.approx(ref.rate_star, rel=1e-9)


# Receivers of the mixed batches: every preset plus a tier-0 2x2 array, whose
# 30 deg FOV cap sits below the others' 90 deg.
_RECEIVERS = [*PRESETS.values(), AdrConfig(n_tier=0, n_pd=4)]
# (l_max, a_max) of a capped set: the MCD and SCD regimes and an l_max no receiver reaches
_REGIMES = {"MCD": (0.02, 4e-4), "SCD": (0.005, 0.5e-4), "tiny l_max": (1e-6, 4e-4)}


@st.composite
def _mixed_batches(draw):
    """A mixed batch of constraint sets, one receiver each, under one link context.

    The sets share which caps exist (_solve takes K caps or none of a kind), so a
    batch is either all NCD or all capped. fov_min = 1e-200 rows come only with caps:
    an uncapped segment at that FOV overflows the rate kernel on either path.
    """
    capped = draw(st.booleans())
    k = draw(st.integers(2, 9))
    cfgs, fov_min, l_max, a_max = [], [], [], []
    for _ in range(k):
        cfg = draw(st.sampled_from(_RECEIVERS))
        cfgs.append(replace(cfg, truncation=TRUNC) if draw(st.booleans()) else cfg)
        degrees = st.one_of(st.floats(1.0, 89.0), st.floats(30.5, 60.0))  # above the tier-0 cap
        fov_min.append(draw(st.one_of(degrees.map(math.radians),
                                      *([st.just(1e-200)] if capped else []))))
        if capped:
            regime = draw(st.sampled_from([*_REGIMES, "drawn"]))
            caps = _REGIMES.get(regime) or (draw(st.floats(1e-3, 0.05)),
                                            draw(st.floats(1e-6, 1e-3)))
            l_max.append(caps[0])
            a_max.append(caps[1])
    noise = draw(st.sampled_from([{}, {("noise", "mode"): "full", ("noise", "rin_per_hz"): 1e-13}]))
    ctx = load_config(None, {("beam", "pt_mw"): 16.0, **noise}).context()
    opts = SolverOptions(grid_points=draw(st.sampled_from([64, 400])))
    caps = [np.array(v) if capped else None for v in (l_max, a_max)]
    return cfgs, ctx, np.array(fov_min), *caps, opts


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mixed_batches())
def test_mixed_receiver_batch_equals_one_receiver_per_call(batch):
    # the per-set constant columns give, bit for bit, what each receiver's own
    # call gives with scalar constants; warnings are errors here, so neither path
    # may evaluate the kernel where the other would not
    cfgs, ctx, fov_min, l_max, a_max, opts = batch
    batched = optimizer._solve(cfgs, ctx, fov_min, l_max, a_max, opts)
    looped = np.full((3, len(cfgs)), np.nan)
    for cfg in set(cfgs):
        own = [i for i, c in enumerate(cfgs) if c == cfg]
        caps = [None if v is None else v[own] for v in (l_max, a_max)]
        looped[:, own] = optimizer._solve(cfg, ctx, fov_min[own], *caps, opts)
    for got, want in zip(batched, looped):
        assert got.tobytes() == want.tobytes()


def test_mixed_receiver_batch_needs_one_receiver_per_set(ctx10):
    with pytest.raises(ValueError, match="2 receivers for 3 constraint sets"):
        optimizer._solve([preset("config1"), preset("config2")], ctx10, np.full(3, FOV30),
                         None, None, SolverOptions(grid_points=64))


def test_tiny_fov_min_diagnostic_and_subnormal_rejected(ctx10):
    # infeasible caps at a tiny fov_min: the diagnostic evaluates the boundary
    # there without float warnings (warnings are errors here) and still names
    # the cap; a subnormal fov_min, whose reciprocal overflows, is rejected
    cfg = preset("config2")
    res = maximize_rate_constrained(cfg, ctx10, ConstraintSet(1e-200, l_max=1e-6))
    assert not res.feasible
    assert res.diagnostic.startswith("height bound 1e-06 needs B >= inf GHz at fov_min")
    res = maximize_rate_constrained(cfg, ctx10, ConstraintSet(1e-200, a_max=1e-12))
    assert res.diagnostic.startswith("area bound 1e-12 needs B >= inf GHz at fov_min")
    for fov_min in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="fov_min"):
            ConstraintSet(fov_min, l_max=0.01)
        with pytest.raises(ValueError, match="fov_min"):
            optimizer._solve(cfg, ctx10, np.array([0.5, fov_min]), np.array([0.01, 0.01]),
                             None, SolverOptions(grid_points=400))
    assert maximize_rate_constrained(
        cfg, ctx10, ConstraintSet(np.finfo(float).tiny, l_max=0.01)).feasible


def test_boundary_trace_is_the_first_grid_pass(ctx16, monkeypatch):
    # the trace is f_fov and the rate over the whole B range, bit for bit,
    # from the one _unified_grid call the solve makes
    calls = []
    original = optimizer._unified_grid

    def counting(cfg, cs, b):
        calls.append(np.size(b))
        return original(cfg, cs, b)

    cases = [
        (preset("config1", truncation=TRUNC), ConstraintSet(FOV30, l_max=0.005, a_max=0.5e-4),
         SolverOptions()),
        (preset("config4"), ConstraintSet(math.radians(12), l_max=0.01), SolverOptions(grid_points=400)),
        (preset("config2"), ConstraintSet(FOV30), SolverOptions(grid_points=300)),
        (preset("config1"), ConstraintSet(FOV30, l_max=1e-5), SolverOptions()),
    ]
    for cfg, cs, opts in cases:
        b = np.geomspace(opts.b_min, opts.b_max, opts.grid_points)
        fov = original(cfg, cs, b)
        on = np.isfinite(fov)
        expected = np.column_stack([b[on], fov[on], _rate_raw(cfg, ctx16, b[on], fov[on])])
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_unified_grid", counting)
            res = maximize_rate_constrained(cfg, ctx16, cs, opts)
        assert calls == [opts.grid_points]
        assert res.boundary_trace.shape == expected.shape
        assert np.array_equal(res.boundary_trace, expected)
    assert res.boundary_trace.shape == (0, 3) and not res.feasible


# ---------------------------------------------------------------- gradients

def _fd(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_gradient_signs_everywhere(rng, ctx10):
    for _ in range(100):
        cfg = _random_cfg(rng)
        cap = fov_cap(cfg.n_tier)
        b = float(rng.uniform(0.5e9, 12e9))
        fov = float(rng.uniform(math.radians(5), 0.97 * cap))
        g = analytic_gradients(cfg, ctx10, b, fov)
        assert g.d_rate_d_fov < 0
        assert g.d_height_d_fov < 0
        assert g.d_area_d_fov < 0
        assert g.d_d1_d_theta < 0


def test_gradients_match_finite_differences(rng, ctx10):
    h = 1e-6  # rad
    for _ in range(100):
        cfg = _random_cfg(rng)
        cap = fov_cap(cfg.n_tier)
        b = float(rng.uniform(0.5e9, 12e9))
        fov = float(rng.uniform(math.radians(5), 0.95 * cap))
        g = analytic_gradients(cfg, ctx10, b, fov)

        fd_rate = _fd(lambda f: achievable_rate(cfg, b, f, ctx10), fov, h)
        assert g.d_rate_d_fov == pytest.approx(fd_rate, rel=1e-4)

        fd_height = _fd(lambda f: geometry(cfg, b, f).height, fov, h)
        assert g.d_height_d_fov == pytest.approx(fd_height, rel=1e-4)

        fd_area = _fd(lambda f: geometry(cfg, b, f).top_area, fov, h)
        assert g.d_area_d_fov == pytest.approx(fd_area, rel=1e-4)

        divisor = 2 * cfg.n_tier + 1
        fd_d1 = _fd(lambda f: geometry(cfg, b, f).entrance_diameter, fov, h) * divisor
        assert g.d_d1_d_theta == pytest.approx(fd_d1, rel=1e-4)

        # height also falls off as 1/B; check the bandwidth partial as well
        hb = b * 1e-6
        fd_l_b = _fd(lambda x: geometry(cfg, x, fov).height, b, hb)
        assert fd_l_b == pytest.approx(-geometry(cfg, b, fov).height / b, rel=1e-4)


def test_gradients_domain_errors(ctx10):
    cfg = preset("config1")
    with pytest.raises(ValueError):
        analytic_gradients(cfg, ctx10, 2e9, fov_cap(cfg.n_tier))  # boundary point
    with pytest.raises(ValueError):
        analytic_gradients(cfg, ctx10, 0.0, FOV30)
    from adrdesign import LinkContext, NoiseModel
    full_ctx = LinkContext(beam=ctx10.beam, link=ctx10.link, noise=NoiseModel(mode="full"))
    with pytest.raises(ValueError):
        analytic_gradients(cfg, full_ctx, 2e9, FOV30)


def test_zoom_search_evaluates_few_grids(ctx16, monkeypatch):
    # the search zooms one vectorised grid; it must not fall back to
    # per-bandwidth boundary evaluations
    from adrdesign import optimizer
    sizes = []
    original = optimizer._unified_grid

    def counting(cfg, cs, b):
        sizes.append(np.size(b))
        return original(cfg, cs, b)

    monkeypatch.setattr(optimizer, "_unified_grid", counting)
    cs = ConstraintSet(fov_min=FOV30, l_max=0.005, a_max=0.5e-4)
    res = maximize_rate_constrained(preset("config1", truncation=TRUNC), ctx16, cs)
    assert res.feasible
    assert 1 <= len(sizes) <= 4
    assert res.rate_star >= res.boundary_trace[:, 2].max()


def test_search_stops_at_float_resolution(ctx16):
    # a tolerance below float resolution cannot be met; the zoom stops once
    # a pass no longer narrows the bracket, at the same optimum
    cs = ConstraintSet(fov_min=FOV30, l_max=0.005, a_max=0.5e-4)
    cfg = preset("config1", truncation=TRUNC)
    tight = maximize_rate_constrained(cfg, ctx16, cs, SolverOptions(b_rel_tol=1e-300))
    default = maximize_rate_constrained(cfg, ctx16, cs)
    assert tight.rate_star >= default.rate_star
    assert tight.b_star == pytest.approx(default.b_star, rel=1e-6)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(b_min=2e9, b_max=1e9)
    # bad values are rejected by field name, not deep inside the search
    for field, value in (("b_min", math.nan), ("b_max", math.inf), ("b_max", math.nan),
                         ("b_rel_tol", 0.0), ("b_rel_tol", -1.0), ("b_rel_tol", math.nan),
                         ("b_rel_tol", math.inf), ("grid_points", math.nan),
                         ("grid_points", 8.5), ("grid_points", True), ("grid_points", 7)):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})
    with pytest.raises(ValueError):
        ConstraintSet(fov_min=0.0)
    with pytest.raises(ValueError):
        ConstraintSet(fov_min=FOV30, l_max=-1.0)
