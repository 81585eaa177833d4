import math

import numpy as np
import pytest

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
    maximize_rate_constrained,
    preset,
    unified_boundary,
)
from adrdesign.adr import fov_cap
from adrdesign.link import _rate_raw
from adrdesign.optimizer import _unified_grid

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


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(b_min=2e9, b_max=1e9)
    with pytest.raises(ValueError):
        ConstraintSet(fov_min=0.0)
    with pytest.raises(ValueError):
        ConstraintSet(fov_min=FOV30, l_max=-1.0)
