import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adrdesign import (
    BoundaryOutOfRange,
    ConstraintSet,
    LinkContext,
    NoiseModel,
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
    rmax_vs_fovmin,
    unified_boundary,
)
from adrdesign.adr import PRESETS, AdrConfig, fov_cap, fov_valid
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


def _full_grid_oracle(cfg, cs, b):
    """optimizer._unified_grid before it inverted only the curve's bandwidths,
    its body copied unchanged: every bandwidth through both inverses."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    out = np.full(b.shape, cs.fov_min)
    if cs.l_max is not None:
        out = np.maximum(out, _invert_boundary_grid(cfg, "height", b, cs.l_max))
    if cs.a_max is not None:
        out = np.maximum(out, _invert_boundary_grid(cfg, "area", b, cs.a_max))
    return np.where(fov_valid(cfg.n_tier, out), out, np.inf)


@st.composite
def _boundary_sets(draw):
    """A receiver, a constraint set and bandwidths: the solver grid, or log-uniform
    ones plus the window's ends and their neighbours one ulp away."""
    cfg = draw(st.sampled_from(_RECEIVERS))
    cfg = replace(cfg, truncation=TRUNC) if draw(st.booleans()) else cfg
    kinds = draw(st.sampled_from([(), ("height",), ("area",), ("height", "area")]))
    fov_min = draw(st.one_of(
        st.floats(1.0, 89.0).map(math.radians),
        st.floats(30.5, 60.0).map(math.radians),  # above the tier-0 cap
        st.just(float(fov_cap(cfg.n_tier))),
        st.floats(1e-15, 2e-9),  # below and at the inverse's 1e-9 FOV floor
        st.just(1e-200)))
    # the huge caps put fov_min < 1e-9 on the curve inside the search range
    l_max = draw(st.one_of(st.floats(-5.0, 1.0).map(lambda e: 10**e), st.just(1e22)))
    a_max = draw(st.one_of(st.floats(-8.0, -1.0).map(lambda e: 10**e), st.just(1e20)))
    cs = ConstraintSet(fov_min, l_max if "height" in kinds else None,
                       a_max if "area" in kinds else None)
    if draw(st.booleans()):
        return cfg, cs, np.geomspace(0.1e9, 20e9, draw(st.sampled_from([400, 2000])))
    b = 10 ** np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(6.0, 13.0, 200)
    with np.errstate(over="ignore"):
        ends = [float(optimizer._boundary(cfg, which, fov, bound)) * (1 + side * 1e-9)
                for which, bound in (("height", cs.l_max), ("area", cs.a_max)) if bound
                for fov, side in ((fov_cap(cfg.n_tier), -1), (fov_min, 1))]
    ends = [e for e in ends if 0 < e < math.inf]
    return cfg, cs, np.concatenate([b, ends, np.nextafter(ends, 0), np.nextafter(ends, math.inf)])


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(_boundary_sets())
def test_unified_grid_equals_the_full_grid_oracle(case):
    # inverting only the bandwidths on the curve gives, bit for bit, what inverting
    # every bandwidth gave; the inverse works element by element, so the one-bandwidth
    # entry points read the same entries
    cfg, cs, b = case
    want = _full_grid_oracle(cfg, cs, b)
    assert _unified_grid(cfg, cs, b).tobytes() == want.tobytes()
    i = len(b) // 2
    assert np.float64(unified_boundary(cfg, cs, float(b[i]))).tobytes() == want[i].tobytes()
    for which, bound in (("height", cs.l_max), ("area", cs.a_max)):
        if not bound:
            continue
        inverse = _invert_boundary_grid(cfg, which, b, bound)
        # the floor where the bound holds at the 1e-9 rad floor itself, else a root,
        # which can lie within 2e-9 rad
        at_floor = b[i] > optimizer._boundary(cfg, which, optimizer._FOV_FLOOR, bound)
        if inverse[i] < math.inf and not at_floor:
            assert invert_dimension_boundary(cfg, which, float(b[i]), bound) == inverse[i]
        elif inverse[i] < math.inf:
            with pytest.raises(ValueError, match="rad floor") as raised:
                invert_dimension_boundary(cfg, which, float(b[i]), bound)
            assert not isinstance(raised.value, BoundaryOutOfRange)


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


def test_compact_corner_meets_both_caps(ctx16):
    # the compact optimum is a binding switch, solved inside its cell rather than
    # zoomed: height and top area both sit on their caps to 1e-12
    cfg = preset("config1", truncation=TRUNC)
    res = maximize_rate_constrained(cfg, ctx16, ConstraintSet(FOV30, l_max=0.005, a_max=0.5e-4))
    geo = geometry(cfg, res.b_star, res.fov_star)
    assert abs(geo.height / 0.005 - 1) <= 1e-12
    assert abs(geo.top_area / 0.5e-4 - 1) <= 1e-12


@pytest.mark.parametrize("scenario", ["MCD", "SCD"])
def test_capped_tables_take_three_kernel_calls(ctx16, monkeypatch, scenario):
    # a table shaped like the benchmark's study; the MCD config5 rows and the SCD
    # truncated config1 rows end on a height/area binding switch. Each corner is
    # priced with the second zoom pass, so the table calls the kernel <= 3 times
    calls = []
    original = optimizer._rate_raw

    def counting(cfg, ctx, b, fov):
        calls.append(np.shape(b))
        return original(cfg, ctx, b, fov)

    monkeypatch.setattr(optimizer, "_rate_raw", counting)
    cfgs = {"config1": AdrConfig(n_tier=1, n_pd=4), "config5": AdrConfig(n_tier=2, n_pd=16),
            "tier0": AdrConfig(n_tier=0, n_pd=4)}
    table = rmax_vs_fovmin(cfgs, ctx16, scenario, [10.0, 20.0, 45.0], truncation=TRUNC)
    assert 1 <= len(calls) <= 3, calls
    assert sum(math.isnan(row["rate_bps"]) for row in table.rows) == 2  # tier 0 above 30 deg


@pytest.mark.filterwarnings("error")
def test_a_bound_too_small_to_represent_is_rejected_by_name(ctx10):
    # coeff / bound overflows for a subnormal bound: the entry points name the
    # bound instead of returning inf or warning, and the solver reports it
    cfg = preset("config1")
    for which in ("height", "area"):
        with pytest.raises(ValueError, match=f"{which} bound 4.94066e-324 is too small"):
            dimension_boundary(cfg, which, 0.5, 5e-324)
        with pytest.raises(ValueError, match=f"{which} bound 4.94066e-324 is too small"):
            invert_dimension_boundary(cfg, which, 2e9, 5e-324)
    res = maximize_rate_constrained(cfg, ctx10, ConstraintSet(0.5, a_max=5e-324))
    assert not res.feasible
    assert res.diagnostic.startswith("area bound 4.94066e-324 needs B >= inf GHz at fov_min")


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


def test_a_feasible_stretch_inside_one_cell_is_found(ctx10):
    # at fov_min = 1e-200 a 64-point curve grid has cells 1500-fold wide in FOV, and
    # the whole feasible stretch (B_lo from b_max down to b_min) lies inside its last
    # cell: no grid point is feasible, but that cell holds two corners, and the search
    # finds from them the optimum a 400-point grid finds
    cfg = AdrConfig(n_tier=0, n_pd=1, truncation=TRUNC)
    coarse, fine = (optimizer._solve(cfg, ctx10, np.array([1e-200]), np.array([0.02]), None,
                                     SolverOptions(grid_points=n))[0][0] for n in (64, 400))
    assert coarse == pytest.approx(fine, rel=1e-12)


# Receivers of the mixed batches: every preset plus tier-0 arrays of 1, 4 and 16
# PDs, whose 30 deg FOV cap sits below the others' 90 deg.
_RECEIVERS = [*PRESETS.values(), *(AdrConfig(n_tier=0, n_pd=n) for n in (1, 4, 16))]
# (l_max, a_max) of a capped set: the MCD and SCD regimes and an l_max no receiver reaches
_REGIMES = {"MCD": (0.02, 4e-4), "SCD": (0.005, 0.5e-4), "tiny l_max": (1e-6, 4e-4)}


@st.composite
def _mixed_batches(draw):
    """A mixed batch of constraint sets, one receiver each, under one link context.

    The sets share which caps exist (_solve takes K caps or none of a kind), so a
    batch is all NCD, all height-capped, all area-capped or all capped by both.
    fov_min = 1e-200 rows come only with caps: an uncapped segment at that FOV
    overflows the rate kernel on either path.
    """
    kinds = draw(st.sampled_from([(), ("height",), ("area",), ("height", "area")]))
    capped = bool(kinds)
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
    pt_mw = draw(st.sampled_from([10.0, 16.0]))
    ctx = load_config(None, {("beam", "pt_mw"): pt_mw, **noise}).context()
    opts = SolverOptions(grid_points=draw(st.sampled_from([64, 400, 2000])))
    caps = [np.array(v) if kind in kinds else None
            for kind, v in (("height", l_max), ("area", a_max))]
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


def _zoom_oracle(cfg, ctx, fov_min, l_max, a_max, opts):
    """optimizer._solve before pass 1 certified end optima, its body copied
    unchanged: every piece zooms until one of its stop rules ends it."""
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
            each = [optimizer._boundary(rcv, which, fov, bound[owner])
                    for which, bound in bounds] or [np.zeros(fov.shape)]
        return np.maximum(each[0], each[-1]), each[-1] > each[0]

    # rows 0..k-1 are the segments, rows k..2k-1 the curves of the same sets
    seg_lo = np.maximum(opts.b_min, b_lo(fov_min[:, None], np.arange(k))[0][:, 0])
    lo = np.concatenate([seg_lo, fov_min])
    hi = np.concatenate([np.full(k, opts.b_max), np.maximum(fov_min, fov_cap(n_tier))])
    best = np.full((3, 2 * k), -np.inf)  # rate, B, FOV of each piece
    valid = fov_valid(n_tier, fov_min)
    rows = np.flatnonzero(np.concatenate([valid & (seg_lo <= opts.b_max), valid & bool(bounds)]))
    t = np.linspace(0.0, 1.0, n)
    while rows.size:
        # geometric grids from lo to hi, clipped so that brackets only shrink
        x = np.minimum(lo[rows, None] * (hi[rows, None] / lo[rows, None]) ** t, hi[rows, None])
        x[:, -1] = hi[rows]
        owner, curve = rows % k, rows >= k
        b, fov = x.copy(), np.where(curve[:, None], x, fov_min[owner, None])
        binding = np.zeros(x.shape, dtype=bool)
        b[curve], binding[curve] = b_lo(x[curve], owner[curve])
        feasible = (b >= opts.b_min) & (b <= opts.b_max)
        # the kernel runs on whole rows, each infeasible point replaced by its row's first
        # feasible one, so it sees only points of the search; rows without one are skipped
        live, m, first = feasible.any(axis=1), np.arange(rows.size), np.argmax(feasible, axis=1)
        b_at, fov_at = (np.where(feasible, v, v[m, first, None])[live] for v in (b, fov))
        rates = np.full(x.shape, -np.inf)
        rates[live] = np.where(feasible[live],
                               _rate_raw(receivers(owner[live]), ctx, b_at, fov_at), -np.inf)
        i = np.argmax(rates, axis=1)
        better = rates[m, i] > best[0, rows]
        best[:, rows[better]] = np.stack([rates[m, i], b[m, i], fov[m, i]])[:, better]
        j, jj = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
        smooth = feasible[m, j] & feasible[m, jj] & (binding[m, j] == binding[m, jj])
        b_ends = np.where(smooth, np.stack([b[m, j], b[m, jj]]), 0.0)  # read only if smooth
        done = (~live
                | (smooth & (np.ptp(b_ends, axis=0) <= opts.b_rel_tol * b_ends.max(axis=0)))
                | (x[m, jj] - x[m, j] >= hi[rows] - lo[rows]))
        lo[rows], hi[rows] = x[m, j], x[m, jj]
        rows = rows[~done]
    out = np.where(best[0, k:] > best[0, :k], best[:, k:], best[:, :k])
    return tuple(np.where(out[0] > -np.inf, out, np.nan))


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mixed_batches(), st.booleans())
def test_search_equals_the_zoom_oracle(batch, one_receiver):
    # the certified ends and the corners solved in closed form give what the zoom
    # would have: the same infeasible sets and R* within 1e-12, one receiver for
    # the whole batch or one per set. A corner root lands within rounding of the
    # kink that the zoom narrows on to, so R* can move in its last digits.
    cfgs, ctx, fov_min, l_max, a_max, opts = batch
    cfg = cfgs[0] if one_receiver else cfgs
    got = optimizer._solve(cfg, ctx, fov_min, l_max, a_max, opts)[0]
    want = _zoom_oracle(cfg, ctx, fov_min, l_max, a_max, opts)[0]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    on = ~np.isnan(want)
    assert np.all(np.abs(got[on] - want[on]) <= 1e-12 * want[on])


def test_search_is_within_1e_12_of_a_fine_solve():
    # one fixed batch over every receiver, truncated or not, with both caps, one
    # (the other set far above anything reached) or none, against a 20000-point
    # grid zoomed to 1e-9: no set may fall more than 1e-12 below it
    rng = np.random.default_rng(18)
    cfgs = [replace(cfg, truncation=trunc) for cfg in _RECEIVERS for trunc in (None, TRUNC)] * 3
    k = len(cfgs)
    fov_min = np.radians(rng.uniform(1.0, 89.0, k))
    l_max = np.where(rng.random(k) < 0.7, 10 ** rng.uniform(-3.5, -1.3, k), 1.0)
    a_max = np.where(rng.random(k) < 0.7, 10 ** rng.uniform(-6.5, -3.0, k), 1.0)
    ctx = _noise_contexts()[(16.0, "full")]
    got = optimizer._solve(cfgs, ctx, fov_min, l_max, a_max, SolverOptions(grid_points=400))[0]
    fine = optimizer._solve(cfgs, ctx, fov_min, l_max, a_max,
                            SolverOptions(grid_points=20000, b_rel_tol=1e-9))[0]
    assert k <= 60 and np.array_equal(np.isnan(got), np.isnan(fine))
    assert 0 < np.isnan(got).sum() < k / 2
    on = ~np.isnan(got)
    assert np.all(got[on] >= fine[on] * (1 - 1e-12))


def _certify(cfg, ctx, fov_min, l_max, a_max, opts, rate, eps=1e-6, rounds=60):
    """Upper bound U on the rate over one set's feasible region (-inf: none).

    The optimum lies on the lower edge: the segment FOV = fov_min over
    B in [max(b_min, B_lo(fov_min)), b_max], and the curve B = B_lo(FOV) over
    [fov_min, cap] where B_lo lies in [b_min, b_max]. The SNR falls with B and
    with FOV, so B log2(1 + SNR / gap) is bounded on a cell by its largest B
    times log2(1 + SNR / gap) at its smallest B and FOV:
    - segment cell [B0, B1]: rate(B0) B1 / B0;
    - curve cell [F0, F1]: B_hi rate(B_lo, F0) / B_lo with B_hi = min(B_lo(F0), b_max)
      and B_lo = max(B_lo(F1), b_min); no feasible point where B_lo > B_hi.
    Cells of a grid_points grid along each piece are halved while their bound
    exceeds rate (1 + eps), for at most `rounds` rounds and while no more than
    10 000 cells need it; U is the largest bound left.
    """
    if not fov_valid(cfg.n_tier, fov_min):
        return -math.inf
    caps = [(w, v) for w, v in (("height", l_max), ("area", a_max)) if v is not None]

    def b_lo(fov):
        with np.errstate(over="ignore"):  # a tiny FOV needs B = inf
            return np.max([optimizer._boundary(cfg, w, fov, v) for w, v in caps], axis=0)

    def bound(seg, lo, hi):
        b_low, b_hi, fov, curve = lo.copy(), hi.copy(), np.full(lo.shape, fov_min), ~seg
        if curve.any():
            b_low[curve] = np.maximum(b_lo(hi[curve]), opts.b_min)
            b_hi[curve] = np.minimum(b_lo(lo[curve]), opts.b_max)
            fov[curve] = lo[curve]
        on = b_low <= b_hi
        out = np.full(lo.shape, -math.inf)
        out[on] = b_hi[on] * _rate_raw(cfg, ctx, b_low[on], fov[on]) / b_low[on]
        return out

    seg_lo = max(opts.b_min, float(b_lo(np.array(fov_min)))) if caps else opts.b_min
    edges = ([np.geomspace(seg_lo, opts.b_max, opts.grid_points)] if seg_lo <= opts.b_max
             else []) + ([np.geomspace(fov_min, fov_cap(cfg.n_tier), opts.grid_points)]
                         if caps else [])
    seg = np.concatenate([np.full(e.size - 1, k == 0 and seg_lo <= opts.b_max)
                          for k, e in enumerate(edges)] or [np.zeros(0, bool)])
    lo = np.concatenate([e[:-1] for e in edges] or [np.zeros(0)])
    hi = np.concatenate([e[1:] for e in edges] or [np.zeros(0)])
    u, kept = bound(seg, lo, hi), []
    for _ in range(rounds):
        split = u > rate * (1 + eps)  # False everywhere where rate is NaN
        if not split.any() or split.sum() > 10000:  # proved, or R* too low to prove
            break
        kept.append(u[~split])
        mid = lo[split] * np.sqrt(hi[split] / lo[split])
        seg = np.concatenate([seg[split]] * 2)
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        u = bound(seg, lo, hi)
    return max(v.max(initial=-math.inf) for v in [u, *kept])


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mixed_batches())
def test_every_optimum_is_certified(batch):
    # a monotone upper bound over the whole feasible region proves each R* to
    # 1e-6: R* <= U <= R* (1 + 1e-6), and U = -inf exactly where R* is NaN
    cfgs, ctx, fov_min, l_max, a_max, opts = batch
    rate = optimizer._solve(cfgs, ctx, fov_min, l_max, a_max, opts)[0]
    for s, cfg in enumerate(cfgs):
        u = _certify(cfg, ctx, fov_min[s], *(None if v is None else v[s] for v in (l_max, a_max)),
                     opts, rate[s])
        if math.isnan(rate[s]):
            assert u == -math.inf
        else:
            assert rate[s] <= u <= rate[s] * (1 + 1e-6)


@pytest.mark.parametrize("l_max, b_star, rate_star", [
    (None, 19.870391914921116e9, 141.69655012839578e9),
    (0.38441923852029575, 19.87039338550977e9, 141.69655012839587e9),
], ids=["b_max end", "fov_min end"])
def test_an_end_beaten_inside_its_cell_is_zoomed(ctx16, l_max, b_star, rate_star):
    # the segment's best grid point is an end (b_max, or B_h(fov_min) = 19.8703 GHz
    # under the height cap), but the optimum lies inside that end's cell: the inner
    # point beside the end is higher, so pass 1 must not stop there
    rate, b, fov = optimizer._solve(AdrConfig(n_tier=2, n_pd=16), ctx16,
                                    math.radians(5.026307536262998), l_max, None,
                                    SolverOptions(grid_points=400))
    assert b[0] == b_star and rate[0] == rate_star


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


def _rin_ctx(ctx):
    """ctx with the full noise model and a -130 dB/Hz RIN term."""
    return LinkContext(beam=ctx.beam, link=ctx.link, noise=NoiseModel(mode="full", rin=1e-13))


def test_gradient_signs_everywhere(rng, ctx10):
    for ctx, _ in itertools.product((ctx10, _rin_ctx(ctx10)), range(100)):
        cfg = _random_cfg(rng)
        cap = fov_cap(cfg.n_tier)
        b = float(rng.uniform(0.5e9, 12e9))
        fov = float(rng.uniform(math.radians(5), 0.97 * cap))
        g = analytic_gradients(cfg, ctx, b, fov)
        assert g.d_rate_d_fov < 0
        assert g.d_height_d_fov < 0
        assert g.d_area_d_fov < 0
        assert g.d_d1_d_theta < 0


def test_gradients_match_finite_differences(rng, ctx10):
    h = 1e-6  # rad
    for ctx, _ in itertools.product((ctx10, _rin_ctx(ctx10)), range(100)):
        cfg = _random_cfg(rng)
        cap = fov_cap(cfg.n_tier)
        b = float(rng.uniform(0.5e9, 12e9))
        fov = float(rng.uniform(math.radians(5), 0.95 * cap))
        g = analytic_gradients(cfg, ctx, b, fov)

        fd_rate = _fd(lambda f: achievable_rate(cfg, b, f, ctx), fov, h)
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


def test_gradient_step_survives_a_saturated_aperture(ctx10):
    # a saturated aperture: exp(-2 rho^2 / w^2) is 2.7e-294 here, so the complex
    # step's imaginary part stays above underflow at h = 1e-20 FOV, not at 1e-30 FOV
    cfg = preset("config3", truncation=TRUNC)
    g = analytic_gradients(cfg, ctx10, 863771948.4358281, 0.009195872836317268)
    assert g.d_rate_d_fov < 0
    assert g.d_rate_d_fov == pytest.approx(-9.807265428728916e-280, rel=1e-6, abs=0)  # closed form


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
