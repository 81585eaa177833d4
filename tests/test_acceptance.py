"""Acceptance gate: every headline result at its stated tolerance.

Each criterion prints one PASS / FAIL line (run with `pytest -s` to see the
lines for passing criteria as well).

Operating powers: the bandwidth-peak study (criteria 3-5) runs at the 10 mW
default drive; the dimension-constrained and truncation studies (criteria
6, 8, 9) drive the VCSEL at the 16 mW eye-safety cap, the operating point
of the compact-receiver study those headline numbers belong to.
"""

import math
import time

import numpy as np
import pytest

from adrdesign import (
    ConstraintSet,
    CpcSpec,
    TruncationSpec,
    achievable_rate,
    cpc_derive,
    contour_points,
    default_axes,
    dimension_boundary,
    element_count,
    encircled_power,
    geometry,
    grid_sweep,
    invert_dimension_boundary,
    maximize_rate_constrained,
    preset,
    received_power,
    rmax_vs_fovmin,
)
from adrdesign.adr import _height, _top_area, fov_cap
from adrdesign.link import _rate_raw
from adrdesign.optimizer import analytic_gradients

FOV30 = math.radians(30.0)
TRUNC = TruncationSpec(0.6, 0.9)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_cpc_closed_forms():
    t0 = time.perf_counter()
    geo = cpc_derive(CpcSpec(math.radians(10.0), 1.0, 1.5e-3))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(geo.gain - 33.16) <= 0.1
        and abs(geo.length - 2.87e-2) <= 0.01e-2
        and abs(geo.entrance_area - 0.58e-4) <= 0.01e-4
    )
    assert report(
        "1 cpc-closed-forms", ok,
        f"gain {geo.gain:.3f}, length {geo.length * 100:.4f} cm, "
        f"area {geo.entrance_area * 1e4:.4f} cm^2, {elapsed * 1e3:.2f} ms",
    )
    assert elapsed < 0.05


def test_criterion_02_element_counts():
    counts = {1: element_count(1), 2: element_count(2), 3: element_count(3)}
    ok = counts == {1: 7, 2: 19, 3: 37}
    assert report("2 element-counts", ok, f"{counts}")


def test_criterion_03_peak_rates(ctx10):
    targets = {
        "config1": (14.00e9, 2.1e9),
        "config2": (18.56e9, 2.7e9),
        "config3": (24.53e9, 3.5e9),
    }
    ok = True
    details = []
    for name, (rate_t, b_t) in targets.items():
        t0 = time.perf_counter()
        res = maximize_rate_constrained(preset(name), ctx10, ConstraintSet(FOV30))
        dt = time.perf_counter() - t0
        good = (
            res.feasible
            and abs(res.rate_star - rate_t) <= 0.05 * rate_t
            and abs(res.b_star - b_t) <= 0.2e9
            and dt < 1.0
        )
        ok &= good
        details.append(
            f"{name} {res.rate_star / 1e9:.3f} Gb/s @ {res.b_star / 1e9:.3f} GHz "
            f"({dt * 1e3:.0f} ms)"
        )
    assert report("3 peak-rates", ok, "; ".join(details))


def test_criterion_04_geometry_triple():
    geo = geometry(preset("config1"), 2.1e9, FOV30)
    ok = (
        abs(geo.height - 1.99e-2) <= 0.02 * 1.99e-2
        and abs(geo.top_area - 2.12e-4) <= 0.02 * 2.12e-4
    )
    assert report(
        "4 geometry-triple", ok,
        f"height {geo.height * 100:.4f} cm, area {geo.top_area * 1e4:.4f} cm^2",
    )


def test_criterion_05_rate_fov_contours(ctx10):
    grid = grid_sweep(preset("config2"), ctx10, "rate", default_axes())
    fov10 = contour_points(grid, 10e9)[:, 1].max()
    fov20 = contour_points(grid, 20e9)[:, 1].max()
    ok = abs(fov10 - 65.0) <= 3.0 and abs(fov20 - 28.0) <= 3.0
    assert report(
        "5 rate-fov-contours", ok,
        f"10 Gb/s reaches {fov10:.2f} deg, 20 Gb/s reaches {fov20:.2f} deg",
    )


def test_criterion_06_compact_truncated_design(ctx16):
    cs = ConstraintSet(fov_min=FOV30, l_max=0.5e-2, a_max=0.5e-4)
    trunc = maximize_rate_constrained(preset("config1", truncation=TRUNC), ctx16, cs)
    orig = maximize_rate_constrained(preset("config1"), ctx16, cs)
    ok = (
        abs(trunc.rate_star - 12e9) <= 0.08 * 12e9
        and abs(orig.rate_star - 9e9) <= 0.10 * 9e9
        and trunc.rate_star > orig.rate_star
    )
    assert report(
        "6 compact-truncated-design", ok,
        f"truncated {trunc.rate_star / 1e9:.3f} Gb/s, original "
        f"{orig.rate_star / 1e9:.3f} Gb/s",
    )


def test_criterion_07_property_suite(ctx10, rng):
    t0 = time.perf_counter()
    checks = []

    # rate decreasing in FOV, dimensions decreasing in B and FOV (1e4 points)
    for cfg in (preset("config2"), preset("config4", truncation=TRUNC)):
        cap = fov_cap(cfg.n_tier)
        n = 10_000
        b = np.exp(rng.uniform(math.log(0.3e9), math.log(15e9), n))
        fov = rng.uniform(math.radians(3), 0.95 * cap, n)
        fov_hi = np.minimum(fov * 1.03, cap * 0.999)
        b_hi = b * 1.05
        theta, theta_hi = fov / (2 * cfg.n_tier + 1), fov_hi / (2 * cfg.n_tier + 1)
        checks.append(bool(np.all(_rate_raw(cfg, ctx10, b, fov_hi)
                                  < _rate_raw(cfg, ctx10, b, fov))))
        checks.append(bool(np.all(_height(cfg, b_hi, theta) < _height(cfg, b, theta))))
        checks.append(bool(np.all(_height(cfg, b, theta_hi) < _height(cfg, b, theta))))
        checks.append(bool(np.all(_top_area(cfg, b_hi, theta) < _top_area(cfg, b, theta))))
        checks.append(bool(np.all(_top_area(cfg, b, theta_hi) < _top_area(cfg, b, theta))))
    monotone_ok = all(checks)

    # analytic partials versus central finite differences (100 points)
    grad_ok = True
    h = 1e-6
    for _ in range(100):
        cfg = preset(str(rng.choice(["config1", "config3", "config5"])),
                     truncation=TRUNC if rng.random() < 0.5 else None)
        cap = fov_cap(cfg.n_tier)
        b = float(rng.uniform(0.5e9, 12e9))
        fov = float(rng.uniform(math.radians(5), 0.95 * cap))
        g = analytic_gradients(cfg, ctx10, b, fov)
        fd_r = (achievable_rate(cfg, b, fov + h, ctx10)
                - achievable_rate(cfg, b, fov - h, ctx10)) / (2 * h)
        fd_l = (geometry(cfg, b, fov + h).height
                - geometry(cfg, b, fov - h).height) / (2 * h)
        fd_a = (geometry(cfg, b, fov + h).top_area
                - geometry(cfg, b, fov - h).top_area) / (2 * h)
        grad_ok &= abs(g.d_rate_d_fov - fd_r) <= 1e-4 * abs(fd_r)
        grad_ok &= abs(g.d_height_d_fov - fd_l) <= 1e-4 * abs(fd_l)
        grad_ok &= abs(g.d_area_d_fov - fd_a) <= 1e-4 * abs(fd_a)

    # solver beats every feasible point of a 50 x 50 grid (20 random sets)
    solver_ok = True
    b_grid = np.geomspace(0.1e9, 20e9, 50)
    for _ in range(20):
        cfg = preset(str(rng.choice(["config1", "config2", "config3", "config5"])),
                     truncation=TRUNC if rng.random() < 0.5 else None)
        cap = fov_cap(cfg.n_tier)
        cs = ConstraintSet(
            fov_min=float(rng.uniform(math.radians(10), math.radians(45))),
            l_max=float(rng.uniform(0.004, 0.03)),
            a_max=float(rng.uniform(0.3e-4, 6e-4)),
        )
        res = maximize_rate_constrained(cfg, ctx10, cs)
        bb, ff = np.meshgrid(b_grid, np.linspace(math.radians(1), cap, 50), indexing="ij")
        theta = ff / (2 * cfg.n_tier + 1)
        feas = ((_height(cfg, bb, theta) <= cs.l_max)
                & (_top_area(cfg, bb, theta) <= cs.a_max)
                & (ff >= cs.fov_min))
        if not feas.any():
            solver_ok &= not res.feasible
            continue
        solver_ok &= res.feasible
        solver_ok &= float(np.max(_rate_raw(cfg, ctx10, bb, ff)[feas])) \
            <= res.rate_star * (1 + 1e-6)

    # inverse boundary round trips to 1e-8 rad
    invert_ok = True
    for _ in range(50):
        cfg = preset(str(rng.choice(["config1", "config4"])))
        fov = float(rng.uniform(math.radians(8), 0.97 * fov_cap(cfg.n_tier)))
        for which, bound in (("height", float(rng.uniform(0.003, 0.04))),
                             ("area", float(rng.uniform(0.3e-4, 8e-4)))):
            b = dimension_boundary(cfg, which, fov, bound)
            invert_ok &= abs(invert_dimension_boundary(cfg, which, b, bound) - fov) <= 1e-8

    # closed-form received power equals FF x encircled power, 1e-12 relative
    power_ok = True
    for _ in range(100):
        cfg = preset(str(rng.choice(["config1", "config3"])),
                     truncation=TRUNC if rng.random() < 0.5 else None)
        b = float(rng.uniform(0.3e9, 15e9))
        fov = float(rng.uniform(math.radians(4), 0.95 * fov_cap(cfg.n_tier)))
        direct = received_power(cfg, b, fov, ctx10.beam, ctx10.link)
        geo = geometry(cfg, b, fov)
        via = cfg.fill_factor * encircled_power(
            ctx10.beam, ctx10.link.distance - ctx10.beam.waist_position,
            geo.entrance_diameter / 2.0)
        power_ok &= abs(direct - via) <= 1e-12 * via

    elapsed = time.perf_counter() - t0
    ok = monotone_ok and grad_ok and solver_ok and invert_ok and power_ok
    assert report(
        "7 property-suite", ok and elapsed < 60.0,
        f"monotone {monotone_ok}, gradients {grad_ok}, solver-optimality {solver_ok}, "
        f"inversion {invert_ok}, power-equivalence {power_ok}, {elapsed:.1f} s",
    )


def test_criterion_08_rmax_plateau(ctx16):
    cfg = preset("config3")
    # fixed 2 cm height budget, growing area budget: constant beyond 2.5 cm^2
    row = []
    for a_cm2 in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
        cs = ConstraintSet(fov_min=math.radians(15), l_max=0.02, a_max=a_cm2 * 1e-4)
        row.append(maximize_rate_constrained(cfg, ctx16, cs).rate_star)
    spread = (max(row) - min(row)) / max(row)
    plateau_ok = spread <= 0.05

    cap30_ok = True
    worst = 0.0
    for l_cm in (2.5, 3.5, 5.0):
        for a_cm2 in (4.0, 6.0, 10.0):
            cs = ConstraintSet(fov_min=FOV30, l_max=l_cm * 1e-2, a_max=a_cm2 * 1e-4)
            r = maximize_rate_constrained(cfg, ctx16, cs).rate_star
            worst = max(worst, r)
            cap30_ok &= r <= 30e9
    ok = plateau_ok and cap30_ok
    assert report(
        "8 rmax-plateau", ok,
        f"plateau spread {100 * spread:.2f} % over A_max >= 2.5 cm^2, "
        f"highest 30-deg rate {worst / 1e9:.2f} Gb/s",
    )


def test_criterion_09_constraint_regimes(ctx16):
    cfgs = {name: preset(name) for name in ("config1", "config2", "config3")}
    ncd = rmax_vs_fovmin(cfgs, ctx16, "NCD", (15.0, 30.0, 45.0))
    scd = rmax_vs_fovmin(cfgs, ctx16, "SCD", (30.0,))

    n1, n2, n3 = (ncd.rate(c, "original", 30.0) for c in ("config1", "config2", "config3"))
    ordering_ok = n1 < n2 < n3
    floor_ok = min(n1, n2, n3) > 15e9

    gaps = []
    for name in cfgs:
        for fov in (15.0, 30.0, 45.0):
            orig = ncd.rate(name, "original", fov)
            trunc = ncd.rate(name, "truncated", fov)
            gaps.append((orig - trunc) / orig)
    gap_ok = all(0 <= g <= 0.10 for g in gaps)

    s1, s2, s3 = (scd.rate(c, "original", 30.0) for c in ("config1", "config2", "config3"))
    st1, st2, st3 = (scd.rate(c, "truncated", 30.0) for c in ("config1", "config2", "config3"))
    reversed_ok = (s1 > s2 > s3) and (st1 > st2 > st3)

    ok = ordering_ok and floor_ok and gap_ok and reversed_ok
    assert report(
        "9 constraint-regimes", ok,
        f"NCD {n1 / 1e9:.2f} < {n2 / 1e9:.2f} < {n3 / 1e9:.2f} Gb/s, "
        f"max truncation gap {100 * max(gaps):.2f} %, "
        f"SCD {s1 / 1e9:.2f} > {s2 / 1e9:.2f} > {s3 / 1e9:.2f} Gb/s",
    )
