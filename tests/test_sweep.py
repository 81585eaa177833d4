import copy
import json
import pickle
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from adrdesign import (
    Axis,
    AdrConfig,
    ConstraintSet,
    SolverOptions,
    TruncationSpec,
    contour_points,
    default_axes,
    design_space,
    feasible_region,
    grid_sweep,
    maximize_rate_constrained,
    preset,
    regenerate,
    rmax_surface,
    rmax_vs_fovmin,
)
from adrdesign import adr, cli, optimizer, sweep
from adrdesign.adr import (DEFAULT_K_PD, PRESETS, PdPhysical, acceptance_angle, fov_cap,
                           fov_valid, k_pd_from_physical)
from adrdesign.link import _rate_raw
from adrdesign.sweep import MASK_LABELS, FovSweepTable, Grid2D, RegionMask

FOV30 = math.radians(30.0)


def small_axes(nb=60, nf=60):
    return default_axes(b_count=nb, fov_count=nf)


def test_axis_values():
    lin = Axis("fov", "deg", 1.0, 90.0, 90, "linear")
    assert lin.values()[0] == 1.0 and lin.values()[-1] == 90.0
    log = Axis("b", "Hz", 1e8, 2e10, 100, "log")
    ratios = np.diff(np.log(log.values()))
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ValueError):
        Axis("b", "Hz", 0.0, 1e9, 10, "log")
    with pytest.raises(ValueError):
        Axis("b", "Hz", 1e8, 1e9, 1)


def test_axis_values_are_computed_once_and_read_only():
    # the points are kept per axis, outside vars(), pickles and copies, and no
    # caller can write into them
    for axis in (Axis("b", "Hz", 1e8, 2e10, 100, "log"), Axis("fov", "deg", 1.0, -0.0, 7)):
        want = (np.geomspace if axis.spacing == "log" else np.linspace)(
            axis.start, axis.stop, axis.count)
        points = axis.values()
        assert points is axis.values() and points.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 0.0
        assert vars(axis) == asdict(axis)
        for other in (pickle.loads(pickle.dumps(axis)), copy.deepcopy(axis), replace(axis)):
            assert other == axis and vars(other) == asdict(axis)
            assert other.values().tobytes() == want.tobytes()


@pytest.mark.parametrize("kwargs,field", [
    (dict(start=math.nan), "start"),
    (dict(stop=math.inf), "stop"),
    (dict(start=-math.inf), "start"),
    (dict(stop=math.nan, spacing="log"), "stop"),
    (dict(start=math.inf, spacing="log"), "start"),
    (dict(count=2.5), "count must be an integer"),
    (dict(count=3.0), "count must be an integer"),
    (dict(count=True), "count must be an integer"),
])
def test_axis_rejects_non_finite_ends_and_non_integer_counts(kwargs, field):
    # each was accepted, or rejected only because True < 2, and values()
    # then returned NaN, inf or raised TypeError
    args = dict(name="fov", unit="deg", start=1.0, stop=2.0, count=3, spacing="linear")
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"axis 'fov' {field}"):
        Axis(**args)
    assert Axis("fov", "deg", 1.0, 2.0, np.int64(3)).values().tolist() == [1.0, 1.5, 2.0]


def test_grid_sweep_shapes_and_validity(ctx10):
    axes = small_axes()
    grid = grid_sweep(preset("config6"), ctx10, "rate", axes)
    assert grid.values.shape == (60, 60)
    # three tiers accept the whole 90 deg span: no invalid cells
    assert np.isfinite(grid.values).all()

    from dataclasses import asdict, replace
    cfg0 = replace(preset("config1"), n_tier=0)
    grid0 = grid_sweep(cfg0, ctx10, "rate", axes)
    fov_deg = axes[1].values()
    assert np.isnan(grid0.values[:, fov_deg > 30.0 + 1e-9]).all()
    assert np.isfinite(grid0.values[:, fov_deg <= 30.0]).all()


FOV_MODEL_RECEIVERS = {**{name: preset(name) for name in sorted(PRESETS)},
                       "tier0": AdrConfig(n_tier=0, n_pd=4)}


@pytest.mark.parametrize("name", sorted(FOV_MODEL_RECEIVERS))
def test_scalar_api_grids_and_boundaries_share_one_fov_model(ctx10, name):
    cfg = FOV_MODEL_RECEIVERS[name]
    cap_deg = math.degrees(fov_cap(cfg.n_tier))
    # in degrees, as a grid axis holds them: 0, 1e-9 rad, interior, cap, just past the
    # cap but inside its slack, below 0, NaN
    degs = [0.0, math.degrees(1e-9), cap_deg / 2, cap_deg, cap_deg * (1 + 1e-13), -0.1, math.nan]
    fovs = np.radians(degs)
    valid = fov_valid(cfg.n_tier, fovs)
    assert valid.tolist() == [False, True, True, True, True, False, False]
    for fov, ok in zip(fovs.tolist(), valid):
        if not ok:
            with pytest.raises(ValueError, match="outside"):
                acceptance_angle(fov, cfg.n_tier)
            for which in ("height", "area"):
                with pytest.raises(ValueError, match="outside"):
                    optimizer.dimension_boundary(cfg, which, fov, 0.01)
            continue
        assert acceptance_angle(fov, cfg.n_tier) == adr._theta(cfg.n_tier, fov)
        for which, bound in (("height", 0.01), ("area", 1e-4)):
            raw = float(optimizer._boundary(cfg, which, fov, bound))
            assert raw.hex() == optimizer.dimension_boundary(cfg, which, fov, bound).hex()
            geo = adr.geometry(cfg, raw, fov)  # at that B the dimension meets its bound
            assert (geo.height if which == "height" else geo.top_area) == pytest.approx(
                bound, rel=1e-12)
    # an axis holds neither a negative FOV nor NaN: each other point is one two-cell column
    for deg, ok in zip(degs[:5], valid):
        axes = (Axis("b", "Hz", 1e9, 4e9, 3, "log"), Axis("fov", "deg", deg, deg, 2))
        for quantity in ("rate", "height", "area"):
            values = grid_sweep(cfg, ctx10, quantity, axes).values
            assert np.isnan(values).all() if not ok else np.isfinite(values).all()


GRID_BUILDERS = {
    "grid_sweep_rate": lambda ctx, axes: grid_sweep(preset("config1"), ctx, "rate", axes),
    "grid_sweep_height": lambda ctx, axes: grid_sweep(preset("config1"), ctx, "height", axes),
    "grid_sweep_area": lambda ctx, axes: grid_sweep(preset("config1"), ctx, "area", axes),
    "design_space": lambda ctx, axes: design_space(preset("config1"), ctx, 1e9, FOV30 / 3,
                                                   axes),
    "feasible_region": lambda ctx, axes: feasible_region(
        preset("config1"), ctx, ConstraintSet(FOV30 / 3, 0.02, 4e-4), axes),
}


@pytest.mark.parametrize("builder", sorted(GRID_BUILDERS))
def test_grid_builders_reject_a_fov_axis_below_zero(ctx10, builder):
    # such an axis gave heights and areas at negative FOVs as valid cells, a
    # rate grid raised about the aperture radius, and the masks used those heights
    b_axis = Axis("b", "Hz", 1e9, 4e9, 3, "log")
    for start, stop in ((-20.0, 30.0), (30.0, -1e-9)):
        with pytest.raises(ValueError, match="FOV axis 'fov' goes below 0"):
            GRID_BUILDERS[builder](ctx10, (b_axis, Axis("fov", "deg", start, stop, 6)))
    GRID_BUILDERS[builder](ctx10, (b_axis, Axis("fov", "deg", 0.0, 30.0, 6)))


def test_grid_sweep_rejects_unknown_quantity(ctx10):
    with pytest.raises(ValueError):
        grid_sweep(preset("config1"), ctx10, "mass", small_axes())


def test_height_grid_monotone_along_both_axes(ctx10):
    grid = grid_sweep(preset("config2"), ctx10, "height", small_axes())
    v = grid.values
    assert np.all(np.diff(v, axis=0) < 0)  # growing B shrinks the receiver
    assert np.all(np.diff(v, axis=1) < 0)  # growing FOV does too


def test_rate_contour_thresholds_config2(ctx10):
    # 10 Gb/s reachable out to about 65 deg, 20 Gb/s only to about 28 deg
    grid = grid_sweep(preset("config2"), ctx10, "rate", default_axes())
    pts10 = contour_points(grid, 10e9)
    pts20 = contour_points(grid, 20e9)
    assert abs(pts10[:, 1].max() - 65.0) <= 3.0
    assert abs(pts20[:, 1].max() - 28.0) <= 3.0


def test_contour_points_on_synthetic_plane():
    axes = (Axis("x", "u", 0.0, 1.0, 11, "linear"), Axis("y", "u", 0.0, 1.0, 11, "linear"))
    x = axes[0].values()[:, None]
    y = axes[1].values()[None, :]
    from adrdesign.sweep import Grid2D
    g = Grid2D(axes=axes, values=x + y, metadata={"operation": "synthetic", "quantity": "z"})
    pts = contour_points(g, 1.0)
    assert len(pts) > 0
    assert np.allclose(pts[:, 0] + pts[:, 1], 1.0, atol=1e-12)


def _oracle_contour_points(grid, level):
    # one crossing at a time: axis-1 edges, then axis-0 edges, then exact zeros
    v = grid.values
    x = grid.axes[0].values()
    y = grid.axes[1].values()
    pts = []
    dv = v - level
    sign = dv[:, :-1] * dv[:, 1:]
    ii, jj = np.nonzero((sign < 0) & np.isfinite(sign))
    for i, j in zip(ii, jj):
        t = dv[i, j] / (dv[i, j] - dv[i, j + 1])
        pts.append((x[i], y[j] + t * (y[j + 1] - y[j])))
    sign = dv[:-1, :] * dv[1:, :]
    ii, jj = np.nonzero((sign < 0) & np.isfinite(sign))
    for i, j in zip(ii, jj):
        t = dv[i, j] / (dv[i, j] - dv[i + 1, j])
        pts.append((x[i] + t * (x[i + 1] - x[i]), y[j]))
    exact_i, exact_j = np.nonzero(dv == 0)
    for i, j in zip(exact_i, exact_j):
        pts.append((x[i], y[j]))
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def _assert_same_contour(grid, level):
    # contour_points runs with float warnings as errors; the oracle's sign product
    # makes inf * 0 where an inf cell meets an exact crossing
    pts = contour_points(grid, level)
    with np.errstate(invalid="ignore"):
        oracle = _oracle_contour_points(grid, level)
    assert pts.shape == oracle.shape and pts.dtype == oracle.dtype
    assert pts.tobytes() == oracle.tobytes()
    return pts


def test_contour_points_match_the_per_crossing_loop(ctx10, rng):
    grid = grid_sweep(preset("config2"), ctx10, "rate", default_axes())
    for level in (10e9, 20e9):
        assert len(_assert_same_contour(grid, level)) > 0
    axes = (Axis("x", "u", -1.0, 2.0, 9, "linear"), Axis("y", "u", 1e-3, 1e3, 8, "log"))
    values = rng.standard_normal((9, 8))
    values.flat[rng.choice(72, 24, replace=False)] = [math.nan, math.inf, -math.inf, 0.0] * 6
    synthetic = Grid2D(axes=axes, values=values, metadata={})
    for level in (0.0, 0.5, -1.0):
        _assert_same_contour(synthetic, level)
    assert len(_assert_same_contour(synthetic, 0.0)) >= 6  # the exact zeros at least
    assert _assert_same_contour(grid, 1e15).shape == (0, 2)  # no cell reaches the level


def test_contour_points_beside_an_infinite_cell_raise_no_float_warning():
    # the sign product inf * 0 was NaN here, an error under this suite's
    # filterwarnings = error; the inf cell still crosses nothing
    axes = (Axis("x", "u", 0.0, 1.0, 2, "linear"), Axis("y", "u", 0.0, 1.0, 2, "linear"))
    grid = Grid2D(axes=axes, values=np.array([[math.inf, 1.0], [0.0, 2.0]]), metadata={})
    assert contour_points(grid, 1.0).tolist() == [[1.0, 0.5], [0.0, 1.0]]
    _assert_same_contour(grid, 1.0)


def test_json_rejects_values_it_cannot_encode():
    # a non-numeric object is an error, not written as its str()
    with pytest.raises(TypeError):
        sweep._json({"x": object()})
    assert sweep._json({"b": np.float64(0.5), "a": np.int64(2)}) == '{"a":2,"b":0.5}'


def test_serialisation_round_trip_and_regeneration(ctx10):
    axes = small_axes(40, 40)
    grid = grid_sweep(preset("config2"), ctx10, "rate", axes, config_name="config2")
    again = regenerate(grid)
    assert again.to_json() == grid.to_json()
    assert again.to_csv() == grid.to_csv()
    doc = json.loads(grid.to_json())
    assert doc["metadata"]["operation"] == "grid_sweep"
    assert len(doc["values"]) == 1600
    header = grid.to_csv().splitlines()[0]
    assert header == "b_Hz,fov_deg,rate"


def test_legacy_pd_physical_snapshot_regenerates(ctx10):
    # snapshots written when AdrConfig carried PD constants hold them next to
    # the k_pd they overrode; regenerating composes K_PD from them
    phys = PdPhysical(11.9, 50.0, 1e5)
    grid = grid_sweep(AdrConfig(n_tier=1, n_pd=16, k_pd=k_pd_from_physical(phys)), ctx10,
                      "rate", small_axes(20, 20), config_name="custom")
    assert "pd_physical" not in grid.metadata["snapshot"]["adr"]
    meta = copy.deepcopy(grid.metadata)
    meta["snapshot"]["adr"].update(k_pd=DEFAULT_K_PD, pd_physical=asdict(phys))
    legacy = Grid2D(axes=grid.axes, values=grid.values, metadata=meta)
    assert np.array_equal(regenerate(legacy).values, grid.values, equal_nan=True)


def test_csv_fields_are_numbers(ctx10):
    # every axis and value field of a map, and both axis fields of a mask,
    # parse as floats; NaN cells are written as "nan"
    axes = small_axes(4, 4)
    cfg = replace(preset("config1"), n_tier=0)
    grid_csv = grid_sweep(cfg, ctx10, "rate", axes).to_csv()
    mask_csv = feasible_region(cfg, ctx10, ConstraintSet(0.5, 0.01, 1e-4), axes).to_csv()
    for text, numeric in ((grid_csv, 3), (mask_csv, 2)):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 16
        for row in rows:
            assert len(row) == 3
            for field in row[:numeric]:
                float(field)
    assert "nan" in grid_csv
    first = grid_csv.splitlines()[1].split(",")
    assert first[:2] == [repr(float(axes[0].values()[0])), repr(float(axes[1].values()[0]))]


def test_mask_regeneration_byte_identical(ctx10):
    axes = small_axes(30, 30)
    mask = design_space(preset("config3"), ctx10, 10e9, FOV30, axes)
    assert regenerate(mask).to_json() == mask.to_json()
    region = feasible_region(
        preset("config2"), ctx10, ConstraintSet(FOV30, l_max=0.02, a_max=5e-4), axes
    )
    assert regenerate(region).to_json() == region.to_json()
    assert regenerate(region).to_csv() == region.to_csv()


def test_rmax_surface_regeneration(ctx10):
    l_axis = Axis("l_max", "m", 0.005, 0.02, 3, "linear")
    a_axis = Axis("a_max", "m2", 0.5e-4, 4e-4, 3, "linear")
    surf = rmax_surface(preset("config1"), ctx10, FOV30, l_axis, a_axis,
                        SolverOptions(grid_points=200))
    assert regenerate(surf).to_json() == surf.to_json()
    # a surface written while the solver took b_rel_tol cannot come back bit for bit
    meta = copy.deepcopy(surf.metadata)
    meta["args"]["solver"]["b_rel_tol"] = 1e-6
    with pytest.raises(ValueError, match="solver option b_rel_tol"):
        regenerate(Grid2D(axes=surf.axes, values=surf.values, metadata=meta))
    # enlarging either budget never hurts
    assert np.all(np.diff(surf.values, axis=0) >= -1e-6 * surf.values[:-1, :])
    assert np.all(np.diff(surf.values, axis=1) >= -1e-6 * surf.values[:, :-1])


def test_design_space_reference_comparisons(ctx10, presets):
    axes = default_axes(120, 120)
    counts = {}
    for name in ("config1", "config2", "config3", "config5"):
        mask = design_space(presets[name], ctx10, 10e9, FOV30, axes)
        counts[name] = int((mask.label_names() == "design_space").sum())
    # bigger arrays widen the design space; an extra tier beats a bigger array
    assert counts["config2"] > counts["config1"]
    assert counts["config5"] > counts["config3"]


def test_design_space_zero_rate_floor(ctx10):
    axes = small_axes(25, 25)
    mask = design_space(preset("config2"), ctx10, 0.0, FOV30, axes)
    fov_ok = axes[1].values() >= 30.0 - 1e-9
    names = mask.label_names()
    assert ((names == "design_space") == fov_ok[None, :].repeat(25, axis=0)).all()


def test_design_space_marks_cells_above_the_cap(ctx10):
    # a tier-0 receiver is capped at 30 deg; no receiver exists above it
    cfg = replace(preset("config1"), n_tier=0)
    axes = (Axis("b", "Hz", 1e9, 2e9, 2, "log"), Axis("fov", "deg", 20.0, 80.0, 4))
    names = design_space(cfg, ctx10, 1e9, math.radians(10), axes).label_names()
    assert names.tolist() == [["design_space"] + ["infeasible_fov"] * 3] * 2


@pytest.mark.parametrize("r_min,fov_min,name", [
    (math.nan, FOV30, "r_min"),  # labelled no cell design_space
    (1e9, math.nan, "fov_min"),  # labelled every cell infeasible_fov
    (1e9, -1.0, "fov_min"),
])
def test_design_space_rejects_bad_arguments(ctx10, r_min, fov_min, name):
    with pytest.raises(ValueError, match=name):
        design_space(preset("config1"), ctx10, r_min, fov_min, small_axes(4, 4))


def test_feasible_region_matches_direct_inequalities(ctx10):
    axes = small_axes(40, 40)
    cfg = preset("config2")
    cs = ConstraintSet(FOV30, l_max=0.02, a_max=5e-4)
    mask = feasible_region(cfg, ctx10, cs, axes)
    from adrdesign.adr import _height, _top_area
    b = axes[0].values()[:, None]
    fov = np.radians(axes[1].values())[None, :]
    theta = fov / 3.0
    height = _height(cfg, b, theta)
    area = _top_area(cfg, b, theta)
    names = mask.label_names()
    feasible = (height <= cs.l_max) & (area <= cs.a_max) & (fov >= FOV30 * (1 - 1e-12))
    assert ((names == "feasible") == feasible).all()
    # precedence: wherever the height cap is broken the label says height,
    # even if the area cap is broken too
    assert (names[height > cs.l_max] == "infeasible_height").all()
    assert (names[(height <= cs.l_max) & (area > cs.a_max)] == "infeasible_area").all()


def test_feasible_region_single_dominant_boundary(ctx10):
    # tight height cap, loose area cap: one constraint controls the region
    cfg = preset("config2")
    cs = ConstraintSet(fov_min=math.radians(20), l_max=0.01, a_max=10e-4)
    from adrdesign.optimizer import invert_dimension_boundary, BoundaryOutOfRange

    def inverse_or_none(which, b, bound):
        try:
            return invert_dimension_boundary(cfg, which, b, bound)
        except BoundaryOutOfRange:
            return None

    # plotted range of the single-dominant regime; far beyond 10 GHz the
    # height boundary eventually dips below the fov floor
    region = feasible_region(cfg, ctx10, cs, default_axes(60, 60, b_max=10e9))
    dominators = set()
    for b, fov in region.boundary:
        cands = {"fov": cs.fov_min}
        ih = inverse_or_none("height", float(b), cs.l_max)
        ia = inverse_or_none("area", float(b), cs.a_max)
        if ih is not None:
            cands["height"] = ih
        if ia is not None:
            cands["area"] = ia
        dominators.add(max(cands, key=cands.get))
    assert dominators == {"height"}


def test_feasible_region_three_pairwise_intersections(ctx10):
    # all three constraints take a turn controlling the boundary
    cfg = preset("config2")
    cs = ConstraintSet(fov_min=FOV30, l_max=0.02, a_max=5e-4)
    region = feasible_region(cfg, ctx10, cs, default_axes(400, 60, b_max=8e9))
    from adrdesign.optimizer import invert_dimension_boundary, BoundaryOutOfRange

    sequence = []
    for b, fov in region.boundary:
        cands = {"fov": cs.fov_min}
        try:
            cands["height"] = invert_dimension_boundary(cfg, "height", float(b), cs.l_max)
        except BoundaryOutOfRange:
            pass
        try:
            cands["area"] = invert_dimension_boundary(cfg, "area", float(b), cs.a_max)
        except BoundaryOutOfRange:
            pass
        dom = max(cands, key=cands.get)
        if not sequence or sequence[-1] != dom:
            sequence.append(dom)
    assert set(sequence) == {"fov", "height", "area"}
    assert len(sequence) == 3  # area then height then the fov floor


def test_rmax_vs_fovmin_table_structure(ctx16):
    table = rmax_vs_fovmin(
        {"config1": preset("config1"), "config2": preset("config2")},
        ctx16, "SCD", (30.0, 45.0), options=SolverOptions(grid_points=300),
    )
    assert len(table.rows) == 2 * 2 * 2
    r = table.rate("config1", "truncated", 30.0)
    assert r == pytest.approx(11.386e9, rel=5e-3)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "config,variant,fov_min_deg,rate_bps"
    json.loads(table.to_json())
    with pytest.raises(ValueError):
        rmax_vs_fovmin({"config1": preset("config1")}, ctx16, "XXX", (30.0,))


def test_rmax_surface_equals_looped_solves(ctx16):
    # the batched surface is a loop of one-set solves, cell for cell; the
    # lowest l_max row lies below every reachable height (infeasible) and the
    # top row and column leave the optimum uncapped
    cfg = preset("config1", truncation=TruncationSpec())
    l_axis = Axis("l_max", "m", 1e-4, 0.05, 6, "log")
    a_axis = Axis("a_max", "m2", 0.2e-4, 20e-4, 5, "log")
    opts = SolverOptions(grid_points=400)
    surf = rmax_surface(cfg, ctx16, FOV30, l_axis, a_axis, opts)
    looped = np.array([[maximize_rate_constrained(
        cfg, ctx16, ConstraintSet(FOV30, l_max=float(lm), a_max=float(am)), opts).rate_star
        for am in a_axis.values()] for lm in l_axis.values()])
    assert np.array_equal(np.isnan(surf.values), np.isnan(looped))
    assert np.isnan(surf.values[0]).all() and np.isfinite(surf.values[1:]).all()
    uncapped = maximize_rate_constrained(cfg, ctx16, ConstraintSet(FOV30), opts).rate_star
    assert surf.values[-1, -1] == pytest.approx(uncapped, rel=1e-9)
    ok = np.isfinite(looped)
    assert np.all(np.abs(surf.values[ok] - looped[ok]) <= 1e-12 * looped[ok])


def test_rmax_vs_fovmin_equals_looped_solves(ctx16):
    # every regime, original and truncated; the tier-0 rows above its 30 deg
    # cap are infeasible, and the NCD rows carry no cap at all
    cfgs = {"config1": preset("config1"), "config5": preset("config5"),
            "tier0": AdrConfig(n_tier=0, n_pd=4)}
    fovs = (8.0, 25.0, 31.0, 45.0, 70.0)
    opts = SolverOptions(grid_points=400)
    trunc = TruncationSpec()
    for scenario, (l_max, a_max) in sweep.SCENARIOS.items():
        table = rmax_vs_fovmin(cfgs, ctx16, scenario, fovs, options=opts)
        rows = iter(table.rows)
        for name in sorted(cfgs):
            for variant, cfg in (("original", cfgs[name]),
                                 ("truncated", replace(cfgs[name], truncation=trunc))):
                for fd in fovs:
                    row = next(rows)
                    assert (row["config"], row["variant"], row["fov_min_deg"]) == (
                        name, variant, fd)
                    cs = ConstraintSet(math.radians(fd), l_max=l_max, a_max=a_max)
                    res = maximize_rate_constrained(cfg, ctx16, cs, opts)
                    assert math.isnan(row["rate_bps"]) == (not res.feasible)
                    if res.feasible:
                        assert abs(row["rate_bps"] - res.rate_star) <= 1e-12 * res.rate_star
                    if name == "tier0" and fd > 30.0:
                        assert not res.feasible
        assert next(rows, None) is None


def test_rmax_vs_fovmin_table_is_one_solve(ctx16, monkeypatch):
    # every (config, variant, fov_min) row is one set of a single batched solve,
    # each set carrying its own receiver, in the table's row order
    calls = []
    monkeypatch.setattr(sweep, "_solve", lambda cfg, *args: calls.append((cfg, args[1]))
                        or optimizer._solve(cfg, *args))
    cfgs = {"config1": preset("config1"), "config5": preset("config5"),
            "tier0": AdrConfig(n_tier=0, n_pd=4)}
    table = rmax_vs_fovmin(cfgs, ctx16, "MCD", (10.0, 20.0, 40.0))
    assert len(calls) == 1
    receivers, fov_min = calls[0]
    assert len(receivers) == len(fov_min) == len(table.rows) == 18
    for cfg, fov, row in zip(receivers, fov_min, table.rows):
        name, variant = row["config"], row["variant"]
        assert cfg == replace(cfgs[name], truncation=TruncationSpec() if variant == "truncated"
                              else None)
        assert fov == math.radians(row["fov_min_deg"])


def test_batched_studies_validate_every_constraint_set(ctx16, monkeypatch):
    # each cell is still checked like a ConstraintSet, before any solve
    evaluated = []
    monkeypatch.setattr(optimizer, "_rate_raw",
                        lambda *args: evaluated.append(args) or _rate_raw(*args))
    cfg = preset("config1")
    l_ok, a_ok = Axis("l_max", "m", 0.005, 0.02, 3), Axis("a_max", "m2", 1e-4, 4e-4, 3)
    with pytest.raises(ValueError, match="l_max"):
        rmax_surface(cfg, ctx16, FOV30, Axis("l_max", "m", -0.01, 0.02, 4), a_ok)
    with pytest.raises(ValueError, match="a_max"):
        rmax_surface(cfg, ctx16, FOV30, l_ok, Axis("a_max", "m2", 0.0, 4e-4, 3))
    for fd in (0.0, 95.0):
        with pytest.raises(ValueError, match="fov_min"):
            rmax_vs_fovmin({"config1": cfg, "config2": preset("config2")}, ctx16, "MCD",
                           (30.0, fd))
    assert evaluated == []


def test_mask_labels_inventory():
    assert MASK_LABELS == ("feasible", "infeasible_fov", "infeasible_height",
                          "infeasible_area", "design_space")


# ------------------------------------------------------------ writer oracles
# The per-cell writers that the column writer replaced, copied unchanged. The
# artifacts must stay byte-identical to theirs.

def _oracle_cells_json(values: np.ndarray) -> list:
    flat = []
    for v in values.ravel().tolist():
        flat.append(None if isinstance(v, float) and math.isnan(v) else v)
    return flat


def _oracle_grid_csv(axes: tuple, column: str, cells: list) -> str:
    """One CSV row per (axis0, axis1) cell; axis values are written as floats, like cells[i][j]."""
    a0, a1 = axes
    lines = [f"{a0.name}_{a0.unit},{a1.name}_{a1.unit},{column}"]
    for x, row in zip(a0.values().tolist(), cells):
        for y, cell in zip(a1.values().tolist(), row):
            lines.append(f"{x!r},{y!r},{cell}")
    return "\n".join(lines) + "\n"


def _oracle_grid_to_csv(grid):
    cells = [[repr(v) for v in row] for row in grid.values.tolist()]
    return _oracle_grid_csv(grid.axes, grid.metadata.get("quantity", "value"), cells)


def _oracle_mask_to_csv(mask):
    return _oracle_grid_csv(mask.axes, "label", mask.label_names().tolist())


def _oracle_table_to_csv(table):
    lines = ["config,variant,fov_min_deg,rate_bps"]
    for r in table.rows:
        lines.append(
            f"{r['config']},{r['variant']},{r['fov_min_deg']!r},{r['rate_bps']!r}"
        )
    return "\n".join(lines) + "\n"


def _oracle_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=sweep._json_default)


def _oracle_grid_to_json(grid):
    return _oracle_dumps({"axes": [asdict(a) for a in grid.axes],
                          "values": _oracle_cells_json(grid.values),
                          "metadata": grid.metadata})


def _oracle_mask_to_json(mask):
    doc = {"axes": [asdict(a) for a in mask.axes], "labels": mask.labels.ravel().tolist(),
           "legend": list(MASK_LABELS), "metadata": mask.metadata}
    if mask.boundary is not None:
        doc["boundary"] = [[float(b), float(f)] for b, f in mask.boundary]
    return _oracle_dumps(doc)


SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, -1e22, 1e-5, 1e16,
           123456789.0, 0.1)


def _special_grid(rng, metadata):
    axes = (Axis("x", "u", -1e-5, 1e22, 7, "linear"), Axis("b", "Hz", 5e-324, 1e16, 6, "log"))
    values = rng.standard_normal(42) * 10.0 ** rng.integers(-30, 30, 42)
    values[:len(SPECIAL)] = SPECIAL
    return Grid2D(axes=axes, values=rng.permutation(values).reshape(7, 6), metadata=metadata)


def test_grid_writers_match_per_cell_oracle(ctx10, rng):
    grids = [_special_grid(rng, {"quantity": "rate"}), _special_grid(rng, {})]
    cfg = replace(preset("config1"), n_tier=0)  # NaN above the 30 deg cap
    grids += [grid_sweep(cfg, ctx10, q, small_axes(13, 11)) for q in ("rate", "height")]
    assert any(np.isnan(g.values).any() for g in grids[2:])
    for grid in grids:
        assert grid.to_csv() == _oracle_grid_to_csv(grid)
        assert grid.to_json() == _oracle_grid_to_json(grid)


@pytest.mark.parametrize("order", [("csv", "json"), ("json", "csv"), ("json", "json"),
                                   ("csv", "csv"), ("csv", "json", "csv")], ids="-".join)
def test_grid_writers_share_cell_text_in_any_order(rng, order):
    # the first writer formats the cells and the next one takes that text
    grid = _special_grid(rng, {"quantity": "rate"})
    oracle = {"csv": _oracle_grid_to_csv(grid), "json": _oracle_grid_to_json(grid)}
    for kind in order:
        assert getattr(grid, f"to_{kind}")() == oracle[kind]


def test_grid_values_are_read_only(rng):
    grid = _special_grid(rng, {})
    oracle = _oracle_grid_to_json(grid)
    grid.to_csv()
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid.values.ravel()[:] = 0.0
    assert grid.to_json() == oracle


@pytest.mark.parametrize("order", [("csv", "json"), ("json", "csv")], ids="-".join)
def test_grid_keeps_no_cell_text_after_a_csv_json_pair(rng, order):
    grid = _special_grid(rng, {})
    for kind in order:
        getattr(grid, f"to_{kind}")()
    assert set(vars(grid)) == {"axes", "values", "metadata"}


def test_a_lone_to_json_keeps_no_cell_text(rng):
    # a grid written only as JSON keeps none of the text it formatted
    grid = _special_grid(rng, {})
    assert grid.to_json() == _oracle_grid_to_json(grid)
    assert "_cells" not in vars(grid)


def test_sweep_command_writes_the_oracle_bytes(ctx10, tmp_path):
    assert cli.main(["sweep", "rate", "--preset", "config2", "--nb", "13", "--nfov", "11",
                     "--out", str(tmp_path)]) == 0
    csv_bytes = (tmp_path / "sweep_rate_config2.csv").read_bytes()
    json_bytes = (tmp_path / "sweep_rate_config2.json").read_bytes()
    axes = tuple(Axis(**a) for a in json.loads(json_bytes)["axes"])
    assert [(a.count, a.start, a.stop) for a in axes] == [(13, 1e8, 2e10), (11, 1.0, 90.0)]
    grid = grid_sweep(preset("config2"), ctx10, "rate", axes, config_name="config2")
    assert csv_bytes == _oracle_grid_to_csv(grid).encode()
    assert json_bytes == _oracle_grid_to_json(grid).encode()


def test_mask_writers_match_per_cell_oracle(ctx10, rng):
    axes = (Axis("b", "Hz", 1e8, 2e10, 6, "log"), Axis("fov", "deg", -0.0, 1e-5, 5))
    labels = rng.permutation(np.arange(30) % len(MASK_LABELS)).astype(np.int8).reshape(6, 5)
    boundary = np.column_stack([axes[0].values(), np.linspace(0.1, 1e-5, 6)])
    masks = [RegionMask(axes, labels, {"operation": "x"}, boundary=b)
             for b in (None, boundary, np.empty((0, 2)))]
    masks.append(feasible_region(preset("config2"), ctx10,
                                 ConstraintSet(FOV30, l_max=0.02, a_max=5e-4), small_axes(9, 8)))
    masks.append(design_space(preset("config3"), ctx10, 10e9, FOV30, small_axes(9, 8)))
    assert set(masks[0].label_names().ravel()) == set(MASK_LABELS)
    for mask in masks:
        assert mask.to_csv() == _oracle_mask_to_csv(mask)
        assert mask.to_json() == _oracle_mask_to_json(mask)
    assert '"boundary":[]' in masks[2].to_json()


def test_grid_and_mask_reject_cells_that_do_not_match_the_axes():
    # the writers pair cells with axis points by position; a 2x2 mask on
    # 3x3 axes used to write 4 rows under the wrong (b, fov) points
    axes = (Axis("b", "Hz", 1e9, 2e9, 3, "log"), Axis("fov", "deg", 1.0, 2.0, 3))
    with pytest.raises(ValueError, match=r"labels shape \(2, 2\) != axes \(3, 3\)"):
        RegionMask(axes, np.zeros((2, 2), dtype=np.int8), {})
    with pytest.raises(ValueError, match=r"values shape \(9,\) != axes \(3, 3\)"):
        Grid2D(axes, np.zeros(9), {})


def test_table_csv_matches_per_row_oracle():
    rows = tuple({"config": c, "variant": v, "fov_min_deg": f, "rate_bps": r}
                 for c, v, f, r in (("config1", "original", 30.0, 1.1386e10),
                                    ("config1", "truncated", 45.0, math.nan),
                                    ("config2", "original", 1e-5, math.inf),
                                    ("config2", "truncated", 5e-324, -0.0)))
    for table in (FovSweepTable(rows=rows, metadata={}), FovSweepTable(rows=(), metadata={})):
        assert table.to_csv() == _oracle_table_to_csv(table)
