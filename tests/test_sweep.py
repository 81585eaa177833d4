import json
import math
from dataclasses import replace

import numpy as np
import pytest

from adrdesign import (
    Axis,
    ConstraintSet,
    SolverOptions,
    contour_points,
    default_axes,
    design_space,
    feasible_region,
    grid_sweep,
    preset,
    regenerate,
    rmax_surface,
    rmax_vs_fovmin,
)
from adrdesign.sweep import MASK_LABELS

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


def test_grid_sweep_shapes_and_validity(ctx10):
    axes = small_axes()
    grid = grid_sweep(preset("config6"), ctx10, "rate", axes)
    assert grid.values.shape == (60, 60)
    # three tiers accept the whole 90 deg span: no invalid cells
    assert np.isfinite(grid.values).all()

    from dataclasses import replace
    cfg0 = replace(preset("config1"), n_tier=0)
    grid0 = grid_sweep(cfg0, ctx10, "rate", axes)
    fov_deg = axes[1].values()
    assert np.isnan(grid0.values[:, fov_deg > 30.0 + 1e-9]).all()
    assert np.isfinite(grid0.values[:, fov_deg <= 30.0]).all()


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


def test_mask_labels_inventory():
    assert MASK_LABELS == ("feasible", "infeasible_fov", "infeasible_height",
                          "infeasible_area", "design_space")
