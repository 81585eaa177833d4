"""Batch evaluation over (B, FOV) and constraint grids.

Grids carry a full constants snapshot in their metadata so any artifact can
be regenerated bit-identically later. Cells are independent closed-form
evaluations; output order is row-major over (axis0, axis1) regardless of
how the evaluation is scheduled. No plotting here, downstream tools consume
the CSV / JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import adr as adr_mod
from .adr import AdrConfig, PdPhysical
from .beam import PropagatedBeam
from .link import LinkContext, LinkParams, NoiseModel, _rate_raw
from .optics import CAP_SLACK, TruncationSpec
from .optimizer import ConstraintSet, SolverOptions, _unified_grid, maximize_rate_constrained

__all__ = [
    "Axis",
    "Grid2D",
    "RegionMask",
    "FovSweepTable",
    "SCENARIOS",
    "grid_sweep",
    "design_space",
    "feasible_region",
    "rmax_surface",
    "rmax_vs_fovmin",
    "regenerate",
    "contour_points",
]

MASK_LABELS = ("feasible", "infeasible_fov", "infeasible_height", "infeasible_area",
               "design_space")

# Constraint regimes for the truncation comparison study:
# no / moderately / strictly constrained dimensions (l_max [m], a_max [m^2]).
SCENARIOS = {
    "NCD": (None, None),
    "MCD": (0.02, 4e-4),
    "SCD": (0.005, 0.5e-4),
}


@dataclass(frozen=True)
class Axis:
    name: str
    unit: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"axis spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log axes need positive endpoints")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def default_axes(b_count: int = 200, fov_count: int = 200,
                 b_min: float = 0.1e9, b_max: float = 20e9,
                 fov_min_deg: float = 1.0, fov_max_deg: float = 90.0) -> tuple:
    """Standard plotting axes: log-spaced B [Hz], linear FOV [deg]."""
    return (
        Axis("b", "Hz", b_min, b_max, b_count, "log"),
        Axis("fov", "deg", fov_min_deg, fov_max_deg, fov_count, "linear"),
    )


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serialisable: {type(x)}")


def _cells_json(values: np.ndarray) -> list:
    flat = []
    for v in values.ravel().tolist():
        flat.append(None if isinstance(v, float) and math.isnan(v) else v)
    return flat


def _grid_csv(axes: tuple, column: str, cells: list) -> str:
    """One CSV row per (axis0, axis1) cell; axis values are written as floats, like cells[i][j]."""
    a0, a1 = axes
    lines = [f"{a0.name}_{a0.unit},{a1.name}_{a1.unit},{column}"]
    for x, row in zip(a0.values().tolist(), cells):
        for y, cell in zip(a1.values().tolist(), row):
            lines.append(f"{x!r},{y!r},{cell}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Grid2D:
    """Row-major 2-D grid of one evaluated quantity plus its provenance."""

    axes: tuple  # (Axis, Axis); values.shape == (axes[0].count, axes[1].count)
    values: np.ndarray
    metadata: dict

    def __post_init__(self):
        expected = (self.axes[0].count, self.axes[1].count)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes {expected}")

    def to_json(self) -> str:
        doc = {
            "axes": [asdict(a) for a in self.axes],
            "values": _cells_json(self.values),
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)

    def to_csv(self) -> str:
        cells = [[repr(v) for v in row] for row in self.values.tolist()]
        return _grid_csv(self.axes, self.metadata.get("quantity", "value"), cells)


@dataclass(frozen=True)
class RegionMask:
    """Per-cell constraint labels on the same axes as Grid2D."""

    axes: tuple
    labels: np.ndarray  # integer indices into MASK_LABELS
    metadata: dict
    boundary: Optional[np.ndarray] = None  # (n, 2) sampled (b, fov_rad) polyline

    def label_names(self) -> np.ndarray:
        return np.asarray(MASK_LABELS, dtype=object)[self.labels]

    def to_json(self) -> str:
        doc = {
            "axes": [asdict(a) for a in self.axes],
            "labels": self.labels.ravel().tolist(),
            "legend": list(MASK_LABELS),
            "metadata": self.metadata,
        }
        if self.boundary is not None:
            doc["boundary"] = [[float(b), float(f)] for b, f in self.boundary]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)

    def to_csv(self) -> str:
        return _grid_csv(self.axes, "label", self.label_names().tolist())


@dataclass(frozen=True)
class FovSweepTable:
    """R_max versus minimum FOV for several configurations and variants."""

    rows: tuple  # of dicts: config, variant, fov_min_deg, rate_bps
    metadata: dict

    def rate(self, config: str, variant: str, fov_min_deg: float) -> float:
        for r in self.rows:
            if (r["config"] == config and r["variant"] == variant
                    and abs(r["fov_min_deg"] - fov_min_deg) < 1e-9):
                return r["rate_bps"]
        raise KeyError((config, variant, fov_min_deg))

    def to_csv(self) -> str:
        lines = ["config,variant,fov_min_deg,rate_bps"]
        for r in self.rows:
            lines.append(
                f"{r['config']},{r['variant']},{r['fov_min_deg']!r},{r['rate_bps']!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"rows": list(self.rows), "metadata": self.metadata},
                          sort_keys=True, separators=(",", ":"), default=_json_default)


def _cfg_snapshot(cfg: AdrConfig) -> dict:
    snap = {
        "n_tier": cfg.n_tier, "n_pd": cfg.n_pd, "fill_factor": cfg.fill_factor,
        "n_cpc": cfg.n_cpc, "k_pd": cfg.k_pd,
    }
    if cfg.pd_physical is not None:
        snap["pd_physical"] = asdict(cfg.pd_physical)
    if cfg.truncation is not None:
        snap["truncation"] = asdict(cfg.truncation)
    return snap


def _ctx_snapshot(ctx: LinkContext) -> dict:
    return {"beam": asdict(ctx.beam), "link": asdict(ctx.link), "noise": asdict(ctx.noise)}


def _cfg_from_snapshot(snap: dict) -> AdrConfig:
    kwargs = dict(snap)
    if "pd_physical" in kwargs:
        kwargs["pd_physical"] = PdPhysical(**kwargs["pd_physical"])
    if "truncation" in kwargs:
        kwargs["truncation"] = TruncationSpec(**kwargs["truncation"])
    return AdrConfig(**kwargs)


def _ctx_from_snapshot(snap: dict) -> LinkContext:
    return LinkContext(
        beam=PropagatedBeam(**snap["beam"]),
        link=LinkParams(**snap["link"]),
        noise=NoiseModel(**snap["noise"]),
    )


def _metadata(op: str, cfg: AdrConfig, ctx: LinkContext, quantity: str,
              args: dict, config_name: str, timestamp: Optional[str]) -> dict:
    return {
        "operation": op,
        "quantity": quantity,
        "config_name": config_name,
        "timestamp": timestamp,
        "args": args,
        "snapshot": {"adr": _cfg_snapshot(cfg), "context": _ctx_snapshot(ctx)},
    }


def _fov_row(axes: tuple) -> np.ndarray:
    """The FOV axis in radians, shaped to broadcast against B down the rows."""
    return np.radians(axes[1].values())[None, :]


def _grid_arrays(cfg: AdrConfig, ctx: LinkContext, quantity: str,
                 axes: tuple) -> tuple:
    """(values at every cell, FOV within the cap) of rate, height or area on the (B, FOV) grid."""
    b = axes[0].values()[:, None]
    fov = _fov_row(axes)
    theta = fov / (2 * cfg.n_tier + 1)
    with np.errstate(all="ignore"):
        if quantity == "rate":
            vals = _rate_raw(cfg, ctx, b, fov)
        elif quantity == "height":
            vals = adr_mod._height(cfg, b, theta)
        elif quantity == "area":
            vals = adr_mod._top_area(cfg, b, theta)
        else:
            raise ValueError(f"quantity must be rate, height or area, got {quantity!r}")
    return vals, adr_mod.fov_valid(cfg.n_tier, fov)


def grid_sweep(cfg: AdrConfig, ctx: LinkContext, quantity: str, axes: tuple,
               config_name: str = "", timestamp: Optional[str] = None) -> Grid2D:
    """Evaluate rate, height or area on a (B, FOV) grid.

    Cells whose FOV lies above fov_cap(n_tier) (90 deg, and 30 deg per
    acceptance cone) are set to NaN. B axis is in Hz, FOV axis in degrees.
    """
    vals, valid = _grid_arrays(cfg, ctx, quantity, axes)
    vals = np.where(valid, vals, np.nan)
    meta = _metadata("grid_sweep", cfg, ctx, quantity, {}, config_name, timestamp)
    return Grid2D(axes=tuple(axes), values=vals, metadata=meta)


def design_space(cfg: AdrConfig, ctx: LinkContext, r_min: float, fov_min: float,
                 axes: tuple, config_name: str = "",
                 timestamp: Optional[str] = None) -> RegionMask:
    """Cells meeting both a minimum rate and a minimum FOV."""
    rates, valid = _grid_arrays(cfg, ctx, "rate", axes)
    fov_ok = np.broadcast_to(_fov_row(axes) >= fov_min / CAP_SLACK, rates.shape)
    ok = (rates >= r_min) & valid & fov_ok
    labels = np.full(rates.shape, MASK_LABELS.index("feasible"), dtype=np.int8)
    labels[~fov_ok] = MASK_LABELS.index("infeasible_fov")
    labels[ok] = MASK_LABELS.index("design_space")
    meta = _metadata("design_space", cfg, ctx, "design_space",
                     {"r_min": r_min, "fov_min": fov_min}, config_name, timestamp)
    return RegionMask(axes=tuple(axes), labels=labels, metadata=meta)


def feasible_region(cfg: AdrConfig, ctx: LinkContext, cs: ConstraintSet, axes: tuple,
                    config_name: str = "", timestamp: Optional[str] = None) -> RegionMask:
    """Constraint labels per cell plus the sampled boundary polyline.

    Violation precedence when several constraints fail at once:
    height > area > fov.
    """
    height, valid = _grid_arrays(cfg, ctx, "height", axes)
    area, _ = _grid_arrays(cfg, ctx, "area", axes)
    bad_fov = (_fov_row(axes) < cs.fov_min / CAP_SLACK) | ~valid
    labels = np.full(height.shape, MASK_LABELS.index("feasible"), dtype=np.int8)
    labels = np.where(np.broadcast_to(bad_fov, labels.shape),
                      MASK_LABELS.index("infeasible_fov"), labels)
    if cs.a_max is not None:
        labels = np.where(area > cs.a_max, MASK_LABELS.index("infeasible_area"), labels)
    if cs.l_max is not None:
        labels = np.where(height > cs.l_max, MASK_LABELS.index("infeasible_height"), labels)
    bvals = axes[0].values()
    bound = _unified_grid(cfg, cs, bvals)
    polyline = np.column_stack([bvals[np.isfinite(bound)], bound[np.isfinite(bound)]])
    meta = _metadata("feasible_region", cfg, ctx, "feasible_region",
                     {"fov_min": cs.fov_min, "l_max": cs.l_max, "a_max": cs.a_max},
                     config_name, timestamp)
    return RegionMask(axes=tuple(axes), labels=labels, metadata=meta, boundary=polyline)


def rmax_surface(cfg: AdrConfig, ctx: LinkContext, fov_min: float, l_axis: Axis,
                 a_axis: Axis, options: Optional[SolverOptions] = None,
                 config_name: str = "", timestamp: Optional[str] = None) -> Grid2D:
    """Constrained maximum rate per (l_max, a_max) cell."""
    opts = options or SolverOptions(grid_points=400)
    lv, av = l_axis.values(), a_axis.values()
    vals = np.full((l_axis.count, a_axis.count), np.nan)
    for i, lm in enumerate(lv):
        for j, am in enumerate(av):
            res = maximize_rate_constrained(
                cfg, ctx, ConstraintSet(fov_min=fov_min, l_max=float(lm), a_max=float(am)),
                opts)
            vals[i, j] = res.rate_star if res.feasible else np.nan
    meta = _metadata("rmax_surface", cfg, ctx, "rmax",
                     {"fov_min": fov_min, "solver": asdict(opts)}, config_name, timestamp)
    return Grid2D(axes=(l_axis, a_axis), values=vals, metadata=meta)


def rmax_vs_fovmin(cfgs: dict, ctx: LinkContext, scenario: str,
                   fov_min_deg_values, truncation: Optional[TruncationSpec] = None,
                   options: Optional[SolverOptions] = None) -> FovSweepTable:
    """R_max(FOV_min) for original and truncated variants of each config.

    scenario is one of NCD / MCD / SCD (no, moderate, strict dimension
    constraints). Infeasible points are recorded as NaN rates.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(SCENARIOS)}, got {scenario!r}")
    l_max, a_max = SCENARIOS[scenario]
    trunc = truncation or TruncationSpec()
    opts = options or SolverOptions(grid_points=400)
    rows = []
    for name in sorted(cfgs):
        base = cfgs[name]
        for variant, cfg in (("original", replace(base, truncation=None)),
                             ("truncated", replace(base, truncation=trunc))):
            for fd in fov_min_deg_values:
                cs = ConstraintSet(fov_min=math.radians(float(fd)), l_max=l_max, a_max=a_max)
                res = maximize_rate_constrained(cfg, ctx, cs, opts)
                rows.append({
                    "config": name, "variant": variant, "fov_min_deg": float(fd),
                    "rate_bps": res.rate_star if res.feasible else float("nan"),
                })
    meta = {"operation": "rmax_vs_fovmin", "scenario": scenario,
            "l_max": l_max, "a_max": a_max,
            "truncation": asdict(trunc), "context": _ctx_snapshot(ctx)}
    return FovSweepTable(rows=tuple(rows), metadata=meta)


def regenerate(artifact):
    """Re-evaluate a Grid2D / RegionMask from its embedded snapshot.

    The result is bit-identical to the original, including the original
    timestamp, which is provenance data rather than a generation marker.
    """
    meta = artifact.metadata
    cfg = _cfg_from_snapshot(meta["snapshot"]["adr"])
    ctx = _ctx_from_snapshot(meta["snapshot"]["context"])
    op = meta["operation"]
    common = dict(config_name=meta["config_name"], timestamp=meta["timestamp"])
    if op == "grid_sweep":
        return grid_sweep(cfg, ctx, meta["quantity"], artifact.axes, **common)
    if op == "design_space":
        return design_space(cfg, ctx, meta["args"]["r_min"], meta["args"]["fov_min"],
                            artifact.axes, **common)
    if op == "feasible_region":
        cs = ConstraintSet(fov_min=meta["args"]["fov_min"], l_max=meta["args"]["l_max"],
                           a_max=meta["args"]["a_max"])
        return feasible_region(cfg, ctx, cs, artifact.axes, **common)
    if op == "rmax_surface":
        return rmax_surface(cfg, ctx, meta["args"]["fov_min"], artifact.axes[0],
                            artifact.axes[1], SolverOptions(**meta["args"]["solver"]),
                            **common)
    raise ValueError(f"cannot regenerate operation {op!r}")


def contour_points(grid: Grid2D, level: float) -> np.ndarray:
    """Level-set points by linear interpolation on grid edges.

    Returns an (n, 2) array of (axis0_value, axis1_value) crossings found on
    horizontal and vertical cell edges (marching-squares edge tests without
    polygon assembly, which is all the threshold checks need).
    """
    v = grid.values
    x = grid.axes[0].values()
    y = grid.axes[1].values()
    pts = []
    dv = v - level
    # edges along axis1 (same row, adjacent columns)
    sign = dv[:, :-1] * dv[:, 1:]
    ii, jj = np.nonzero((sign < 0) & np.isfinite(sign))
    for i, j in zip(ii, jj):
        t = dv[i, j] / (dv[i, j] - dv[i, j + 1])
        pts.append((x[i], y[j] + t * (y[j + 1] - y[j])))
    # edges along axis0 (same column, adjacent rows)
    sign = dv[:-1, :] * dv[1:, :]
    ii, jj = np.nonzero((sign < 0) & np.isfinite(sign))
    for i, j in zip(ii, jj):
        t = dv[i, j] / (dv[i, j] - dv[i + 1, j])
        pts.append((x[i] + t * (x[i + 1] - x[i]), y[j]))
    exact_i, exact_j = np.nonzero(dv == 0)
    for i, j in zip(exact_i, exact_j):
        pts.append((x[i], y[j]))
    return np.asarray(pts, dtype=float).reshape(-1, 2)
