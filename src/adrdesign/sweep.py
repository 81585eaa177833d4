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
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral
from typing import Optional

import numpy as np

from . import adr as adr_mod
from .adr import AdrConfig, PdPhysical, k_pd_from_physical
from .beam import PropagatedBeam
from .link import LinkContext, LinkParams, NoiseModel, _rate_raw
from .optics import CAP_SLACK, TruncationSpec, require_at_least
from .optimizer import ConstraintSet, SolverOptions, _solve, _unified_grid

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
    __slots__ = ("__dict__", "_points")  # values() keeps its points outside vars() and pickles
    name: str
    unit: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, Integral) or self.count < 2:
            raise ValueError(f"axis {self.name!r} count must be an integer >= 2, "
                             f"got {self.count!r}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"axis spacing must be 'linear' or 'log', got {self.spacing!r}")
        for end in ("start", "stop"):
            label, value = f"axis {self.name!r} {end}", getattr(self, end)
            if self.spacing == "log":
                adr_mod.require_positive(label, value)
            elif not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")

    def __getstate__(self):
        return self.__dict__

    def values(self) -> np.ndarray:
        """The axis points, computed on the first call and kept; the array is read-only."""
        if not hasattr(self, "_points"):
            space = np.geomspace if self.spacing == "log" else np.linspace
            object.__setattr__(self, "_points", space(self.start, self.stop, self.count))
            self._points.flags.writeable = False
        return self._points


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


def _json(doc: dict) -> str:
    """The one JSON encoding of every artifact: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)


def _reprs(values: list) -> list:
    """repr() of every number in a flat list, formatted in C.

    repr of a list joins the reprs of its elements with ", ", which no float
    repr (nan, inf, 1e+22, ...) contains.
    """
    return repr(values)[1:-1].split(", ") if values else []


def _csv(header: str, *columns: list) -> str:
    """CSV text: the header line, then line k joins field k of every column with ",".

    Every column is a list of field strings of the same length.
    """
    return "\n".join([header, *map(",".join, zip(*columns)), ""])


def _grid_csv(axes: tuple, column: str, cells: list) -> str:
    """One CSV row per (axis0, axis1) cell, row-major; cells holds the field strings.

    Each axis value is formatted once, as the repr of a Python float.
    """
    a0, a1 = axes
    xs = np.repeat(np.array(_reprs(a0.values().tolist()), dtype=object), a1.count).tolist()
    ys = _reprs(a1.values().tolist()) * a0.count
    return _csv(f"{a0.name}_{a0.unit},{a1.name}_{a1.unit},{column}", xs, ys, cells)


def _check_shape(field: str, cells: np.ndarray, axes: tuple) -> None:
    """The writers pair cell k with the k-th (axis0, axis1) point, so the shapes must agree."""
    expected = (axes[0].count, axes[1].count)
    if cells.shape != expected:
        raise ValueError(f"{field} shape {cells.shape} != axes {expected}")


@dataclass(frozen=True)
class Grid2D:
    """Row-major 2-D grid of one evaluated quantity plus its provenance.

    values is made read-only, so the cell text below cannot go stale.
    to_csv formats every cell and leaves the joined text on the grid, and
    to_json takes and drops it, so a CSV+JSON pair formats each float once
    and the grid does not keep the text. to_json never leaves text: a grid
    written only as JSON keeps none, and a to_csv after it keeps none either.
    """

    axes: tuple  # (Axis, Axis); values.shape == (axes[0].count, axes[1].count)
    values: np.ndarray
    metadata: dict

    def __post_init__(self):
        _check_shape("values", self.values, self.axes)
        self.values.flags.writeable = False

    def to_json(self) -> str:
        text = self.__dict__.pop("_cells", None)
        if text is None:
            text = repr(self.values.ravel().tolist())[1:-1].replace(", ", ",")  # see _reprs
            object.__setattr__(self, "_json_written", True)  # no later to_csv keeps text for it
        head = _json({"axes": [asdict(a) for a in self.axes], "metadata": self.metadata})
        # "values" sorts last; json.dumps wrote NaN cells (as None) as null, inf as Infinity
        cells = text.replace("nan", "null").replace("inf", "Infinity")
        return f'{head[:-1]},"values":[{cells}]}}'

    def to_csv(self) -> str:
        text = self.__dict__.pop("_cells", None)
        json_written = self.__dict__.pop("_json_written", False)
        cells = _reprs(self.values.ravel().tolist()) if text is None else text.split(",")
        csv = _grid_csv(self.axes, self.metadata.get("quantity", "value"), cells)
        if text is None and not json_written:  # joined after the CSV: no rise in its peak memory
            object.__setattr__(self, "_cells", ",".join(cells))
        return csv


@dataclass(frozen=True)
class RegionMask:
    """Per-cell constraint labels on the same axes as Grid2D."""

    axes: tuple
    labels: np.ndarray  # integer indices into MASK_LABELS
    metadata: dict
    boundary: Optional[np.ndarray] = None  # (n, 2) sampled (b, fov_rad) polyline

    def __post_init__(self):
        _check_shape("labels", self.labels, self.axes)

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
            doc["boundary"] = np.asarray(self.boundary, dtype=float).tolist()
        return _json(doc)

    def to_csv(self) -> str:
        return _grid_csv(self.axes, "label", self.label_names().ravel().tolist())


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
        return _csv("config,variant,fov_min_deg,rate_bps",
                    [str(r["config"]) for r in self.rows],
                    [str(r["variant"]) for r in self.rows],
                    _reprs([r["fov_min_deg"] for r in self.rows]),
                    _reprs([r["rate_bps"] for r in self.rows]))

    def to_json(self) -> str:
        return _json({"rows": list(self.rows), "metadata": self.metadata})


def _ctx_snapshot(ctx: LinkContext) -> dict:
    return {"beam": asdict(ctx.beam), "link": asdict(ctx.link), "noise": asdict(ctx.noise)}


def _cfg_from_snapshot(snap: dict) -> AdrConfig:
    kwargs = dict(snap)
    phys = kwargs.pop("pd_physical", None)  # the only legacy path: PD constants in old snapshots
    if phys is not None:
        kwargs["k_pd"] = k_pd_from_physical(PdPhysical(**phys))
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
        # no "truncation" key without truncation
        "snapshot": {"adr": {k: v for k, v in asdict(cfg).items() if v is not None},
                     "context": _ctx_snapshot(ctx)},
    }


def _fov_row(axes: tuple) -> np.ndarray:
    """The FOV axis in radians, shaped to broadcast against B down the rows; none below 0."""
    fov = axes[1]
    if min(fov.start, fov.stop) < 0:
        raise ValueError(f"FOV axis {fov.name!r} goes below 0: {fov.start} to {fov.stop}")
    return np.radians(fov.values())[None, :]


def _grid_arrays(cfg: AdrConfig, ctx: LinkContext, quantity: str,
                 axes: tuple) -> tuple:
    """(values at every cell, FOV within the cap) of rate, height or area on the (B, FOV) grid."""
    b = axes[0].values()[:, None]
    fov = _fov_row(axes)
    theta = adr_mod._theta(cfg.n_tier, fov)
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
    """Cells meeting both a minimum rate and a minimum FOV.

    Cells below fov_min or above the FOV cap are labelled infeasible_fov.
    fov_min is checked like a ConstraintSet's, and r_min must be finite and >= 0.
    """
    ConstraintSet(fov_min)
    require_at_least("r_min", r_min, 0)
    rates, valid = _grid_arrays(cfg, ctx, "rate", axes)
    fov_ok = np.broadcast_to((_fov_row(axes) >= fov_min / CAP_SLACK) & valid, rates.shape)
    labels = np.full(rates.shape, MASK_LABELS.index("feasible"), dtype=np.int8)
    labels[~fov_ok] = MASK_LABELS.index("infeasible_fov")
    labels[(rates >= r_min) & fov_ok] = MASK_LABELS.index("design_space")
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
    """Constrained maximum rate per (l_max, a_max) cell, all cells in one batched solve."""
    opts = options or SolverOptions(grid_points=400)
    lv, av = l_axis.values(), a_axis.values()
    rates = _solve(cfg, ctx, np.full(lv.size * av.size, fov_min), np.repeat(lv, av.size),
                   np.tile(av, lv.size), opts)[0]
    vals = rates.reshape(lv.size, av.size)
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
    fds = [float(fd) for fd in fov_min_deg_values]
    keys = [(name, variant, cfg, fd) for name in sorted(cfgs)  # a set per row, one solve
            for variant, cfg in (("original", replace(cfgs[name], truncation=None)),
                                 ("truncated", replace(cfgs[name], truncation=trunc)))
            for fd in fds]
    rates = _solve([key[2] for key in keys], ctx, np.radians([key[3] for key in keys]),
                   l_max, a_max, opts)[0]
    rows = [{"config": name, "variant": variant, "fov_min_deg": fd, "rate_bps": float(rate)}
            for (name, variant, _, fd), rate in zip(keys, rates)]
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
        solver = meta["args"]["solver"]
        unknown = ", ".join(sorted(set(solver) - {f.name for f in fields(SolverOptions)}))
        if unknown:  # a removed option: its values cannot come back bit for bit
            raise ValueError(f"cannot regenerate: unknown solver option {unknown}")
        return rmax_surface(cfg, ctx, meta["args"]["fov_min"], artifact.axes[0],
                            artifact.axes[1], SolverOptions(**solver), **common)
    raise ValueError(f"cannot regenerate operation {op!r}")


def contour_points(grid: Grid2D, level: float) -> np.ndarray:
    """Level-set points by linear interpolation on grid edges.

    Returns an (n, 2) array of (axis0_value, axis1_value) crossings found on
    horizontal and vertical cell edges (marching-squares edge tests without
    polygon assembly, which is all the threshold checks need).
    """
    x, y = grid.axes[0].values(), grid.axes[1].values()
    # an edge whose ends lie strictly on both sides crosses; a non-finite cell (NaN) never does
    dv = np.where(np.isfinite(grid.values), grid.values - level, np.nan)
    crossed = lambda a, b: np.nonzero((np.minimum(a, b) < 0) & (np.maximum(a, b) > 0))
    # edges along axis1 (same row, adjacent columns)
    i, j = crossed(dv[:, :-1], dv[:, 1:])
    t = dv[i, j] / (dv[i, j] - dv[i, j + 1])
    along1 = np.column_stack([x[i], y[j] + t * (y[j + 1] - y[j])])
    # edges along axis0 (same column, adjacent rows)
    i, j = crossed(dv[:-1, :], dv[1:, :])
    t = dv[i, j] / (dv[i, j] - dv[i + 1, j])
    along0 = np.column_stack([x[i] + t * (x[i + 1] - x[i]), y[j]])
    i, j = np.nonzero(dv == 0)
    return np.concatenate([along1, along0, np.column_stack([x[i], y[j]])])
