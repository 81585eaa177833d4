"""The benchmark's three workloads: seeded inputs, requests and output checks.

Each workload turns a seed into one round of requests. A run repeats that
same round, so every round does identical work and fails identically. The
first round is checked in full against :mod:`refmodel` and against
properties the method must have; later rounds must reproduce the first
round's outputs byte for byte.

* ``design_queries``: one engineer asks the compact-receiver question,
  one in-process ``adrdesign optimize`` at a time, with height and area caps.
* ``constraint_study``: the paper's figure studies, R_max over
  (l_max, a_max) and R_max against FOV_min, saved as CSV and JSON.
* ``grid_export``: (B, FOV) design-space maps written as CSV and JSON, and
  the rate map regenerated from its embedded snapshot.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import adrdesign
from adrdesign import cli

import refmodel as ref

REL = 1e-6  # tolerance of caps, monotonicity and brute-force bounds (solver precision)
MATCH = 1e-9  # tolerance of a value against the reference model at the same point
EDGE = 1e-9  # cells this close to a threshold are ambiguous and not compared

# The paper's dimension-constraint regimes: (l_max [m], a_max [m^2]).
SCENARIOS = {"NCD": (None, None), "MCD": (0.02, 4e-4), "SCD": (0.005, 0.5e-4)}


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


class RequestFailed(Exception):
    """The program refused or crashed on a request."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _digest(*texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text if isinstance(text, bytes) else text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _same(a, b) -> bool:
    """Exact equality of two float arrays, NaN equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def check_bracket(d: ref.Design, caps: ref.Caps, rate: float, where: str) -> None:
    """The rate lies between the brute-force feasible maximum and its upper bound."""
    br = ref.brute_force(d, caps)
    _require(br is not None, f"{where}: brute force finds no feasible design")
    _require(rate >= br.lower * (1 - REL),
             f"{where}: rate {rate:.6g} below brute-force feasible maximum {br.lower:.6g}")
    _require(rate <= br.upper * (1 + REL),
             f"{where}: rate {rate:.6g} above brute-force upper bound {br.upper:.6g}")


def check_grid_files(grid, csv_text: str, json_text: str, where: str) -> None:
    """CSV and JSON of a Grid2D parse back to its axes and values exactly."""
    a0, a1 = grid.axes
    doc = json.loads(json_text)
    _require([tuple(sorted(a.items())) for a in doc["axes"]]
             == [tuple(sorted(vars(a).items())) for a in (a0, a1)],
             f"{where}: JSON axes differ from the requested axes")
    cells = np.array([math.nan if v is None else v for v in doc["values"]], dtype=float)
    _require(_same(cells.reshape(grid.values.shape), grid.values),
             f"{where}: JSON values differ from the grid")
    try:
        body = [np.fromiter((_number(v) for v in _csv_column(csv_text, col)), dtype=float)
                for col in range(3)]
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"{where}: CSV does not parse: {exc}") from None
    _require(all(column.size == grid.values.size for column in body),
             f"{where}: CSV does not have one line per cell")
    b0, b1, values = (column.reshape(grid.values.shape) for column in body)
    _require(_same(values, grid.values), f"{where}: CSV values differ from the grid")
    shape = grid.values.shape
    _require(_same(b0, np.broadcast_to(a0.values()[:, None], shape))
             and _same(b1, np.broadcast_to(a1.values()[None, :], shape)),
             f"{where}: CSV axis columns differ from the axes")


def _number(text: str) -> float:
    """A CSV number. The "np.float64(x)" form of the axis columns is read here
    for its value; grid_export's csv_readback operation fails on it."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_column(text: str, col: int):
    """One column of a CSV body, a line at a time so that no copy of the text is made."""
    start = text.index("\n") + 1
    while start < len(text):
        end = text.index("\n", start)
        yield text[start:end].split(",")[col]
        start = end + 1


@dataclass
class Request:
    """One user request; ``cells`` counts the design cells it answers."""

    kind: str
    cells: int
    args: dict = field(default_factory=dict)


class Workload:
    """A seeded round of requests, how to run one, and how to check it."""

    name = ""

    def __init__(self, seed: int, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.requests = []

    def run(self, req: Request):
        """The timed part of a request; returns what the checks need."""
        raise NotImplementedError

    def digest(self, req: Request, out) -> str:
        """Fingerprint of a request's outputs, compared across rounds."""
        raise NotImplementedError

    def check(self, req: Request, out) -> None:
        """Raise CheckFailed unless the outputs are right."""
        raise NotImplementedError


# ----------------------------------------------------------------------------
# design_queries


# Receiver configurations: the six presets and a tier-0 receiver from an INI file.
DQ_SLOTS = ("config1", "config2", "config3", "config4", "config5", "config6", "tier0")
# (truncated, transmit power [mW], full noise with RIN), all eight combinations;
# with every slot that makes 56 draws a round, enough that the round's cost
# hardly depends on the seed.
DQ_VARIANTS = tuple((truncated, pt_mw, full) for truncated in (False, True)
                    for pt_mw in (10.0, 16.0) for full in (False, True))


class DesignQueries(Workload):
    name = "design_queries"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        rin = 10 ** rng.uniform(-15.5, -14.0)
        tier0_npd = int(rng.choice([4, 16]))
        inis = {}
        for tier0 in (False, True):
            for full in (False, True):
                text = ""
                if tier0:
                    text += f"[adr]\nn_tier = 0\nn_pd = {tier0_npd}\n"
                if full:
                    text += f"[noise]\nmode = full\nrin_per_hz = {rin!r}\n"
                if text:
                    path = os.path.join(outdir, f"tier0_{tier0}_full_{full}.ini")
                    _write(path, text)
                    inis[tier0, full] = path
        self.run_dir = os.path.join(outdir, "optimize")
        for slot in DQ_SLOTS:
            n_tier, n_pd = (0, tier0_npd) if slot == "tier0" else ref.CONFIGS[slot]
            for truncated, pt_mw, full in DQ_VARIANTS:
                d = ref.Design(n_tier, n_pd, truncated, pt_mw * 1e-3, full,
                               rin if full else None)
                cap = ref.fov_cap(n_tier)
                fov_min_deg = math.degrees(rng.uniform(0.15, 0.8) * cap)
                fov_min = fov_min_deg * (math.pi / 180.0)
                # a feasible target design whose dimensions set the caps, so
                # every draw is feasible and the caps bind in most
                f0 = rng.uniform(fov_min, min(cap, fov_min + math.radians(20.0)))
                b0 = _log_uniform(rng, 2e9, 12e9)
                h0, a0 = ref.dimensions(d, b0, f0)
                l_max = float(h0) * math.exp(rng.uniform(0.0, 0.2))
                a_max = float(a0) * math.exp(rng.uniform(0.0, 0.2))
                argv = ["optimize", "--out", self.run_dir,
                        "--fov-min", f"{fov_min_deg!r}deg",
                        "--l-max", f"{l_max!r}m", "--a-max", f"{a_max!r}m2",
                        "--pt-mw", f"{pt_mw!r}"]
                if slot != "tier0":
                    argv += ["--preset", slot]
                if truncated:
                    argv.append("--truncated")
                if (slot == "tier0", full) in inis:
                    argv += ["--config", inis[slot == "tier0", full]]
                self.requests.append(Request("optimize", 1, {
                    "argv": argv, "design": d, "caps": ref.Caps(fov_min, l_max, a_max)}))
        order = rng.permutation(len(self.requests))
        self.requests = [self.requests[i] for i in order]

    def run(self, req):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(req.args["argv"])
        if code != 0:
            raise RequestFailed(f"adrdesign {' '.join(req.args['argv'])} exited "
                                f"{code}: {sink.getvalue().strip()}")
        with open(os.path.join(self.run_dir, "optimize_summary.json"), encoding="utf-8") as fh:
            summary = fh.read()
        with open(os.path.join(self.run_dir, "optimize_boundary_trace.csv"),
                  encoding="utf-8") as fh:
            trace = fh.read()
        return summary, trace

    def digest(self, req, out):
        return _digest(*out)

    def check(self, req, out):
        check_optimum(req.args["design"], req.args["caps"], *out)


def check_optimum(d: ref.Design, caps: ref.Caps, summary_text: str, trace_text: str):
    """A reported optimum is feasible, priced right and no worse than brute force."""
    opt = json.loads(summary_text)["optimum"]
    _require(opt["feasible"], f"feasible constraint set reported infeasible: {opt['diagnostic']}")
    b, rate = opt["b_star_hz"], opt["rate_star_bps"]
    fov = math.radians(opt["fov_star_deg"])
    cap = ref.fov_cap(d.n_tier)
    _require(ref.B_MIN * (1 - REL) <= b <= ref.B_MAX * (1 + REL), f"B* {b:.6g} outside the range")
    _require(fov >= caps.fov_min * (1 - REL), "FOV* below fov_min")
    _require(fov <= cap * (1 + REL), "FOV* above the FOV cap")
    height, area = (float(x) for x in ref.dimensions(d, b, fov))
    _require(height <= caps.l_max * (1 + REL),
             f"height {height:.6g} m over its cap {caps.l_max:.6g} m")
    _require(area <= caps.a_max * (1 + REL),
             f"top area {area:.6g} m^2 over its cap {caps.a_max:.6g} m^2")
    expected = float(ref.rate(d, b, fov))
    _require(abs(rate - expected) <= MATCH * expected,
             f"rate {rate:.10g} differs from the reference {expected:.10g} at (B*, FOV*)")
    tight = {"fov": fov / caps.fov_min, "height": height / caps.l_max,
             "area": area / caps.a_max}
    for name in opt["active_constraints"]:
        _require(abs(tight[name] - 1) <= REL, f"{name} reported active but not tight")
    check_bracket(d, caps, rate, "optimum")
    rows = np.array(list(csv.reader(io.StringIO(trace_text)))[1:], dtype=float)
    _require(len(rows) > 0, "empty boundary trace")
    tb, tf = rows[:, 0], np.radians(rows[:, 1])
    _require(bool(np.all(ref.violation(d, caps, tb, tf) <= REL)), "boundary trace infeasible")
    _require(bool(np.all(tf >= caps.fov_min * (1 - REL))), "boundary trace below fov_min")
    _require(bool(np.allclose(rows[:, 2], ref.rate(d, tb, tf), rtol=MATCH, atol=0)),
             "boundary trace rates differ from the reference")
    _require(rate >= rows[:, 2].max() * (1 - MATCH), "optimum below its own boundary trace")


# ----------------------------------------------------------------------------
# constraint_study


# Configurations of the R_max-versus-FOV_min tables; tier0 (cap 30 deg) makes
# the FOV_min values above 30 deg legitimately infeasible.
CS_TABLE_CONFIGS = {"config1": (1, 4), "config5": (2, 16), "tier0": (0, 4)}
CS_PT_MW = 16.0  # the compact-receiver study drives the VCSEL at the eye-safety cap
# (l_max, a_max) points of the R_max surface: with its infeasible bottom row it
# has as many solved capped cells as each capped table, so the requests of a
# round cost about the same and their median latency is a steady figure.
CS_SURFACE_SHAPE = (5, 4)


class ConstraintStudy(Workload):
    name = "constraint_study"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        self.ctx = adrdesign.load_config(None, {("beam", "pt_mw"): CS_PT_MW}).context()
        pt = CS_PT_MW * 1e-3

        # R_max over (l_max, a_max) for the truncated 2x2 single-tier receiver:
        # the lowest l_max row is below the smallest reachable height, so it is
        # infeasible; the top row and column leave the optimum uncapped.
        d = ref.Design(1, 4, True, pt)
        cap = ref.fov_cap(1)
        fov_min = math.radians(rng.uniform(15.0, 40.0))
        h_corner, a_corner = (float(x) for x in ref.dimensions(d, ref.B_MAX, cap))
        h_top, a_top = (float(x) for x in ref.dimensions(d, 1e9, fov_min))
        l_axis = adrdesign.Axis("l_max", "m", h_corner * rng.uniform(0.5, 0.9),
                                h_top * rng.uniform(1.0, 1.5), CS_SURFACE_SHAPE[0], "log")
        a_axis = adrdesign.Axis("a_max", "m2", a_corner * rng.uniform(1.5, 3.0),
                                a_top * rng.uniform(1.0, 1.5), CS_SURFACE_SHAPE[1], "log")
        cells = [(i, j) for i, lm in enumerate(l_axis.values())
                 for j, am in enumerate(a_axis.values())
                 if ref.feasible(d, ref.Caps(fov_min, float(lm), float(am)))]
        samples = [cells[k] for k in rng.choice(len(cells), 2, replace=False)]
        self.requests.append(Request("surface", l_axis.count * a_axis.count, {
            "cfg": adrdesign.preset("config1", adrdesign.TruncationSpec()),
            "design": d, "fov_min": fov_min, "axes": (l_axis, a_axis),
            "samples": samples}))

        # R_max against FOV_min in the three regimes, original and truncated.
        cfgs = {name: adrdesign.AdrConfig(n_tier=nt, n_pd=npd)
                for name, (nt, npd) in CS_TABLE_CONFIGS.items()}
        fovs = [float(rng.uniform(5.0, 15.0)), float(rng.uniform(15.0, 28.0)),
                float(rng.uniform(32.0, 60.0))]
        n_rows = len(cfgs) * 2 * len(fovs)
        for scenario in SCENARIOS:
            self.requests.append(Request("table", n_rows, {
                "cfgs": cfgs, "scenario": scenario, "fovs": fovs,
                "samples": sorted(int(k) for k in rng.choice(n_rows, 2, replace=False))}))

    def run(self, req):
        a = req.args
        if req.kind == "surface":
            study = adrdesign.rmax_surface(a["cfg"], self.ctx, a["fov_min"], *a["axes"],
                                           config_name="config1")
            base = "rmax_surface"
        else:
            study = adrdesign.rmax_vs_fovmin(a["cfgs"], self.ctx, a["scenario"], a["fovs"],
                                             truncation=adrdesign.TruncationSpec())
            base = f"rmax_vs_fovmin_{a['scenario']}"
        csv_text, json_text = study.to_csv(), study.to_json()
        _write(os.path.join(self.outdir, base + ".csv"), csv_text)
        _write(os.path.join(self.outdir, base + ".json"), json_text)
        return study, csv_text, json_text

    def digest(self, req, out):
        return _digest(out[1], out[2])

    def check(self, req, out):
        if req.kind == "surface":
            check_surface(req.args, *out)
        else:
            check_table(req.args, CS_PT_MW * 1e-3, *out)


def check_surface(args: dict, grid, csv_text: str, json_text: str) -> None:
    """NaN exactly where infeasible, monotone in both caps, sampled cells bracketed."""
    d, fov_min = args["design"], args["fov_min"]
    check_grid_files(grid, csv_text, json_text, "rmax_surface")
    lv, av = (axis.values() for axis in args["axes"])
    v = grid.values
    for i, lm in enumerate(lv):
        for j, am in enumerate(av):
            caps = ref.Caps(fov_min, float(lm), float(am))
            if ref.feasibility_margin(d, caps) < EDGE:
                continue
            _require(ref.feasible(d, caps) == bool(np.isfinite(v[i, j])),
                     f"rmax_surface cell ({i}, {j}): NaN does not match feasibility")
    for axis, (lo, hi) in ((0, (v[:-1, :], v[1:, :])), (1, (v[:, :-1], v[:, 1:]))):
        both = np.isfinite(lo) & np.isfinite(hi)
        _require(bool(np.all(hi[both] >= lo[both] * (1 - REL))),
                 f"rmax_surface falls as the cap on axis {axis} grows")
    for i, j in args["samples"]:
        check_bracket(d, ref.Caps(fov_min, float(lv[i]), float(av[j])), float(v[i, j]),
                      f"rmax_surface cell ({i}, {j})")


def check_table(args: dict, pt: float, table, csv_text: str, json_text: str) -> None:
    """Rows in order, NaN exactly where infeasible, R_max non-increasing in FOV_min."""
    l_max, a_max = SCENARIOS[args["scenario"]]
    expected = [(name, variant, fd) for name in sorted(args["cfgs"])
                for variant in ("original", "truncated") for fd in args["fovs"]]
    rows = table.rows
    _require([(r["config"], r["variant"], r["fov_min_deg"]) for r in rows] == expected,
             "rmax_vs_fovmin rows are not the requested (config, variant, fov_min) grid")
    rates = np.array([r["rate_bps"] for r in rows], dtype=float)
    for k, (name, variant, fd) in enumerate(expected):
        nt, npd = CS_TABLE_CONFIGS[name]
        d = ref.Design(nt, npd, variant == "truncated", pt)
        caps = ref.Caps(math.radians(fd), l_max, a_max)
        where = f"rmax_vs_fovmin {args['scenario']} {name} {variant} {fd:.4g} deg"
        if ref.feasibility_margin(d, caps) >= EDGE:
            _require(ref.feasible(d, caps) == bool(np.isfinite(rates[k])),
                     f"{where}: NaN does not match feasibility")
        if k in args["samples"] and np.isfinite(rates[k]):
            check_bracket(d, caps, float(rates[k]), where)
    per_curve = rates.reshape(-1, len(args["fovs"]))
    order = np.argsort(args["fovs"])
    lo, hi = per_curve[:, order[:-1]], per_curve[:, order[1:]]
    both = np.isfinite(lo) & np.isfinite(hi)
    _require(bool(np.all(hi[both] <= lo[both] * (1 + REL))),
             f"rmax_vs_fovmin {args['scenario']}: R_max rises as FOV_min grows")
    parsed = list(csv.reader(io.StringIO(csv_text)))
    _require(parsed[0] == ["config", "variant", "fov_min_deg", "rate_bps"]
             and [(r[0], r[1], float(r[2])) for r in parsed[1:]] == expected
             and _same([float(r[3]) for r in parsed[1:]], rates),
             f"rmax_vs_fovmin {args['scenario']}: CSV does not parse back to the table")
    doc = json.loads(json_text)
    _require(_same([r["rate_bps"] for r in doc["rows"]], rates),
             f"rmax_vs_fovmin {args['scenario']}: JSON does not parse back to the table")


# ----------------------------------------------------------------------------
# grid_export


GE_MAPS_PER_ROUND = 4
GE_SIZE = (200, 200)  # (B, FOV) cells of every map, the CLI's default sweep size


class GridExport(Workload):
    name = "grid_export"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        rng = self.rng
        names = [str(n) for n in rng.choice(sorted(ref.CONFIGS), GE_MAPS_PER_ROUND)]
        for k, name in enumerate(names):
            truncated = bool(rng.integers(2))
            pt_mw = float(rng.choice([10.0, 16.0]))
            n_tier, n_pd = ref.CONFIGS[name]
            d = ref.Design(n_tier, n_pd, truncated, pt_mw * 1e-3)
            axes = adrdesign.default_axes(
                b_count=GE_SIZE[0], fov_count=GE_SIZE[1],
                b_min=_log_uniform(rng, 0.1e9, 0.5e9), b_max=_log_uniform(rng, 8e9, 20e9),
                fov_min_deg=float(rng.uniform(1.0, 5.0)),
                fov_max_deg=float(rng.uniform(60.0, 90.0)))
            fov_min = math.radians(rng.uniform(10.0, 40.0))
            mid_b, mid_f = _log_uniform(rng, 1e9, 6e9), math.radians(rng.uniform(20.0, 50.0))
            h, a = (float(x) for x in ref.dimensions(d, mid_b, mid_f))
            caps = ref.Caps(fov_min, h * rng.uniform(0.7, 1.3), a * rng.uniform(0.7, 1.3))
            directory = os.path.join(outdir, f"maps{k}")
            os.makedirs(directory, exist_ok=True)
            bv, fv = _axis_values(axes)
            peak = float(np.nanmax(ref.rate(d, bv[:, None], fv[None, :])))
            self.requests.append(Request("maps", GE_SIZE[0] * GE_SIZE[1], {
                "name": name, "design": d, "axes": axes, "caps": caps,
                "r_min": peak * rng.uniform(0.3, 0.9),
                "cfg": adrdesign.preset(name, adrdesign.TruncationSpec() if truncated else None),
                "ctx": adrdesign.load_config(None, {("beam", "pt_mw"): pt_mw}).context(),
                "dir": directory}))

        # One fixed, seed-independent export whose CSV must hold numbers in
        # every field. It fails at every round while Grid2D.to_csv and
        # RegionMask.to_csv write the axis columns as "np.float64(...)".
        self.requests.append(Request("csv_readback", 16, {}))

    def run(self, req):
        if req.kind == "csv_readback":
            return csv_readback()
        a = req.args
        cfg, ctx, axes, caps, name = a["cfg"], a["ctx"], a["axes"], a["caps"], a["name"]
        arts = {q: adrdesign.grid_sweep(cfg, ctx, q, axes, config_name=name)
                for q in ("rate", "height", "area")}
        cs = adrdesign.ConstraintSet(caps.fov_min, caps.l_max, caps.a_max)
        arts["feasible_region"] = adrdesign.feasible_region(cfg, ctx, cs, axes,
                                                            config_name=name)
        arts["design_space"] = adrdesign.design_space(cfg, ctx, a["r_min"], caps.fov_min,
                                                      axes, config_name=name)
        texts = {}
        for key, art in arts.items():
            for ext, text in (("csv", art.to_csv()), ("json", art.to_json())):
                _write(os.path.join(a["dir"], f"{key}.{ext}"), text)
                texts[f"{key}.{ext}"] = text
        regen = adrdesign.regenerate(arts["rate"])
        return arts, texts, regen

    def digest(self, req, out):
        if req.kind == "csv_readback":
            return _digest(*out)
        arts, texts, regen = out
        return _digest(*(texts[k] for k in sorted(texts)), regen.values.tobytes())

    def check(self, req, out):
        if req.kind != "csv_readback":
            check_maps(req.args, *out)


def csv_readback():
    """Export a small rate map and region mask; every non-label CSV field must be a number."""
    ctx = adrdesign.load_config(None).context()
    cfg = adrdesign.preset("config1")
    axes = adrdesign.default_axes(b_count=4, fov_count=4)
    grid_csv = adrdesign.grid_sweep(cfg, ctx, "rate", axes).to_csv()
    mask_csv = adrdesign.feasible_region(cfg, ctx, adrdesign.ConstraintSet(0.5, 0.01, 1e-4),
                                         axes).to_csv()
    for text, numeric_columns in ((grid_csv, 3), (mask_csv, 2)):
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            for value in row[:numeric_columns]:
                try:
                    float(value)
                except ValueError:
                    raise RequestFailed(f"CSV field {value!r} is not a number") from None
    return grid_csv, mask_csv


def _axis_values(axes):
    """The program's axis points, after checking them against the requested spacing.

    B is log-spaced in Hz and FOV linear in degrees; FOV is returned in radians.
    """
    b_axis, f_axis = axes
    bv, fv = b_axis.values(), f_axis.values()
    want_b = np.exp(np.linspace(math.log(b_axis.start), math.log(b_axis.stop), b_axis.count))
    want_f = np.linspace(f_axis.start, f_axis.stop, f_axis.count)
    _require(bool(np.allclose(bv, want_b, rtol=1e-12, atol=0))
             and bool(np.allclose(fv, want_f, rtol=1e-12, atol=0)),
             "axis points differ from the requested spacing")
    return bv, np.radians(fv)


LABELS = ("feasible", "infeasible_fov", "infeasible_height", "infeasible_area", "design_space")


def _check_mask(mask, csv_text, json_text, expected, ambiguous, where):
    """Labels match the reference cap tests and parse back from CSV and JSON."""
    labels = np.asarray(mask.labels)
    names = np.asarray(LABELS, dtype=object)[labels]
    clear = ~ambiguous
    _require(bool(np.all(names[clear] == expected[clear])),
             f"{where}: {int(np.sum(names[clear] != expected[clear]))} labels differ "
             f"from the reference cap tests")
    doc = json.loads(json_text)
    _require(doc["legend"] == list(LABELS) and doc["labels"] == labels.ravel().tolist(),
             f"{where}: JSON labels do not parse back")
    column = list(_csv_column(csv_text, 2))
    _require(column == names.ravel().tolist(), f"{where}: CSV labels do not parse back")


def check_maps(args: dict, arts: dict, texts: dict, regen) -> None:
    """Every cell against the reference, files parse back, labels follow the caps."""
    d, caps, r_min = args["design"], args["caps"], args["r_min"]
    bv, fv = _axis_values(args["axes"])
    b, f = bv[:, None], fv[None, :]
    valid = f <= ref.fov_cap(d.n_tier) * (1 + 1e-12)
    with np.errstate(all="ignore"):
        height, area = ref.dimensions(d, b, f)
        rate = ref.rate(d, b, f)
    for q, want in (("rate", rate), ("height", height), ("area", area)):
        got = arts[q].values
        want = np.where(valid, want, np.nan)
        _require(_same(np.isnan(got), np.isnan(want)), f"{q} map: NaN cells differ")
        fin = ~np.isnan(want)
        _require(bool(np.all(np.abs(got[fin] - want[fin]) <= MATCH * np.abs(want[fin]))),
                 f"{q} map: cells differ from the reference model")
        check_grid_files(arts[q], texts[f"{q}.csv"], texts[f"{q}.json"], f"{q} map")
    _require(regen.to_json() == texts["rate.json"],
             "regenerate does not reproduce the rate map's JSON byte for byte")

    shape = np.broadcast(b, f).shape
    low_fov = np.broadcast_to(f < caps.fov_min, shape)
    expected = np.full(shape, "feasible", dtype=object)
    expected[low_fov | ~np.broadcast_to(valid, shape)] = "infeasible_fov"
    expected[area > caps.a_max] = "infeasible_area"
    expected[height > caps.l_max] = "infeasible_height"
    near = (np.abs(height / caps.l_max - 1) < EDGE) | (np.abs(area / caps.a_max - 1) < EDGE)
    near |= np.broadcast_to(np.abs(f / caps.fov_min - 1) < EDGE, shape)
    region = arts["feasible_region"]
    _check_mask(region, texts["feasible_region.csv"], texts["feasible_region.json"],
                expected, near, "feasible_region")

    expected = np.full(shape, "feasible", dtype=object)
    expected[low_fov] = "infeasible_fov"
    expected[(rate >= r_min) & ~low_fov & valid] = "design_space"
    near = np.broadcast_to(np.abs(f / caps.fov_min - 1) < EDGE, shape) | (
        np.abs(rate / r_min - 1) < EDGE)
    _check_mask(arts["design_space"], texts["design_space.csv"], texts["design_space.json"],
                expected, near, "design_space")

    # the polyline holds, for each B that can meet the caps, the smallest FOV that does
    pb, pf = region.boundary[:, 0], region.boundary[:, 1]
    reach = ref.violation(d, caps, bv, ref.fov_cap(d.n_tier))
    must = set(bv[reach <= -EDGE].tolist())
    may = must | set(bv[np.abs(reach) < EDGE].tolist())
    _require(must <= set(pb.tolist()) <= may,
             "feasible_region boundary covers other bandwidths than the feasible ones")
    slack = ref.violation(d, caps, pb, pf)
    _require(bool(np.all(slack <= REL)) and bool(np.all(pf >= caps.fov_min * (1 - REL))),
             "feasible_region boundary point violates a cap")
    _require(bool(np.all((np.abs(pf / caps.fov_min - 1) <= REL) | (slack >= -REL))),
             "feasible_region boundary point is not on the constraint edge")


WORKLOADS = {cls.name: cls for cls in (DesignQueries, ConstraintStudy, GridExport)}
