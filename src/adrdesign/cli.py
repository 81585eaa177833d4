"""Command-line interface.

Subcommands: design (evaluate one design point), optimize (constrained rate
maximisation), sweep (grid artifacts), compare-truncation (truncated versus
full-length CPCs under the same constraints) and calibrate (re-fit the two
front-end constants and print residuals).

Values accept unit suffixes (2.1GHz, 30deg, 0.5cm, 0.5cm2, 16mW); bare
numbers mean GHz for bandwidths, degrees for angles and mW for powers.
Artifacts are written to --out, defaulting to $ADRDESIGN_OUTDIR or the
working directory; identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import adr, calibrate as calibrate_mod, sweep as sweep_mod
from .config import ConfigError, load_config, parse_quantity
from .link import NoiseModel, link_budget
from .optimizer import ConstraintSet, SolverOptions, maximize_rate_constrained
from .sweep import default_axes

__all__ = ["main"]


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _add_common(p: argparse.ArgumentParser, preset: bool = True, truncated: bool = True):
    """Flags shared by the subcommands; --preset and --truncated only where they are read."""
    p.add_argument("--config", help="INI config file; omitted means all defaults")
    if preset:
        p.add_argument("--preset", help="ADR preset name (config1 .. config6)")
    p.add_argument("--pt-mw", help="transmit power override, e.g. 16mW or 16")
    if truncated:
        p.add_argument("--truncated", action="store_true",
                       help="use truncated CPCs (adr.truncation_tau / _gamma)")
    p.add_argument("--out", default=None,
                   help="output directory (default $ADRDESIGN_OUTDIR or '.')")


def _load(args, overrides=()) -> tuple:
    overrides = dict(overrides)
    if getattr(args, "preset", None):
        overrides[("adr", "preset")] = args.preset
        overrides[("adr", "n_tier")] = None
        overrides[("adr", "n_pd")] = None
    if args.pt_mw:
        overrides[("beam", "pt_mw")] = parse_quantity(args.pt_mw, "power") * 1e3
    if getattr(args, "truncated", False):
        overrides[("adr", "truncated")] = True
    run = load_config(args.config, overrides)
    outdir = args.out or os.environ.get("ADRDESIGN_OUTDIR") or "."
    return run, outdir


def _constraints(args, run) -> ConstraintSet:
    return ConstraintSet(
        fov_min=parse_quantity(args.fov_min, "angle"),
        l_max=parse_quantity(args.l_max, "length") if args.l_max else None,
        a_max=parse_quantity(args.a_max, "area") if args.a_max else None,
    )


def _cmd_design(args) -> int:
    run, outdir = _load(args)
    cfg = run.adr_config()
    ctx = run.context()
    b = parse_quantity(args.b, "frequency")
    fov = parse_quantity(args.fov, "angle")
    geo = adr.geometry(cfg, b, fov)
    budget = link_budget(cfg, b, fov, ctx)
    doc = {
        "b_hz": b,
        "fov_deg": math.degrees(fov),
        "theta_cpc_deg": math.degrees(geo.theta_cpc),
        "tilt_angles_deg": [math.degrees(t) for t in geo.tilt_angles],
        "pd_side_m": geo.pd_side,
        "exit_diameter_m": geo.exit_diameter,
        "entrance_diameter_m": geo.entrance_diameter,
        "height_m": geo.height,
        "top_area_m2": geo.top_area,
        "element_count": geo.element_count,
        "total_pds": geo.element_count * cfg.n_pd,
        "received_power_w": budget.received_power,
        "noise_psd_a2_per_hz": budget.noise_psd,
        "snr": budget.snr,
        "rate_bps": budget.rate,
        "config": run.effective_dict(),
    }
    print(f"design point: B = {b / 1e9:.4g} GHz, FOV = {math.degrees(fov):.4g} deg")
    print(f"  elements {geo.element_count} ({cfg.n_pd} PDs each, "
          f"{geo.element_count * cfg.n_pd} total)")
    print(f"  theta_cpc {math.degrees(geo.theta_cpc):.3f} deg, "
          f"PD side {geo.pd_side * 1e6:.2f} um")
    print(f"  apertures D2 {geo.exit_diameter * 1e3:.3f} mm -> D1 "
          f"{geo.entrance_diameter * 1e3:.3f} mm")
    print(f"  height {geo.height * 100:.3f} cm, top area {geo.top_area * 1e4:.3f} cm^2")
    print(f"  P_r {budget.received_power * 1e6:.3f} uW, SNR {budget.snr:.2f}, "
          f"rate {budget.rate / 1e9:.3f} Gb/s")
    path = _write(outdir, "design_summary.json", sweep_mod._json(doc))
    print(f"summary written to {path}")
    return 0


def _optimum_doc(res) -> dict:
    return {
        "feasible": res.feasible,
        "b_star_hz": res.b_star,
        "fov_star_deg": math.degrees(res.fov_star) if res.feasible else None,
        "rate_star_bps": res.rate_star,
        "active_constraints": sorted(res.active_constraints),
        "diagnostic": res.diagnostic,
    }


def _print_optimum(label: str, res) -> None:
    if not res.feasible:
        print(f"{label}: infeasible ({res.diagnostic})")
        return
    print(f"{label}: R* = {res.rate_star / 1e9:.3f} Gb/s at B* = "
          f"{res.b_star / 1e9:.3f} GHz, FOV* = {math.degrees(res.fov_star):.2f} deg; "
          f"active: {', '.join(sorted(res.active_constraints)) or 'none'}")


@functools.lru_cache(maxsize=4)
def _b_grid(b_min: float, b_max: float, grid_points: int) -> tuple:
    """The solver's bandwidth grid, read-only, and the repr of each of its values."""
    b = np.geomspace(b_min, b_max, grid_points)
    b.flags.writeable = False
    return b, tuple(sweep_mod._reprs(b.tolist()))


def _trace_csv(trace, opts: SolverOptions) -> str:
    """Boundary trace rows (B [Hz], FOV [rad], rate [b/s]) as CSV, FOV in degrees. A B column
    that is a tail of the solver grid takes its strings; a FOV is formatted once per run."""
    b, fov, rate = trace.T
    grid, grid_text = _b_grid(opts.b_min, opts.b_max, opts.grid_points)
    start = grid.size - b.size  # a longer column meets a shorter slice, never equal to it
    b_col = grid_text[start:] if np.array_equal(b, grid[start:]) else sweep_mod._reprs(b.tolist())
    bits = np.degrees(fov).view(np.uint64)
    # FOV falls with B, so equal bit patterns are adjacent; a sort would page in numpy's kernels
    first = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))
    fov_col = np.repeat(np.array(sweep_mod._reprs(bits[first].view(float).tolist()), dtype=object),
                        np.diff(first, append=bits.size)).tolist()
    return sweep_mod._csv("b_hz,fov_deg,rate_bps", b_col, fov_col, sweep_mod._reprs(rate.tolist()))


def _cmd_optimize(args) -> int:
    run, outdir = _load(args)
    cfg = run.adr_config()
    ctx = run.context()
    cs = _constraints(args, run)
    opts = run.solver_options()
    res = maximize_rate_constrained(cfg, ctx, cs, opts)
    _print_optimum("optimum", res)
    doc = {"optimum": _optimum_doc(res), "constraints": {
        "fov_min_deg": math.degrees(cs.fov_min), "l_max_m": cs.l_max, "a_max_m2": cs.a_max,
    }, "config": run.effective_dict()}
    path = _write(outdir, "optimize_summary.json", sweep_mod._json(doc))
    trace_path = _write(outdir, "optimize_boundary_trace.csv",
                        _trace_csv(res.boundary_trace, opts))
    print(f"summary written to {path}")
    print(f"boundary trace written to {trace_path}")
    return 0


def _cmd_compare_truncation(args) -> int:
    run, outdir = _load(args, {("adr", "truncated"): True})
    ctx = run.context()
    cs = _constraints(args, run)
    truncated = run.adr_config()
    original = replace(truncated, truncation=None)
    trunc = truncated.truncation
    res_o = maximize_rate_constrained(original, ctx, cs, run.solver_options())
    res_t = maximize_rate_constrained(truncated, ctx, cs, run.solver_options())
    _print_optimum("original ", res_o)
    _print_optimum("truncated", res_t)
    delta = None
    if res_o.feasible and res_t.feasible:
        delta = res_t.rate_star - res_o.rate_star
        print(f"delta: {delta / 1e9:+.3f} Gb/s "
              f"({100 * delta / res_o.rate_star:+.2f} % of original)")
    doc = {
        "original": _optimum_doc(res_o),
        "truncated": _optimum_doc(res_t),
        "delta_bps": delta,
        "truncation": {"length_ratio": trunc.length_ratio,
                       "gain_retention": trunc.gain_retention},
        "config": run.effective_dict(),
    }
    path = _write(outdir, "compare_truncation_summary.json", sweep_mod._json(doc))
    print(f"summary written to {path}")
    return 0


def _cmd_sweep(args) -> int:
    run, outdir = _load(args)
    cfg = run.adr_config()
    ctx = run.context()
    axes = default_axes(
        b_count=args.nb, fov_count=args.nfov,
        b_min=parse_quantity(args.b_min, "frequency"),
        b_max=parse_quantity(args.b_max, "frequency"),
        fov_min_deg=math.degrees(parse_quantity(args.fov_lo, "angle")),
        fov_max_deg=math.degrees(parse_quantity(args.fov_hi, "angle")),
    )
    name = run.adr["preset"] if run.adr["n_tier"] is None else "custom"
    grid = sweep_mod.grid_sweep(cfg, ctx, args.quantity, axes, config_name=name)
    finite = grid.values[~np.isnan(grid.values)]
    if finite.size == 0:
        raise ConfigError(
            f"no valid cell: every FOV from --fov-lo {args.fov_lo} to --fov-hi {args.fov_hi} "
            f"is above the {math.degrees(adr.fov_cap(cfg.n_tier)):.4g} deg FOV cap for "
            f"{cfg.n_tier} tier(s)"
        )
    base = f"sweep_{args.quantity}_{name}"
    csv_path = _write(outdir, base + ".csv", grid.to_csv())
    json_path = _write(outdir, base + ".json", grid.to_json())
    print(f"sweep {args.quantity}: {axes[0].count} x {axes[1].count} cells, "
          f"range [{finite.min():.4g}, {finite.max():.4g}]")
    print(f"artifacts written to {csv_path} and {json_path}")
    return 0


def _cmd_calibrate(args) -> int:
    run, outdir = _load(args)
    result = calibrate_mod.run_calibration(run.context())
    print(f"fitted K_PD = {result.k_pd:.6e} s/m "
          f"(shipped default {adr.DEFAULT_K_PD:.6e})")
    print(f"fitted R_L  = {result.load_resistance:.1f} ohm "
          f"(shipped default {NoiseModel().load_resistance:.1f})")
    print("residuals at the fit / at the shipped defaults:")
    for name in result.residuals:
        print(f"  {name:<20s} {100 * result.residuals[name]:+7.3f} %   "
              f"{100 * result.frozen_residuals[name]:+7.3f} %")
    doc = {
        "k_pd_fit": result.k_pd,
        "load_resistance_fit": result.load_resistance,
        "residuals_fit": result.residuals,
        "residuals_frozen": result.frozen_residuals,
    }
    path = _write(outdir, "calibration_summary.json", sweep_mod._json(doc))
    print(f"summary written to {path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parse_args returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="adrdesign",
        description="CPC-based angle-diversity receiver design and rate optimisation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="evaluate geometry and link budget at one point")
    _add_common(p)
    p.add_argument("--b", required=True, help="PD bandwidth, e.g. 2.1GHz")
    p.add_argument("--fov", required=True, help="half-angle FOV, e.g. 30deg")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("optimize", help="maximise the rate under constraints")
    _add_common(p)
    p.add_argument("--fov-min", required=True, help="minimum half-angle FOV, e.g. 30")
    p.add_argument("--l-max", help="height cap, e.g. 0.5cm")
    p.add_argument("--a-max", help="top-area cap, e.g. 0.5cm2")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="grid artifacts over (B, FOV)")
    _add_common(p)
    p.add_argument("quantity", choices=("rate", "height", "area"))
    p.add_argument("--b-min", default="0.1GHz")
    p.add_argument("--b-max", default="20GHz")
    p.add_argument("--fov-lo", default="1deg")
    p.add_argument("--fov-hi", default="90deg")
    p.add_argument("--nb", type=int, default=200)
    p.add_argument("--nfov", type=int, default=200)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare-truncation",
                       help="optimise original and truncated variants, report the delta")
    _add_common(p, truncated=False)
    p.add_argument("--fov-min", required=True)
    p.add_argument("--l-max")
    p.add_argument("--a-max")
    p.set_defaults(func=_cmd_compare_truncation)

    p = sub.add_parser("calibrate", help="re-fit K_PD and R_L, print residuals")
    _add_common(p, preset=False, truncated=False)
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
