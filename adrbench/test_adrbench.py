"""Fast tests of the benchmark: tiny workloads, and checks that reject planted wrong answers.

Run from the root of a checkout:  python3 -m pytest adrbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import adrdesign  # noqa: E402
import refmodel as ref  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small requests."""
    monkeypatch.setattr(W, "DQ_SLOTS", ("config1", "tier0"))
    monkeypatch.setattr(W, "DQ_VARIANTS", ((True, 16.0, False), (False, 10.0, True)))
    monkeypatch.setattr(W, "CS_SURFACE_SHAPE", (3, 2))
    monkeypatch.setattr(W, "CS_TABLE_CONFIGS", {"tier0": (0, 4)})
    monkeypatch.setattr(W, "GE_MAPS_PER_ROUND", 1)
    monkeypatch.setattr(W, "GE_SIZE", (24, 20))


def first_outputs(name, tmp_path, seed=3):
    wl = W.WORKLOADS[name](seed, str(tmp_path / name))
    return wl, [(req, wl.run(req)) for req in wl.requests if req.kind != "csv_readback"]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_runs_checks_and_repeats(name, tiny, tmp_path):
    run = bench.Run(W.WORKLOADS[name](5, str(tmp_path)))
    run.first_round()
    run.timed_round()
    run.timed_round()
    assert run.errors == []
    n = len(run.wl.requests)
    assert run.attempted == 2 * n
    readbacks = sum(req.kind == "csv_readback" for req in run.wl.requests)
    assert run.failed == 2 * readbacks  # the CSV axis-column fault, every round
    assert len(run.latencies) == 2 * (n - readbacks)


def test_same_seed_same_inputs(tiny, tmp_path):
    a = W.DesignQueries(11, str(tmp_path / "a"))
    b = W.DesignQueries(11, str(tmp_path / "b"))
    c = W.DesignQueries(12, str(tmp_path / "c"))
    strip = lambda wl: [[x for x in r.args["argv"] if str(tmp_path) not in x]  # noqa: E731
                        for r in wl.requests]
    assert strip(a) == strip(b) != strip(c)


def test_design_draws_are_feasible(tmp_path):
    wl = W.DesignQueries(7, str(tmp_path))
    assert len(wl.requests) == len(W.DQ_SLOTS) * len(W.DQ_VARIANTS)
    assert all(ref.feasible(r.args["design"], r.args["caps"]) for r in wl.requests)


# --- planted wrong answers --------------------------------------------------


def _plant_summary(summary, **changes):
    doc = json.loads(summary)
    doc["optimum"].update(changes)
    return json.dumps(doc)


def test_design_check_rejects_rate_lowered_one_percent(tiny, tmp_path):
    wl, outs = first_outputs("design_queries", tmp_path)
    req, (summary, trace) = outs[0]
    wl.check(req, (summary, trace))
    rate = json.loads(summary)["optimum"]["rate_star_bps"]
    with pytest.raises(W.CheckFailed):
        wl.check(req, (_plant_summary(summary, rate_star_bps=0.99 * rate), trace))
    with pytest.raises(W.CheckFailed, match="below brute-force"):
        W.check_bracket(req.args["design"], req.args["caps"], 0.99 * rate, "planted")


def test_design_check_rejects_height_one_percent_over_cap(tiny, tmp_path):
    wl, outs = first_outputs("design_queries", tmp_path)
    req, (summary, trace) = outs[0]
    d, caps = req.args["design"], req.args["caps"]
    opt = json.loads(summary)["optimum"]
    fov = math.radians(opt["fov_star_deg"])
    height, _ = ref.dimensions(d, opt["b_star_hz"], fov)
    b = opt["b_star_hz"] * float(height) / (1.01 * caps.l_max)  # height falls as 1/B
    planted = _plant_summary(summary, b_star_hz=b, rate_star_bps=float(ref.rate(d, b, fov)))
    with pytest.raises(W.CheckFailed, match="height"):
        wl.check(req, (planted, trace))


def _replace_grid(grid, values):
    new = adrdesign.Grid2D(axes=grid.axes, values=values, metadata=grid.metadata)
    return new, new.to_csv(), new.to_json()


def test_surface_check_rejects_nan_and_lowered_cells(tiny, tmp_path):
    wl, outs = first_outputs("constraint_study", tmp_path)
    req, out = next((r, o) for r, o in outs if r.kind == "surface")
    wl.check(req, out)
    i, j = req.args["samples"][0]
    for planted, message in ((math.nan, "NaN does not match feasibility"),
                             (0.99 * out[0].values[i, j], "below brute-force")):
        values = out[0].values.copy()
        values[i, j] = planted
        with pytest.raises(W.CheckFailed, match=message):
            wl.check(req, _replace_grid(out[0], values))


def test_table_check_rejects_nan_for_feasible_row(tiny, tmp_path):
    wl, outs = first_outputs("constraint_study", tmp_path)
    req, (table, _, _) = next((r, o) for r, o in outs if r.args.get("scenario") == "SCD")
    rows = [dict(r) for r in table.rows]
    k = next(k for k, r in enumerate(rows) if math.isfinite(r["rate_bps"]))
    rows[k]["rate_bps"] = math.nan
    planted = adrdesign.FovSweepTable(rows=tuple(rows), metadata=table.metadata)
    with pytest.raises(W.CheckFailed, match="NaN does not match feasibility"):
        wl.check(req, (planted, planted.to_csv(), planted.to_json()))


def _digit_of_field(text, line, column):
    """Offset of the first nonzero digit of a CSV field's number."""
    line_start = 0
    for _ in range(line):
        line_start = text.index("\n", line_start) + 1
    fields = text[line_start:text.index("\n", line_start)].split(",")
    start = line_start + sum(len(f) + 1 for f in fields[:column])
    field = fields[column]
    return next(start + k for k in range(field.find("(") + 1, len(field))
                if field[k] in "123456789")


def test_maps_check_rejects_changed_csv_byte_and_regenerated_cell(tiny, tmp_path):
    wl, outs = first_outputs("grid_export", tmp_path)
    req, (arts, texts, regen) = outs[0]
    wl.check(req, (arts, texts, regen))
    for key in ("rate.csv", "height.csv"):
        # an axis field away from the first line and column, and a value field
        for line, column in ((10, 0), (30, 1), (2, 2)):
            text = texts[key]
            pos = _digit_of_field(text, line, column)
            changed = dict(texts)
            changed[key] = text[:pos] + ("2" if text[pos] == "1" else "1") + text[pos + 1:]
            with pytest.raises(W.CheckFailed, match="CSV"):
                wl.check(req, (arts, changed, regen))
    values = regen.values.copy()
    values[3, 4] *= 1.0 + 1e-12
    wrong = adrdesign.Grid2D(axes=regen.axes, values=values, metadata=regen.metadata)
    with pytest.raises(W.CheckFailed, match="regenerate"):
        wl.check(req, (arts, texts, wrong))


def test_maps_check_rejects_wrong_label(tiny, tmp_path):
    wl, outs = first_outputs("grid_export", tmp_path)
    req, (arts, texts, regen) = outs[0]
    mask = arts["feasible_region"]
    labels = mask.labels.copy()
    labels[0, 0] = (labels[0, 0] + 1) % 4
    planted = adrdesign.RegionMask(axes=mask.axes, labels=labels, metadata=mask.metadata,
                                   boundary=mask.boundary)
    changed = dict(texts, **{"feasible_region.csv": planted.to_csv(),
                             "feasible_region.json": planted.to_json()})
    with pytest.raises(W.CheckFailed, match="labels differ"):
        wl.check(req, (dict(arts, feasible_region=planted), changed, regen))


# --- reference model and tracing ---------------------------------------------


def test_reference_brackets_the_compact_design():
    d = ref.Design(1, 4, truncated=True, pt=0.016)
    caps = ref.Caps(math.radians(30.0), 0.005, 0.5e-4)
    assert ref.feasible(d, caps)
    br = ref.brute_force(d, caps)
    assert br.lower <= br.upper < 1.03 * br.lower
    assert 11e9 < br.lower < 12e9
    tight = ref.Caps(caps.fov_min, float(ref.dimensions(d, ref.B_MAX, math.pi / 2)[0]) * 0.99)
    assert not ref.feasible(d, tight) and ref.brute_force(d, tight) is None


def test_trace_counts_repeat_and_wrappers_are_removed(tiny, tmp_path):
    run = bench.Run(W.DesignQueries(4, str(tmp_path)))
    run.first_round()
    from adrdesign import optimizer, sweep
    original = sweep._unified_grid
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr.installed():
            assert sweep._unified_grid is not original
            assert optimizer._unified_grid is sweep._unified_grid
            run.timed_round(before=tr.begin_request)
        counts.append({k: (v["calls"], v["work"]) for k, v in tr.totals.items()})
        m = tracer.layer_metrics(tr.totals, tr.in_solve_points, 1, 1.0, 0.0)
        assert m["cli.main.calls"][0] == len(run.wl.requests)
        assert m["optimizer.boundary_points_per_solve"][0] > 0
        for layer, total in tr.totals.items():
            assert 0 <= total["self_s"] <= total["s"] + 1e-9, layer
    assert sweep._unified_grid is original
    assert counts[0] == counts[1]
    assert run.errors == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "adrbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "adrbench/run.py", "--workload", "grid_export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
