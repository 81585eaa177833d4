import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from adrdesign.cli import _b_grid, _trace_csv, main
from adrdesign.adr import PRESETS, PdPhysical, k_pd_from_physical, pd_side_from_bandwidth
from adrdesign.beam import SourceBeam
from adrdesign.config import ConfigError, load_config, parse_quantity
from adrdesign.link import LinkParams, NoiseModel
from adrdesign.optimizer import SolverOptions


# ------------------------------------------------------------- configuration

def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    run = load_config(str(path))
    assert run.link["distance_m"] == 3.0
    assert run.beam["wavelength_nm"] == 950.0
    assert run.beam["pt_mw"] == 10.0
    assert run.link["snr_gap"] == 2.6
    assert run.adr["preset"] == "config1"
    assert run.noise["load_resistance_ohm"] == 1150.0


def test_preset_key(tmp_path):
    path = tmp_path / "c4.ini"
    path.write_text('[adr]\npreset = "config4"\n')
    run = load_config(str(path))
    cfg = run.adr_config()
    assert cfg.n_tier == 2
    assert cfg.n_pd == 4
    from adrdesign import element_count
    assert element_count(cfg.n_tier) * cfg.n_pd == 76


def test_transmit_power_cap_enforced(tmp_path):
    path = tmp_path / "hot.ini"
    path.write_text("[beam]\npt_mw = 20\n")
    with pytest.raises(ConfigError, match="pt_max"):
        load_config(str(path))
    # the cap is a config check; disabling it lets the value through
    path.write_text("[beam]\npt_mw = 20\npt_max_mw = 25\n")
    assert load_config(str(path)).beam["pt_mw"] == 20.0


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[link]\ndistnace_m = 3\n")
    with pytest.raises(ConfigError, match="distnace_m"):
        load_config(str(path))
    path.write_text("[links]\ndistance_m = 3\n")
    with pytest.raises(ConfigError, match="links"):
        load_config(str(path))
    # keys that did nothing are gone
    path.write_text("[beam]\neye_safety_check = false\n")
    with pytest.raises(ConfigError, match="eye_safety_check"):
        load_config(str(path))
    path.write_text("[link]\nber = 3.8e-3\n")
    with pytest.raises(ConfigError, match="ber"):
        load_config(str(path))
    path.write_text("[adr]\ndepletion_um = 2\n")
    with pytest.raises(ConfigError, match="depletion_um"):
        load_config(str(path))
    # the PD keys alone choose the composed K_PD
    path.write_text("[adr]\nk_pd_mode = composed\n")
    with pytest.raises(ConfigError, match="unknown key adr.k_pd_mode"):
        load_config(str(path))


@pytest.mark.parametrize("section,key,field", [
    ("link", "distance_m", "distance"),
    ("link", "snr_gap", "snr_gap"),
    ("adr", "k_pd_s_per_m", "k_pd"),
    ("adr", "n_cpc", "n_cpc"),
    ("noise", "temperature_k", "temperature"),
    ("beam", "w0_um", "waist_radius"),
])
def test_nan_config_values_rejected(section, key, field):
    # NaN passes every bare `<= 0` / `< 1` check; the rate would come out NaN
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        load_config(None, {(section, key): math.nan})


@pytest.mark.parametrize("ini,key", [
    ("[adr]\nfill_factor = none\n", "adr.fill_factor"),
    ("[beam]\npt_mw = none\n", "beam.pt_mw"),
    ("[adr]\ntruncated = true\ntruncation_tau =\n", "adr.truncation_tau"),
])
def test_none_rejected_for_keys_with_a_value_default(tmp_path, capsys, ini, key):
    # these used to load as None and end in a TypeError from a comparison
    path = tmp_path / "none.ini"
    path.write_text(ini)
    with pytest.raises(ConfigError, match=f"^{key}: expected a number"):
        load_config(str(path))
    rc = main(["design", "--config", str(path), "--b", "2.1GHz", "--fov", "30deg",
               "--out", str(tmp_path)])
    assert rc == 1
    assert key in capsys.readouterr().err
    path.write_text("[noise]\nrin_per_hz = none\n[adr]\nn_tier =\nn_pd = none\n")
    assert load_config(str(path)).adr_config() == load_config(None).adr_config()


@pytest.mark.parametrize("key", ["lens_d_mm", "lens_f_mm"])
def test_overflowing_lens_is_an_error_line(tmp_path, capsys, key):
    # (d - f)^2 overflowed in the lens transform and ended in an OverflowError traceback
    path = tmp_path / "lens.ini"
    path.write_text(f"[beam]\n{key} = 1e300\n")
    rc = main(["design", "--config", str(path), "--b", "2.1GHz", "--fov", "30deg",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: waist-to-lens distance") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "design_summary.json").exists()


@pytest.mark.parametrize("key,value", [
    (("adr", "fill_factor"), None),
    (("beam", "pt_mw"), "12"),
    (("beam", "pt_mw"), True),
    (("solver", "grid_points"), 500.0),
])
def test_override_values_are_type_checked(key, value):
    # these ended in a TypeError, or loaded True as 1 mW and 500.0 as an int key
    with pytest.raises(ConfigError, match=rf"^{key[0]}\.{key[1]}: expected an? \w+, got"):
        load_config(None, {key: value})


def test_override_values_of_the_right_kind_load():
    run = load_config(None, {("beam", "pt_mw"): 12, ("adr", "preset"): "config2",
                             ("adr", "n_tier"): None, ("adr", "n_pd"): None,
                             ("adr", "truncated"): True, ("solver", "grid_points"): np.int64(500)})
    assert run.beam["pt_mw"] == 12.0 and type(run.beam["pt_mw"]) is float
    assert type(run.solver["grid_points"]) is int
    assert run.adr_config().truncation is not None


def test_string_overrides_are_lowercased_like_file_values(tmp_path):
    # a file value was lowercased and the same override was not: noise.mode
    # "FULL" ended in NoiseModel's ValueError, adr.preset "CONFIG2" stayed upper case
    path = tmp_path / "upper.ini"
    path.write_text("[noise]\nmode = FULL\n[adr]\npreset = CONFIG2\n")
    from_file = load_config(str(path))
    run = load_config(None, {("noise", "mode"): "FULL", ("adr", "preset"): "CONFIG2"})
    assert run.noise["mode"] == "full" and run.context().noise.mode == "full"
    assert run.effective_dict()["adr"]["preset"] == "config2"
    assert run.effective_dict() == from_file.effective_dict()


def test_default_config_matches_the_library_defaults():
    # DEFAULTS restates these dataclass defaults; a change to one must reach both
    run = load_config(None)
    ctx = run.context()
    assert ctx.link == LinkParams()
    assert ctx.noise == NoiseModel()
    assert run.solver_options() == SolverOptions()
    assert run.adr_config() == PRESETS["config1"]
    assert ctx.beam.power == SourceBeam(waist_radius=1e-5, wavelength=950e-9).power


def test_custom_adr_section(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text("[adr]\nn_tier = 2\nn_pd = 16\ntruncated = true\n")
    cfg = load_config(str(path)).adr_config()
    assert cfg.n_tier == 2 and cfg.n_pd == 16
    assert cfg.truncation is not None
    assert cfg.truncation.length_ratio == 0.6


@pytest.mark.parametrize("key,field", [("truncation_tau", "length_ratio"),
                                       ("truncation_gamma", "gain_retention")])
def test_truncation_keys_need_truncated(tmp_path, capsys, key, field):
    # without adr.truncated the constants change nothing, so they are rejected
    path = tmp_path / "cut.ini"
    path.write_text(f"[adr]\n{key} = 0.8\n")
    with pytest.raises(ConfigError, match=f"adr.{key} needs adr.truncated"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=f"adr.{key}"):
        load_config(None, {("adr", key): 0.8})
    rc = main(["design", "--config", str(path), "--preset", "config1", "--b", "2.1GHz",
               "--fov", "30deg", "--out", str(tmp_path)])
    assert rc == 1
    assert f"adr.{key}" in capsys.readouterr().err
    assert main(["design", "--config", str(path), "--truncated", "--preset", "config1",
                 "--b", "2.1GHz", "--fov", "30deg", "--out", str(tmp_path)]) == 0
    cut = load_config(str(path), {("adr", "truncated"): True}).adr_config().truncation
    assert getattr(cut, field) == 0.8


PD_KEYS = {"epsilon_r": 11.9, "r_l_ohm": 50.0, "v_s_m_per_s": 1e5}


def test_pd_keys_compose_k_pd(tmp_path, capsys):
    path = tmp_path / "pd.ini"
    path.write_text("[adr]\n" + "".join(f"{k} = {v!r}\n" for k, v in PD_KEYS.items()))
    rc = main(["design", "--config", str(path), "--b", "2.1GHz", "--fov", "30deg",
               "--out", str(tmp_path)])
    assert rc == 0
    k = k_pd_from_physical(PdPhysical(11.9, 50.0, 1e5))
    doc = json.loads((tmp_path / "design_summary.json").read_text())
    assert doc["pd_side_m"] == pd_side_from_bandwidth(2.1e9, k)
    assert doc["config"]["adr"]["k_pd_s_per_m"] == k  # the K_PD the run used
    assert "388.21 um" in capsys.readouterr().out


@pytest.mark.parametrize("missing", sorted(PD_KEYS))
def test_pd_keys_must_come_together(missing):
    overrides = {("adr", k): v for k, v in PD_KEYS.items() if k != missing}
    with pytest.raises(ConfigError, match=f"needs adr.{missing}$"):
        load_config(None, overrides)


def test_keys_that_another_key_overrides_are_rejected(tmp_path):
    path = tmp_path / "both.ini"
    pd_lines = "".join(f"{k} = {v!r}\n" for k, v in PD_KEYS.items())
    path.write_text("[adr]\nk_pd_s_per_m = 1.5e-6\n" + pd_lines)
    with pytest.raises(ConfigError, match="k_pd_s_per_m"):
        load_config(str(path))
    path.write_text("[adr]\n" + pd_lines)
    with pytest.raises(ConfigError, match="k_pd_s_per_m"):
        load_config(str(path), {("adr", "k_pd_s_per_m"): 1.5e-6})
    path.write_text('[adr]\npreset = "config4"\nn_tier = 2\nn_pd = 16\n')
    with pytest.raises(ConfigError, match="preset"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="preset"):
        load_config(None, {("adr", "preset"): "config2", ("adr", "n_tier"): 1,
                           ("adr", "n_pd"): 4})
    # --preset nulls the file's n_tier / n_pd, so the preset decides
    cfg = load_config(str(path), {("adr", "preset"): "config1", ("adr", "n_tier"): None,
                                  ("adr", "n_pd"): None}).adr_config()
    assert (cfg.n_tier, cfg.n_pd) == (1, 4)


def test_rin_needs_the_full_noise_model(tmp_path):
    path = tmp_path / "rin.ini"
    path.write_text("[noise]\nrin_per_hz = 1e-14\n")
    with pytest.raises(ConfigError, match="noise.rin_per_hz"):
        load_config(str(path))
    path.write_text("[noise]\nmode = full\nrin_per_hz = 1e-14\n")
    assert load_config(str(path)).context().noise.rin == 1e-14


def test_solver_section(tmp_path):
    path = tmp_path / "solver.ini"
    path.write_text("[solver]\nb_min_ghz = 0.5\nb_max_ghz = 10\ngrid_points = 500\n")
    opts = load_config(str(path)).solver_options()
    assert opts.b_min == 0.5e9 and opts.b_max == 10e9 and opts.grid_points == 500


@pytest.mark.parametrize("text,kind,expected", [
    ("2.1GHz", "frequency", 2.1e9),
    ("2.1", "frequency", 2.1e9),
    ("500MHz", "frequency", 0.5e9),
    ("30deg", "angle", math.radians(30)),
    ("30", "angle", math.radians(30)),
    ("0.5cm", "length", 0.005),
    ("0.5cm2", "area", 0.5e-4),
    ("16mW", "power", 0.016),
    ("0.4rad", "angle", 0.4),
])
def test_parse_quantity(text, kind, expected):
    assert parse_quantity(text, kind) == pytest.approx(expected, rel=1e-12)


def test_parse_quantity_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_quantity("fast", "frequency")
    with pytest.raises(ConfigError):
        parse_quantity("3kg", "length")
    # the pattern admits these; float() rejects them, and the message names the kind
    for text in ("1.2.3GHz", "1e", ".", "--5deg"):
        with pytest.raises(ConfigError, match=r"cannot parse '.*' as (a frequency|an angle)"):
            parse_quantity(text, "angle" if text.endswith("deg") else "frequency")
    # a number that overflows, as written or once scaled by its unit, is no quantity
    for text, kind in (("1e400GHz", "frequency"), ("1e308GHz", "frequency"),
                       ("1e400", "area"), ("-1e400deg", "angle")):
        with pytest.raises(ConfigError, match=rf"too large for an? {kind}"):
            parse_quantity(text, kind)


# ---------------------------------------------------------------------- CLI

def test_design_command_reference_point(tmp_path, capsys):
    rc = main(["design", "--preset", "config1", "--b", "2.1GHz", "--fov", "30deg",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Gb/s" in out
    doc = json.loads((tmp_path / "design_summary.json").read_text())
    assert doc["rate_bps"] == pytest.approx(14.00e9, rel=0.05)
    assert doc["height_m"] == pytest.approx(1.99e-2, rel=0.02)
    assert doc["top_area_m2"] == pytest.approx(2.12e-4, rel=0.02)
    assert doc["element_count"] == 7 and doc["total_pds"] == 28


def test_design_command_config6_counts(tmp_path):
    rc = main(["design", "--preset", "config6", "--b", "3GHz", "--fov", "45deg",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "design_summary.json").read_text())
    assert doc["element_count"] == 37
    assert doc["total_pds"] == 148


def test_design_command_rejects_out_of_range_fov(tmp_path, capsys):
    rc = main(["design", "--preset", "config1", "--b", "2GHz", "--fov", "120deg",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "90" in err  # names the violated FOV bound

    cfg = tmp_path / "tierless.ini"
    cfg.write_text("[adr]\nn_tier = 0\nn_pd = 4\n")
    rc = main(["design", "--config", str(cfg), "--b", "2GHz", "--fov", "40deg",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "30" in err  # names the acceptance-angle cap


def test_optimize_command_unconstrained_config3(tmp_path, capsys):
    rc = main(["optimize", "--preset", "config3", "--fov-min", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_summary.json").read_text())
    assert doc["optimum"]["feasible"] is True
    assert abs(doc["optimum"]["b_star_hz"] - 3.5e9) <= 0.2e9
    assert doc["optimum"]["active_constraints"] == ["fov"]
    trace = (tmp_path / "optimize_boundary_trace.csv").read_text().splitlines()
    assert trace[0] == "b_hz,fov_deg,rate_bps"
    assert len(trace) > 100


def test_boundary_trace_csv_matches_per_row_formatting():
    # the writer formats from tolist(); its bytes must equal formatting each
    # numpy row with float() and math.degrees, as the trace was first written
    rng = np.random.default_rng(7)
    trace = np.column_stack([
        np.geomspace(0.1e9, 20e9, 300),
        rng.uniform(1e-9, math.pi / 2, 300),
        rng.uniform(0.0, 3e10, 300),
    ])
    for rows in (trace, trace[:0]):
        lines = ["b_hz,fov_deg,rate_bps"]
        for b, fov, rate in rows:
            lines.append(f"{float(b)!r},{math.degrees(fov)!r},{float(rate)!r}")
        assert _trace_csv(rows, SolverOptions()) == "\n".join(lines) + "\n"


def _oracle_trace_csv(trace) -> str:
    """The per-row trace writer that the column writer replaced, copied unchanged."""
    rows = (f"{b!r},{math.degrees(fov)!r},{rate!r}" for b, fov, rate in trace.tolist())
    return "\n".join(["b_hz,fov_deg,rate_bps", *rows]) + "\n"


def test_boundary_trace_csv_matches_per_row_oracle():
    # the degrees column is np.degrees, which must round like math.degrees
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, 1.6, 100_000)
    assert np.degrees(angles).tolist() == [math.degrees(a) for a in angles.tolist()]
    trace = np.column_stack([
        np.geomspace(5e-324, 1e22, 300),
        np.concatenate([[0.0, -0.0, 1e-9, 1e-5, math.pi / 2], rng.uniform(0.0, 1.6, 295)]),
        np.concatenate([[math.nan, math.inf, 0.0, 5e-324, 1e-5],
                        rng.uniform(0.0, 3e10, 295)]),
    ])
    for rows in (trace, trace[:0], np.empty((0, 3))):
        assert _trace_csv(rows, SolverOptions()) == _oracle_trace_csv(rows)
    assert _trace_csv(trace[:0], SolverOptions()) == "b_hz,fov_deg,rate_bps\n"


def test_boundary_trace_csv_takes_grid_strings_only_for_a_grid_tail():
    # a B column that is a tail of the solver grid takes the memoised grid strings;
    # any other column is formatted itself; FOVs repeat, in runs or apart, and -0.0 and
    # NaN keep their text
    opts = SolverOptions(grid_points=300)
    grid = np.geomspace(opts.b_min, opts.b_max, opts.grid_points)
    rng = np.random.default_rng(5)
    fovs = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, 1e-300, math.pi / 6, 0.3])
    nudged = grid[-120:].copy()
    nudged[7] = np.nextafter(nudged[7], 0.0)
    columns = {
        "tail": grid[-120:], "whole grid": grid, "empty": grid[:0],
        "middle": grid[100:220], "nudged": nudged, "longer": np.append(grid[:1] / 2, grid),
        "other grid": np.geomspace(opts.b_min, opts.b_max, 2000)[-120:],
    }
    _b_grid.cache_clear()
    for name, b in columns.items():
        fov = rng.choice(fovs, b.size)
        rows = np.column_stack([b, fov, rng.uniform(0.0, 3e10, b.size)])
        assert _trace_csv(rows, opts) == _oracle_trace_csv(rows), name
    runs = np.column_stack([grid[-120:], np.repeat(fovs, 15), np.ones(120)])
    assert _trace_csv(runs, opts) == _oracle_trace_csv(runs)
    info = _b_grid.cache_info()
    assert (info.misses, info.hits) == (1, len(columns))
    text = _trace_csv(np.column_stack([grid[-8:], fovs, np.ones(8)]), opts).splitlines()[1:]
    assert [line.split(",")[1] for line in text] == [
        "0.0", "-0.0", "nan", "nan", "inf", repr(math.degrees(1e-300)), "29.999999999999996",
        repr(math.degrees(0.3))]


def test_optimize_command_flags_do_not_leak_between_calls(tmp_path):
    # main() reuses one parser; a flag given to one call must not reach the next
    base = ["optimize", "--preset", "config1", "--fov-min", "30", "--l-max", "0.5cm"]
    summaries = []
    for k, extra in enumerate(([], ["--truncated"], [])):
        assert main(base + extra + ["--out", str(tmp_path / str(k))]) == 0
        summaries.append((tmp_path / str(k) / "optimize_summary.json").read_bytes())
    assert summaries[2] == summaries[0]
    assert summaries[1] != summaries[0]
    assert json.loads(summaries[1])["config"]["adr"]["truncated"] is True


def test_optimize_command_compact_headline(tmp_path):
    # strict 0.5 cm / 0.5 cm^2 box, truncated CPCs, VCSEL at the 16 mW cap
    rc = main(["optimize", "--preset", "config1", "--truncated", "--fov-min", "30",
               "--l-max", "0.5cm", "--a-max", "0.5cm2", "--pt-mw", "16",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_summary.json").read_text())
    assert doc["optimum"]["rate_star_bps"] == pytest.approx(12e9, rel=0.08)
    assert set(doc["optimum"]["active_constraints"]) == {"area", "height"}


def test_optimize_command_infeasible_still_exits_zero(tmp_path, capsys):
    rc = main(["optimize", "--preset", "config1", "--fov-min", "30",
               "--l-max", "0.001cm", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_summary.json").read_text())
    assert doc["optimum"]["feasible"] is False
    assert "height" in doc["optimum"]["diagnostic"]
    assert "infeasible" in capsys.readouterr().out


def test_compare_truncation_reads_the_truncation_keys(tmp_path):
    path = tmp_path / "cut.ini"
    path.write_text("[adr]\ntruncation_tau = 0.5\ntruncation_gamma = 0.8\n")
    args = ["compare-truncation", "--preset", "config1", "--fov-min", "30",
            "--l-max", "0.5cm", "--a-max", "0.5cm2", "--pt-mw", "16"]
    assert main(args + ["--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "compare_truncation_summary.json").read_text())
    assert doc["truncation"] == {"length_ratio": 0.5, "gain_retention": 0.8}
    assert doc["config"]["adr"]["truncated"] is True
    # the original variant does not depend on the truncation constants
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    default = json.loads((tmp_path / "default" / "compare_truncation_summary.json").read_text())
    assert default["original"] == doc["original"]
    assert default["truncated"] != doc["truncated"]


@pytest.mark.parametrize("argv", [
    ["calibrate", "--preset", "config2"],  # calibrate fits the anchors' own presets
    ["calibrate", "--truncated"],
    ["compare-truncation", "--truncated", "--fov-min", "30"],  # always truncates
])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_compare_truncation_command(tmp_path, capsys):
    rc = main(["compare-truncation", "--preset", "config1", "--fov-min", "30",
               "--l-max", "0.5cm", "--a-max", "0.5cm2", "--pt-mw", "16",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "compare_truncation_summary.json").read_text())
    assert doc["truncated"]["rate_star_bps"] > doc["original"]["rate_star_bps"]
    assert doc["delta_bps"] == pytest.approx(
        doc["truncated"]["rate_star_bps"] - doc["original"]["rate_star_bps"], rel=1e-12
    )
    assert "delta" in capsys.readouterr().out


def test_sweep_command_artifacts_deterministic(tmp_path):
    args = ["sweep", "rate", "--preset", "config2", "--nb", "40", "--nfov", "40",
            "--out", str(tmp_path)]
    assert main(args) == 0
    csv_path = tmp_path / "sweep_rate_config2.csv"
    json_path = tmp_path / "sweep_rate_config2.json"
    first_csv = csv_path.read_bytes()
    first_json = json_path.read_bytes()
    assert main(args) == 0
    assert csv_path.read_bytes() == first_csv
    assert json_path.read_bytes() == first_json
    header = first_csv.decode().splitlines()[0]
    assert header == "b_Hz,fov_deg,rate"
    json.loads(first_json)


def test_sweep_command_without_valid_cells_writes_nothing(tmp_path, capsys):
    rc = main(["sweep", "rate", "--preset", "config1", "--fov-lo", "95deg",
               "--fov-hi", "100deg", "--nb", "4", "--nfov", "4", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--fov-lo" in err and "--fov-hi" in err and "90 deg FOV cap" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_command_with_a_negative_fov_axis_writes_nothing(tmp_path, capsys):
    rc = main(["sweep", "rate", "--fov-lo=-5deg", "--nb", "4", "--nfov", "4",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "FOV axis 'fov' goes below 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_command(tmp_path, capsys):
    rc = main(["calibrate", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "K_PD" in out and "residuals" in out
    doc = json.loads((tmp_path / "calibration_summary.json").read_text())
    assert doc["k_pd_fit"] == pytest.approx(1.746e-6, rel=5e-3)
    assert all(abs(v) <= 0.02 for v in doc["residuals_frozen"].values())


def test_calibrate_prints_the_load_it_compares_against(tmp_path, capsys):
    # residuals_frozen are taken at the shipped R_L, whatever the config sets
    path = tmp_path / "rl.ini"
    path.write_text("[noise]\nload_resistance_ohm = 900\n")
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "(shipped default 1150.0)" in capsys.readouterr().out


def _readme_commands() -> list:
    """The `adrdesign` lines of README's "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("adrdesign ")]


def test_readme_commands_run(tmp_path):
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {
        "design", "optimize", "compare-truncation", "sweep", "calibrate"}
    for k, argv in enumerate(commands):
        assert main(argv[1:] + ["--out", str(tmp_path / str(k))]) == 0, argv


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ADRDESIGN_OUTDIR", str(tmp_path / "envout"))
    rc = main(["design", "--preset", "config1", "--b", "2.1GHz", "--fov", "30"])
    assert rc == 0
    assert (tmp_path / "envout" / "design_summary.json").exists()
