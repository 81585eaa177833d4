import json
import math
import os

import pytest

from adrdesign.cli import main
from adrdesign.config import ConfigError, load_config, parse_quantity


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


def test_custom_adr_section(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text("[adr]\nn_tier = 2\nn_pd = 16\ntruncated = true\n")
    cfg = load_config(str(path)).adr_config()
    assert cfg.n_tier == 2 and cfg.n_pd == 16
    assert cfg.truncation is not None
    assert cfg.truncation.length_ratio == 0.6


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


def test_calibrate_command(tmp_path, capsys):
    rc = main(["calibrate", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "K_PD" in out and "residuals" in out
    doc = json.loads((tmp_path / "calibration_summary.json").read_text())
    assert doc["k_pd_fit"] == pytest.approx(1.746e-6, rel=5e-3)
    assert all(abs(v) <= 0.02 for v in doc["residuals_frozen"].values())


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ADRDESIGN_OUTDIR", str(tmp_path / "envout"))
    rc = main(["design", "--preset", "config1", "--b", "2.1GHz", "--fov", "30"])
    assert rc == 0
    assert (tmp_path / "envout" / "design_summary.json").exists()
