"""Run configuration: file parsing, validation, defaults and unit handling.

Config files are flat INI documents with sections beam / link / noise /
adr / solver. Every key has a default mirroring the standard simulation
parameter table, so an empty file (or no file) is a valid configuration.
Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace
from typing import Optional

from .adr import DEFAULT_K_PD, AdrConfig, PdPhysical, preset
from .beam import LensSpec, SourceBeam, transform_through_lens
from .link import LinkContext, LinkParams, NoiseModel
from .optics import TruncationSpec
from .optimizer import SolverOptions

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_quantity"]


class ConfigError(ValueError):
    """Invalid configuration file or flag value; the message names the key."""


DEFAULTS = {
    "beam": {
        "w0_um": 10.0,
        "wavelength_nm": 950.0,
        "medium_index": 1.0,
        "pt_mw": 10.0,
        "pt_max_mw": 16.0,
        "lens_f_mm": 33.0,
        "lens_d_mm": 0.0,
    },
    "link": {
        "distance_m": 3.0,
        "responsivity": 0.6,
        "snr_gap": 2.6,
    },
    "noise": {
        "temperature_k": 300.0,
        "load_resistance_ohm": 1150.0,
        "noise_figure_db": 5.0,
        "mode": "thermal_only",
        "rin_per_hz": None,
    },
    "adr": {
        "preset": "config1",
        "n_tier": None,
        "n_pd": None,
        "fill_factor": 0.7,
        "n_cpc": 1.7,
        "k_pd_s_per_m": DEFAULT_K_PD,
        "k_pd_mode": "direct",
        "epsilon_r": None,
        "v_s_m_per_s": None,
        "r_l_ohm": None,
        "depletion_um": None,
        "truncated": False,
        "truncation_tau": 0.6,
        "truncation_gamma": 0.9,
    },
    "solver": {
        "b_min_ghz": 0.1,
        "b_max_ghz": 20.0,
        "grid_points": 2000,
        "b_rel_tol": 1e-6,
    },
}

_STRING_KEYS = {("noise", "mode"), ("adr", "preset"), ("adr", "k_pd_mode")}
_BOOL_KEYS = {("adr", "truncated")}
_INT_KEYS = {("adr", "n_tier"), ("adr", "n_pd"), ("solver", "grid_points")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; see DEFAULTS for the key inventory."""

    beam: dict
    link: dict
    noise: dict
    adr: dict
    solver: dict
    source_path: Optional[str] = None

    def source_beam(self) -> SourceBeam:
        return SourceBeam(
            waist_radius=self.beam["w0_um"] * 1e-6,
            wavelength=self.beam["wavelength_nm"] * 1e-9,
            medium_index=self.beam["medium_index"],
            power=self.beam["pt_mw"] * 1e-3,
        )

    def lens(self) -> LensSpec:
        return LensSpec(
            focal_length=self.beam["lens_f_mm"] * 1e-3,
            waist_to_lens_distance=self.beam["lens_d_mm"] * 1e-3,
        )

    def link_params(self) -> LinkParams:
        return LinkParams(
            distance=self.link["distance_m"],
            responsivity=self.link["responsivity"],
            snr_gap=self.link["snr_gap"],
            transmit_power_cap=self.beam["pt_max_mw"] * 1e-3,
        )

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            temperature=self.noise["temperature_k"],
            load_resistance=self.noise["load_resistance_ohm"],
            noise_figure=10 ** (self.noise["noise_figure_db"] / 10.0),
            mode=self.noise["mode"],
            rin=self.noise["rin_per_hz"],
        )

    def context(self) -> LinkContext:
        return LinkContext(
            beam=transform_through_lens(self.source_beam(), self.lens()),
            link=self.link_params(),
            noise=self.noise_model(),
        )

    def adr_config(self) -> AdrConfig:
        a = self.adr
        trunc = (TruncationSpec(a["truncation_tau"], a["truncation_gamma"])
                 if a["truncated"] else None)
        pd_phys = None
        if a["k_pd_mode"] == "composed":
            missing = [k for k in ("epsilon_r", "v_s_m_per_s", "r_l_ohm") if a[k] is None]
            if missing:
                raise ConfigError(
                    f"adr.k_pd_mode=composed needs adr.{', adr.'.join(missing)}"
                )
            pd_phys = PdPhysical(
                relative_permittivity=a["epsilon_r"],
                load_resistance=a["r_l_ohm"],
                saturation_velocity=a["v_s_m_per_s"],
                depletion_thickness=(a["depletion_um"] * 1e-6
                                     if a["depletion_um"] is not None else None),
            )
        if a["n_tier"] is not None or a["n_pd"] is not None:
            if a["n_tier"] is None or a["n_pd"] is None:
                raise ConfigError("adr.n_tier and adr.n_pd must be given together")
            return AdrConfig(
                n_tier=a["n_tier"], n_pd=a["n_pd"], fill_factor=a["fill_factor"],
                n_cpc=a["n_cpc"], k_pd=a["k_pd_s_per_m"], pd_physical=pd_phys,
                truncation=trunc,
            )
        base = preset(a["preset"], truncation=trunc)
        return replace(base, fill_factor=a["fill_factor"], n_cpc=a["n_cpc"],
                       k_pd=a["k_pd_s_per_m"], pd_physical=pd_phys)

    def solver_options(self) -> SolverOptions:
        s = self.solver
        return SolverOptions(
            b_min=s["b_min_ghz"] * 1e9,
            b_max=s["b_max_ghz"] * 1e9,
            grid_points=s["grid_points"],
            b_rel_tol=s["b_rel_tol"],
        )

    def effective_dict(self) -> dict:
        return {
            "beam": dict(self.beam), "link": dict(self.link), "noise": dict(self.noise),
            "adr": dict(self.adr), "solver": dict(self.solver),
        }


def _coerce(section: str, key: str, raw: str):
    raw = raw.strip().strip('"').strip("'")
    if (section, key) in _STRING_KEYS:
        return raw.lower()
    if (section, key) in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")
    if raw.lower() in ("none", ""):
        return None
    try:
        if (section, key) in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.beam["pt_mw"] > cfg.beam["pt_max_mw"]:
        raise ConfigError(
            f"beam.pt_mw = {cfg.beam['pt_mw']:g} exceeds the eye-safety cap "
            f"pt_max_mw = {cfg.beam['pt_max_mw']:g}"
        )
    # construct every derived object once so invariants are checked at load time
    cfg.context()
    cfg.adr_config()
    cfg.solver_options()
    return cfg


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Load and validate a configuration file.

    path None means all defaults. overrides is a {(section, key): value}
    mapping applied after the file, used by CLI flags.
    """
    sections = {name: dict(vals) for name, vals in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_string(fh.read(), source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(
                    f"unknown config section [{section}]; expected one of "
                    f"{sorted(sections)}"
                )
            for key, raw in parser.items(section):
                if key not in sections[section]:
                    raise ConfigError(
                        f"unknown key {section}.{key}; expected one of "
                        f"{sorted(sections[section])}"
                    )
                sections[section][key] = _coerce(section, key, raw)
    for (section, key), value in (overrides or {}).items():
        if section not in sections or key not in sections[section]:
            raise ConfigError(f"unknown override {section}.{key}")
        sections[section][key] = value
    cfg = RunConfig(source_path=path, **sections)
    return _validate(cfg)


# Suffixed quantities accepted on the command line, normalised to SI.
_UNIT_TABLE = {
    "frequency": {"ghz": 1e9, "mhz": 1e6, "khz": 1e3, "hz": 1.0},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6},
    "area": {"m2": 1.0, "cm2": 1e-4, "mm2": 1e-6},
    "angle": {"deg": math.pi / 180.0, "rad": 1.0},
    "power": {"w": 1.0, "mw": 1e-3},
}
_BARE_UNIT = {"frequency": 1e9, "length": 1.0, "area": 1.0,
              "angle": math.pi / 180.0, "power": 1e-3}
_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Z2]*)\s*$")


def parse_quantity(text: str, kind: str) -> float:
    """Parse '0.5cm', '2.1GHz', '30deg' or a bare number into SI units.

    Bare numbers use the conventional unit of the kind: GHz for frequency,
    deg for angles, mW for power, SI for lengths and areas.
    """
    match = _QUANTITY_RE.match(str(text))
    if not match:
        raise ConfigError(f"cannot parse {text!r} as a {kind}")
    value, suffix = float(match.group(1)), match.group(2).lower()
    if not suffix:
        return value * _BARE_UNIT[kind]
    table = _UNIT_TABLE[kind]
    if suffix not in table:
        raise ConfigError(
            f"unknown {kind} unit {suffix!r} in {text!r}; expected one of {sorted(table)}"
        )
    return value * table[suffix]
