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
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

from .adr import DEFAULT_K_PD, AdrConfig, PdPhysical, k_pd_from_physical, preset
from .beam import LensSpec, SourceBeam, transform_through_lens
from .link import LinkContext, LinkParams, NoiseModel
from .optics import TruncationSpec
from .optimizer import SolverOptions

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_quantity"]


class ConfigError(ValueError):
    """Invalid configuration file or flag value; the message names the key."""


_TRUNCATION = TruncationSpec()  # supplies the defaults of the truncation keys

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
        "epsilon_r": None,
        "v_s_m_per_s": None,
        "r_l_ohm": None,
        "truncated": False,
        "truncation_tau": _TRUNCATION.length_ratio,
        "truncation_gamma": _TRUNCATION.gain_retention,
    },
    "solver": {
        "b_min_ghz": 0.1,
        "b_max_ghz": 20.0,
        "grid_points": 2000,
        "b_rel_tol": 1e-6,
    },
}

# Each key's values have its default's type; of the keys that default to None,
# adr.n_tier and adr.n_pd hold integers and the others floats.
_KINDS = {(section, key): float if value is None else type(value)
          for section, values in DEFAULTS.items() for key, value in values.items()}
_KINDS["adr", "n_tier"] = _KINDS["adr", "n_pd"] = int
_KIND_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; see DEFAULTS for the key inventory."""

    beam: dict
    link: dict
    noise: dict
    adr: dict
    solver: dict

    def context(self) -> LinkContext:
        b, n = self.beam, self.noise
        source = SourceBeam(waist_radius=b["w0_um"] * 1e-6, wavelength=b["wavelength_nm"] * 1e-9,
                            medium_index=b["medium_index"], power=b["pt_mw"] * 1e-3)
        lens = LensSpec(focal_length=b["lens_f_mm"] * 1e-3,
                        waist_to_lens_distance=b["lens_d_mm"] * 1e-3)
        return LinkContext(
            beam=transform_through_lens(source, lens),
            link=LinkParams(distance=self.link["distance_m"],
                            responsivity=self.link["responsivity"],
                            snr_gap=self.link["snr_gap"],
                            transmit_power_cap=b["pt_max_mw"] * 1e-3),
            noise=NoiseModel(temperature=n["temperature_k"],
                             load_resistance=n["load_resistance_ohm"],
                             noise_figure=10 ** (n["noise_figure_db"] / 10.0),
                             mode=n["mode"], rin=n["rin_per_hz"]),
        )

    def adr_config(self) -> AdrConfig:
        a = self.adr
        trunc = (TruncationSpec(a["truncation_tau"], a["truncation_gamma"])
                 if a["truncated"] else None)
        n_tier, n_pd = a["n_tier"], a["n_pd"]
        if n_tier is None and n_pd is None:
            named = preset(a["preset"])
            n_tier, n_pd = named.n_tier, named.n_pd
        if n_tier is None or n_pd is None:
            raise ConfigError("adr.n_tier and adr.n_pd must be given together")
        return AdrConfig(n_tier=n_tier, n_pd=n_pd, fill_factor=a["fill_factor"],
                         n_cpc=a["n_cpc"], k_pd=a["k_pd_s_per_m"], truncation=trunc)

    def solver_options(self) -> SolverOptions:
        s = self.solver
        return SolverOptions(
            b_min=s["b_min_ghz"] * 1e9,
            b_max=s["b_max_ghz"] * 1e9,
            grid_points=s["grid_points"],
            b_rel_tol=s["b_rel_tol"],
        )

    def effective_dict(self) -> dict:
        return {name: dict(getattr(self, name)) for name in DEFAULTS}


def _parse(section: str, key: str, raw: str):
    """A file value in its key's type where it reads as one; _checked rejects the rest."""
    raw = raw.strip().strip('"').strip("'")
    kind = _KINDS[section, key]
    if kind is bool:
        return _BOOL_WORDS.get(raw.lower(), raw)
    if raw.lower() in ("none", "") and kind is not str:
        return None
    try:
        return kind(raw)
    except ValueError:
        return raw


def _checked(section: str, key: str, value):
    """value in its key's type (an int for a float key becomes a float, a string is lowercased),
    else ConfigError. A bool is never a number, and None fits only keys that default to None."""
    kind = _KINDS[section, key]
    if value is None and DEFAULTS[section][key] is None:
        return None
    if (isinstance(value, {int: Integral, float: Real}.get(kind, kind))
            and isinstance(value, bool) == (kind is bool)):
        return value.lower() if kind is str else kind(value)
    raise ConfigError(f"{section}.{key}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.beam["pt_mw"] > cfg.beam["pt_max_mw"]:
        raise ConfigError(
            f"beam.pt_mw = {cfg.beam['pt_mw']:g} exceeds the eye-safety cap "
            f"pt_max_mw = {cfg.beam['pt_max_mw']:g}"
        )
    if cfg.noise["rin_per_hz"] is not None and cfg.noise["mode"] != "full":
        raise ConfigError(f"noise.rin_per_hz needs noise.mode = full, not {cfg.noise['mode']}")
    # construct every derived object once so invariants are checked at load time
    cfg.context()
    cfg.adr_config()
    cfg.solver_options()
    return cfg


def _resolve_adr(a: dict, given: set) -> None:
    """Compose K_PD into adr.k_pd_s_per_m from the PD keys; reject keys that change nothing."""
    pd_keys = ("epsilon_r", "r_l_ohm", "v_s_m_per_s")  # in PdPhysical's field order
    if any(a[k] is not None for k in pd_keys):
        missing = [f"adr.{k}" for k in pd_keys if a[k] is None]
        if missing:
            raise ConfigError(f"composing K_PD from PD constants needs {', '.join(missing)}")
        if ("adr", "k_pd_s_per_m") in given:
            raise ConfigError(f"adr.k_pd_s_per_m cannot be set with adr.{', adr.'.join(pd_keys)}")
        a["k_pd_s_per_m"] = k_pd_from_physical(PdPhysical(*(a[k] for k in pd_keys)))
    if ("adr", "preset") in given and (a["n_tier"] is not None or a["n_pd"] is not None):
        raise ConfigError("adr.preset cannot be set together with adr.n_tier / adr.n_pd")
    for key in ("truncation_tau", "truncation_gamma"):
        if ("adr", key) in given and not a["truncated"]:
            raise ConfigError(f"adr.{key} needs adr.truncated = true or --truncated")


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Load and validate a configuration file.

    path None means all defaults. overrides is a {(section, key): value}
    mapping applied after the file, used by CLI flags.
    """
    sections = {name: dict(vals) for name, vals in DEFAULTS.items()}
    given = set()  # (section, key) pairs set by the file or the overrides
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
                sections[section][key] = _checked(section, key, _parse(section, key, raw))
                given.add((section, key))
    for (section, key), value in (overrides or {}).items():
        if section not in sections or key not in sections[section]:
            raise ConfigError(f"unknown override {section}.{key}")
        sections[section][key] = _checked(section, key, value)
        given.add((section, key))
    _resolve_adr(sections["adr"], given)
    return _validate(RunConfig(**sections))


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
