"""The library against the independent reference model in adrbench/refmodel.py.

The reference restates the paper's closed forms without importing adrdesign,
so these checks do not rest on the library's own formulas.
"""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from adrdesign import ConstraintSet, TruncationSpec, load_config, preset
from adrdesign.adr import _height, _theta, _top_area, fov_cap
from adrdesign.link import _rate_raw
from adrdesign.optimizer import _unified_grid

_spec = importlib.util.spec_from_file_location(
    "_adrbench_refmodel", Path(__file__).resolve().parents[1] / "adrbench" / "refmodel.py")
ref = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(ref)  # registered first: its dataclasses look their module up

RIN = 1e-13  # [1/Hz]
NOISE = {"thermal": ("thermal_only", None), "full": ("full", None), "full+RIN": ("full", RIN)}


def _pair(name, truncated, pt_mw=10.0, noise="thermal"):
    """The library's receiver and link context, and the reference's design, for one case."""
    mode, rin = NOISE[noise]
    cfg = preset(name, TruncationSpec() if truncated else None)
    ctx = load_config(None, {("beam", "pt_mw"): pt_mw, ("noise", "mode"): mode,
                             ("noise", "rin_per_hz"): rin}).context()
    d = ref.Design(*ref.CONFIGS[name], truncated, pt_mw * 1e-3, mode == "full", rin)
    return cfg, ctx, d


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("noise", sorted(NOISE))
def test_dimensions_and_rate_match_the_reference(rng, noise):
    # gaps at the last measurement: height 6.7e-16, area 1.1e-15, rate 2.2e-13;
    # the rate's comes from 1 - exp(-x) at small apertures
    worst = np.zeros(3)
    for name, truncated, pt_mw in itertools.product(sorted(ref.CONFIGS), (False, True),
                                                    (10.0, 16.0)):
        cfg, ctx, d = _pair(name, truncated, pt_mw, noise)
        b = np.exp(rng.uniform(math.log(ref.B_MIN), math.log(ref.B_MAX), 300))
        fov = rng.uniform(1e-3, 1.0, 300) * ref.fov_cap(d.n_tier)
        theta = _theta(cfg.n_tier, fov)
        height, area = ref.dimensions(d, b, fov)
        worst = np.maximum(worst, [_relative_gap(_height(cfg, b, theta), height),
                                   _relative_gap(_top_area(cfg, b, theta), area),
                                   _relative_gap(_rate_raw(cfg, ctx, b, fov), ref.rate(d, b, fov))])
    assert worst[0] <= 1e-14 and worst[1] <= 1e-14, worst
    assert worst[2] <= 1e-12, worst


def test_unified_grid_sits_on_the_reference_caps(rng):
    # every finite f_fov is feasible under the reference's dimensions, and above
    # fov_min it lies on a cap; the worst gap at the last measurement was 2.4e-15
    b = np.geomspace(ref.B_MIN, ref.B_MAX, 400)
    on_curve = 0
    for _ in range(120):
        name = str(rng.choice(sorted(ref.CONFIGS)))
        cfg, _, d = _pair(name, bool(rng.integers(2)))
        cap = fov_cap(cfg.n_tier)
        h_corner, a_corner = (float(x) for x in ref.dimensions(d, ref.B_MAX, cap))
        l_max = h_corner * 10 ** rng.uniform(0.0, 1.5) if rng.random() < 0.8 else None
        a_max = a_corner * 10 ** rng.uniform(0.0, 2.0) if rng.random() < 0.8 else None
        fov_min = float(rng.uniform(1e-3, 1.0) * cap)
        fov = _unified_grid(cfg, ConstraintSet(fov_min, l_max, a_max), b)
        finite = np.isfinite(fov)
        if l_max is None and a_max is None:
            assert np.all(fov == fov_min)
            continue
        v = ref.violation(d, ref.Caps(fov_min, l_max, a_max), b[finite], fov[finite])
        assert np.all(v <= 1e-12), float(v.max())
        above = fov[finite] > fov_min
        assert np.all(np.abs(v[above]) <= 1e-12), float(np.abs(v[above]).max())
        on_curve += int(above.sum())
    assert on_curve > 1000
