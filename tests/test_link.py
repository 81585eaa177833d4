import math

import numpy as np
import pytest

from adrdesign import (
    LinkContext,
    LinkParams,
    NoiseModel,
    PropagatedBeam,
    TruncationSpec,
    achievable_rate,
    encircled_power,
    geometry,
    link_budget,
    load_config,
    noise_psd,
    preset,
    received_power,
)
from adrdesign.link import BOLTZMANN, ELEMENTARY_CHARGE, _rate_raw
from conftest import random_design_points

FOV30 = math.radians(30.0)


def test_received_power_equals_aperture_encircled_power(rng, ctx10):
    # the closed form must agree with FF times the beam power inside the
    # entrance aperture, to near machine precision, truncated or not
    for name in ("config1", "config3", "config5"):
        for trunc in (None, TruncationSpec(0.6, 0.9)):
            cfg = preset(name, truncation=trunc)
            b, fov = random_design_points(rng, cfg, 25)
            for bb, ff in zip(b, fov):
                direct = received_power(cfg, float(bb), float(ff), ctx10.beam, ctx10.link)
                geo = geometry(cfg, float(bb), float(ff))
                z = ctx10.link.distance - ctx10.beam.waist_position
                via_aperture = cfg.fill_factor * encircled_power(
                    ctx10.beam, z, geo.entrance_diameter / 2.0
                )
                assert direct == pytest.approx(via_aperture, rel=1e-12)


def test_received_power_saturates_at_collected_fraction(ctx10):
    cfg = preset("config1")
    # a very low bandwidth means a huge aperture: everything inside the cone
    p = received_power(cfg, 1e6, FOV30, ctx10.beam, ctx10.link)
    assert p == pytest.approx(cfg.fill_factor * ctx10.beam.power, rel=1e-9)


def test_received_power_reference_value(ctx10):
    p = received_power(preset("config3"), 3.5e9, FOV30, ctx10.beam, ctx10.link)
    assert p == pytest.approx(9.907373e-5, rel=1e-6)  # about 99 uW


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scalar_views_reject_non_finite_bandwidth(ctx10, bad):
    cfg = preset("config1")
    with pytest.raises(ValueError, match="finite"):
        received_power(cfg, bad, FOV30, ctx10.beam, ctx10.link)
    with pytest.raises(ValueError, match="finite"):
        achievable_rate(cfg, bad, FOV30, ctx10)
    with pytest.raises(ValueError, match="finite"):
        link_budget(cfg, bad, FOV30, ctx10)


def test_context_enforces_eye_safety_cap(ctx10):
    hot = PropagatedBeam(ctx10.beam.waist_radius, ctx10.beam.rayleigh_range,
                         ctx10.beam.waist_position, power=0.020)
    with pytest.raises(ValueError, match="eye-safety"):
        LinkContext(beam=hot, link=LinkParams(), noise=NoiseModel())
    assert LinkContext(beam=hot, link=LinkParams(transmit_power_cap=0.025),
                       noise=NoiseModel()).beam.power == 0.020


def test_noise_psd_thermal_reference():
    nm = NoiseModel()
    expected = 4 * BOLTZMANN * 300.0 / 1150.0 * 10 ** 0.5
    assert noise_psd(nm, 1) == pytest.approx(expected, rel=1e-12)
    assert noise_psd(nm, 1) == pytest.approx(4.555821e-23, rel=1e-6)
    assert noise_psd(nm, 64) == pytest.approx(64 * noise_psd(nm, 1), rel=1e-14)


def test_noise_psd_full_mode():
    nm = NoiseModel(mode="full")
    assert noise_psd(nm, 4, received=0.0) == pytest.approx(
        noise_psd(NoiseModel(), 4), rel=1e-14
    )
    p_r = 1e-4
    shot = 2 * ELEMENTARY_CHARGE * 0.6 * p_r
    assert noise_psd(nm, 4, p_r, 0.6) == pytest.approx(
        noise_psd(NoiseModel(), 4) + shot, rel=1e-12
    )
    with_rin = NoiseModel(mode="full", rin=1e-14)
    assert noise_psd(with_rin, 4, p_r, 0.6) == pytest.approx(
        noise_psd(nm, 4, p_r, 0.6) + 1e-14 * (0.6 * p_r) ** 2, rel=1e-12
    )


def test_noise_psd_requires_at_least_one_pd():
    with pytest.raises(ValueError):
        noise_psd(NoiseModel(), 0)


def test_rate_reference_points(ctx10):
    assert achievable_rate(preset("config1"), 2.1e9, FOV30, ctx10) == pytest.approx(
        14.22176e9, rel=1e-5
    )
    assert achievable_rate(preset("config3"), 3.5e9, FOV30, ctx10) == pytest.approx(
        24.73800e9, rel=1e-5
    )
    # within 5 percent of the quoted 14.00 and 24.53 Gb/s
    assert abs(achievable_rate(preset("config1"), 2.1e9, FOV30, ctx10) - 14.00e9) < 0.05 * 14.00e9
    assert abs(achievable_rate(preset("config3"), 3.5e9, FOV30, ctx10) - 24.53e9) < 0.05 * 24.53e9


def test_zero_transmit_power_means_zero_rate():
    run = load_config(None, overrides={("beam", "pt_mw"): 0.0})
    ctx = run.context()
    assert achievable_rate(preset("config1"), 2.1e9, FOV30, ctx) == 0.0


def test_rate_increases_with_received_power(ctx10):
    lowered = load_config(None, overrides={("beam", "pt_mw"): 8.0}).context()
    assert achievable_rate(preset("config2"), 2.7e9, FOV30, ctx10) > achievable_rate(
        preset("config2"), 2.7e9, FOV30, lowered
    )


def test_rate_decreases_with_fov(rng, ctx10, presets):
    for name in ("config1", "config2", "config4"):
        cfg = presets[name]
        b, fov = random_design_points(rng, cfg, 400, margin=0.95)
        fov_hi = fov * 1.04
        r_lo = _rate_raw(cfg, ctx10, b, fov)
        r_hi = _rate_raw(cfg, ctx10, b, fov_hi)
        assert np.all(r_hi < r_lo)


def test_thermal_noise_dominates_at_reference_operating_points(ctx10):
    # at the three quoted peak points the full PSD exceeds thermal by < 5 %
    full = NoiseModel(mode="full")
    for name, b in (("config1", 2.1e9), ("config2", 2.7e9), ("config3", 3.5e9)):
        cfg = preset(name)
        p_r = received_power(cfg, b, FOV30, ctx10.beam, ctx10.link)
        thermal = noise_psd(NoiseModel(), cfg.n_pd)
        total = noise_psd(full, cfg.n_pd, p_r, ctx10.link.responsivity)
        assert total > thermal
        assert (total - thermal) / thermal < 0.05


def test_rate_has_interior_peak_in_bandwidth(ctx10, presets):
    # at FOV = 30 deg the rate rises then falls; for the single-tier
    # configurations the peak lands within the 2 +/- 0.2 .. 4 +/- 0.2 GHz
    # window of the reference study
    for name, lo, hi in (("config1", 1.8e9, 4.2e9), ("config2", 1.8e9, 4.2e9),
                         ("config3", 1.8e9, 4.2e9), ("config4", 1.0e9, 6.0e9),
                         ("config5", 1.0e9, 6.0e9), ("config6", 1.0e9, 6.0e9)):
        cfg = presets[name]
        b = np.geomspace(0.5e9, 8e9, 400)
        r = _rate_raw(cfg, ctx10, b, np.full_like(b, FOV30))
        i = int(np.argmax(r))
        assert 0 < i < len(b) - 1, name
        assert lo <= b[i] <= hi, (name, b[i])
        d = np.diff(r)
        assert d[i - 1] > 0 > d[i]


def test_link_budget_consistency(ctx10):
    cfg = preset("config2")
    budget = link_budget(cfg, 2.7e9, FOV30, ctx10)
    assert budget.rate == pytest.approx(achievable_rate(cfg, 2.7e9, FOV30, ctx10), rel=1e-14)
    assert budget.snr == pytest.approx(
        (ctx10.link.responsivity * budget.received_power) ** 2
        / (budget.noise_psd * 2.7e9),
        rel=1e-12,
    )
    assert budget.rin_included is False
    full_ctx = LinkContext(beam=ctx10.beam, link=ctx10.link,
                           noise=NoiseModel(mode="full", rin=1e-15))
    assert link_budget(cfg, 2.7e9, FOV30, full_ctx).rin_included is True
