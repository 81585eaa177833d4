import math

import numpy as np
import pytest

from adrdesign import (
    AdrConfig,
    CpcSpec,
    PdPhysical,
    TruncationSpec,
    acceptance_angle,
    cpc_derive,
    element_count,
    geometry,
    load_config,
    pd_bandwidth_full,
    pd_bandwidth_optimal,
    pd_side_from_bandwidth,
    preset,
)
from adrdesign.adr import DEFAULT_K_PD, EPSILON_0, k_pd_from_physical
from conftest import random_design_points

B_REF = 2.1e9
FOV30 = math.radians(30.0)


@pytest.mark.parametrize("n_tier,count", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_element_count(n_tier, count):
    assert element_count(n_tier) == count


def test_element_count_rejects_negative():
    with pytest.raises(ValueError):
        element_count(-1)


def test_acceptance_angle_values():
    assert acceptance_angle(FOV30, 1) == pytest.approx(math.radians(10), rel=1e-14)
    assert acceptance_angle(FOV30, 2) == pytest.approx(math.radians(6), rel=1e-14)
    # the 90 deg FOV single-tier receiver sits exactly on the 30 deg cap
    assert acceptance_angle(math.pi / 2, 1) == pytest.approx(math.pi / 6, rel=1e-12)


def test_acceptance_angle_domain():
    with pytest.raises(ValueError):
        acceptance_angle(math.radians(120), 0)
    with pytest.raises(ValueError):
        acceptance_angle(0.0, 1)
    # a tierless receiver cannot reach past the 30 deg acceptance cap
    with pytest.raises(ValueError, match="30"):
        acceptance_angle(math.pi / 2, 0)


def test_pd_side_reference_points():
    assert pd_side_from_bandwidth(10e9, 2.0e-6) == pytest.approx(50e-6, rel=1e-12)
    assert pd_side_from_bandwidth(B_REF, DEFAULT_K_PD) == pytest.approx(2.727322e-4, rel=1e-6)


def test_pd_side_round_trip():
    d = pd_side_from_bandwidth(3.7e9, DEFAULT_K_PD)
    assert 1.0 / (DEFAULT_K_PD * d) == pytest.approx(3.7e9, rel=1e-14)


def test_pd_side_domain():
    with pytest.raises(ValueError):
        pd_side_from_bandwidth(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bandwidth_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        pd_side_from_bandwidth(bad)
    with pytest.raises(ValueError, match="finite"):
        pd_side_from_bandwidth(2e9, bad)
    with pytest.raises(ValueError, match="finite"):
        geometry(preset("config1"), bad, FOV30)


PHYS = PdPhysical(relative_permittivity=11.7, load_resistance=135.0,
                  saturation_velocity=1e5)


def test_bandwidth_full_at_optimal_thickness_matches_bound():
    area = (60e-6) ** 2
    # stationary thickness of the bandwidth denominator
    ell_opt = math.sqrt(
        2 * math.pi * PHYS.load_resistance * EPSILON_0
        * PHYS.relative_permittivity * area * 0.44 * PHYS.saturation_velocity
    )
    phys = PdPhysical(11.7, 135.0, 1e5, depletion_thickness=ell_opt)
    assert pd_bandwidth_full(phys, area) == pytest.approx(
        pd_bandwidth_optimal(phys, area), rel=1e-9
    )


def test_bandwidth_decreases_with_area():
    phys = PdPhysical(11.7, 135.0, 1e5, depletion_thickness=2e-6)
    assert pd_bandwidth_full(phys, 2 * (50e-6) ** 2) < pd_bandwidth_full(phys, (50e-6) ** 2)


def test_bandwidth_transit_limit():
    phys = PdPhysical(11.7, 135.0, 1e5, depletion_thickness=5e-3)
    b = pd_bandwidth_full(phys, (50e-6) ** 2)
    assert b == pytest.approx(0.44 * phys.saturation_velocity / phys.depletion_thickness,
                              rel=1e-3)


def test_bandwidth_full_requires_thickness():
    with pytest.raises(ValueError):
        pd_bandwidth_full(PHYS, (50e-6) ** 2)


def test_composed_k_pd_consistency():
    # K_PD = sqrt(4 pi e0 er R_L / (0.44 v_s)), the constant of the optimal-thickness bound
    k = k_pd_from_physical(PHYS)
    assert k == pytest.approx(math.sqrt(
        4 * math.pi * EPSILON_0 * 11.7 * 135.0 / (0.44 * 1e5)), rel=1e-14)
    area = (40e-6) ** 2
    assert pd_bandwidth_optimal(PHYS, area) == pytest.approx(
        1.0 / (k * math.sqrt(area)), rel=1e-14
    )
    # the config composes the same float once, at load time, into the one k_pd field
    run = load_config(None, {("adr", "epsilon_r"): 11.7, ("adr", "r_l_ohm"): 135.0,
                             ("adr", "v_s_m_per_s"): 1e5})
    assert run.adr["k_pd_s_per_m"] == k
    cfg = run.adr_config()
    assert cfg == AdrConfig(n_tier=1, n_pd=4, k_pd=k)
    assert geometry(cfg, B_REF, FOV30).pd_side == pd_side_from_bandwidth(B_REF, k)


def test_geometry_reference_point():
    geo = geometry(preset("config1"), B_REF, FOV30)
    assert geo.theta_cpc == pytest.approx(math.radians(10), rel=1e-14)
    assert geo.pd_side == pytest.approx(2.727322e-4, rel=1e-6)
    assert geo.exit_diameter == pytest.approx(6.519547e-4, rel=1e-6)
    assert geo.entrance_diameter == pytest.approx(6.382578e-3, rel=1e-6)
    assert geo.height == pytest.approx(1.994741e-2, rel=1e-6)
    assert geo.top_area == pytest.approx(2.123878e-4, rel=1e-6)
    assert geo.element_count == 7
    assert geo.tilt_angles == (pytest.approx(math.radians(20), rel=1e-14),)


def test_geometry_truncation_scales_dimensions():
    plain = geometry(preset("config1"), B_REF, FOV30)
    cut = geometry(preset("config1", truncation=TruncationSpec(0.6, 0.9)), B_REF, FOV30)
    assert cut.height == pytest.approx(0.6 * plain.height, rel=1e-12)
    assert cut.top_area == pytest.approx(0.9 * plain.top_area, rel=1e-12)
    assert cut.entrance_diameter == pytest.approx(
        math.sqrt(0.9) * plain.entrance_diameter, rel=1e-12
    )
    assert cut.exit_diameter == plain.exit_diameter
    assert cut.height == pytest.approx(1.196845e-2, rel=1e-6)
    assert cut.top_area == pytest.approx(1.911490e-4, rel=1e-6)
    # keeping the full length and gain is no truncation, bit for bit
    for name in ("config1", "config3", "config6"):
        assert (geometry(preset(name, truncation=TruncationSpec(1.0, 1.0)), B_REF, FOV30)
                == geometry(preset(name), B_REF, FOV30))
    # one bare CPC (air, 10 deg, D2 = 1.5 mm): 2.87 cm -> 1.72 cm, 0.586 -> 0.527 cm^2
    single = AdrConfig(n_tier=0, n_pd=1, fill_factor=1.0, n_cpc=1.0,
                       truncation=TruncationSpec(0.6, 0.9))
    ref = geometry(single, 1.0 / (DEFAULT_K_PD * 1.5e-3), math.radians(10.0))
    assert ref.exit_diameter == pytest.approx(1.5e-3, rel=1e-12)
    assert ref.height == pytest.approx(1.724890e-2, rel=1e-5)
    assert ref.top_area == pytest.approx(0.527441e-4, rel=1e-5)


def test_quadrupling_array_scales_dimensions():
    small = geometry(preset("config1"), B_REF, FOV30)
    big = geometry(preset("config2"), B_REF, FOV30)  # 4x the PDs per array
    assert big.exit_diameter == pytest.approx(2 * small.exit_diameter, rel=1e-12)
    assert big.entrance_diameter == pytest.approx(2 * small.entrance_diameter, rel=1e-12)
    assert big.height == pytest.approx(2 * small.height, rel=1e-12)
    assert big.top_area == pytest.approx(4 * small.top_area, rel=1e-12)


def test_geometry_consistent_with_cpc_closed_forms(rng):
    for _ in range(50):
        cfg = preset(str(rng.choice(["config1", "config2", "config4"])))
        b, fov = random_design_points(rng, cfg, 1)
        geo = geometry(cfg, float(b[0]), float(fov[0]))
        cpc = cpc_derive(CpcSpec(geo.theta_cpc, cfg.n_cpc, geo.exit_diameter))
        assert cpc.entrance_diameter == pytest.approx(geo.entrance_diameter, rel=1e-13)
        assert cpc.length == pytest.approx(geo.height, rel=1e-13)


def test_dimensions_decrease_in_bandwidth_and_fov(rng, presets):
    # height and top area both shrink as B or FOV grows
    from adrdesign.adr import fov_cap

    for name in ("config1", "config3", "config5"):
        cfg = presets[name]
        cap = fov_cap(cfg.n_tier)
        b, fov = random_design_points(rng, cfg, 40, margin=0.9)
        b2 = b * rng.uniform(1.01, 3.0, b.shape)
        fov2 = np.minimum(fov * rng.uniform(1.01, 1.1, fov.shape), cap * 0.999)
        g1 = [geometry(cfg, float(bb), float(ff)) for bb, ff in zip(b, fov)]
        g_b = [geometry(cfg, float(bb), float(ff)) for bb, ff in zip(b2, fov)]
        g_f = [geometry(cfg, float(bb), float(ff)) for bb, ff in zip(b, fov2)]
        for a, hb, hf in zip(g1, g_b, g_f):
            assert hb.height < a.height and hb.top_area < a.top_area
            assert hf.height < a.height and hf.top_area < a.top_area


def test_tilt_angles_stay_below_quarter_turn(rng, presets):
    for cfg in presets.values():
        _, fov = random_design_points(rng, cfg, 100)
        for f in fov:
            geo = geometry(cfg, 2e9, float(f))
            assert all(t < math.pi / 2 for t in geo.tilt_angles)


def test_preset_table():
    expected = {
        "config1": (1, 4, 28), "config2": (1, 16, 112), "config3": (1, 64, 448),
        "config4": (2, 4, 76), "config5": (2, 16, 304), "config6": (3, 4, 148),
    }
    for name, (tiers, n_pd, total) in expected.items():
        cfg = preset(name)
        assert cfg.n_tier == tiers
        assert cfg.n_pd == n_pd
        assert element_count(cfg.n_tier) * cfg.n_pd == total
        assert cfg.fill_factor == 0.7
        assert cfg.n_cpc == 1.7


def test_unknown_preset():
    with pytest.raises(ValueError, match="config9"):
        preset("config9")


def test_array_size_must_be_square():
    with pytest.raises(ValueError):
        AdrConfig(n_tier=1, n_pd=5)
    AdrConfig(n_tier=1, n_pd=9)  # 3x3 is fine


def test_config_validation():
    with pytest.raises(ValueError):
        AdrConfig(n_tier=-1, n_pd=4)
    with pytest.raises(ValueError):
        AdrConfig(n_tier=1, n_pd=4, fill_factor=0.0)
    with pytest.raises(ValueError):
        AdrConfig(n_tier=1, n_pd=4, k_pd=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -4])
def test_config_messages_name_the_count(bad):
    # NaN and inf ended in int()'s "cannot convert float NaN to integer", and a
    # negative n_pd in sqrt()'s "math domain error"
    with pytest.raises(ValueError, match="^n_tier must be a non-negative integer"):
        AdrConfig(n_tier=bad, n_pd=4)
    with pytest.raises(ValueError, match="^n_pd must be a perfect square"):
        AdrConfig(n_tier=1, n_pd=bad)
