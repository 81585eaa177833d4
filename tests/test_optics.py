import math

import numpy as np
import pytest

from adrdesign import CpcSpec, TruncationSpec, cpc_derive


REF = CpcSpec(acceptance_angle=math.radians(10.0), refractive_index=1.0,
              exit_diameter=1.5e-3)


def test_reference_cpc_gain_length_area():
    geo = cpc_derive(REF)
    assert geo.gain == pytest.approx(33.163437, rel=1e-6)
    assert geo.length == pytest.approx(2.874817e-2, rel=1e-6)
    assert geo.entrance_area == pytest.approx(0.586046e-4, rel=1e-6)
    assert geo.entrance_diameter > geo.exit_diameter


def test_30deg_closed_form():
    geo = cpc_derive(CpcSpec(math.pi / 6, 1.0, 1e-3))
    assert geo.gain == pytest.approx(4.0, rel=1e-12)
    assert geo.entrance_diameter == pytest.approx(2e-3, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, -0.1, math.radians(30.5), math.radians(45)])
def test_acceptance_angle_domain(theta):
    with pytest.raises(ValueError):
        CpcSpec(acceptance_angle=theta)


@pytest.mark.parametrize("field", ["acceptance_angle", "refractive_index", "exit_diameter"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_cpc_spec_rejected(field, value):
    # NaN passes the bare `< 1` / `<= 0` checks and inf yields an inf/NaN geometry
    args = {"acceptance_angle": math.radians(10.0), "refractive_index": 1.7,
            "exit_diameter": 1e-3, field: value}
    with pytest.raises(ValueError, match=field):
        CpcSpec(**args)


def test_gain_strictly_decreasing_in_theta():
    thetas = np.linspace(math.radians(1), math.radians(30), 120)
    gains = [cpc_derive(CpcSpec(t, 1.7, 1e-3)).gain for t in thetas]
    assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))


def test_etendue_relation(rng):
    for _ in range(200):
        theta = rng.uniform(0.01, math.pi / 6)
        n = rng.uniform(1.0, 2.0)
        d2 = rng.uniform(1e-4, 5e-3)
        geo = cpc_derive(CpcSpec(theta, n, d2))
        assert geo.entrance_diameter * math.sin(theta) == pytest.approx(d2 * n, rel=1e-12)


def test_truncation_validity_range():
    with pytest.raises(ValueError):
        TruncationSpec(length_ratio=0.4)
    with pytest.raises(ValueError):
        TruncationSpec(length_ratio=0.6, gain_retention=0.0)
    with pytest.raises(ValueError):
        TruncationSpec(length_ratio=1.2)
