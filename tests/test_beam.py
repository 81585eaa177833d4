import math

import numpy as np
import pytest
from scipy.integrate import quad

from adrdesign import (
    LensSpec,
    PropagatedBeam,
    SourceBeam,
    beam_radius,
    encircled_power,
    rayleigh_range,
    transform_through_lens,
)

# Source and lens of the reference transmitter.
REF_BEAM = SourceBeam(waist_radius=10e-6, wavelength=950e-9, medium_index=1.0, power=0.010)
REF_LENS = LensSpec(focal_length=33e-3, waist_to_lens_distance=0.0)
LINK_DISTANCE = 3.0


def test_rayleigh_range_value():
    zr = rayleigh_range(10e-6, 950e-9, 1.0)
    assert zr == pytest.approx(math.pi * (10e-6) ** 2 / 950e-9, rel=1e-14)
    assert zr == pytest.approx(330.694e-6, abs=0.001e-6)


def test_rayleigh_range_inverse_in_wavelength():
    assert rayleigh_range(10e-6, 475e-9, 1.0) == pytest.approx(
        2.0 * rayleigh_range(10e-6, 950e-9, 1.0), rel=1e-14
    )


@pytest.mark.parametrize("w0,lam,n", [(0.0, 950e-9, 1.0), (10e-6, 0.0, 1.0),
                                      (10e-6, 950e-9, 0.5), (-1e-6, 950e-9, 1.0)])
def test_rayleigh_range_domain_errors(w0, lam, n):
    with pytest.raises(ValueError):
        rayleigh_range(w0, lam, n)


def test_unit_magnification_limit():
    # focal length far above the Rayleigh range, waist at the lens
    out = transform_through_lens(REF_BEAM, LensSpec(focal_length=10.0))
    assert out.waist_radius == pytest.approx(REF_BEAM.waist_radius, rel=1e-6)
    assert out.power == REF_BEAM.power


def test_reference_transform_spot_size():
    out = transform_through_lens(REF_BEAM, REF_LENS)
    w = beam_radius(out, LINK_DISTANCE - out.waist_position)
    # frozen from an independent first-principles evaluation of the transform
    assert 2 * w == pytest.approx(0.1814455456, rel=1e-6)
    # consistent within 10 percent with the quoted 20 cm spot diameter
    assert abs(2 * w - 0.20) / 0.20 < 0.10


def test_collimated_placement_is_the_wrong_regime():
    # waist one focal length before the lens gives a quasi-collimated beam,
    # mm-scale spot at 3 m; confirms d = 0 is the placement matching the
    # quoted spot size
    out = transform_through_lens(REF_BEAM, LensSpec(33e-3, waist_to_lens_distance=33e-3))
    assert out.rayleigh_range > 3.0
    w = beam_radius(out, LINK_DISTANCE - out.waist_position)
    assert w < 5e-3


def test_beam_radius_waist_and_rayleigh_points():
    out = transform_through_lens(REF_BEAM, REF_LENS)
    assert beam_radius(out, 0.0) == out.waist_radius
    assert beam_radius(out, out.rayleigh_range) == pytest.approx(
        math.sqrt(2.0) * out.waist_radius, rel=1e-14
    )
    assert beam_radius(out, -0.7) == beam_radius(out, 0.7)


def test_encircled_power_trivial_points():
    out = transform_through_lens(REF_BEAM, REF_LENS)
    z = LINK_DISTANCE - out.waist_position
    w = beam_radius(out, z)
    assert encircled_power(out, z, 0.0) == 0.0
    assert encircled_power(out, z, 100.0) == pytest.approx(out.power, rel=1e-12)
    assert encircled_power(out, z, w / math.sqrt(2.0)) == pytest.approx(
        out.power * (1.0 - math.exp(-1.0)), rel=1e-12
    )


def test_encircled_power_rejects_negative_aperture():
    out = transform_through_lens(REF_BEAM, REF_LENS)
    with pytest.raises(ValueError):
        encircled_power(out, 1.0, -1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_distance_and_aperture_rejected_by_name(bad):
    # NaN used to come back as the radius or the power
    out = transform_through_lens(REF_BEAM, REF_LENS)
    for z in (bad, np.array([1.0, bad])):
        with pytest.raises(ValueError, match="z must be finite"):
            beam_radius(out, z)
        with pytest.raises(ValueError, match="z must be finite"):
            encircled_power(out, z, 1e-3)
    with pytest.raises(ValueError, match="rho0 must be finite"):
        encircled_power(out, 1.0, bad)


def test_encircled_power_monotonicity(rng):
    out = transform_through_lens(REF_BEAM, REF_LENS)
    rho = np.sort(rng.uniform(0, 0.3, 300))
    p = encircled_power(out, 2.0, rho)
    assert np.all(np.diff(p) >= 0)
    z = np.sort(rng.uniform(0, 10.0, 300))
    p = encircled_power(out, z, 0.05)
    assert np.all(np.diff(p) <= 0)


def test_encircled_power_matches_intensity_quadrature(rng):
    # oracle: radial quadrature of the Gaussian intensity profile
    out = transform_through_lens(REF_BEAM, REF_LENS)
    for _ in range(12):
        z = rng.uniform(0.2, 6.0)
        rho0 = rng.uniform(1e-4, 0.2)
        w = beam_radius(out, z)

        def intensity_ring(r):
            return 2 * out.power / (math.pi * w**2) * math.exp(-2 * r**2 / w**2) * 2 * math.pi * r

        expected, err = quad(intensity_ring, 0.0, rho0, epsabs=1e-16, epsrel=1e-13)
        assert encircled_power(out, z, rho0) == pytest.approx(expected, rel=1e-9)


def test_propagated_beam_validation():
    with pytest.raises(ValueError):
        PropagatedBeam(waist_radius=0.0, rayleigh_range=1.0, waist_position=0.0, power=1.0)
    with pytest.raises(ValueError):
        PropagatedBeam(waist_radius=1e-5, rayleigh_range=-1.0, waist_position=0.0, power=1.0)


def test_lens_validation():
    with pytest.raises(ValueError):
        LensSpec(focal_length=0.0)
    with pytest.raises(ValueError):
        LensSpec(focal_length=0.033, waist_to_lens_distance=-1e-3)
