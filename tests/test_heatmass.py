import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksblowup as ks
from ksblowup import HeatMassCurve, InversionConfig
from ksblowup.errors import (
    BracketFailureError,
    NonPositiveTimeError,
    NotRadialError,
    TargetOutOfRangeError,
)

from conftest import analytic_families

ALL_RADIAL = ("gaussian", "disk", "annulus", "polygaussian", "diffgaussians")


# ---------------------------------------------------------------------------
# closed-form anchors
# ---------------------------------------------------------------------------

def test_gaussian_half_mass_at_sigma(gaussian_16pi):
    # H(s) = s M / (s + sigma) at the center, so H(sigma) = M/2
    curve = HeatMassCurve(gaussian_16pi)
    assert curve.evaluate(1.0) == pytest.approx(8.0 * math.pi, rel=1e-14)


def test_disk_closed_form(disk_16pi):
    curve = HeatMassCurve(disk_16pi)
    s = 0.7
    lam = 1.0 / (4.0 * s)
    expect = disk_16pi.mass() * (1.0 - math.exp(-lam)) / lam
    assert curve.evaluate(s) == pytest.approx(expect, rel=1e-14)


def test_large_time_limit_is_mass():
    for d in analytic_families(16.0 * math.pi).values():
        curve = HeatMassCurve(d)
        assert curve.evaluate(1e9) == pytest.approx(d.mass(), rel=1e-6)


def test_nonpositive_time_rejected(gaussian_16pi):
    curve = HeatMassCurve(gaussian_16pi)
    with pytest.raises(NonPositiveTimeError):
        curve.evaluate(0.0)
    with pytest.raises(NonPositiveTimeError):
        curve.evaluate(-1.0)


# ---------------------------------------------------------------------------
# monotonicity and range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_RADIAL)
@pytest.mark.parametrize("z", [None, (0.8, -0.6)])
def test_strictly_increasing_with_open_range(name, z):
    d = analytic_families(16.0 * math.pi)[name]
    curve = HeatMassCurve(d, z)
    svals = np.geomspace(1e-3, 1e3, 50)
    hvals = [curve.evaluate(s) for s in svals]
    assert all(b > a for a, b in zip(hvals, hvals[1:]))
    assert all(0.0 < h < d.mass() for h in hvals)


def test_grid_curve_monotone(small_disk_grid):
    curve = HeatMassCurve(small_disk_grid, (0.3, 0.1))
    svals = np.geomspace(1e-2, 1e2, 25)
    hvals = [curve.evaluate(s) for s in svals]
    assert all(b > a for a, b in zip(hvals, hvals[1:]))
    assert all(0.0 < h < small_disk_grid.mass() for h in hvals)


# ---------------------------------------------------------------------------
# quadrature against closed forms
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(zx=st.floats(-4, 4), zy=st.floats(-4, 4),
       s=st.floats(0.01, 100.0))
def test_gaussian_quadrature_agreement(zx, zy, s):
    # H(s) = s M / (s + sigma) * exp(-|z|^2 / (4 (s + sigma))) about z
    g = ks.Gaussian(16.0 * math.pi, 1.0)
    spread = s + 1.0
    closed = (s * g.mass() / spread) * math.exp(
        -(zx * zx + zy * zy) / (4.0 * spread))
    quad = HeatMassCurve(g, (zx, zy), mode="quadrature").evaluate(s)
    assert quad == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("s", [0.03, 0.25, 1.0, 10.0])
def test_disk_quadrature_agreement(disk_16pi, s):
    # H(s) = M (1 - exp(-lam)) / lam at the center, lam = R^2 / (4 s)
    lam = 1.0 / (4.0 * s)
    closed = disk_16pi.mass() * (-math.expm1(-lam)) / lam
    quad = HeatMassCurve(disk_16pi, mode="quadrature").evaluate(s)
    assert quad == pytest.approx(closed, rel=1e-8)


# ---------------------------------------------------------------------------
# Laplace-transform path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_RADIAL)
def test_laplace_identity(name):
    d = analytic_families(16.0 * math.pi)[name]
    for s in (0.05, 0.4, 2.0, 30.0):
        direct = HeatMassCurve(d, mode="quadrature").evaluate(s)
        via_laplace = math.pi * d.laplace(1.0 / (4.0 * s))
        assert via_laplace == pytest.approx(direct, rel=1e-8)


def test_laplace_identity_profile():
    prof = ks.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0))
    for s in (0.1, 1.0, 10.0):
        direct = HeatMassCurve(prof).evaluate(s)
        assert math.pi * prof.laplace(1.0 / (4.0 * s)) \
            == pytest.approx(direct, rel=1e-8)


def test_laplace_annulus_formula():
    ann = ks.Annulus(16.0 / 3.0, 1.0, 2.0)
    v = 0.8
    expect = (16.0 / 3.0) * (math.exp(-v) - math.exp(-4.0 * v)) / v
    assert ann.laplace(v) == pytest.approx(expect, rel=1e-14)


def test_laplace_small_v_limit_is_mass_over_pi():
    for d in analytic_families(16.0 * math.pi).values():
        assert d.laplace(1e-9) == pytest.approx(
            d.mass() / math.pi, rel=1e-6)


def test_laplace_requires_radial(small_disk_grid):
    with pytest.raises(NotRadialError):
        small_disk_grid.laplace(1.0)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_gaussian_threshold(gaussian_16pi):
    s = HeatMassCurve(gaussian_16pi).invert(12.8 * math.pi)
    assert s == pytest.approx(4.0, rel=1e-7)


def test_invert_disk_two_thirds(disk_16pi):
    s = HeatMassCurve(disk_16pi).invert(disk_16pi.mass() * 2.0 / 3.0)
    # anchored by the inverse of (1-exp(-x))/x at 2/3 ~ 0.87421
    assert s == pytest.approx(1.0 / (4.0 * 0.8742174658), rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(s0=st.floats(0.01, 50.0))
def test_invert_round_trip(s0):
    for d in (ks.Gaussian(16.0 * math.pi, 1.0),
              ks.Annulus(16.0 / 3.0, 1.0, 2.0)):
        curve = HeatMassCurve(d)
        target = curve.evaluate(s0)
        s = curve.invert(target)
        assert s == pytest.approx(s0, rel=1e-7)


def test_invert_target_out_of_range(gaussian_16pi):
    curve = HeatMassCurve(gaussian_16pi)
    with pytest.raises(TargetOutOfRangeError):
        curve.invert(0.0)
    with pytest.raises(TargetOutOfRangeError):
        curve.invert(gaussian_16pi.mass())


def test_invert_bracket_budget(disk_16pi):
    curve = HeatMassCurve(disk_16pi)
    cfg = InversionConfig(max_bracket_steps=1)
    with pytest.raises(BracketFailureError):
        curve.invert(disk_16pi.mass() * (1.0 - 1e-9), config=cfg)


def test_inversion_config_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        InversionConfig(rel_tol=0.0)


def test_grid_matches_analytic_disk(small_disk_grid, disk_16pi):
    # cell-center sums track the analytic curve to grid accuracy
    for s in (0.2, 1.0):
        grid_val = HeatMassCurve(small_disk_grid).evaluate(s)
        exact = HeatMassCurve(disk_16pi).evaluate(s)
        assert grid_val == pytest.approx(exact, rel=5e-3)
