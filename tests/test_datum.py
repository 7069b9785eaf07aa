import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksblowup as ks
from ksblowup.errors import UnboundedSupportError, ZeroDatumError

from conftest import analytic_families, disk_grid

FAMILY_NAMES = ("gaussian", "disk", "annulus", "polygaussian", "diffgaussians")


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        ks.Annulus(1.0, 2.0, 1.0)  # inner >= outer
    with pytest.raises(ValueError):
        ks.DiffGaussians(1.0, 2.0, 1.0)  # slow >= fast
    with pytest.raises(ValueError):
        ks.Gaussian(10.0, -1.0)
    with pytest.raises(ValueError):
        ks.PolyGaussian(1.0, -2, 1.0)
    with pytest.raises(ZeroDatumError):
        ks.RadialProfile((0.0, 1.0), (0.0, 0.0))
    with pytest.raises(ZeroDatumError):
        ks.CartesianGrid(np.zeros((4, 4)), 0.1)
    with pytest.raises(ValueError):
        ks.CartesianGrid(np.array([[1.0, -0.5]]), 0.1)
    with pytest.raises(ValueError):
        ks.RadialProfile((0.5, 1.0), (1.0, 0.0))  # first knot not at 0


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_closed_forms():
    assert ks.DiskIndicator(16.0, 1.0).mass() == pytest.approx(16.0 * math.pi,
                                                               rel=1e-14)
    assert ks.PolyGaussian(16.0, 1, 1.0).mass() == pytest.approx(
        16.0 * math.pi, rel=1e-14)
    assert ks.Annulus(16.0 / 3.0, 1.0, 2.0).mass() == pytest.approx(
        16.0 * math.pi, rel=1e-14)
    assert ks.DiffGaussians(32.0, 1.0, 2.0).mass() == pytest.approx(
        16.0 * math.pi, rel=1e-14)


def test_grid_mass_richardson():
    # midpoint sampling of the unit-disk indicator: error shrinks with h
    # and the finest grid sits within the extrapolated band
    target = 16.0 * math.pi
    errors = [abs(disk_grid(n).mass() - target) for n in (128, 256, 512)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-3 * target


def test_profile_mass_exact_segments():
    # triangular bump: 2*pi * integral_0^1 (1-r) r dr = pi/3
    prof = ks.RadialProfile((0.0, 1.0), (1.0, 0.0))
    assert prof.mass() == pytest.approx(math.pi / 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# barycenter
# ---------------------------------------------------------------------------

def test_barycenter_symmetry():
    g = ks.Gaussian(16.0 * math.pi, 1.0, (3.0, -2.0))
    assert g.barycenter() == (3.0, -2.0)
    ann = ks.Annulus(1.0, 1.0, 2.0, (0.0, 0.0))
    assert ann.barycenter() == (0.0, 0.0)


def test_grid_barycenter_tracks_shift():
    shifted = disk_grid(256, shift=(0.3, -0.2))
    bx, by = shifted.barycenter()
    assert abs(bx - 0.3) < 0.01
    assert abs(by + 0.2) < 0.01


# ---------------------------------------------------------------------------
# beta variance
# ---------------------------------------------------------------------------

def test_variance_closed_forms():
    assert ks.Gaussian(16.0 * math.pi, 1.0).beta_variance(2.0) \
        == pytest.approx(4.0, rel=1e-12)
    assert ks.DiskIndicator(16.0, 1.0).beta_variance(2.0) \
        == pytest.approx(0.5, rel=1e-12)
    assert ks.DiffGaussians(32.0, 1.0, 2.0).beta_variance(2.0) \
        == pytest.approx(1.5, rel=1e-12)
    assert ks.Annulus(16.0 / 3.0, 1.0, 2.0).beta_variance(2.0) \
        == pytest.approx(2.5, rel=1e-12)


def test_profile_variance_matches_quadrature():
    # triangular bump: V2 = (2 pi/M) int_0^1 (1-r) r^3 dr = 6 * (1/4 - 1/5)
    prof = ks.RadialProfile((0.0, 1.0), (1.0, 0.0))
    expect = 2.0 * math.pi * (0.25 - 0.2) / (math.pi / 3.0)
    assert prof.beta_variance(2.0) == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_variance_nondecreasing_in_beta(name):
    d = analytic_families(16.0 * math.pi)[name]
    v2, v3, v4 = (d.beta_variance(b) for b in (2.0, 3.0, 4.0))
    assert v2 <= v3 * (1.0 + 1e-12)
    assert v3 <= v4 * (1.0 + 1e-12)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_moment_infimum_bracket(name):
    # (1/4) V_beta <= inf_z moment about z <= V_beta, inf on a search grid;
    # at beta = 2 the infimum is attained at the barycenter
    d = analytic_families(16.0 * math.pi)[name]
    for beta in (2.0, 3.0):
        vb = d.beta_variance(beta)
        zgrid = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.5)]
        inf_val = min(d.beta_moment_about(z, beta) for z in zgrid + [d.center])
        assert 0.25 * vb <= inf_val * (1.0 + 1e-12)
        assert inf_val <= vb * (1.0 + 1e-12)
    b0 = d.barycenter()
    assert d.beta_moment_about(b0, 2.0) == pytest.approx(d.beta_variance(2.0),
                                                         rel=1e-12)
    probe = (b0[0] + 0.7, b0[1] - 0.3)
    assert d.beta_moment_about(probe, 2.0) >= d.beta_variance(2.0)


# ---------------------------------------------------------------------------
# Lp norms
# ---------------------------------------------------------------------------

def test_lp_norm_closed_forms():
    disk = ks.DiskIndicator(16.0, 1.0)
    assert disk.lp_norm(2.0) == pytest.approx(16.0 * math.sqrt(math.pi),
                                              rel=1e-12)
    g = ks.Gaussian(16.0 * math.pi, 1.0)
    expect = 16.0 * math.pi * (4.0 * math.pi) ** -0.5 * 2.0 ** -0.5
    assert g.lp_norm(2.0) == pytest.approx(expect, rel=1e-12)
    assert g.lp_norm(math.inf) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_l1_norm_is_mass(name):
    d = analytic_families(16.0 * math.pi)[name]
    assert d.lp_norm(1.0) == pytest.approx(d.mass(), rel=1e-12)


def test_numeric_lp_matches_closed_form():
    # polygaussian has a closed form; diffgaussians goes through quadrature.
    # cross-check the quadrature path on the polygaussian closed form
    pg = ks.PolyGaussian(16.0, 1, 1.0)
    numeric = ks.InitialDatum._lp_norm_finite(pg, 2.5)
    assert numeric == pytest.approx(pg.lp_norm(2.5), rel=1e-9)


# ---------------------------------------------------------------------------
# radial cumulative mass and its generalized inverse
# ---------------------------------------------------------------------------

def test_radial_mass_closed_forms():
    g = ks.Gaussian(16.0 * math.pi, 1.0, (1.0, 2.0))
    rho = 2.0
    expect = 16.0 * math.pi * (1.0 - math.exp(-rho * rho / 4.0))
    assert g.radial_mass(None, rho) == pytest.approx(expect, rel=1e-12)
    disk = ks.DiskIndicator(16.0, 1.0)
    assert disk.radial_mass(None, 0.5) == pytest.approx(
        16.0 * math.pi * 0.25, rel=1e-12)
    assert disk.radial_mass(None, 3.0) == pytest.approx(disk.mass(),
                                                        rel=1e-12)
    assert disk.radial_mass(None, 0.0) == 0.0


@pytest.mark.parametrize("name", FAMILY_NAMES + ("grid",))
def test_radial_mass_monotone_with_limits(name):
    if name == "grid":
        d = disk_grid(96)
    else:
        d = analytic_families(16.0 * math.pi)[name]
    z = (0.4, -0.1)
    rhos = np.geomspace(1e-3, 40.0, 60)
    vals = [d.radial_mass(z, r) for r in rhos]
    assert all(b >= a - 1e-9 * d.mass() for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 0.05 * d.mass()
    assert vals[-1] == pytest.approx(d.mass(), rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(zx=st.floats(-3, 3), zy=st.floats(-3, 3),
       rho=st.floats(0.05, 8.0))
def test_center_dominates_offcenter_mass(zx, zy, rho):
    # non-increasing radial data concentrate the most mass at the center
    for d in (ks.Gaussian(16.0 * math.pi, 1.0),
              ks.DiskIndicator(16.0, 1.0)):
        off = d.radial_mass((zx, zy), rho)
        center = d.radial_mass(None, rho)
        assert off <= center * (1.0 + 1e-9) + 1e-12


def test_generalized_inverse_closed_forms():
    disk = ks.DiskIndicator(16.0, 1.0)
    assert disk.generalized_inverse(None, 0.25) == pytest.approx(0.5,
                                                                 rel=1e-12)
    g = ks.Gaussian(16.0 * math.pi, 1.0)
    m = 0.3
    assert g.generalized_inverse(None, m) == pytest.approx(
        math.sqrt(-4.0 * math.log1p(-m)), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(m=st.floats(0.01, 0.99))
def test_generalized_inverse_is_right_inverse(m):
    for d in analytic_families(16.0 * math.pi).values():
        rho = d.generalized_inverse(None, m)
        assert d.mass_fraction(None, rho) == pytest.approx(m, abs=1e-7)


def test_generalized_inverse_plateau_left_endpoint():
    # density vanishes on [1, 2]; the mass fraction plateaus there and the
    # generalized inverse must return the left endpoint
    prof = ks.RadialProfile((0.0, 1.0, 2.0, 3.0, 4.0),
                            (1.0, 0.0, 0.0, 1.0, 0.0))
    plateau_level = prof.mass_fraction(None, 1.0)
    assert 0.0 < plateau_level < 1.0
    rho = prof.generalized_inverse(None, plateau_level)
    assert rho == pytest.approx(1.0, abs=1e-6)


def test_generalized_inverse_m_one_needs_compact_support():
    disk = ks.DiskIndicator(16.0, 1.0, (1.0, 0.0))
    assert disk.generalized_inverse((0.0, 0.0), 1.0) == pytest.approx(2.0)
    with pytest.raises(UnboundedSupportError):
        ks.Gaussian(16.0 * math.pi, 1.0).generalized_inverse(None, 1.0)


# ---------------------------------------------------------------------------
# support geometry
# ---------------------------------------------------------------------------

def test_support_geometry_analytic():
    disk = ks.DiskIndicator(16.0, 1.0, (2.0, 3.0))
    geom = disk.support_geometry()
    assert geom.r0 == 1.0 and geom.diameter == 2.0
    assert geom.center == (2.0, 3.0)
    ann = ks.Annulus(1.0, 1.0, 2.0).support_geometry()
    assert ann.r0 == 2.0 and ann.diameter == 4.0
    for d in (ks.Gaussian(16.0 * math.pi, 1.0),
              ks.PolyGaussian(16.0, 1, 1.0),
              ks.DiffGaussians(32.0, 1.0, 2.0)):
        with pytest.raises(UnboundedSupportError):
            d.support_geometry()


@pytest.mark.parametrize("name", FAMILY_NAMES + ("radial_profile", "grid"))
def test_compact_support_flag_matches_geometry(name):
    d = {**analytic_families(16.0 * math.pi),
         "radial_profile": ks.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0)),
         "grid": disk_grid(16)}[name]
    try:
        d.support_geometry()
    except UnboundedSupportError:
        bounded = False
    else:
        bounded = True
    assert d.has_compact_support is bounded


def test_two_point_grid_support():
    vals = np.zeros((3, 5))
    vals[1, 0] = 1.0
    vals[1, 4] = 1.0
    grid = ks.CartesianGrid(vals, 0.5, (0.0, 0.0))
    geom = grid.support_geometry()
    assert geom.diameter == pytest.approx(2.0)
    assert geom.r0 == pytest.approx(1.0)


def test_grid_support_threshold():
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    vals[0, 0] = 1e-9  # noise cell
    grid = ks.CartesianGrid(vals, 1.0, (0.0, 0.0))
    assert grid.support_geometry().diameter > 1.0
    assert grid.support_geometry(rel_threshold=1e-6).diameter == 0.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=2, max_size=40))
def test_jung_inequalities_on_point_sets(points):
    from ksblowup.geometry import support_geometry_of_points

    geom = support_geometry_of_points(points)
    d, r0 = geom.diameter, geom.r0
    assert d / 2.0 <= r0 * (1.0 + 1e-9) + 1e-12
    assert r0 <= d * (1.0 + 1e-9) + 1e-12
    assert r0 <= d / math.sqrt(3.0) * (1.0 + 1e-9) + 1e-12
    # every input point is enclosed
    cx, cy = geom.center
    for px, py in points:
        assert math.hypot(px - cx, py - cy) <= r0 * (1.0 + 1e-9) + 1e-12


def test_jung_on_compact_families():
    for d in (ks.DiskIndicator(16.0, 1.0), ks.Annulus(16.0 / 3.0, 1.0, 2.0),
              ks.RadialProfile((0.0, 1.0), (1.0, 0.0))):
        geom = d.support_geometry()
        assert geom.diameter / 2.0 <= geom.r0 <= geom.diameter
        assert geom.r0 <= geom.diameter / math.sqrt(3.0)


def test_annulus_enclosing_disk_by_center_scan():
    # the smallest disk enclosing the annulus support is the outer disk:
    # minimizing the farthest-support distance over a center grid agrees
    ann = ks.Annulus(16.0 / 3.0, 1.0, 2.0, (0.5, -0.25))
    grid = np.linspace(-1.0, 1.0, 21)
    best = min(ann.support_radius_from((0.5 + dx, -0.25 + dy))
               for dx in grid for dy in grid)
    assert best == pytest.approx(ann.support_geometry().r0, rel=1e-12)
