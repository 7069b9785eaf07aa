import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksblowup as ks
from ksblowup.errors import UnboundedSupportError, ZeroDatumError
from ksblowup.geometry import support_geometry_of_points

from conftest import analytic_families, disk_grid, two_bump_grid

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


def _non_finite_cases(bad):
    cell = np.ones((3, 3))
    cell[1, 1] = bad
    return {
        "gaussian_mass": lambda: ks.Gaussian(bad, 1.0),
        "gaussian_center": lambda: ks.Gaussian(60.0, 1.0, (bad, 0.0)),
        "disk_height": lambda: ks.DiskIndicator(bad, 1.0),
        "disk_radius": lambda: ks.DiskIndicator(16.0, bad),
        "annulus_r_outer": lambda: ks.Annulus(1.0, 1.0, bad),
        "polygaussian_power": lambda: ks.PolyGaussian(16.0, bad, 1.0),
        "polygaussian_rate": lambda: ks.PolyGaussian(16.0, 1, bad),
        "diffgaussians_rate_fast": lambda: ks.DiffGaussians(32.0, 1.0, bad),
        "radial_profile_knot": lambda: ks.RadialProfile((0.0, bad),
                                                        (1.0, 0.0)),
        "radial_profile_value": lambda: ks.RadialProfile((0.0, 1.0),
                                                         (bad, 0.0)),
        "grid_cell": lambda: ks.CartesianGrid(cell, 0.1),
        "grid_cell_size": lambda: ks.CartesianGrid(np.ones((3, 3)), bad),
        "grid_origin": lambda: ks.CartesianGrid(np.ones((3, 3)), 0.1,
                                                (0.0, bad)),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(_non_finite_cases(0.0)))
def test_non_finite_input_raises(case, bad):
    with pytest.raises(ValueError, match="must be finite"):
        _non_finite_cases(bad)[case]()


@pytest.mark.parametrize("d, label", [
    (ks.Gaussian(50.0, 1.25), "gaussian(mass=50, sigma=1.25)"),
    (ks.DiskIndicator(16.0 / 3.0, 1.5, (0.5, -2.0)),
     "disk(height=5.33333, radius=1.5)"),
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0),
     "annulus(height=5.33333, r_inner=1, r_outer=2)"),
    (ks.PolyGaussian(16.0, 1, 1.0), "polygaussian(height=16, power=1, rate=1)"),
    (ks.PolyGaussian(2.5e7, 12, 0.125),
     "polygaussian(height=2.5e+07, power=12, rate=0.125)"),
    (ks.DiffGaussians(100.0 / 7.0, 1e-3, 123456789.0),
     "diffgaussians(height=14.2857, rate_slow=0.001, rate_fast=1.23457e+08)"),
    (ks.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0)),
     "radial_profile(3 knots, mass=70.6858)"),
    (ks.CartesianGrid(np.ones((3, 4)), 0.5), "grid(3x4, mass=3)"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_labels_are_pinned(d, label):
    # reports and sweeps print these strings; the center never shows
    assert d.label() == label


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


def test_grid_radial_mass_matches_masked_sum():
    # integer weights, symmetric about (0, 0) on an integer lattice, so the
    # barycentre is exact and many cells tie in distance from it
    vals = np.array([[1, 2, 3, 2, 1],
                     [2, 5, 7, 5, 2],
                     [3, 7, 9, 7, 3],
                     [2, 5, 7, 5, 2],
                     [1, 2, 3, 2, 1]], dtype=float)
    vals = np.pad(vals, ((1, 3), (2, 0)))
    grid = ks.CartesianGrid(vals, 1.0, (-4.0, -3.0))
    assert grid.barycenter() == (0.0, 0.0)
    ii, jj = np.nonzero(vals)
    w = vals[ii, jj]
    for z in (None, (0.0, 0.0), (0.5, -1.25)):
        zx, zy = (0.0, 0.0) if z is None else z
        dist = np.hypot(-4.0 + jj - zx, -3.0 + ii - zy)
        for rho in np.unique(dist):
            for r in (rho, np.nextafter(rho, 0.0)):
                want = float(w[dist <= r].sum())
                assert grid.radial_mass(z, r) == pytest.approx(
                    want, rel=1e-13, abs=0.0)


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
        assert d.radial_mass(None, rho) / d.mass() == pytest.approx(
            m, abs=1e-7)


def test_generalized_inverse_plateau_left_endpoint():
    # density vanishes on [1, 2]; the mass fraction plateaus there and the
    # generalized inverse must return the left endpoint
    prof = ks.RadialProfile((0.0, 1.0, 2.0, 3.0, 4.0),
                            (1.0, 0.0, 0.0, 1.0, 0.0))
    plateau_level = prof.radial_mass(None, 1.0) / prof.mass()
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
    # every cell carrying mass is support, however light
    assert grid.support_geometry().diameter > 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=2, max_size=40))
def test_jung_inequalities_on_point_sets(points):
    geom = support_geometry_of_points(points)
    d, r0 = geom.diameter, geom.r0
    assert d / 2.0 <= r0 * (1.0 + 1e-9) + 1e-12
    assert r0 <= d * (1.0 + 1e-9) + 1e-12
    assert r0 <= d / math.sqrt(3.0) * (1.0 + 1e-9) + 1e-12
    # every input point is enclosed
    cx, cy = geom.center
    for px, py in points:
        assert math.hypot(px - cx, py - cy) <= r0 * (1.0 + 1e-9) + 1e-12


def _point_sets():
    rng = np.random.default_rng(7)
    cloud = rng.normal(size=(400, 2)) * (3.0, 1.0) + (2.0, -1.0)
    t = rng.uniform(-2.0, 5.0, size=60)
    collinear = np.column_stack([1.5 * t - 0.25, -0.5 * t + 3.0])
    duplicated = np.repeat(rng.uniform(-1.0, 1.0, size=(12, 2)), 5, axis=0)
    return {"cloud": cloud, "collinear": collinear, "duplicated": duplicated,
            "few": cloud[:10]}


@pytest.mark.parametrize("name", ["cloud", "collinear", "duplicated", "few"])
def test_support_geometry_on_hull_matches_all_points(name):
    from ksblowup.geometry import smallest_enclosing_disk

    points = _point_sets()[name]
    geom = support_geometry_of_points(points)
    cx, cy, r0 = smallest_enclosing_disk(points)
    assert geom.r0 == pytest.approx(r0, rel=1e-12)
    assert math.hypot(geom.center[0] - cx, geom.center[1] - cy) \
        <= 1e-12 * r0
    diff = points[:, None, :] - points[None, :, :]
    assert geom.diameter == pytest.approx(
        float(np.sqrt((diff ** 2).sum(axis=2)).max()), rel=1e-12)
    dist = np.hypot(points[:, 0] - geom.center[0],
                    points[:, 1] - geom.center[1])
    assert dist.max() <= geom.r0 * (1.0 + 1e-12)


@pytest.mark.parametrize("shape", [(1, 2000), (2000, 1)],
                         ids=["one_row", "one_column"])
def test_collinear_grid_support_uses_two_extremes(shape, monkeypatch):
    from ksblowup import geometry

    sizes = []
    diameter = geometry.point_set_diameter
    monkeypatch.setattr(geometry, "point_set_diameter",
                        lambda pts: sizes.append(len(pts)) or diameter(pts))
    h = 0.01
    grid = ks.CartesianGrid(np.ones(shape), h, (1.0, -2.0))
    geom = grid.support_geometry()
    # the cell centers span (n - 1) cells along one axis
    length = (max(shape) - 1) * h
    assert geom.diameter == pytest.approx(length, rel=1e-12)
    assert geom.r0 == pytest.approx(0.5 * length, rel=1e-12)
    mid = 0.5 * length
    want = (1.0 + mid, -2.0) if shape[0] == 1 else (1.0, -2.0 + mid)
    assert geom.center == pytest.approx(want, rel=1e-12)
    assert sizes == [2]


def test_near_collinear_grid_support_in_linear_memory():
    import tracemalloc

    # rounding keeps Qhull from reducing the diagonal to its two ends, so
    # all 2000 cells reach the brute-force diameter
    grid = ks.CartesianGrid(np.eye(2000), 0.01, (0.013, 0.5))
    tracemalloc.start()
    try:
        geom = grid.support_geometry()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values of the all-pairs n x n difference array, bit for bit
    assert geom.r0 == 14.135064555919088
    assert geom.diameter == 28.270129111838173
    assert geom.center == (10.008000000000003, 10.495000000000001)
    assert peak < 50e6


def test_near_critical_references_only_for_the_disk():
    disk = ks.DiskIndicator(8.05, 1.0)
    gap = disk.mass() - 8.0 * math.pi
    assert disk.near_critical_references() == (
        ("disk_asym_fixed_radius", 2.0 * math.pi / gap,
         "asymptotic as mass -> 8*pi, radius fixed"),
        ("disk_asym_fixed_height", 16.0 * math.pi / (8.05 * gap),
         "asymptotic as mass -> 8*pi, height fixed"))
    # outside the 1% band above 8 pi, and for every other family, none
    assert ks.DiskIndicator(8.1, 1.0).near_critical_references() == ()
    assert ks.Gaussian(8.05 * math.pi, 1.0).near_critical_references() == ()
    assert disk_grid(16).near_critical_references() == ()


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


# ---------------------------------------------------------------------------
# cumulative-mass snapshots: one inverse for a fraction or an array of them
# ---------------------------------------------------------------------------

def _stable_snapshot(grid, z):
    """Sorted distances and cumulative mass about z, cells in stable order."""
    xs, ys, w = grid.cell_coordinates()
    d = np.hypot(xs - z[0], ys - z[1])
    order = np.argsort(d, kind="stable")
    return d[order], np.cumsum(w[order]) * grid.cell_size ** 2


def _check_grid_snapshot(grid, z, ms):
    d, cum = _stable_snapshot(grid, z)
    want = [float(d[min(int(np.searchsorted(
        cum, m * grid.mass() * (1.0 - 1e-14))), len(d) - 1)]) for m in ms]
    snap = grid.mass_profile(z)
    radii = snap.inverse(ms)
    assert isinstance(radii, np.ndarray)
    scalar = [snap.inverse(m) for m in ms]
    assert all(type(r) is float for r in scalar)
    assert radii.tolist() == scalar == want
    for rho in np.unique(d):
        idx = int(np.searchsorted(d, rho, side="right"))
        assert snap.mass_at(rho) == float(cum[idx - 1])


@st.composite
def _lattice_grids(draw):
    # a lattice with a cell center at the origin, where many cells tie in
    # distance from any cell center; unequal weights within a tie make
    # the cumulative sums depend on the order of the tied cells
    n = draw(st.integers(1, 6))
    side = 2 * n + 1
    vals = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.7, 1.3, 2.9]),
        min_size=side * side, max_size=side * side))).reshape(side, side)
    vals[n, n] += 1.0
    h = draw(st.sampled_from([1.0, 0.5, 0.1]))
    grid = ks.CartesianGrid(vals, h, (-n * h, -n * h))
    i, j = draw(st.integers(0, 2 * n)), draw(st.integers(0, 2 * n))
    return grid, (-n * h + j * h, -n * h + i * h)


@settings(max_examples=40, deadline=None)
@given(case=_lattice_grids())
def test_grid_snapshot_inverse_on_tied_lattice(case):
    grid, z = case
    _, cum = _stable_snapshot(grid, z)
    # every cumulative fraction, where a tie group ends, and a fine scan
    ms = np.concatenate([np.unique(cum) / grid.mass(),
                         np.linspace(1e-3, 1.0, 97)])
    _check_grid_snapshot(grid, z, ms)


def test_grid_snapshot_inverse_on_two_bumps():
    grid = two_bump_grid(48)
    xs, ys, w = grid.cell_coordinates()
    heaviest = int(np.argmax(w))
    ms = np.concatenate([np.linspace(1e-3, 1.0, 193),
                         0.75 ** np.linspace(1e-6, 1.0 - 1e-6, 96)])
    for z in (grid.barycenter(), (xs[heaviest], ys[heaviest]), (0.1, -0.2)):
        _check_grid_snapshot(grid, z, ms)


def _reference_radial_inverse(snap, m):
    """The radial snapshot's inverse one fraction at a time, branch by
    branch."""
    us, cum = snap._us, snap._cum
    target = m * snap._mass
    idx = int(np.searchsorted(cum, target))
    if idx >= len(us):
        return float(us[-1])
    if idx == 0:
        return float(us[0])
    c0, c1 = cum[idx - 1], cum[idx]
    u0, u1 = us[idx - 1], us[idx]
    if c1 == c0:
        return float(u1)
    return float(u0 + (target - c0) * (u1 - u0) / (c1 - c0))


@pytest.mark.parametrize("d, z, n", [
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0), (0.3, 0.0), 512),
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0), (0.0, 0.0), 4096),
    (ks.Gaussian(16.0 * math.pi, 1.0), (1.1, -0.4), 512),
], ids=["annulus_off_center", "annulus_center", "gaussian_off_center"])
def test_radial_snapshot_inverse_matches_scalar_reference(d, z, n):
    snap = d.mass_profile(z, n)
    # below, across and above the profile, the annulus' empty core included
    ms = np.concatenate([[0.0, 1e-300], np.linspace(1e-4, 1.0, 301),
                         [1.0 + 1e-9, 2.0]])
    radii = snap.inverse(ms)
    assert isinstance(radii, np.ndarray)
    scalar = [snap.inverse(m) for m in ms]
    assert all(type(r) is float for r in scalar)
    assert radii.tolist() == scalar == [
        _reference_radial_inverse(snap, m) for m in ms]
