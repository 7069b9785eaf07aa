import functools
import math
import os
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ksblowup as ks
from ksblowup import bounds
from ksblowup.errors import (
    HypothesisCheckError,
    UnboundedSupportError,
    ZeroDatumError,
)
from ksblowup.geometry import support_geometry_of_points

from conftest import (
    EIGHT_PI,
    analytic_families,
    disk_grid,
    pool_grid,
    two_bump_grid,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import workloads  # noqa: E402

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


def _square_cells():
    vals = np.zeros((4, 4))
    vals[1:3, 1:3] = 10.0
    return vals


def test_grid_holds_a_read_only_array_as_is():
    vals = _square_cells()
    vals.setflags(write=False)
    grid = ks.CartesianGrid(vals, 0.5)
    assert np.shares_memory(grid.values, vals)
    assert not grid.values.flags.writeable


def test_grid_copies_a_writeable_array():
    # later writes to the caller's array do not reach the grid
    vals = _square_cells()
    grid = ks.CartesianGrid(vals, 0.5)
    assert not np.shares_memory(grid.values, vals)
    assert not grid.values.flags.writeable
    mass = grid.mass()
    vals[...] = 99.0
    assert grid.values.max() == 10.0
    assert ks.CartesianGrid(grid.values, 0.5).mass() == mass


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

    from ksblowup import geometry

    # rounding bends the diagonal, so its hull keeps a few cells besides
    # the two ends; the brute-force diameter over all 2000 cells is taken
    # in blocks
    grid = ks.CartesianGrid(np.eye(2000), 0.01, (0.013, 0.5))
    xs, ys, _ = grid.cell_coordinates()
    tracemalloc.start()
    try:
        diameter = geometry.point_set_diameter(np.column_stack([xs, ys]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    geom = grid.support_geometry()
    # the values of the all-pairs n x n difference array, bit for bit
    assert geom.r0 == 14.135064555919088
    assert geom.diameter == diameter == 28.270129111838173
    assert geom.center == (10.008000000000003, 10.495000000000001)
    assert peak < 50e6


def _lex_extremes(pts):
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order[[0, -1]]]


def _assert_counter_clockwise_from_smallest(hull):
    assert tuple(hull[0]) == tuple(_lex_extremes(hull)[0])
    for a, b, c in zip(hull, np.roll(hull, -1, axis=0),
                       np.roll(hull, -2, axis=0)):
        assert (b[0] - a[0]) * (c[1] - a[1]) \
            - (b[1] - a[1]) * (c[0] - a[0]) > 0.0


def _vertex_set(pts):
    return {(float(x), float(y)) for x, y in pts}


_seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, n=st.integers(1, 200),
       kind=st.sampled_from(["cloud", "lattice", "duplicated"]))
def test_hull_vertices_equal_qhulls(seed, n, kind):
    from scipy.spatial import ConvexHull, QhullError

    from ksblowup.geometry import _hull_vertices

    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.01, 100.0, size=2)
    else:
        # integer x a power of 2 plus a dyadic origin: exact coordinates,
        # so lattice points on an edge lie exactly on it
        h = 2.0 ** int(rng.integers(-10, 3))
        origin = rng.integers(-64, 64, size=2) / 8.0
        pts = origin + rng.integers(-20, 21, size=(n, 2)) * h
    if kind == "duplicated":
        pts = pts[rng.integers(0, n, size=3 * n)]
    hull = _hull_vertices(pts)
    try:
        want = pts[ConvexHull(pts).vertices]
    except QhullError:
        # fewer than three distinct points, or all of them on one line
        want = _lex_extremes(pts)
    assert len(hull) == len(_vertex_set(hull))
    assert _vertex_set(hull) == _vertex_set(want)
    if len(hull) >= 3:
        _assert_counter_clockwise_from_smallest(hull)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, n=st.integers(3, 200),
       h=st.sampled_from([0.1, 1.0 / 3.0, 0.37, 0.0125]))
def test_hull_vertices_on_rounded_lattices_keep_qhulls(seed, n, h):
    from scipy.spatial import ConvexHull, QhullError

    from ksblowup.geometry import _hull_vertices

    # where rounding moves a lattice point a hair outside an edge, the
    # rounded sign test keeps it as a vertex and Qhull's merge tolerance
    # drops it; every Qhull vertex is kept either way
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=2) \
        + rng.integers(0, int(rng.integers(3, 40)), size=(n, 2)) * h
    try:
        want = ConvexHull(pts)
    except QhullError:
        return
    hull = _hull_vertices(pts)
    assert _vertex_set(pts[want.vertices]) <= _vertex_set(hull)
    scale = np.abs(pts).max()
    # extra vertices lie on Qhull's boundary to the rounding
    outward = want.equations[:, :2] @ hull.T + want.equations[:, 2:]
    assert np.all(outward.max(axis=0) <= 1e-12 * scale)
    assert np.all(outward.max(axis=0) >= -1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(seed=_seeds, n=st.integers(1, 100))
def test_exactly_collinear_hull_is_its_two_extremes(seed, n):
    from ksblowup.geometry import _hull_vertices

    rng = np.random.default_rng(seed)
    start = rng.integers(-64, 64, size=2) / 4.0
    step = rng.integers(-5, 6, size=2) / 8.0
    pts = start + rng.integers(-30, 31, size=(n, 1)) * step
    hull = _hull_vertices(pts)
    want = _lex_extremes(pts)
    if tuple(want[0]) == tuple(want[1]):
        want = want[:1]
    np.testing.assert_array_equal(hull, want)


def _one_cell_grid():
    vals = np.zeros((5, 5))
    vals[2, 2] = 4000.0
    return ks.CartesianGrid(vals, 0.1, (0.0, 0.0))


@pytest.mark.parametrize("make", [
    *(lambda k=k, i=i: pool_grid(k, i)
      for k in ("dense", "sparse") for i in range(workloads.GRID_POOL)),
    _one_cell_grid,
    lambda: ks.CartesianGrid(np.ones((1, 300)), 0.1, (0.3, -2.0)),
    lambda: ks.CartesianGrid(np.ones((300, 1)), 0.1, (0.3, -2.0)),
], ids=[*(f"{k}{i}" for k in ("dense", "sparse")
          for i in range(workloads.GRID_POOL)),
        "one_cell", "one_row", "one_column"])
def test_grid_support_geometry_from_row_ends_equals_all_cells(make):
    grid = make()
    xs, ys, _ = grid.cell_coordinates()
    want = support_geometry_of_points(np.column_stack([xs, ys]))
    assert repr(grid.support_geometry()) == repr(want)


def _random_grid(seed):
    """A grid of random shape, fill, cell size and origin."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 41, 2)
    fill = rng.choice([0.02, 0.2, 1.0])
    vals = np.where(rng.random((rows, cols)) < fill,
                    rng.random((rows, cols)), 0.0)
    vals[rng.integers(rows), rng.integers(cols)] = 1.0
    h = float(rng.choice([1.0, 0.1, 1.0 / 3.0, 0.0375, 0.0156]))
    return ks.CartesianGrid(vals, h, tuple(rng.uniform(-2.0, 2.0, 2)))


@settings(max_examples=60, deadline=None)
@given(grid=st.one_of(_seeds.map(_random_grid), st.deferred(
    lambda: _lattice_grids().map(lambda case: case[0]))))
@example(grid=_random_grid(9))
def test_grid_enclosing_disk_holds_every_cell(grid):
    # the incremental build may leave a cell a few ulps outside its disk
    geom = grid.support_geometry()
    xs, ys, _ = grid.cell_coordinates()
    assert np.hypot(xs - geom.center[0], ys - geom.center[1]).max() <= geom.r0


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

def _squared_distances(grid, z):
    xs, ys, _ = grid.cell_coordinates()
    return (xs - z[0]) ** 2 + (ys - z[1]) ** 2


def _stable_snapshot(grid, z):
    """Sorted distances and cumulative mass about z, the cells in stable
    order of their squared distances."""
    d2 = _squared_distances(grid, z)
    order = np.argsort(d2, kind="stable")
    _, _, w = grid.cell_coordinates()
    return np.sqrt(d2[order]), np.cumsum(w[order]) * grid.cell_size ** 2


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


def _check_binned_profile(grid, z, ms):
    """A binned profile's reads against the snapshot's.

    `radius_bounds` brackets every snapshot radius.  The block gathered
    for the range of ``ms``, and each block a read outside it gathers,
    holds a run of the snapshot's cells, in its order, at its distances,
    and its sums lie within ``eta`` of the snapshot's.  Radii read from
    the block, and from a fresh profile one read at a time, equal the
    snapshot's, except where the target lies within the profile's
    sum-error bound ``eta`` of a step of the cumulative mass.  A profile
    gathered for the fraction 1/2 reads the array ``ms`` so too, and the
    mass within a radius, in its block or out of it, as the snapshot.
    """
    d, cum = _stable_snapshot(grid, z)
    rank = np.empty(d.size, dtype=np.intp)
    rank[np.argsort(_squared_distances(grid, z), kind="stable")] = \
        np.arange(d.size)
    want = grid.mass_profile(z).inverse(ms)
    prof = grid.binned_profile(z)
    targets = ms * grid.mass() * (1.0 - 1e-14)

    def near_step(t):
        k = int(np.searchsorted(cum, t))
        return any(abs(cum[j] - t) <= prof.eta * t
                   for j in (k - 1, k) if 0 <= j < cum.size)

    def check_reads(read):
        for m, t, r0 in zip(ms, targets, want):
            r = read.inverse(float(m))
            assert type(r) is float
            cells, block_d = read.block
            assert np.all(np.diff(rank[cells]) == 1)
            assert block_d.tolist() == d[rank[cells]].tolist()
            exact = cum[rank[cells]]
            assert np.all(np.abs(read._cum - exact) <= read.eta * exact)
            assert r == r0 or near_step(t)

    low, high = prof.radius_bounds(ms)
    assert np.all(low <= want) and np.all(want <= high)
    prof.gather(ms.min(), ms.max())
    check_reads(prof)
    check_reads(grid.binned_profile(z))

    radii = grid.binned_profile(z).gather(0.5, 0.5).inverse(ms)
    assert isinstance(radii, np.ndarray)
    assert all(r == r0 or near_step(t)
               for r, r0, t in zip(radii.tolist(), want, targets))
    block_d = grid.binned_profile(z).gather(0.5, 0.5).block[1]
    for rho in np.concatenate([block_d[[0, block_d.size // 2, -1]],
                               np.unique(d)[::max(1, d.size // 8)],
                               [0.0, 2.0 * d[-1]]]):
        for r in (rho, np.nextafter(rho, 0.0)):
            k = int(np.searchsorted(d, r, side="right"))
            exact = cum[k - 1] if k else 0.0
            assert grid.binned_profile(z).gather(0.5, 0.5).mass_at(r) \
                == float(exact)


_fractions = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=40).map(
    lambda ms: np.array(sorted(ms, reverse=True)))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["dense", "sparse"]), index=st.integers(0, 2),
       dx=st.floats(-1.5, 1.5), dy=st.floats(-1.5, 1.5), ms=_fractions)
def test_binned_profile_reads_pool_grids_off_lattice(kind, index, dx, dy, ms):
    grid = pool_grid(kind, index)
    c = grid.center
    _check_binned_profile(grid, (c[0] + dx, c[1] + dy), ms)


def _edge_tie_case():
    # two cells tie at exactly half the farthest distance, on the edge
    # of bins 2047 and 2048 when binned by squared distance
    vals = np.zeros((9, 9))
    vals[0, 8] = vals[3, 2] = vals[8, 7] = 0.1
    vals[4, 4] = 1.0
    return ks.CartesianGrid(vals, 0.1, (-0.4, -0.4)), (0.0, 0.20000000000000007)


@settings(max_examples=40, deadline=None)
@given(case=_lattice_grids())
@example(case=_edge_tie_case())
def test_binned_profile_reads_tied_lattice_at_steps(case):
    grid, z = case
    _, cum = _stable_snapshot(grid, z)
    # every cumulative fraction, where a tie group ends, and a fine scan
    ms = np.concatenate([np.unique(cum) / grid.mass(),
                         np.linspace(1e-3, 1.0, 97)])
    _check_binned_profile(grid, z, ms)


def _check_one_key(grid, z, reads):
    """The snapshot, the support radius and the masked mass about z all
    read the cells' squared distances: radii are their square roots in
    stable order, and every ``reads``-th radius, and the float below it,
    holds the same cells by both cumulative masses."""
    assert grid.squared_distances(z).tolist() \
        == _squared_distances(grid, z).tolist()
    radii = grid.mass_profile(z).block[1]
    assert radii.tolist() == _stable_snapshot(grid, z)[0].tolist()
    assert grid.support_radius_from(z) == radii[-1]
    # unit weights on the same cells, so both masses count cells exactly
    counts = ks.CartesianGrid((grid.values > 0.0).astype(float),
                              grid.cell_size, grid.origin)
    snap = counts.mass_profile(z)
    for rho in np.unique(radii)[::-reads]:
        for r in (rho, np.nextafter(rho, 0.0)):
            assert counts.radial_mass(z, r) == snap.mass_at(r)


@settings(max_examples=60, deadline=None)
@given(width=st.floats(1e-6, 1e3), bins=st.integers(1, 64))
def test_distance_histogram_bins_keys_from_their_lower_edges(width, bins):
    # keys on, just below and just above every squared bin edge
    edges = (np.arange(bins + 2) * width) ** 2
    keys = np.sort(np.concatenate([edges, np.nextafter(edges, 0.0),
                                   np.nextafter(edges, np.inf)]))
    grid = ks.CartesianGrid(np.ones((1, keys.size)), 0.1)
    idx, hist = grid.distance_histogram(keys, width, bins)
    assert np.all(np.diff(idx) >= 0)
    assert np.all((0 <= idx) & (idx < bins))
    assert np.all((idx * width) ** 2 <= keys)
    assert hist.sum() == keys.size


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["dense", "sparse"]), index=st.integers(0, 2),
       dx=st.floats(-1.5, 1.5), dy=st.floats(-1.5, 1.5))
def test_one_key_on_pool_grids(kind, index, dx, dy):
    grid = pool_grid(kind, index)
    c = grid.center
    _check_one_key(grid, (c[0] + dx, c[1] + dy), reads=97)


@settings(max_examples=40, deadline=None)
@given(case=_lattice_grids())
@example(case=_edge_tie_case())
def test_one_key_on_tied_lattice(case):
    _check_one_key(*case, reads=1)


def test_binned_profile_reads_two_bumps_and_one_cell():
    grid = two_bump_grid(48)
    xs, ys, w = grid.cell_coordinates()
    heaviest = int(np.argmax(w))
    ms = np.concatenate([np.linspace(1e-3, 1.0, 193),
                         0.75 ** np.linspace(1e-6, 1.0 - 1e-6, 96)])
    for z in ((0.1, -0.2), (xs[heaviest] + 1e-3, ys[heaviest]), (7.0, 9.0)):
        _check_binned_profile(grid, z, ms)
    one = ks.CartesianGrid(np.array([[5.0]]), 0.1, (0.3, -0.2))
    for z in ((0.3, -0.2), (0.0, 0.0), (5.0, 1.0)):
        _check_binned_profile(one, z, np.array([1.0, 0.5, 1e-6]))


def test_binned_profile_reads_near_critical_scan():
    # every theta-scan fraction lies within 1e-9 of 1
    values, h, origin = workloads.dense_grid_entry(1)
    grid = ks.CartesianGrid(values, h, origin)
    mass = EIGHT_PI * (1.0 + 1e-9)
    grid = ks.CartesianGrid(values * (mass / grid.mass()), h, origin)
    scan = bounds._ThetaScan(bounds.mass_constants(grid.mass()))
    assert np.all(scan.fractions > 1.0 - 1e-9)
    c = grid.center
    for z in (c, (c[0] + 0.37, c[1] - 0.21)):
        _check_binned_profile(grid, z, scan.fractions)


@st.composite
def _small_grids(draw):
    """(grid, z, threshold): a grid of at most 5x5 integer weights on a
    cell size of a power of 2, so every sum of its cells is exact, about
    a cell center, where cells tie in distance, or a point off the
    lattice, against a threshold a fraction in (2/3, 1) of its mass."""
    side = draw(st.integers(1, 5))
    vals = np.array(draw(st.lists(st.integers(0, 9), min_size=side * side,
                                  max_size=side * side)), dtype=float)
    vals[draw(st.integers(0, side * side - 1))] += 1.0
    h = draw(st.sampled_from([1.0, 0.5, 0.125]))
    grid = ks.CartesianGrid(vals.reshape(side, side), h)
    if draw(st.booleans()):
        z = (h * draw(st.integers(0, side - 1)),
             h * draw(st.integers(0, side - 1)))
    else:
        z = (draw(st.floats(-h, side * h)), draw(st.floats(-h, side * h)))
    return grid, z, draw(st.floats(0.67, 0.999)) * grid.mass()


@settings(max_examples=80, deadline=None)
@given(case=_small_grids())
@example(case=(ks.CartesianGrid(np.array([[5.0]]), 0.5), (0.0, 0.0), 4.0))
def test_cell_infimum_is_the_brute_force_minimum(case):
    # over every cell j at distance d_j, the mass within d_j summed with
    # fsum and read at its safe end M_j (1 - eta) gives the rho objective
    # d_j^2 / (4 ln(M_j (1 - eta) / L)); the cell infimum is its least
    # value, within eta, and at most its value at every cell distance
    grid, z, threshold = case
    profile = grid.mass_profile(z)
    _, _, w = grid.cell_coordinates()
    d = np.sqrt(grid.squared_distances(z))
    h2 = grid.cell_size ** 2
    objective = {}
    for rho in d.tolist():
        mass = math.fsum((w[d <= rho] * h2).tolist()) * (1.0 - profile.eta)
        if mass > threshold:
            objective[rho] = rho * rho / (4.0 * math.log(mass / threshold))
    if not objective or min(objective.values()) == 0.0:
        with pytest.raises(HypothesisCheckError):
            profile.cell_infimum(threshold)
        return
    got = profile.cell_infimum(threshold)
    want = min(objective.values())
    assert abs(got - want) <= profile.eta * want
    # np.log and math.log may round apart by an ulp
    assert all(got <= value * (1.0 + 2.0 ** -50)
               for value in objective.values())


@functools.lru_cache(maxsize=None)
def _fixed_grid(name):
    if name == "two_bump":
        return two_bump_grid(48)
    return ks.CartesianGrid(np.array([[5.0]]), 0.1, (0.3, -0.2))


@st.composite
def _probes(draw):
    """(grid, z): a pool grid, the two-bump grid or the one-cell grid
    about a point near its barycenter, or a tied lattice about a cell."""
    name = draw(st.sampled_from(["dense", "sparse", "two_bump", "one_cell",
                                 "lattice"]))
    if name == "lattice":
        return draw(_lattice_grids())
    grid = pool_grid(name, draw(st.integers(0, workloads.GRID_POOL - 1))) \
        if name in ("dense", "sparse") else _fixed_grid(name)
    c = grid.center
    return grid, (c[0] + draw(st.floats(-1.5, 1.5)),
                  c[1] + draw(st.floats(-1.5, 1.5)))


@settings(max_examples=60, deadline=None)
@given(case=_probes(), gap=st.floats(-9.0, 1.0))
@example(case=_edge_tie_case(), gap=0.0)
@example(case=(pool_grid("sparse", 0),
               (0.8426077613246891, 3.0839301268956243)), gap=0.0)
def test_binned_theta_form_equals_the_snapshot_form(case, gap):
    # the scan of a mass 8 pi (1 + 10^gap), read exactly only where its
    # bounds may hold its minimum, has the snapshot form's bits: with the
    # snapshot's reads always, with the binned reads unless one of them
    # lies within eta of a step (the explicit sparse example has one)
    grid, z = case
    scan = bounds._ThetaScan(bounds.mass_constants(EIGHT_PI * (1.0 + 10.0 ** gap)))
    snap, prof = grid.mass_profile(z), grid.binned_profile(z)
    want = scan.form(snap.inverse, snap.inverse(scan.fractions).tolist())
    pruned = types.SimpleNamespace(radius_bounds=prof.radius_bounds,
                                   gather=lambda low, high: None,
                                   inverse=snap.inverse)
    assert scan.binned_form(pruned) == want
    _, cum = _stable_snapshot(grid, z)
    near = []

    def inverse(m):
        t = m * grid.mass() * (1.0 - 1e-14)
        k = int(np.searchsorted(cum, t))
        near.extend(j for j in (k - 1, k)
                    if 0 <= j < cum.size and abs(cum[j] - t) <= prof.eta * t)
        return prof_inverse(m)

    prof_inverse, prof.inverse = prof.inverse, inverse
    assert scan.binned_form(prof) == want or near
