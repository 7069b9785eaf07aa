import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import ksblowup as ks
from ksblowup import HeatMassCurve, searches
from ksblowup.searches import invert_increasing
from ksblowup.errors import (
    BracketFailureError,
    NonPositiveTimeError,
    NotRadialError,
    TargetOutOfRangeError,
)

from conftest import analytic_families, mean_shift_step, two_bump_grid

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
    quad = g._heat_mass_quadrature((zx, zy), s)
    assert quad == pytest.approx(closed, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ALL_RADIAL), delta=st.floats(1e-3, 4.0),
       s=st.floats(1e-3, 100.0))
def test_offcentre_integrand_skips_i0e_only_where_it_is_zero(name, delta, s):
    from scipy import special

    from ksblowup import datum

    # every node's value equals the plain four-factor product, bit for bit
    d = analytic_families(16.0 * math.pi)[name]
    original = datum.integrate_panels
    checked = []

    def compare(fn, edges, order):
        r = np.linspace(0.0, float(edges[-1]), 2001)
        plain = (d.profile(r) * r * np.exp(-(r - delta) ** 2 / (4.0 * s))
                 * special.i0e(r * delta / (2.0 * s)))
        assert np.array_equal(np.signbit(fn(r)), np.signbit(plain))
        assert np.array_equal(fn(r), plain)
        checked.append(edges)
        return original(fn, edges, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datum, "integrate_panels", compare)
        d._heat_mass_quadrature((delta, 0.0), s)
    assert len(checked) == 1


@pytest.mark.parametrize("s", [0.03, 0.25, 1.0, 10.0])
def test_disk_quadrature_agreement(disk_16pi, s):
    # H(s) = M (1 - exp(-lam)) / lam at the center, lam = R^2 / (4 s)
    lam = 1.0 / (4.0 * s)
    closed = disk_16pi.mass() * (-math.expm1(-lam)) / lam
    quad = disk_16pi._heat_mass_quadrature(None, s)
    assert quad == pytest.approx(closed, rel=1e-8)


# ---------------------------------------------------------------------------
# Laplace-transform path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_RADIAL)
def test_laplace_identity(name):
    d = analytic_families(16.0 * math.pi)[name]
    for s in (0.05, 0.4, 2.0, 30.0):
        direct = d._heat_mass_quadrature(None, s)
        via_laplace = math.pi * d.laplace(1.0 / (4.0 * s))
        assert via_laplace == pytest.approx(direct, rel=1e-8)


def test_laplace_identity_profile():
    prof = ks.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0))
    for s in (0.1, 1.0, 10.0):
        direct = HeatMassCurve(prof).evaluate(s)
        assert math.pi * prof.laplace(1.0 / (4.0 * s)) \
            == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("prof", [
    ks.RadialProfile((0.0, 0.5, 1.5), (30.0, 20.0, 0.0)),
    ks.RadialProfile((0.0, 0.5, 1.5), (10.0, 30.0, 0.0)),
    ks.RadialProfile((0.0, 1.0, 2.0, 3.0, 4.0), (90.0, 0.0, 0.0, 1.0, 0.0)),
])
def test_laplace_profile_matches_adaptive_quadrature(prof):
    # an outside reference for the profile's H quadrature: scipy's
    # adaptive quad of exp(-v r^2) profile(r) 2 r, one knot interval each
    def integrand(r, v):
        return math.exp(-v * r * r) * float(prof.profile(r)) * 2.0 * r

    for v in (0.025, 0.25, 2.5, 40.0):
        want = sum(integrate.quad(integrand, a, b, args=(v,), epsabs=0.0,
                                  epsrel=1e-13)[0]
                   for a, b in zip(prof.radii, prof.radii[1:]))
        assert prof.laplace(v) == pytest.approx(want, rel=1e-10), v


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
    # H(s) ~ 4 s M / R^2 as s -> 0, so the 200 factor-4 shrink steps
    # (down to s = 4^-200 ~ 1e-120) never reach H <= 1e-200
    curve = HeatMassCurve(disk_16pi)
    with pytest.raises(BracketFailureError):
        curve.invert(1e-200)


@pytest.mark.parametrize("d, z", [
    (ks.Gaussian(16.0 * math.pi, 1.0), None),
    (ks.Gaussian(16.0 * math.pi, 1.0), (0.7, -0.4)),
    (ks.DiskIndicator(16.0, 1.0), (0.5, 0.25)),
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0), None),
    (ks.DiffGaussians(32.0, 1.0, 2.0), (0.3, 0.0)),
])
def test_invert_returns_the_safe_end_of_a_narrow_bracket(d, z):
    curve = HeatMassCurve(d, z)
    for fraction in (0.1, 0.5, 0.8, 0.99):
        target = fraction * d.mass()
        evaluated = {}

        def recorded(s):
            evaluated[s] = curve.evaluate(s)
            return evaluated[s]

        s = invert_increasing(recorded, target)
        # an evaluated time that reached the target: an exact hit, or one
        # with an evaluated time below the target within 1e-13 beneath it
        lo = max(t for t, h in evaluated.items() if h < target)
        assert evaluated[s] >= target
        assert evaluated[s] == target or 0.0 < s - lo <= 1e-13 * s
        assert curve.invert(target) == s


def _counted_inversion(curve, target):
    """(s, number of evaluate calls) of one inversion."""
    calls = []
    evaluate = curve.evaluate

    def counted(s):
        calls.append(s)
        return evaluate(s)

    curve.evaluate = counted
    return curve.invert(target), len(calls)


@pytest.mark.parametrize("d, z, count, secant_count", [
    (ks.Gaussian(16.0 * math.pi, 1.0), (0.7, -0.4), 9, 20),
    (ks.DiskIndicator(16.0, 1.0), (0.5, 0.25), 8, 19),
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0), (0.5, 0.25), 7, 28),
])
def test_invert_reuses_bracket_end_values(d, z, count, secant_count):
    # the bracket phase has already evaluated H at both ends and Brent's
    # method starts from those values; ``secant_count`` is the count of
    # the secant/bisection refinement it replaced
    s, calls = _counted_inversion(HeatMassCurve(d, z), 0.5 * d.mass())
    assert calls == count
    assert calls <= secant_count
    assert HeatMassCurve(d, z).evaluate(s) == pytest.approx(
        0.5 * d.mass(), rel=1e-9)


# ---------------------------------------------------------------------------
# grid sums
# ---------------------------------------------------------------------------

def _two_disk_grid():
    """Two small disks in opposite corners of a 64^2 grid, with empty
    rows and columns between them."""
    c = np.arange(64) * 0.125
    X, Y = np.meshgrid(c, c)
    vals = np.where(np.hypot(X - 1.0, Y - 1.0) <= 0.6, 20.0, 0.0)
    vals += np.where(np.hypot(X - 6.5, Y - 6.0) <= 0.4, 35.0, 0.0)
    return ks.CartesianGrid(vals, 0.125, (0.0, 0.0))


def _single_cell_grid():
    vals = np.zeros((9, 7))
    vals[4, 2] = 50.0
    return ks.CartesianGrid(vals, 0.5, (-1.0, -2.0))


def _diagonal_grid():
    return ks.CartesianGrid(np.diag(np.linspace(1.0, 60.0, 80)), 0.05,
                            (-2.0, -2.0))


def _cell_by_cell(grid, z, s):
    """H(s) about z as a plain loop over the non-zero cells."""
    h = grid.cell_size
    total = 0.0
    for i, j in zip(*np.nonzero(grid.values)):
        x = grid.origin[0] + j * h
        y = grid.origin[1] + i * h
        dist_sq = (x - z[0]) ** 2 + (y - z[1]) ** 2
        total += grid.values[i, j] * math.exp(-dist_sq / (4.0 * s))
    return total * h * h


@pytest.mark.parametrize("make", [lambda: two_bump_grid(40), _two_disk_grid,
                                  _single_cell_grid, _diagonal_grid],
                         ids=["two_bump", "two_disk", "single_cell",
                              "diagonal"])
def test_grid_heat_mass_sum_matches_cell_sum(make):
    grid = make()
    for z in (grid.barycenter(), (0.3137, -0.2718), (60.0, -45.0)):
        for s in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            want = _cell_by_cell(grid, z, s)
            got = grid.heat_mass(z, s)
            # the floor covers terms near the underflow threshold, where
            # the per-axis factors lose relative precision
            assert abs(got - want) <= 1e-13 * want + 1e-280, (z, s)


_GRIDS = {"two_bump": lambda: two_bump_grid(40), "two_disk": _two_disk_grid,
          "diagonal": _diagonal_grid}


@functools.lru_cache(maxsize=None)
def _grid(name):
    return _GRIDS[name]()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_GRIDS)), fraction=st.floats(0.01, 0.99),
       u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0))
def test_grid_inversion_keeps_its_bits_from_any_power_of_4(name, fraction, u,
                                                          v):
    # a grid's H as evaluated does not decrease from one power of 4 to
    # the next, so the bracket search from s = 1 stops at the powers of 4
    # about the root, and Brent's iterates from their values fix the bits
    d = _grid(name)
    xs, ys, _ = d.cell_coordinates()
    z = (d.center[0] + u * np.ptp(xs), d.center[1] + v * np.ptp(ys))
    curve = HeatMassCurve(d, z)
    target = fraction * d.mass()
    want, _ = _counted_inversion(curve, target)
    # the bracket s = 1 finds: the powers of 4 about the root
    h = HeatMassCurve(d, z).evaluate
    j = next(j for j in range(-60, 60) if h(4.0 ** j) >= target)
    assert want == searches._brent(h, target, 4.0 ** (j - 1),
                                   h(4.0 ** (j - 1)) - target, 4.0 ** j,
                                   h(4.0 ** j) - target)
    assert invert_increasing(h, target) == want


@pytest.mark.parametrize("k", [-8, 0, 8])
def test_grid_inversion_fails_alike_from_any_power_of_4(k):
    # about its one cell, a one-cell grid of any cell size 4^k h holds
    # all its mass at every s
    one = _single_cell_grid()
    d = ks.CartesianGrid(one.values, one.cell_size * 4.0 ** k, one.origin)
    z = tuple(float(c[0]) for c in d.cell_coordinates()[:2])
    with pytest.raises(BracketFailureError, match="shrink"):
        HeatMassCurve(d, z).invert(0.5 * d.mass())


def test_grid_matches_analytic_disk(small_disk_grid, disk_16pi):
    # cell-center sums track the analytic curve to grid accuracy
    for s in (0.2, 1.0):
        grid_val = HeatMassCurve(small_disk_grid).evaluate(s)
        exact = HeatMassCurve(disk_16pi).evaluate(s)
        assert grid_val == pytest.approx(exact, rel=5e-3)


# ---------------------------------------------------------------------------
# grid peaks of H over the center
# ---------------------------------------------------------------------------

def _one_bump_grid():
    """A gaussian bump of width 0.3 about (0.23, -0.17), off the lattice."""
    c = -1.5 + 0.05 * np.arange(61)
    X, Y = np.meshgrid(c, c)
    vals = 40.0 * np.exp(-((X - 0.23) ** 2 + (Y + 0.17) ** 2) / 0.18)
    return ks.CartesianGrid(vals, 0.05, (-1.5, -1.5))


_PEAK_GRIDS = dict(_GRIDS, one_bump=_one_bump_grid)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_PEAK_GRIDS)), u=st.floats(-0.5, 0.5),
       v=st.floats(-0.5, 0.5), log4_s=st.floats(-4.0, 2.0))
def test_grid_heat_mass_peak_never_lowers_h(name, u, v, log4_s):
    d = _PEAK_GRIDS[name]()
    xs, ys, _ = d.cell_coordinates()
    z = (d.center[0] + u * np.ptp(xs), d.center[1] + v * np.ptp(ys))
    s = 4.0 ** log4_s
    assert d.heat_mass(d.heat_mass_peak(z, s), s) >= d.heat_mass(z, s)


@pytest.mark.parametrize("s", [0.01, 0.1, 1.0])
def test_grid_heat_mass_peak_finds_a_bump_centre(s):
    d = _one_bump_grid()
    for seed in ((-1.0, 1.0), d.center, (0.9, 0.4)):
        peak = d.heat_mass_peak(seed, s)
        assert math.dist(peak, (0.23, -0.17)) <= d.cell_size


def test_grid_heat_mass_peak_lands_on_the_one_cell():
    d = _single_cell_grid()
    cell = tuple(float(c[0]) for c in d.cell_coordinates()[:2])
    for seed in ((0.3, -0.4), (-2.0, 1.5)):
        assert d.heat_mass_peak(seed, 1.0) == cell


@pytest.mark.parametrize("seed, bump", [((-0.6, 0.3), (-0.9, 0.6)),
                                        ((0.8, -0.5), (1.1, -0.8))])
def test_grid_heat_mass_peak_finds_the_bump_near_its_seed(seed, bump):
    d = two_bump_grid(40)
    for s in (0.005, 0.02):
        assert math.dist(d.heat_mass_peak(seed, s), bump) <= d.cell_size


def test_grid_heat_mass_peak_stops_at_its_step_cap():
    # on the diagonal ramp a step at s = 1/256 moves about 2e-3, so 500
    # steps end short of the peak at the heavy end: H has still not
    # decreased, and the climb stopped where 500 steps from the seed lead
    d = _diagonal_grid()
    seed, s = d.center, 1.0 / 256.0
    peak = d.heat_mass_peak(seed, s)
    assert d.heat_mass(peak, s) >= d.heat_mass(seed, s)
    z = seed
    for _ in range(500):
        z = mean_shift_step(d, z, s)
    assert math.dist(peak, z) <= 1e-9
    assert math.dist(mean_shift_step(d, peak, s), peak) > 1e-9 * math.sqrt(s)
