import functools
import math
import os
import re
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ksblowup as ks
from ksblowup import HeatMassCurve, bounds, cli, oracles
from ksblowup.errors import (
    InvalidExponentsError,
    SubcriticalMassError,
    UnboundedSupportError,
)
from ksblowup.quadrature import _gl_nodes, merged_edges, panel_nodes
from ksblowup.searches import (
    golden_about_scan,
    golden_section,
    maximize_even,
    minimize_over_plane,
)

from conftest import EIGHT_PI, disk_grid, two_bump_grid

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import workloads  # noqa: E402

LOG125 = math.log(1.25)


# ---------------------------------------------------------------------------
# mass constants
# ---------------------------------------------------------------------------

def test_mass_constants_at_16pi():
    c = bounds.mass_constants(16.0 * math.pi)
    assert c.threshold == pytest.approx(12.8 * math.pi, rel=1e-14)
    assert c.ratio == pytest.approx(0.8, rel=1e-14)
    assert c.log_inv_ratio == pytest.approx(LOG125, rel=1e-14)


def test_mass_constants_near_critical_limit():
    c = bounds.mass_constants(EIGHT_PI * (1.0 + 1e-9))
    assert c.threshold == pytest.approx(EIGHT_PI, rel=1e-8)
    assert c.ratio == pytest.approx(1.0, abs=1e-8)


def test_mass_constants_rejects_subcritical():
    with pytest.raises(SubcriticalMassError):
        bounds.mass_constants(EIGHT_PI)
    with pytest.raises(SubcriticalMassError):
        bounds.mass_constants(4.0)


# ---------------------------------------------------------------------------
# tc
# ---------------------------------------------------------------------------

def test_tc_gaussian_closed_form():
    for sigma, mass, expect in ((1.0, 16.0 * math.pi, 4.0),
                                (0.5, 10.0 * math.pi, 5.0),
                                (2.0, 100.0 * math.pi, 400.0 / 92.0)):
        assert bounds.tc_bound(ks.Gaussian(mass, sigma)) \
            == pytest.approx(expect, rel=1e-6)


def test_tc_disk_value(disk_16pi):
    assert bounds.tc_bound(disk_16pi) == pytest.approx(0.538546167984,
                                                       rel=1e-7)


def test_tc_translation_invariant():
    base = bounds.tc_bound(ks.DiffGaussians(32.0, 1.0, 2.0))
    shifted = bounds.tc_bound(ks.DiffGaussians(32.0, 1.0, 2.0, (7.0, -4.0)))
    assert shifted == pytest.approx(base, rel=1e-6)


def _exact_threshold(mass):
    m = mpmath.mpf(mass)
    return 2 * m * m / (3 * m - 8 * mpmath.pi)


def _exact_gaussian_tc(mass, sigma):
    """Root of H(s) = s M / (s + sigma) = L(M), at 40 digits."""
    with mpmath.workdps(40):
        threshold = _exact_threshold(mass)
        return threshold * mpmath.mpf(sigma) / (mpmath.mpf(mass) - threshold)


def _exact_disk_tc(height, radius, guess):
    """Root of H(s) = M (1 - exp(-x)) / x = L(M), x = R^2 / 4s, at 40
    digits, for the disk's exact mass height * pi * R^2."""
    with mpmath.workdps(40):
        r_sq = mpmath.mpf(radius) ** 2
        mass = mpmath.mpf(height) * mpmath.pi * r_sq
        ratio = 2 * mass / (3 * mass - 8 * mpmath.pi)
        x = mpmath.findroot(lambda x: -mpmath.expm1(-x) / x - ratio,
                            r_sq / (4 * mpmath.mpf(guess)))
        return r_sq / (4 * x)


# The float threshold and the float H carry a few ulps of rounding, which
# the inversion amplifies by (3M - 8 pi)/(M - 8 pi): at most 19 from 9 pi
# up, so 1e-14 covers it there.  The side defect of a residual-stopped
# inversion is 3.5e-10 at 16 pi.
@settings(max_examples=40, deadline=None)
@given(mass=st.floats(9.0 * math.pi, 100.0 * math.pi),
       sigma=st.floats(0.1, 10.0))
@example(mass=16.0 * math.pi, sigma=1.0)
def test_tc_gaussian_never_below_exact(mass, sigma):
    tc = bounds.tc_bound(ks.Gaussian(mass, sigma))
    exact = _exact_gaussian_tc(mass, sigma)
    assert tc >= exact * (1 - mpmath.mpf("1e-14"))
    assert tc <= exact * (1 + mpmath.mpf("1e-12"))


@settings(max_examples=40, deadline=None)
@given(mass=st.floats(9.0 * math.pi, 100.0 * math.pi),
       radius=st.floats(0.1, 10.0))
@example(mass=16.0 * math.pi, radius=1.0)
def test_tc_disk_never_below_exact(mass, radius):
    height = mass / (math.pi * radius ** 2)
    tc = bounds.tc_bound(ks.DiskIndicator(height, radius))
    exact = _exact_disk_tc(height, radius, tc)
    assert tc >= exact * (1 - mpmath.mpf("1e-14"))
    assert tc <= exact * (1 + mpmath.mpf("1e-12"))


# Near 8 pi the tc search's raised target must cover the rounding of L
# and H with no slack at all.  The raise moves tc up by about
# (_TC_TARGET_FACTOR - 1) (3M - 8 pi)/(M - 8 pi); the upper tolerance is
# twice that.
def _near_critical_tolerance(mass):
    amp = (3.0 * mass - EIGHT_PI) / (mass - EIGHT_PI)
    return 2.0 * (bounds._TC_TARGET_FACTOR - 1.0) * amp


@settings(max_examples=30, deadline=None)
@given(e=st.floats(3.0, 10.0), sigma=st.floats(0.1, 10.0))
@example(e=5.0, sigma=1.0)
@example(e=10.0, sigma=1.0)
def test_tc_gaussian_near_critical_never_below_exact(e, sigma):
    mass = EIGHT_PI * (1.0 + 10.0 ** -e)
    tc = bounds.tc_bound(ks.Gaussian(mass, sigma))
    exact = _exact_gaussian_tc(mass, sigma)
    assert tc >= exact
    assert tc <= exact * (1 + _near_critical_tolerance(mass))


@settings(max_examples=30, deadline=None)
@given(e=st.floats(3.0, 10.0), radius=st.floats(0.1, 10.0))
@example(e=5.0, radius=1.0)
@example(e=10.0, radius=1.0)
def test_tc_disk_near_critical_never_below_exact(e, radius):
    mass = EIGHT_PI * (1.0 + 10.0 ** -e)
    height = mass / (math.pi * radius ** 2)
    tc = bounds.tc_bound(ks.DiskIndicator(height, radius))
    exact = _exact_disk_tc(height, radius, tc)
    assert tc >= exact
    assert tc <= exact * (1 + _near_critical_tolerance(mass))


def test_tc_gaussian_16pi_not_below_four():
    assert bounds.tc_bound(ks.Gaussian(16.0 * math.pi, 1.0)) >= 4.0


def _certified_cases():
    from test_golden_reports import golden_cases

    yield from cli._ordering_cases()
    yield from golden_cases().values()
    for entry in (workloads.dense_grid_entry, workloads.sparse_grid_entry):
        values, h, origin = entry(0)
        yield ks.CartesianGrid(values, h, origin)
    yield cli.datum_from_dict(
        workloads.radial_entry("radial_profile", 0)[0])


def test_tc_is_reached_at_its_centre(monkeypatch):
    # every tc carries the centre of an evaluation that reached L; radial
    # data find it without the plane search
    plane_search = bounds.minimize_over_plane
    for d in _certified_cases():
        def guarded(*args, d=d, **kwargs):
            assert not d.is_radial, d.label()
            return plane_search(*args, **kwargs)

        monkeypatch.setattr(bounds, "minimize_over_plane", guarded)
        tc, z = bounds._tc_search(d)
        threshold = bounds.mass_constants(d.mass()).threshold
        assert HeatMassCurve(d, z).evaluate(tc) >= threshold, d.label()


def test_radial_data_never_search_the_plane(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plane search on radial data")

    monkeypatch.setattr(bounds, "minimize_over_plane", refuse)
    profile = ks.RadialProfile((0.0, 0.4, 0.9, 1.5), (10.0, 30.0, 12.0, 0.0))
    report = bounds.full_report(profile)
    assert report.ordering_ok
    assert all(r.status != "failed" for r in report.rows)
    for d in (ks.Annulus(16.0 / 3.0, 1.0, 2.0),
              ks.DiffGaussians(32.0, 1.0, 2.0), profile):
        bounds._tc2_search(d)
        bounds.tc4_bound(d, 3.0)


def test_radial_tc_is_the_centre_inversion_when_it_peaks_there():
    # the annulus' largest H sits at its center, where the closed form
    # applies; the delta search returns that inversion, at the same
    # target, or a tighter one
    d = ks.Annulus(16.0 / 3.0, 1.0, 2.0)
    tc, _ = bounds._tc_search(d)
    centred = ks.HeatMassCurve(d).invert(
        bounds.mass_constants(d.mass()).threshold * bounds._TC_TARGET_FACTOR)
    assert centred * (1.0 - 1e-13) <= tc <= centred


def test_tc_diverges_at_criticality():
    vals = [bounds.tc_bound(ks.Gaussian(EIGHT_PI * (1.0 + eps), 1.0))
            for eps in (1e-1, 1e-2, 1e-3)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e3


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def test_virial_values(gaussian_16pi, disk_16pi):
    assert bounds.virial_bound(gaussian_16pi) == pytest.approx(1.0, rel=1e-12)
    assert bounds.virial_bound(disk_16pi) == pytest.approx(0.125, rel=1e-12)


def test_virial_linear_in_variance():
    # doubling sigma doubles V2 at fixed mass, hence doubles the bound
    one = bounds.virial_bound(ks.Gaussian(16.0 * math.pi, 1.0))
    two = bounds.virial_bound(ks.Gaussian(16.0 * math.pi, 2.0))
    assert two == pytest.approx(2.0 * one, rel=1e-12)


# ---------------------------------------------------------------------------
# tc1
# ---------------------------------------------------------------------------

def test_tc1_fixed_cell_dominates_tc(gaussian_16pi):
    val = bounds.tc1_value(gaussian_16pi, 2.0, 4.0)
    assert math.isfinite(val)
    assert val >= 4.0


def test_tc1_uninformative_is_infinite(gaussian_16pi):
    # tiny lam shrinks the weight until the convolution stays below the
    # threshold: the positive-part logarithm is zero and the cell is +inf
    assert bounds.tc1_value(gaussian_16pi, 2.0, 1e-4) == math.inf


def test_tc1_large_lambda_is_finite(gaussian_16pi):
    for q in (1.5, 2.0, 4.0):
        assert math.isfinite(bounds.tc1_value(gaussian_16pi, q, 1e3))


def test_tc1_infimum_dominates_tc(gaussian_16pi):
    val = bounds.tc1_bound(gaussian_16pi)
    assert 4.0 * (1.0 - 1e-9) <= val < math.inf


def test_tc1_grid_sorts_no_cells(monkeypatch):
    # the weighted median and the heaviest cells, where the grid's sup
    # is sought, are sorted out once when the grid is built
    grid = disk_grid(64, shift=(0.2, 0.1))
    sorts = []
    original = np.argsort

    def counted(*args, **kwargs):
        sorts.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    assert math.isfinite(bounds.tc1_bound(grid))
    assert sorts == []


def _reference_radial_conv(d, q, lam, delta):
    """The tc1 convolution of radial data at the offset delta, from fresh
    panels and the full 32-column angular kernel."""
    p = q / (q - 1.0)
    c = (4.0 * lam) ** (-p) / p
    reach = (45.0 / c) ** (0.5 / p)
    hi = min(d.tail_radius(), delta + reach)
    rs, wr = panel_nodes(merged_edges(
        [b for b in d.radial_breakpoints() if b < hi],
        np.linspace(0.0, hi, 14)), order=16)
    phi, wphi = _gl_nodes(32)
    phi = 0.5 * math.pi * (phi + 1.0)
    dist_sq = (rs[:, None] ** 2 + delta ** 2
               - 2.0 * rs[:, None] * delta * np.cos(phi)[None, :])
    ang = np.exp(-c * np.maximum(dist_sq, 0.0) ** p) @ (math.pi * wphi)
    return float((ang * (d.profile(rs) * rs * wr)).sum())


def _reference_grid_sup(d, p, c):
    """The largest exact sum over every peak candidate of a grid."""
    xs, ys, w = d.cell_coordinates()
    return max(float((w * np.exp(-c * ((xs - z[0]) ** 2
                                       + (ys - z[1]) ** 2) ** p)).sum()
                     * d.cell_size ** 2) for z in d.peak_candidates())


def _reference_tc1_value(d, q, lam):
    """tc1 at (q, lam) from convolutions computed afresh at every point."""
    p = q / (q - 1.0)
    c = (4.0 * lam) ** (-p) / p
    if d.is_radial:
        def conv(delta):
            return _reference_radial_conv(d, q, lam, delta)

        sup = conv(0.0) if d.is_nonincreasing_radial \
            else maximize_even(conv, bounds._delta_scan(d))[0]
    else:
        sup = _reference_grid_sup(d, p, c)
    threshold = bounds.mass_constants(d.mass()).threshold
    if not sup > threshold:
        return math.inf
    return lam * q ** (-1.0 / q) * math.log(sup / threshold) ** (-1.0 / q)


def test_tc1_caches_do_not_leak_across_data():
    # each search holds its own panels and distance powers: grids of two
    # shapes and an annulus give the same bounds in either order, and
    # tc1 equals the convolution computed afresh, from a fresh search and
    # from one search probed at changing q
    data = (disk_grid(32, shift=(0.2, 0.1)), two_bump_grid(40),
            ks.Annulus(16.0 / 3.0, 1.0, 2.0))
    forward = [bounds.tc1_bound(d) for d in data]
    backward = [bounds.tc1_bound(d) for d in reversed(data)][::-1]
    assert forward == backward
    assert all(math.isfinite(v) for v in forward)
    for d in data:
        scale = d._scale_radius() ** 2
        conv = bounds._tc1_convolution(d)
        for q, lam in ((1.25, scale / 4.0), (1.25, scale), (2.0, scale),
                       (5.0, 8.0 * scale), (1.25, scale / 4.0)):
            want = _reference_tc1_value(d, q, lam)
            assert bounds.tc1_value(d, q, lam) == want, (d.label(), q, lam)
            assert bounds._tc1_value(conv, q, lam) == want, (
                d.label(), q, lam)


def _mirror_grid(n=32, h=0.125):
    """Two equal gaussian bumps, mirror images across x = 0 to the bit:
    with h a power of two the cell coordinates are exact, so mirrored
    peak candidates see the same cell distances, summed in another order."""
    c = h * (np.arange(n) - 0.5 * (n - 1))
    X, Y = np.meshgrid(c, c)
    left = 40.0 * np.exp(-((X + 1.0) ** 2 + (Y - 0.25) ** 2) / 0.18)
    return ks.CartesianGrid(left + left[:, ::-1], h, (float(c[0]), float(c[0])))


def _two_disk_grid(n=96, half=4.0):
    """Two small disks far apart on a mostly empty grid."""
    h = 2.0 * half / n
    c = -half + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(c, c)
    vals = np.zeros_like(X)
    for (cx, cy), r, height in (((-2.0, 1.5), 0.4, 60.0),
                                ((1.5, -2.0), 0.5, 40.0)):
        vals[np.hypot(X - cx, Y - cy) <= r] = height
    return ks.CartesianGrid(vals, h, (float(c[0]), float(c[0])))


_PRUNED_GRIDS = {
    "mirror": _mirror_grid(),
    "two_bump": two_bump_grid(40),
    "shifted_disk": disk_grid(32, shift=(0.2, 0.1)),
    "two_disks": _two_disk_grid(),
}
# one search per grid, probed at every example's q: the powers it holds
# at one q must not leak into the next
_PRUNED_CONVS = {k: bounds._tc1_convolution(d)
                 for k, d in _PRUNED_GRIDS.items()}


def test_mirror_grid_peaks_tie():
    # the mirrored heaviest cells see the same distances
    d = _PRUNED_GRIDS["mirror"]
    xs, ys, _ = d.cell_coordinates()
    peaks = d.peak_candidates()[:8]
    dists = {tuple(np.sort((xs - z[0]) ** 2 + (ys - z[1]) ** 2)) for z in peaks}
    assert len(dists) < len(peaks)


@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from(sorted(_PRUNED_GRIDS)),
       q=st.floats(1.05, 6.0, exclude_min=True, exclude_max=True),
       log2_lam=st.floats(-5.0, 5.0))
@example(grid="mirror", q=2.0, log2_lam=0.0)
@example(grid="mirror", q=1.25, log2_lam=-5.0)
@example(grid="mirror", q=1.5, log2_lam=-2.5)  # mirrored peaks 1 ulp apart
@example(grid="two_disks", q=5.0, log2_lam=5.0)
@example(grid="shifted_disk", q=1.0500001, log2_lam=-5.0)
def test_tc1_grid_pruning_never_changes_the_sup(grid, q, log2_lam):
    # the histogram only rules peaks out: tc1 keeps the bits of the
    # largest exact sum over every peak candidate
    d = _PRUNED_GRIDS[grid]
    lam = d._scale_radius() ** 2 * 2.0 ** log2_lam
    want = _reference_tc1_value(d, q, lam)
    assert bounds._tc1_value(bounds._tc1_convolution(d), q, lam) == want
    assert bounds._tc1_value(_PRUNED_CONVS[grid], q, lam) == want
    # the sup itself, which ties to the ulp on the mirror grid
    sup = _reference_grid_sup(d, *bounds._omega_exponents(q, lam))
    assert _PRUNED_CONVS[grid].sup(q, lam) == sup


def test_tc1_grid_prune_stays_effective(monkeypatch):
    # most evaluations sum one peak exactly, and a search holds the
    # powers of few peaks per q, against 10 each without the histograms
    evals, sums, powers = [], [], {}

    class Counted(bounds._PeakConvolution):
        def sup(self, q, lam):
            evals.append(q)
            return super().sup(q, lam)

        def _peak_sum(self, i, p, c):
            sums.append(i)
            if i not in self._powers:
                powers[p] = powers.get(p, 0) + 1
            return super()._peak_sum(i, p, c)

    monkeypatch.setattr(bounds, "_PeakConvolution", Counted)
    assert math.isfinite(bounds.tc1_bound(two_bump_grid(40)))
    assert len(sums) < 2 * len(evals)
    assert len(powers) > 30
    assert sum(powers.values()) <= 3 * len(powers)


@pytest.mark.parametrize("cells, mass, want", [
    (((2, 2),), 40.0, 8.066328842109262e-63),
    (((1, 1), (3, 3)), 20.0, 0.029333770741658844),
])
def test_tc1_degenerate_grids(cells, mass, want):
    # one occupied cell puts every peak at distance 0 from all the mass
    vals = np.zeros((5, 5))
    for cell in cells:
        vals[cell] = 100.0 * mass  # the cell size is 0.1
    assert bounds.tc1_bound(ks.CartesianGrid(vals, 0.1)) == want


_CENTERED = {
    "gaussian": ks.Gaussian(16.0 * math.pi, 1.0),
    "disk": ks.DiskIndicator(16.0, 1.0),
    "polygaussian": ks.PolyGaussian(16.0, 0, 1.0),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_CENTERED)),
       q=st.floats(1.05, 6.0, exclude_min=True, exclude_max=True),
       log2_lam=st.floats(-5.0, 5.0))
@example(family="gaussian", q=2.0, log2_lam=0.0)
@example(family="disk", q=1.25, log2_lam=-5.0)
@example(family="polygaussian", q=5.0, log2_lam=5.0)
def test_tc1_at_the_center_equals_the_full_kernel(family, q, log2_lam):
    # at the symmetry center tc1 computes one radial column of the
    # angular kernel; its value keeps the bits of all 32 columns, at q
    # off the search grid too, and for the annulus's center convolution
    d = _CENTERED[family]
    lam = d._scale_radius() ** 2 * 2.0 ** log2_lam
    want = _reference_tc1_value(d, q, lam)
    assert bounds.tc1_value(d, q, lam) == want
    assert bounds._tc1_value(bounds._tc1_convolution(d), q, lam) == want
    annulus = ks.Annulus(16.0 / 3.0, 1.0, 2.0)
    lam = annulus._scale_radius() ** 2 * 2.0 ** log2_lam
    assert bounds._tc1_convolution(annulus).radial(q, lam, 0.0) == (
        _reference_radial_conv(annulus, q, lam, 0.0))


_RINGS = {
    "annulus": ks.Annulus(16.0 / 3.0, 1.0, 2.0),
    "polygaussian": ks.PolyGaussian(16.0, 1, 1.0),
    "diffgaussians": ks.DiffGaussians(32.0, 1.0, 2.0),
    "radial_profile": ks.RadialProfile((0.0, 0.5, 1.5), (10.0, 30.0, 0.0)),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_RINGS)),
       q=st.floats(1.05, 6.0, exclude_min=True, exclude_max=True),
       log2_lam=st.floats(-8.0, 5.0), steer=st.booleans())
@example(family="annulus", q=1.25, log2_lam=-8.0, steer=False)
@example(family="radial_profile", q=5.0, log2_lam=-8.0, steer=True)
def test_tc1_batched_scan_equals_each_offset(family, q, log2_lam, steer):
    # the scan computes its off-center kernels in one buffer per
    # truncation radius; each value keeps the bits of its offset alone,
    # and of the plain expression on the full rule.  At small lam the
    # small offsets truncate short of the tail radius, so the scan
    # splits over several radii
    d = _RINGS[family]
    lam = d._scale_radius() ** 2 * 2.0 ** log2_lam
    rule = bounds._TC1_STEER_RULE if steer else (16, 32)
    scan = bounds._delta_scan(d)
    with np.errstate(over="ignore"):
        batch = bounds._tc1_convolution(d, *rule).radials(q, lam, scan)
        conv = bounds._tc1_convolution(d, *rule)
        assert batch == [conv.radial(q, lam, x) for x in scan]
        if not steer:
            assert batch == [_reference_radial_conv(d, q, lam, float(x))
                             for x in scan]


def test_tc1_builds_radial_panels_once_per_truncation_radius(monkeypatch):
    # the panel nodes depend only on the rule's order and the truncation
    # radius, the last edge; one build per convolution made 3777 for this
    # annulus
    builds = []
    original = bounds.panel_nodes

    def counted(edges, order):
        builds.append((order, float(edges[-1])))
        return original(edges, order)

    monkeypatch.setattr(bounds, "panel_nodes", counted)
    assert math.isfinite(bounds.tc1_bound(ks.Annulus(16.0 / 3.0, 1.0, 2.0)))
    assert len(builds) == len(set(builds))
    # the scan's skipped points never reach their truncation radii; the
    # steering rule (order 8) builds the searched radii, the full rule
    # (order 16) only those of the stage winners
    assert Counter(order for order, _ in builds) == {8: 3, 16: 1}


@pytest.mark.parametrize("d", [
    ks.Annulus(16.0 / 3.0, 1.0, 2.0),
    ks.PolyGaussian(16.0, 1, 1.0),
    ks.DiffGaussians(32.0, 1.0, 2.0),
    ks.RadialProfile((0.0, 0.5, 1.5), (10.0, 30.0, 0.0)),
], ids=lambda d: d.family)
def test_tc1_sup_reaches_a_dense_offset_scan(d):
    # the offset search finds at least the largest convolution on a dense
    # scan over [0, tail radius], narrow weights that peak on a ring
    # included; 1001 points show a search that misses such a peak by 1e-5
    scale = d._scale_radius() ** 2
    deltas = np.linspace(0.0, d.tail_radius(), 1001)
    for q in (1.25, 2.0, 5.0):
        for lam in (scale / 32.0, scale / 4.0, 2.0 * scale, 16.0 * scale):
            conv = bounds._tc1_convolution(d)
            scan = max(conv.radial(q, lam, x) for x in deltas)
            assert conv.sup(q, lam) >= scan, (q, lam)


def _reference_tc1_search(d):
    """(tc1, q, lam) of the winner from a scan that evaluates every
    (q, lam) point, then the golden stages about the scan's best."""
    conv = bounds._tc1_convolution(d)
    scale = d._scale_radius() ** 2
    best = (math.inf, None, None)
    for q in bounds._TC1_Q_VALUES:
        for lam in np.geomspace(scale / 32.0, scale * 32.0,
                                bounds._TC1_LAMBDA_GRID):
            val = bounds._tc1_value(conv, q, lam)
            if val < best[0]:
                best = (val, q, lam)
    if best[1] is None:
        return best
    _, q0, lam0 = best
    lam1, v1 = golden_section(lambda lam: bounds._tc1_value(conv, q0, lam),
                              lam0 / 4.0, lam0 * 4.0, rel_tol=1e-6)
    qs = bounds._TC1_Q_VALUES
    i = qs.index(q0)
    q2, v2 = golden_section(lambda q: bounds._tc1_value(conv, q, lam1),
                            qs[max(i - 1, 0)], qs[min(i + 1, len(qs) - 1)],
                            rel_tol=1e-6)
    for cand in ((v1, q0, lam1), (v2, q2, lam1)):
        if cand[0] < best[0]:
            best = cand
    return best


@pytest.mark.parametrize("make", [
    lambda: ks.Annulus(16.0 / 3.0, 1.0, 2.0),
    lambda: ks.PolyGaussian(16.0, 1, 1.0),
    lambda: ks.DiffGaussians(32.0, 1.0, 2.0),
    lambda: ks.RadialProfile((0.0, 0.5, 1.5), (10.0, 30.0, 0.0)),
    *(lambda f=f: cli.datum_from_dict(workloads.radial_entry(f, 5)[0])
      for f in workloads.RADIAL_FAMILIES),
    *(lambda d=d: d for d in _CENTERED.values()),
    lambda: disk_grid(64, shift=(0.2, 0.1)),
    lambda: two_bump_grid(48),
    lambda: ks.CartesianGrid(*workloads.dense_grid_entry(2)),
    lambda: ks.CartesianGrid(*workloads.sparse_grid_entry(2)),
    # peak sums that tie to an ulp, and two bumps far apart
    _mirror_grid,
    _two_disk_grid,
    lambda: ks.Gaussian(EIGHT_PI * (1.0 + 1e-6), 1.0),
    # every scanned point is +inf: no winner
    lambda: ks.Gaussian(EIGHT_PI * (1.0 + 1e-9), 1.0),
], ids=["annulus", "polygaussian1", "diffgaussians", "radial_profile",
        *(f"pool_{f}5" for f in workloads.RADIAL_FAMILIES),
        *_CENTERED, "shifted_disk", "two_bump", "pool_dense",
        "pool_sparse", "mirror", "two_disks", "near_critical",
        "uninformative"])
def test_tc1_search_keeps_the_unpruned_winner(make):
    # the scan skips only points that could not have replaced its best
    # (on grids, by the peak histograms), and ring data steered on the
    # cheaper rule find the full rule's stage winners: the winner and its
    # value keep their bits
    d = make()
    got = bounds._tc1_search(d)
    assert got == _reference_tc1_search(d)
    assert bounds.tc1_bound(d) == got[0]


def _omega_l1(q, lam):
    """||omega||_1 = pi Gamma(1 + 1/p) c^(-1/p)."""
    p, c = bounds._omega_exponents(q, lam)
    return math.pi * math.gamma(1.0 + 1.0 / p) * c ** (-1.0 / p)


def _one_cell_grid():
    vals = np.zeros((5, 5))
    vals[2, 2] = 4000.0
    return ks.CartesianGrid(vals, 0.1)


_SUP_UPPER_DATA = {
    "gaussian": lambda: ks.Gaussian(16.0 * math.pi, 1.0),
    "disk": lambda: ks.DiskIndicator(16.0, 1.0),
    "annulus": lambda: ks.Annulus(16.0 / 3.0, 1.0, 2.0),
    # the panel rule's largest reading above ||n0||_inf ||omega||_1 on
    # the scan's range, at q = 1.25 and lam = scale^2 / 128
    "pool_annulus": lambda: cli.datum_from_dict(
        workloads.radial_entry("annulus", 7)[0]),
    "polygaussian0": lambda: ks.PolyGaussian(16.0, 0, 1.0),
    "polygaussian1": lambda: ks.PolyGaussian(16.0, 1, 1.0),
    "polygaussian2": lambda: ks.PolyGaussian(16.0, 2, 1.0),
    "diffgaussians": lambda: ks.DiffGaussians(32.0, 1.0, 2.0),
    "radial_profile": lambda: ks.RadialProfile((0.0, 0.5, 1.5),
                                               (10.0, 30.0, 0.0)),
    "pool_dense": lambda: ks.CartesianGrid(*workloads.dense_grid_entry(0)),
    "pool_sparse": lambda: ks.CartesianGrid(*workloads.sparse_grid_entry(0)),
    "two_bump": lambda: two_bump_grid(48),
    "mirror": _mirror_grid,
    "two_disks": _two_disk_grid,
    "one_cell": _one_cell_grid,
}


@functools.lru_cache(maxsize=None)
def _sup_upper_conv(name, rule=(16, 32)):
    return bounds._tc1_convolution(_SUP_UPPER_DATA[name](), *rule)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_SUP_UPPER_DATA)),
       q=st.floats(1.05, 6.0, exclude_min=True, exclude_max=True),
       log2_lam=st.floats(-8.0, 8.0))
@example(name="pool_annulus", q=1.25, log2_lam=-7.0)
@example(name="pool_annulus", q=1.0500001, log2_lam=-8.0)
@example(name="radial_profile", q=1.25, log2_lam=-8.0)
@example(name="one_cell", q=5.0, log2_lam=-8.0)
@example(name="pool_sparse", q=1.0500001, log2_lam=8.0)
@example(name="mirror", q=1.5, log2_lam=-2.5)
@example(name="two_disks", q=5.0, log2_lam=5.0)
def test_tc1_sup_upper_bounds_the_sup(name, q, log2_lam):
    conv = _sup_upper_conv(name)
    d = conv.density
    # a one-cell grid's scale radius is 0, floored at 1e-30: read its
    # weights on the cell size
    unit = d._scale_radius() if d.is_radial \
        else max(d._scale_radius(), d.cell_size)
    lam = unit ** 2 * 2.0 ** log2_lam
    sup = conv.sup(q, lam)
    assert sup <= conv.sup_upper(q, lam)
    if d.is_radial:
        # the panel rule reads at most 0.39% above the exact bound where
        # the search probes, q >= 1.25 and lam >= scale^2 / 128, and at
        # most 3.8% at the edge of this range, far from the margin
        # factor 2 that `sup_upper` allows it
        probed = q >= 1.25 and log2_lam >= -7.0
        exact = d.lp_norm(math.inf) * _omega_l1(q, lam)
        assert sup <= (1.01 if probed else 1.05) * exact
        # the rule ring searches steer on reads at most 4.9% above it
        # where the search probes
        steer = _sup_upper_conv(name, bounds._TC1_STEER_RULE)
        sup = steer.sup(q, lam)
        assert sup <= steer.sup_upper(q, lam)
        if probed:
            assert sup <= 1.06 * exact


def test_tc1_scan_skips_the_points_that_cannot_win(monkeypatch):
    # _tc1_value calls before the first golden stage, of 45 scan points
    value, golden = bounds._tc1_value, bounds.golden_section
    state = {}

    def counted(conv, q, lam):
        state["calls"] += 1
        return value(conv, q, lam)

    def first_golden(*args, **kwargs):
        state.setdefault("scan", state["calls"])
        return golden(*args, **kwargs)

    monkeypatch.setattr(bounds, "_tc1_value", counted)
    monkeypatch.setattr(bounds, "golden_section", first_golden)
    scans = []
    for d in (ks.Annulus(16.0 / 3.0, 1.0, 2.0), ks.PolyGaussian(16.0, 0, 1.0),
              two_bump_grid(40)):
        state.clear()
        state["calls"] = 0
        assert math.isfinite(bounds.tc1_bound(d))
        scans.append(state["scan"])
    assert scans == [15, 14, 6]


def test_tc1_ring_search_decides_on_the_full_rule_at_the_stage_winners(
        monkeypatch):
    # the steering rule (order 8) makes every scan and golden probe; the
    # full rule (order 16) evaluates each distinct stage winner once,
    # after them
    orders = []
    value = bounds._tc1_value

    def counted(conv, q, lam):
        orders.append(conv._order)
        return value(conv, q, lam)

    monkeypatch.setattr(bounds, "_tc1_value", counted)
    assert math.isfinite(bounds.tc1_bound(ks.Annulus(16.0 / 3.0, 1.0, 2.0)))
    assert orders == [8] * 77 + [16] * 3


@pytest.mark.parametrize("q, lam", [(1.05, 1e-20), (1.25, 1e-70)])
def test_tc1_weight_overflow_is_a_named_error(q, lam):
    # (4 lam)^(-p) overflows a double
    with pytest.raises(InvalidExponentsError,
                       match=re.escape(f"q={q!r}, lam={lam!r}")):
        bounds.tc1_value(ks.Gaussian(100.0, 1.0), q, lam)


def test_one_cell_grid_report_names_the_empty_rho_scan():
    # the support radius is 0 about the cell, so the rho form has no
    # radius to scan
    tc2 = bounds.full_report(_one_cell_grid()).row("tc2")
    assert tc2.status == "inapplicable"
    assert tc2.detail == "rho form: support radius 0.0 is not positive"


def test_two_cell_grid_scans_the_rho_form_down_to_the_support_radius():
    # both cells sit at one distance from the center, which holds more
    # than 1 - L/M of the mass: the scan's start lies just beyond the
    # support radius and the scan runs down to it
    vals = np.zeros((5, 5))
    vals[1, 1] = vals[3, 3] = 2000.0
    d = ks.CartesianGrid(vals, 0.1)
    assert bounds.tc2_forms(d) == (0.029333770741658893, 0.029333800075459004)
    tc2 = bounds.full_report(d).row("tc2")
    assert (tc2.status, tc2.value) == ("computed", 0.029333770741658893)


# ---------------------------------------------------------------------------
# tc2
# ---------------------------------------------------------------------------

def test_tc2_disk(disk_16pi):
    assert bounds.tc2_bound(disk_16pi) == pytest.approx(1.0 / (4.0 * LOG125),
                                                        rel=1e-5)


def test_tc2_gaussian_frozen_value(gaussian_16pi):
    # independent golden-section on the closed-form inverse
    # h(m) = -4 sigma log(1-m) pins the theta-form optimum
    assert bounds.tc2_bound(gaussian_16pi) == pytest.approx(17.4117935801,
                                                            rel=1e-6)


def test_tc2_forms_agree_for_radial(families_16pi):
    for name in ("gaussian", "disk", "annulus", "polygaussian",
                 "diffgaussians"):
        rho_form, theta_form = bounds.tc2_forms(families_16pi[name])
        assert rho_form == pytest.approx(theta_form, rel=1e-4)


def test_grid_tc2_forms_reuse_one_barycenter_profile(monkeypatch):
    # every generalized inverse about the barycenter reads one cumulative
    # mass profile instead of sorting the cells again
    from ksblowup import datum

    grid = disk_grid(64, shift=(0.2, 0.1))
    builds = []
    original = datum._GridSnapshot.__init__

    def counted(self, *args):
        builds.append(1)
        original(self, *args)

    monkeypatch.setattr(datum._GridSnapshot, "__init__", counted)
    bounds.tc2_forms(grid)
    assert len(builds) <= 1


def test_grid_tc2_steering_snapshot_count(monkeypatch):
    # one binned profile per Nelder-Mead probe, which gathers one block
    # for its theta scan and one for the golden stage, and one sort of
    # every cell per search, at the winner
    from ksblowup import datum

    grid = disk_grid(64, shift=(0.2, 0.1))
    n_cells = grid.cell_coordinates()[0].size
    builds, gathers, full_sorts = [], [], []
    original = datum._BinnedGridProfile.__init__
    gather = datum._BinnedGridProfile._gather
    sort_stable = datum._sort_stable

    def counted(self, *args):
        builds.append(1)
        original(self, *args)

    def counted_gather(self, *args):
        block = gather(self, *args)
        gathers.append(block[2].size)
        return block

    def counted_sort(d):
        if d.size == n_cells:
            full_sorts.append(1)
        return sort_stable(d)

    monkeypatch.setattr(datum._BinnedGridProfile, "__init__", counted)
    monkeypatch.setattr(datum._BinnedGridProfile, "_gather", counted_gather)
    monkeypatch.setattr(datum, "_sort_stable", counted_sort)
    bounds._tc2_search(grid)
    assert len(builds) == 155
    assert len(gathers) == 2 * len(builds)
    assert max(gathers) < n_cells / 4
    assert len(full_sorts) <= 1


def _reference_grid_tc2_search(density):
    """(tc2, center) of a grid as the search found it when every
    Nelder-Mead probe sorted every cell: an exact snapshot per probe,
    the theta form computed from scratch on each."""
    consts = bounds.mass_constants(density.mass())
    a = consts.ratio

    def theta_form(inverse):
        def objective(theta):
            return inverse(a ** theta) ** 2 / (1.0 - theta)

        grid = np.linspace(1e-6, 1.0 - 1e-6, 96)
        radii = inverse(np.array([a ** theta for theta in grid])).tolist()
        _, val = golden_about_scan(objective, grid, [
            r ** 2 / (1.0 - theta) for r, theta in zip(radii, grid)])
        return val / (4.0 * consts.log_inv_ratio)

    z_best, val_best, _ = minimize_over_plane(
        lambda z: theta_form(density.mass_profile(z).inverse),
        bounds._search_seeds(density), max_iter=bounds._NM_MAX_ITER // 2)
    center = density.center
    center_val = min(bounds.tc2_forms(density, center))
    off_center = math.hypot(z_best[0] - center[0], z_best[1] - center[1]) \
        > 1e-9 * (1.0 + density._scale_radius())
    if off_center and val_best < center_val:
        snap = density.mass_profile(z_best)
        rho = bounds._rho_form_from(snap.mass_at, consts, snap.inverse(a),
                                    snap.inverse(1.0 - 1e-12))
        off_val = min(rho, theta_form(snap.inverse))
        if off_val < center_val:
            return off_val, z_best
    return center_val, center


@pytest.mark.parametrize("make", [
    lambda: disk_grid(64, shift=(0.2, 0.1)),
    lambda: two_bump_grid(48),
    lambda: ks.CartesianGrid(*workloads.dense_grid_entry(2)),
    lambda: ks.CartesianGrid(*workloads.sparse_grid_entry(2)),
], ids=["shifted_disk", "two_bump", "pool_dense", "pool_sparse"])
def test_grid_tc2_steering_keeps_the_all_snapshot_result(make):
    # the binned probes pick the same winner, and its exact form decides
    grid = make()
    assert bounds._tc2_search(grid) == _reference_grid_tc2_search(grid)


def test_radial_tc2_steering_snapshot_count(monkeypatch):
    # 17 scanned offsets, the Brent refinement and no final profile: the
    # annulus' best offset is its center
    snapshot = bounds._snapshot
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return snapshot(*args, **kwargs)

    monkeypatch.setattr(bounds, "_snapshot", counted)
    d = ks.Annulus(16.0 / 3.0, 1.0, 2.0)
    _, z = bounds._tc2_search(d)
    assert z == d.center
    assert len(builds) == 43


def _pool_grid():
    values, h, origin = workloads.dense_grid_entry(0)
    return ks.CartesianGrid(values, h, origin)


@pytest.mark.parametrize("d, z", [
    (ks.DiffGaussians(32.0, 1.0, 2.0), None),
    (ks.DiffGaussians(32.0, 1.0, 2.0), (0.7, -0.2)),
    (ks.Annulus(16.0 / 3.0, 1.0, 2.0), None),
    ("pool grid", None),
    ("pool grid", (0.3, -0.45)),
], ids=["diffgaussians", "diffgaussians-off", "annulus", "grid", "grid-off"])
def test_array_inverse_equals_the_scalar_loop(d, z):
    # the theta scan of tc2 inverts its 96 fractions in one call
    d = _pool_grid() if d == "pool grid" else d
    ms = np.array([1.0 / 3.0 ** k for k in range(12)] + [0.5, 0.9, 0.999])
    if not d.has_compact_support:
        ms = ms[ms < 1.0]
    got = d.generalized_inverse(z, ms)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [d.generalized_inverse(z, m) for m in ms]


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
def test_grid_array_inverse_refuses_fractions_outside_the_range(bad):
    grid = _pool_grid()
    for z in (None, (0.3, -0.45)):
        with pytest.raises(ValueError):
            grid.generalized_inverse(z, np.array([0.5, bad, 0.9]))


def test_rho_form_ignores_uninformative_radii():
    # below the threshold the positive-part log vanishes: contribution +inf
    consts = bounds.mass_constants(16.0 * math.pi)
    calls = []

    def mass_at(rho):
        calls.append(rho)
        return consts.threshold * 0.5  # always below threshold

    val = bounds._rho_form_from(mass_at, consts, 0.1, 10.0)
    assert val == math.inf and calls


# ---------------------------------------------------------------------------
# tc3
# ---------------------------------------------------------------------------

def test_tc3_disk(disk_16pi):
    enclosing, jung = bounds.tc3_bound(disk_16pi)
    assert enclosing == pytest.approx(1.0 / (4.0 * LOG125), rel=1e-12)
    assert jung == pytest.approx(1.0 / (3.0 * LOG125), rel=1e-12)


def test_report_computes_grid_support_geometry_once(monkeypatch):
    from scipy.spatial import ConvexHull

    from ksblowup import geometry

    calls = []
    original = geometry.smallest_enclosing_disk

    def counted(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(geometry, "smallest_enclosing_disk", counted)
    grid = disk_grid(128)
    bounds.full_report(grid)
    assert len(calls) == 1
    # Welzl reads the convex-hull vertices only, not all 12.8k cells
    xs, ys, _ = grid.cell_coordinates()
    n_hull = len(ConvexHull(np.column_stack([xs, ys])).vertices)
    assert calls[0] <= n_hull < len(xs)


def test_tc3_requires_compact_support(gaussian_16pi):
    with pytest.raises(UnboundedSupportError):
        bounds.tc3_bound(gaussian_16pi)


# ---------------------------------------------------------------------------
# tc4
# ---------------------------------------------------------------------------

def test_tc4_values(gaussian_16pi, disk_16pi):
    assert bounds.tc4_bound(gaussian_16pi) == pytest.approx(1.0 / LOG125,
                                                            rel=1e-12)
    assert bounds.tc4_bound(disk_16pi) == pytest.approx(
        1.0 / (8.0 * LOG125), rel=1e-12)


def test_tc4_variance_form_monotone_in_beta(families_16pi):
    denom = 4.0 * LOG125
    for d in families_16pi.values():
        v_form2 = d.beta_variance(2.0) / denom
        v_form3 = d.beta_variance(3.0) / denom
        assert v_form2 <= v_form3 * (1.0 + 1e-12)


def test_tc4_beta3_uses_center_moment(gaussian_16pi):
    val = bounds.tc4_bound(gaussian_16pi, beta=3.0)
    simple = gaussian_16pi.beta_variance(3.0) / (4.0 * LOG125)
    assert val <= simple * (1.0 + 1e-9)
    assert val >= bounds.tc_bound(gaussian_16pi) * (1.0 - 1e-6)


def test_gaussian_sandwich():
    # tc4 brackets tc within the factor 2 ln(3/2) at any supercritical mass
    for mass in (9.0 * math.pi, 16.0 * math.pi, 100.0 * math.pi):
        g = ks.Gaussian(mass, 1.0)
        tc = bounds.tc_bound(g)
        tc4 = bounds.tc4_bound(g)
        assert bounds.TC4_SANDWICH_FACTOR * tc4 <= tc * (1.0 + 1e-9)
        assert tc <= tc4 * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# F-method
# ---------------------------------------------------------------------------

def test_f_method_disk_plateau_case(disk_16pi):
    out = bounds.f_method_bound(disk_16pi)
    assert out.case == "plateau"
    assert out.value == pytest.approx(1.0 / (4.0 * LOG125), rel=1e-9)


def test_f_method_gaussian_interior_case(gaussian_16pi):
    out = bounds.f_method_bound(gaussian_16pi)
    assert out.case == "interior"
    assert out.value == pytest.approx(17.4117935801, rel=1e-7)
    assert out.value > bounds.tc_bound(gaussian_16pi)


def test_f_method_matches_theta_form(families_16pi):
    for name in ("annulus", "polygaussian", "diffgaussians"):
        out = bounds.f_method_bound(families_16pi[name])
        assert out.applicable
        _, theta_form = bounds.tc2_forms(families_16pi[name])
        assert out.value == pytest.approx(theta_form, rel=1e-3)


def test_f_method_plateau_in_window_inapplicable():
    # two bumps separated by a gap placed so the cumulative-mass plateau
    # lands inside (a, 1): h' vanishes there and the method must bow out
    prof = ks.RadialProfile((0.0, 1.0, 2.0, 3.0, 4.0),
                            (90.0, 0.0, 0.0, 1.0, 0.0))
    assert prof.mass() > EIGHT_PI
    out = bounds.f_method_bound(prof)
    assert not out.applicable
    assert out.case == "inapplicable"
    assert out.reason


_NEAR_CRITICAL_FAMILIES = {
    "gaussian": lambda mass: ks.Gaussian(mass, 1.0),
    "disk": lambda mass: ks.DiskIndicator(mass / math.pi, 1.0),
    "polygaussian": lambda mass: ks.PolyGaussian(mass / math.pi, 1, 1.0),
}


@settings(max_examples=8, deadline=None)
@given(family=st.sampled_from(sorted(_NEAR_CRITICAL_FAMILIES)),
       e=st.floats(3.0, 12.0))
@example(family="gaussian", e=5.0)
@example(family="disk", e=9.5)
@example(family="polygaussian", e=12.0)
def test_f_method_near_critical_is_a_row(family, e):
    # near 8 pi the F-method either bounds from the safe side of tc2 or
    # bows out with a reason; it never raises out of the report
    report = bounds.full_report(
        _NEAR_CRITICAL_FAMILIES[family](EIGHT_PI * (1.0 + 10.0 ** -e)))
    row = report.row("f_method")
    assert row.status in ("computed", "inapplicable")
    if row.status == "inapplicable":
        assert row.detail
    tc2 = report.computed("tc2")
    if row.status == "computed" and tc2 is not None:
        assert row.value >= tc2 * (1.0 - 1e-6)


@pytest.mark.parametrize("d, inverse_calls, f_calls, capped, differenced", [
    (ks.DiffGaussians(32.0, 1.0, 2.0), 55, 5014, (122, 93009), 18030),
    (ks.RadialProfile((0.0, 0.5, 1.5), (10.0, 30.0, 0.0)), 55, 5033,
     (122, 92964), 17876),
])
def test_bisections_stop_once_converged(monkeypatch, d, inverse_calls,
                                        f_calls, capped, differenced):
    # a bisection stops once its midpoint equals an end; ``capped`` holds
    # the radial_mass counts of the fixed 120- and 200-step loops it
    # replaced, which returned the same floats, and ``differenced`` the
    # F-method's count when it took h' by central differences
    radial_mass = ks.InitialDatum.radial_mass
    calls = []

    def counted(self, z, rho):
        calls.append(rho)
        return radial_mass(self, z, rho)

    monkeypatch.setattr(ks.InitialDatum, "radial_mass", counted)
    d.generalized_inverse(None, 0.9)
    assert len(calls) == inverse_calls < capped[0]
    calls.clear()
    bounds.f_method_bound(d)
    assert len(calls) == f_calls < differenced < capped[1]


# ---------------------------------------------------------------------------
# lower bounds and heat constants
# ---------------------------------------------------------------------------

def test_lower_gaussian_equality(gaussian_16pi):
    detail = bounds.lower_bound_detail(gaussian_16pi)
    tc = bounds.tc_bound(gaussian_16pi)
    assert abs(detail.value - tc) / tc <= 1e-4
    assert abs(detail.sup_maximizer_qprime - 5.0) <= 1e-3


def test_lower_disk_value(disk_16pi):
    expect = math.exp(-1.0) / (4.0 * LOG125)
    assert bounds.lower_bound(disk_16pi) == pytest.approx(expect, rel=1e-6)


def test_lower_regime_threshold_constant():
    assert bounds.LOWER_REGIME_P0 == pytest.approx(1.682, abs=1e-3)


def test_lower_regime_selection(disk_16pi):
    # p below the threshold with large mass flips to the power regime
    big_disk = ks.DiskIndicator(100.0, 1.0)
    detail = bounds.lower_bound_detail(big_disk, p=1.2)
    assert detail.regime == "power"
    p_conj = 1.2 / 0.2
    consts = bounds.mass_constants(big_disk.mass())
    expect = (p_conj / (4.0 * math.pi)) \
        * (consts.threshold / big_disk.lp_norm(1.2)) ** p_conj
    assert detail.regime_form == pytest.approx(expect, rel=1e-12)
    # p above the threshold stays in the log regime
    assert bounds.lower_bound_detail(disk_16pi, p=2.0).regime == "log"


def test_lower_bounds_tc_for_all_families(families_16pi):
    for d in families_16pi.values():
        assert bounds.lower_bound(d) <= bounds.tc_bound(d) * (1.0 + 1e-6)


def test_heat_constant_identity_and_limits():
    for p in (1.0, 1.5, 2.0, 7.0, math.inf):
        assert bounds.heat_constant(2, p, p) == 1.0
    assert bounds.heat_constant(2, 1.0, math.inf) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-14)
    p = 2.0
    expect = 2.0 ** -0.5 * (4.0 * math.pi) ** -0.5
    assert bounds.heat_constant(2, p, math.inf) == pytest.approx(expect,
                                                                 rel=1e-14)
    with pytest.raises(InvalidExponentsError):
        bounds.heat_constant(2, 2.0, 1.5)
    with pytest.raises(InvalidExponentsError):
        bounds.heat_constant(2, 0.5, 2.0)


def test_sharp_ratio_constant():
    assert bounds.LOWER_SHARP_RATIO == pytest.approx(0.735, abs=1e-3)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_disk_report_chain(disk_16pi):
    report = bounds.full_report(disk_16pi)
    assert report.ordering_ok, report.violations
    expected = {
        "lower": math.exp(-1.0) / (4.0 * LOG125),
        "tc": 0.538546167984,
        "tc4": 1.0 / (8.0 * LOG125),
        "tc2": 1.0 / (4.0 * LOG125),
        "tc3": 1.0 / (4.0 * LOG125),
        "tc3_jung": 1.0 / (3.0 * LOG125),
    }
    for name, want in expected.items():
        assert report.computed(name) == pytest.approx(want, rel=1e-5), name
    chain = [report.computed(n)
             for n in ("lower", "tc", "tc4", "tc2", "tc3_jung")]
    assert chain == sorted(chain)


def test_gaussian_report(gaussian_16pi):
    report = bounds.full_report(gaussian_16pi)
    assert report.ordering_ok
    assert report.computed("lower") == pytest.approx(4.0, rel=1e-4)
    assert report.computed("tc") == pytest.approx(4.0, rel=1e-6)
    assert report.computed("virial") == pytest.approx(1.0, rel=1e-9)
    assert report.computed("tc4") == pytest.approx(1.0 / LOG125, rel=1e-9)
    # unbounded support rows are flagged, with a reason
    row = report.row("tc3")
    assert row.status == "inapplicable"
    assert row.detail


def test_report_virial_excluded_from_chain(gaussian_16pi):
    # virial (1.0) sits below tc (4.0) yet the chain is still coherent:
    # it bounds the blow-up time, not the critical-time bound
    report = bounds.full_report(gaussian_16pi)
    assert report.computed("virial") < report.computed("tc")
    assert report.ordering_ok


def _hand_report(**values):
    """A report of 16 pi whose rows hold ``values``; nan means failed."""
    rows = [bounds.BoundEstimate(
        name=name, kind="lower" if name == "lower" else "upper", value=v,
        status="computed" if math.isfinite(v) else "failed")
        for name, v in values.items()]
    return bounds.BoundReport(
        label="hand", mass=16.0 * math.pi,
        constants=bounds.mass_constants(16.0 * math.pi), rows=rows,
        tolerance=1e-6)


@pytest.mark.parametrize("values, want", [
    # tc failed: lower is still checked against every chain row
    (dict(lower=0.5, tc=math.nan, virial=0.1, tc1=2.0, tc3=0.25,
          tc4=0.5 * (1.0 - 1e-7)),
     ("lower=0.5 above tc3=0.25",)),
    # tc computed: lower above a chain row that is itself below tc
    (dict(lower=0.9, tc=1.0, virial=0.1, tc1=1.5, tc3=math.nan, tc4=0.8),
     ("lower=0.9 above tc4=0.8", "tc4=0.8 below tc=1")),
])
def test_check_ordering_compares_every_pair(values, want):
    # the virial row is outside the chain, a failed row is never compared,
    # and a pair within the tolerance (lower against tc4 in the first
    # report) is no violation
    report = _hand_report(**values)
    bounds._check_ordering(report)
    assert report.violations == want
    assert not report.ordering_ok


def test_report_subcritical_aborts():
    with pytest.raises(SubcriticalMassError):
        bounds.full_report(ks.Gaussian(EIGHT_PI, 1.0))


def test_report_near_critical_disk_references():
    mass = EIGHT_PI * (1.0 + 1e-3)
    disk = ks.DiskIndicator(mass / math.pi, 1.0)
    report = bounds.full_report(disk)
    ref = report.row("disk_asym_fixed_radius")
    assert ref.kind == "exact-reference"
    assert abs(report.computed("tc") / ref.value - 1.0) <= 0.02


def test_diffgaussians_laplace_below_variance_bound():
    report = bounds.full_report(ks.DiffGaussians(32.0, 1.0, 2.0))
    assert report.computed("tc") <= oracles.oracle_diffgaussians(
        32.0, 1.0, 2.0) * (1.0 + 1e-6)
    assert oracles.oracle_diffgaussians(32.0, 1.0, 2.0) == pytest.approx(
        1.579156, rel=1e-5)
    assert report.computed("tc4") == pytest.approx(1.680533, rel=1e-5)


def test_grid_report_orders_and_tracks_disk(small_disk_grid, disk_16pi):
    report = bounds.full_report(small_disk_grid)
    assert report.ordering_ok, report.violations
    assert report.computed("tc") == pytest.approx(
        bounds.tc_bound(disk_16pi), rel=5e-3)
    assert report.row("f_method").status == "inapplicable"
