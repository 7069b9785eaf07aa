import math

import pytest

import ksblowup as ks
from ksblowup import bounds, oracles
from ksblowup.errors import (
    InvalidExponentsError,
    SubcriticalMassError,
    UnboundedSupportError,
)

from conftest import EIGHT_PI, disk_grid

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


def test_rho_form_ignores_uninformative_radii():
    # below the threshold the positive-part log vanishes: contribution +inf
    consts = bounds.mass_constants(16.0 * math.pi)
    calls = []

    def mass_at(rho):
        calls.append(rho)
        return consts.threshold * 0.5  # always below threshold

    cfg = bounds.SearchConfig(rho_grid=8)
    val = bounds._rho_form_from(mass_at, consts, 0.1, 10.0, cfg)
    assert val == math.inf and calls


# ---------------------------------------------------------------------------
# tc3
# ---------------------------------------------------------------------------

def test_tc3_disk(disk_16pi):
    enclosing, jung = bounds.tc3_bound(disk_16pi)
    assert enclosing == pytest.approx(1.0 / (4.0 * LOG125), rel=1e-12)
    assert jung == pytest.approx(1.0 / (3.0 * LOG125), rel=1e-12)


def test_report_computes_grid_support_geometry_once(monkeypatch):
    from ksblowup import geometry

    calls = []
    original = geometry.smallest_enclosing_disk

    def counted(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(geometry, "smallest_enclosing_disk", counted)
    bounds.full_report(disk_grid(128))
    assert len(calls) == 1


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
