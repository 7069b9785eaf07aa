"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.
"""

import math

import numpy as np

import ksblowup as ks
from ksblowup import HeatMassCurve, bounds, oracles
from ksblowup.errors import SubcriticalMassError

from conftest import EIGHT_PI, analytic_families

LOG125 = math.log(1.25)


def _criterion(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f" ({detail})" if detail and not ok else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_1_gaussian_exactness():
    worst = 0.0
    for sigma, mass in ((1.0, 16.0 * math.pi), (0.5, 10.0 * math.pi),
                        (2.0, 100.0 * math.pi)):
        g = ks.Gaussian(mass, sigma)
        consts = bounds.mass_constants(mass)
        got = HeatMassCurve(g, mode="quadrature").invert(consts.threshold)
        want = 2.0 * sigma * mass / (mass - EIGHT_PI)
        worst = max(worst, abs(got - want) / want)
    _criterion("1 gaussian quadrature+inversion exactness (rel <= 1e-6)",
               worst <= 1e-6, f"worst rel err {worst:.3e}")


def test_criterion_2_disk_kernel_constant():
    val = oracles.disk_kernel_fraction_inverse(2.0 / 3.0)
    _criterion("2 disk kernel inverse at 2/3 equals 0.87421 +- 1e-4",
               abs(val - 0.87421) <= 1e-4, f"got {val:.6f}")


def test_criterion_3_disk_chain():
    report = bounds.full_report(ks.DiskIndicator(16.0, 1.0))
    f_inv = oracles.disk_kernel_fraction_inverse(0.8)
    expected = {
        "lower": math.exp(-1.0) / (4.0 * LOG125),
        "tc": 1.0 / (4.0 * f_inv),
        "tc4": 1.0 / (8.0 * LOG125),
        "tc2": 1.0 / (4.0 * LOG125),
        "tc3": 1.0 / (4.0 * LOG125),
        "tc3_jung": 1.0 / (3.0 * LOG125),
    }
    errs = {name: abs(report.computed(name) - want) / want
            for name, want in expected.items()}
    chain = [report.computed(n)
             for n in ("lower", "tc", "tc4", "tc2", "tc3_jung")]
    ok = max(errs.values()) <= 1e-3 and chain == sorted(chain) \
        and report.ordering_ok
    _criterion("3 disk chain matches closed forms (rel <= 1e-3) and is ordered",
               ok, f"errs {errs}")


def test_criterion_4_gaussian_lower_equality():
    g = ks.Gaussian(16.0 * math.pi, 1.0)
    detail = bounds.lower_bound_detail(g)
    tc = bounds.tc_bound(g)
    rel = abs(detail.value - tc) / tc
    qp_err = abs(detail.sup_maximizer_qprime - 5.0)
    _criterion("4 gaussian lower bound equals tc (rel <= 1e-4), "
               "maximizer at q'=1/(1-a) within 1e-3",
               rel <= 1e-4 and qp_err <= 1e-3,
               f"rel {rel:.2e}, q' err {qp_err:.2e}")


def test_criterion_5_translation_invariance():
    rng = np.random.default_rng(20260810)
    shifts = [tuple(v) for v in rng.uniform(-10.0, 10.0, size=(2, 2))
              if math.hypot(*v) <= 10.0] or [(6.0, -3.0)]
    cases = (ks.DiskIndicator(16.0, 1.0), ks.Gaussian(16.0 * math.pi, 1.0),
             ks.DiffGaussians(32.0, 1.0, 2.0))
    worst = 0.0
    for base in cases:
        ref = bounds.full_report(base)
        for shift in shifts:
            moved = type(base)(*[getattr(base, f.name)
                                 for f in base.__dataclass_fields__.values()
                                 if f.name != "center"], center=shift)
            rep = bounds.full_report(moved)
            for row in ref.rows:
                if row.status != "computed" or math.isinf(row.value):
                    continue
                other = rep.computed(row.name)
                worst = max(worst, abs(other - row.value) / abs(row.value))
    _criterion("5 every estimator is translation-invariant (rel <= 1e-6)",
               worst <= 1e-6, f"worst rel change {worst:.3e}")


def test_criterion_6_near_critical_asymptotics():
    mass = EIGHT_PI * (1.0 + 1e-3)
    disk = ks.DiskIndicator(mass / math.pi, 1.0)
    tc_disk = bounds.tc_bound(disk)
    disk_ratio = tc_disk / (2.0 * math.pi / (mass - EIGHT_PI))
    g = ks.Gaussian(mass, 1.0)
    gauss_ratio = bounds.tc4_bound(g) / bounds.tc_bound(g)
    ok = abs(disk_ratio - 1.0) <= 0.02 and abs(gauss_ratio - 1.0) <= 1e-3
    _criterion("6 near-critical asymptotics (disk 2%, gaussian 0.1%)",
               ok, f"disk {disk_ratio:.5f}, gaussian {gauss_ratio:.6f}")


def test_criterion_7_property_suites():
    families = analytic_families(16.0 * math.pi)
    failures = []

    # heat-mass monotonicity and open range on 50 log-spaced times
    for name, d in families.items():
        for z in (None, (0.7, -0.4)):
            curve = HeatMassCurve(d, z)
            hvals = [curve.evaluate(s) for s in np.geomspace(1e-3, 1e3, 50)]
            if not all(b > a for a, b in zip(hvals, hvals[1:])):
                failures.append(f"monotonicity {name} z={z}")
            if not all(0.0 < h < d.mass() for h in hvals):
                failures.append(f"range {name} z={z}")

    # laplace identity
    for name, d in families.items():
        for s in (0.1, 1.0, 10.0):
            direct = HeatMassCurve(d, mode="quadrature").evaluate(s)
            lap = math.pi * d.laplace(1.0 / (4.0 * s))
            if abs(lap - direct) / direct > 1e-8:
                failures.append(f"laplace {name} s={s}")

    # right-inverse property of the generalized inverse
    for name, d in families.items():
        for m in (0.05, 0.5, 0.95):
            rho = d.generalized_inverse(None, m)
            if abs(d.mass_fraction(None, rho) - m) > 1e-7:
                failures.append(f"inverse {name} m={m}")

    # beta-variance monotone in beta
    for name, d in families.items():
        v = [d.beta_variance(b) for b in (2.0, 3.0, 4.0)]
        if not (v[0] <= v[1] * (1 + 1e-12) and v[1] <= v[2] * (1 + 1e-12)):
            failures.append(f"variance monotonicity {name}")

    # Jung inequalities on the compact families
    for name in ("disk", "annulus"):
        geom = families[name].support_geometry()
        if not (geom.diameter / 2.0 <= geom.r0 <= geom.diameter
                and geom.r0 <= geom.diameter / math.sqrt(3.0)):
            failures.append(f"jung {name}")

    # uninformative weights produce +inf, never an error
    if bounds.tc1_value(families["gaussian"], 2.0, 1e-4) != math.inf:
        failures.append("tc1 log-plus handling")

    # subcritical mass is rejected everywhere
    for fn in (lambda: bounds.mass_constants(EIGHT_PI),
               lambda: bounds.full_report(ks.Gaussian(EIGHT_PI, 1.0)),
               lambda: oracles.oracle_gaussian(4.0, 1.0)):
        try:
            fn()
            failures.append("subcritical accepted")
        except SubcriticalMassError:
            pass

    _criterion("7 property suites (monotonicity, laplace, inverse, variance, "
               "jung, log-plus, subcritical)", not failures, "; ".join(failures))


def test_criterion_8_ordering_all_families():
    violations = []
    for mass in (9.0 * math.pi, 16.0 * math.pi, 100.0 * math.pi):
        for name, d in analytic_families(mass).items():
            report = bounds.full_report(d, tolerance=1e-6)
            if not report.ordering_ok:
                violations.append(f"{name}@{mass:.4g}: {report.violations}")
    _criterion("8 ordering lower <= tc <= uppers over 5 families x 3 masses",
               not violations, "; ".join(violations))


def test_criterion_9_constants():
    checks = {
        "c0": abs(bounds.TC4_SANDWICH_FACTOR - 0.8109) <= 1e-4,
        "p0": abs(bounds.LOWER_REGIME_P0 - 1.682) <= 1e-3,
        "kappa": abs(bounds.LOWER_SHARP_RATIO - 0.735) <= 1e-3,
        "C(2,p,p)": all(bounds.heat_constant(2, p, p) == 1.0
                        for p in (1.0, 2.0, 3.7, math.inf)),
        "C(2,1,inf)": abs(bounds.heat_constant(2, 1.0, math.inf)
                          - 1.0 / (4.0 * math.pi)) <= 1e-15,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _criterion("9 constants suite (c0, p0, kappa, heat constants)",
               not bad, f"failed: {bad}")
