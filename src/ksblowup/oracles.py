"""Closed-form reference values for the five analytic example families.

These are the verification backbone for the numerical pipeline: every
formula below is evaluated with plain high-precision bisection on the
stated monotone function, sharing no code with the heat-mass inversion
in `heatmass`.  Gaussian and disk values are exact critical-time
bounds; the annulus, polynomial-gaussian, and difference-of-gaussians
values are upper bounds (their densities are not non-increasing, so
the center evaluation need not attain the infimum).
"""

import math

from .errors import SubcriticalMassError

EIGHT_PI = 8.0 * math.pi


def _mass_ratio(mass):
    """a = 2M/(3M - 8 pi), the threshold-to-mass ratio, in (2/3, 1)."""
    if not mass > EIGHT_PI:
        raise SubcriticalMassError(
            f"mass {mass:.6g} <= 8*pi: critical time is infinite")
    return 2.0 * mass / (3.0 * mass - EIGHT_PI)


def _log_inv_ratio(mass):
    return math.log(1.0 / _mass_ratio(mass))


def _bisect_decreasing(fn, target, lo, hi, steps=200, abs_tol=1e-12):
    """Solve fn(x) = target for a strictly decreasing fn on (lo, hi)."""
    for _ in range(1000):
        if fn(hi) < target:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("bisection bracket not found")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs_tol:
            break
    return 0.5 * (lo + hi)


def disk_kernel_fraction(lam):
    """f(lam) = (1 - exp(-lam))/lam, strictly decreasing from 1 to 0."""
    if lam == 0.0:
        return 1.0
    return -math.expm1(-lam) / lam


def disk_kernel_fraction_inverse(v):
    """f^{-1}(v) for v in (0, 1), by plain bisection."""
    if not 0.0 < v < 1.0:
        raise ValueError("v must lie in (0, 1)")
    return _bisect_decreasing(disk_kernel_fraction, v, 0.0, 1.0)


def oracle_gaussian(mass, sigma):
    """Exact critical-time bound for a gaussian bump."""
    if not mass > EIGHT_PI:
        raise SubcriticalMassError("gaussian oracle needs mass > 8*pi")
    return sigma * 2.0 * mass / (mass - EIGHT_PI)


def oracle_disk(mass, radius):
    """Exact critical-time bound for the disk indicator of given mass."""
    a = _mass_ratio(mass)
    return radius ** 2 / (4.0 * disk_kernel_fraction_inverse(a))


def oracle_annulus(height, r_inner, r_outer):
    """Upper bound for the uniform annulus (mass derived from the shape)."""
    if not 0.0 < r_inner < r_outer:
        raise ValueError("annulus needs 0 < r_inner < r_outer")
    mass = height * math.pi * (r_outer ** 2 - r_inner ** 2)
    threshold = _mass_ratio(mass) * mass

    def decay(s):
        # (e^-R1^2 s - e^-R2^2 s) / s, factored on the outer radius
        return math.exp(-r_outer ** 2 * s) \
            * math.expm1((r_outer ** 2 - r_inner ** 2) * s) / s

    s_star = _bisect_decreasing(decay, threshold / (height * math.pi),
                                0.0, 1.0)
    return 1.0 / (4.0 * s_star)


def oracle_polygaussian(height, power, rate):
    """Upper bound for height * r^(2n) exp(-rate r^2)."""
    if power < 0 or rate <= 0.0 or height <= 0.0:
        raise ValueError("invalid polynomial-gaussian parameters")
    mass = height * math.pi * math.factorial(power) / rate ** (power + 1)
    a = _mass_ratio(mass)
    bracket = (1.0 / a) ** (1.0 / (power + 1.0)) - 1.0
    return 1.0 / (4.0 * rate * bracket)


def oracle_diffgaussians(height, rate_slow, rate_fast):
    """Upper bound for the difference-of-gaussians family."""
    if not 0.0 < rate_slow < rate_fast:
        raise ValueError("family requires 0 < rate_slow < rate_fast")
    mass = math.pi * height / (rate_slow * rate_fast)
    a = _mass_ratio(mass)
    d, b = rate_slow, rate_fast
    root = math.sqrt((b - d) ** 2 + 4.0 * b * d / a)
    return 1.0 / (2.0 * (root - (b + d)))


def oracle_gaussian_variance_bound(mass, sigma):
    """Variance bound for the gaussian family: sigma / ln(1 + (M-8pi)/2M)."""
    return sigma / _log_inv_ratio(mass)


def oracle_disk_variance_bound(mass, radius):
    """Variance bound for the disk: (R^2/2)/(4 ln(1 + (M-8pi)/2M))."""
    return radius ** 2 / (8.0 * _log_inv_ratio(mass))


def oracle_annulus_variance_bound(height, r_inner, r_outer):
    """Variance bound for the annulus: (R1^2 + R2^2)/(8 ln(1+(M-8pi)/2M))."""
    mass = height * math.pi * (r_outer ** 2 - r_inner ** 2)
    return (r_inner ** 2 + r_outer ** 2) / (8.0 * _log_inv_ratio(mass))


def oracle_diffgaussians_variance_bound(height, rate_slow, rate_fast):
    """Variance bound for the difference of gaussians."""
    mass = math.pi * height / (rate_slow * rate_fast)
    v2 = (rate_slow + rate_fast) / (rate_slow * rate_fast)
    return v2 / (4.0 * _log_inv_ratio(mass))
