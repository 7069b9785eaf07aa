"""Planar initial densities and their scalar descriptors.

Seven families are supported: five analytic ones (gaussian, disk
indicator, annulus, polynomial-gaussian, difference of gaussians), a
tabulated radial profile (piecewise linear in r), and a uniform
Cartesian grid of samples.  Every family exposes the same descriptor
surface: mass, barycenter, beta-variance, Lp norms, radial cumulative
mass about an arbitrary center, its generalized (right) inverse, and
the enclosing-disk geometry for compactly supported data.  Radial
families also carry the Laplace transform of their squared-radius
profile, and with it the closed form of the heat-weighted mass where
one exists.

All instances are immutable; cached quantities are computed at
construction so evaluation is safe under concurrency.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    NormDivergenceError,
    NotRadialError,
    UnboundedSupportError,
    ZeroDatumError,
)
from .geometry import SupportGeometry, support_geometry_of_points
from .quadrature import _gl_nodes, integrate_panels, merged_edges, panel_edges

TWO_PI = 2.0 * math.pi

#: Relative tail mass kept outside truncation radii for unbounded families.
TAIL_FRACTION = 1e-14

#: extra panel reach, in units of sqrt(s), around the gaussian weight
_WEIGHT_REACH = 10.0


def _as_center(value):
    c = tuple(float(v) for v in value)
    if len(c) != 2:
        raise ValueError("center must be a point in the plane")
    return c


def _offset(z, center):
    if z is None:
        return 0.0
    z = np.asarray(z, dtype=float)
    return float(math.hypot(z[0] - center[0], z[1] - center[1]))


class InitialDatum:
    """Shared descriptor logic; concrete families are frozen dataclasses."""

    family = "abstract"
    #: radially symmetric about ``center``
    is_radial = True
    #: the density vanishes outside a bounded set
    has_compact_support = False

    # -- structure ----------------------------------------------------

    @property
    def is_nonincreasing_radial(self):
        return False

    def profile(self, r):
        """Radial density value(s) at |x - center| = r."""
        raise NotImplementedError

    def profile_mode_radius(self):
        """A radius where the radial profile attains its maximum."""
        return 0.0

    def radial_breakpoints(self):
        """Radii where the profile is non-smooth (quadrature panel edges)."""
        return ()

    def tail_radius(self, fraction=TAIL_FRACTION):
        """Radius about the center holding all but ``fraction`` of the mass."""
        # idempotent per-instance cache; safe under the GIL
        cache = self.__dict__.setdefault("_tail_cache", {})
        if fraction not in cache:
            cache[fraction] = self.generalized_inverse(None, 1.0 - fraction)
        return cache[fraction]

    def label(self):
        return f"{self.family}(mass={self.mass():.6g})"

    def search_probes(self):
        """Center-search starts beyond the center and the barycenter: a
        point on the peak ring of a profile that is not non-increasing."""
        mode = 0.0 if self.is_nonincreasing_radial else self.profile_mode_radius()
        if mode <= 0.0:
            return ()
        return ((self.center[0] + mode, self.center[1]),)

    # -- heat-weighted mass ----------------------------------------------

    def closed_heat_mass(self, delta, s):
        """H(s) about a point at distance ``delta`` from the center, in
        closed form, or None when only quadrature applies."""
        return self._central_heat_mass(s) if delta == 0.0 else None

    def _central_heat_mass(self, s):
        """Closed form of H(s) at the center where available, else None."""
        return None

    def laplace(self, v):
        """Laplace transform of u -> profile(sqrt(u)), evaluated at v > 0.

        Defined for radially symmetric data only; pi * laplace(1/(4 s))
        is the heat-weighted mass H(s) at the symmetry center, so one
        closed form of H serves both.
        """
        if v <= 0.0:
            raise ValueError("laplace variable must be positive")
        if not self.is_radial:
            raise NotRadialError("laplace path requires radially symmetric data")
        val = self.closed_heat_mass(0.0, 1.0 / (4.0 * v))
        if val is not None:
            return val / math.pi
        # integrate exp(-v r^2) profile(r) 2 r dr
        rmax = self.tail_radius()
        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), rmax, self._scale_radius()),
            np.linspace(0.0, min(rmax, _WEIGHT_REACH / math.sqrt(v)), 17))
        return 2.0 * integrate_panels(
            lambda r: np.exp(-v * r * r) * self.profile(r) * r, edges, order=48)

    # -- descriptors ---------------------------------------------------

    def mass(self):
        raise NotImplementedError

    def barycenter(self):
        # radial families are symmetric about their center
        return self.center

    def beta_variance(self, beta):
        """Centralized normalized beta-moment, raised to the power 2/beta."""
        if beta < 1.0:
            raise ValueError("beta must be >= 1")
        return self.beta_moment_about(self.barycenter(), beta)

    def beta_moment_about(self, z, beta):
        """[(1/M) * integral |x-z|^beta n0 dx]^(2/beta)."""
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        delta = _offset(z, self.center)
        if delta == 0.0:
            moment = self._central_beta_moment(beta)
        else:
            moment = self._offset_beta_moment(delta, beta)
        return (moment / self.mass()) ** (2.0 / beta)

    def _central_beta_moment(self, beta):
        """integral |x - center|^beta n0 dx (closed form where available)."""
        rmax = self.tail_radius()
        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), rmax, self._scale_radius()))
        return TWO_PI * integrate_panels(
            lambda r: self.profile(r) * r ** (beta + 1.0), edges)

    def _offset_beta_moment(self, delta, beta):
        rmax = self.tail_radius()
        phi, wphi = _gl_nodes(64)
        phi = 0.5 * math.pi * (phi + 1.0)
        wphi = 0.5 * math.pi * wphi

        def integrand(r):
            rr = r[:, None]
            dist_sq = rr ** 2 + delta ** 2 - 2.0 * rr * delta * np.cos(phi)[None, :]
            ang = 2.0 * (np.maximum(dist_sq, 0.0) ** (0.5 * beta) @ wphi)
            return self.profile(r) * r * ang

        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), rmax, self._scale_radius()),
            [min(delta, rmax)])
        return integrate_panels(integrand, edges)

    def _scale_radius(self):
        """Characteristic radius used to grade quadrature panels."""
        return max(self.generalized_inverse(None, 0.5), 1e-30)

    def lp_norm(self, p):
        if p < 1.0:
            raise NormDivergenceError("p must lie in [1, inf]")
        if p == 1.0:
            return self.mass()
        if math.isinf(p):
            return self._sup_norm()
        return self._lp_norm_finite(p)

    def _sup_norm(self):
        raise NotImplementedError

    def _lp_norm_finite(self, p):
        rmax = self.tail_radius()
        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), rmax, self._scale_radius()))
        val = TWO_PI * integrate_panels(
            lambda r: self.profile(r) ** p * r, edges)
        return val ** (1.0 / p)

    # -- radial cumulative mass ----------------------------------------

    def radial_mass(self, z, rho):
        """Mass inside the disk of radius rho centered at z (center if None)."""
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        if rho == 0.0:
            return 0.0
        delta = _offset(z, self.center)
        if delta == 0.0:
            return self._central_radial_mass(rho)
        return self._offset_radial_mass(delta, rho)

    def mass_fraction(self, z, rho):
        return self.radial_mass(z, rho) / self.mass()

    def mass_profile(self, z, n=1024):
        """Cumulative mass about z on a dense radius grid of about n points."""
        return _RadialSnapshot(self, z, n)

    def _central_radial_mass(self, rho):
        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), rho, self._scale_radius()))
        return TWO_PI * integrate_panels(lambda r: self.profile(r) * r, edges)

    def _offset_radial_mass(self, delta, rho):
        # disk about an off-center point: full circles up to rho - delta,
        # then a lens-angle strip up to rho + delta
        total = 0.0
        if rho > delta:
            total += self._central_radial_mass(rho - delta)
        lo = abs(rho - delta)
        hi = min(rho + delta, self.tail_radius())
        if hi <= lo:
            return total

        def integrand(r):
            c = (r ** 2 + delta ** 2 - rho ** 2) / (2.0 * r * delta)
            ang = 2.0 * np.arccos(np.clip(c, -1.0, 1.0))
            return self.profile(r) * r * ang

        # the angle has square-root kinks at both lens edges; geometric
        # panel clustering there restores full quadrature accuracy
        width = hi - lo
        cluster = [lo + width * 2.0 ** -k for k in range(1, 16)]
        cluster += [hi - width * 2.0 ** -k for k in range(2, 16)]
        edges = merged_edges(
            panel_edges(self.radial_breakpoints(), hi, self._scale_radius()),
            [lo],
            cluster,
            np.linspace(lo, hi, 9))
        edges = edges[(edges >= lo) & (edges <= hi)]
        total += integrate_panels(integrand, edges)
        return total

    # -- generalized inverse of the mass fraction -----------------------

    def generalized_inverse(self, z, m):
        """inf{rho > 0 : mass fraction in B(z, rho) >= m}, for m in (0, 1].

        m = 1 is only defined for compactly supported data (the answer is
        the farthest support point); unbounded families raise.
        """
        if not 0.0 < m <= 1.0:
            raise ValueError("m must lie in (0, 1]")
        if m == 1.0:
            return self.support_radius_from(z)
        delta = _offset(z, self.center)
        if delta == 0.0:
            rho = self._central_generalized_inverse(m)
            if rho is not None:
                return rho
        return self._bisect_generalized_inverse(z, m)

    def _central_generalized_inverse(self, m):
        """Closed form where the family admits one, else None."""
        return None

    def _bisect_generalized_inverse(self, z, m):
        total = self.mass()
        target = m * total
        hi = self._scale_radius()
        for _ in range(200):
            if self.radial_mass(z, hi) >= target:
                break
            hi *= 2.0
        else:
            raise UnboundedSupportError("mass fraction never reaches m")
        lo = 0.0
        # predicate bisection converges to the infimum even across plateaus
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if self.radial_mass(z, mid) >= target * (1.0 - 1e-14):
                hi = mid
            else:
                lo = mid
        return hi

    # -- support ---------------------------------------------------------

    def support_geometry(self, rel_threshold=0.0):
        raise UnboundedSupportError(
            f"{self.family} datum has unbounded support")

    def support_radius_from(self, z):
        """Distance from z to the farthest point of the (compact) support."""
        raise UnboundedSupportError(
            f"{self.family} datum has unbounded support")


class _RadialSnapshot:
    """Dense cumulative-mass profile of a datum about a fixed point.

    One vectorized angular sweep per center replaces thousands of lens
    quadratures when the center search probes off-symmetry points; the
    symmetric center itself always goes through the exact closed forms.
    """

    def __init__(self, density, z, n):
        center = density.center
        delta = math.hypot(z[0] - center[0], z[1] - center[1])
        if density.has_compact_support:
            umax = density.support_radius_from(z)
        else:
            umax = density.tail_radius(1e-13) + delta
        us = np.linspace(0.0, umax, n)
        # ring-density kinks sit where circles about z touch profile features
        kinks = []
        for b in density.radial_breakpoints():
            kinks.extend((abs(delta - b), delta + b))
        us = np.unique(np.concatenate(
            [us, [u for u in kinks if 0.0 < u < umax]]))

        if delta == 0.0:
            ring = 2.0 * math.pi * us * density.profile(us)
        else:
            phi, wphi = _gl_nodes(96)
            phi = 0.5 * math.pi * (phi + 1.0)
            wphi = 0.5 * math.pi * wphi
            dist = np.sqrt(us[:, None] ** 2 + delta ** 2
                           + 2.0 * us[:, None] * delta * np.cos(phi)[None, :])
            ring = 2.0 * us * (density.profile(dist.ravel())
                               .reshape(dist.shape) @ wphi)
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (ring[1:] + ring[:-1]) * np.diff(us))])
        self._us = us
        self._cum = cum
        self._mass = density.mass()

    def mass_at(self, rho):
        return float(np.interp(rho, self._us, self._cum))

    def inverse(self, m):
        target = m * self._mass
        idx = int(np.searchsorted(self._cum, target))
        if idx >= len(self._us):
            return float(self._us[-1])
        if idx == 0:
            return float(self._us[0])
        c0, c1 = self._cum[idx - 1], self._cum[idx]
        u0, u1 = self._us[idx - 1], self._us[idx]
        if c1 == c0:
            return float(u1)
        return float(u0 + (target - c0) * (u1 - u0) / (c1 - c0))


class _GridSnapshot:
    """Exact sorted-distance cumulative mass for grid data about a point."""

    def __init__(self, density, z):
        xs, ys, w = density.cell_coordinates()
        d = np.hypot(xs - z[0], ys - z[1])
        order = np.argsort(d, kind="stable")
        self._d = d[order]
        self._cum = np.cumsum(w[order]) * density.cell_size ** 2
        self._mass = density.mass()

    def mass_at(self, rho):
        idx = int(np.searchsorted(self._d, rho, side="right"))
        return float(self._cum[idx - 1]) if idx else 0.0

    def inverse(self, m):
        target = m * self._mass * (1.0 - 1e-14)
        idx = min(int(np.searchsorted(self._cum, target)), len(self._d) - 1)
        return float(self._d[idx])


@dataclass(frozen=True)
class Gaussian(InitialDatum):
    """Heat-kernel bump: total mass spread by a gaussian of variance 2*sigma."""

    total_mass: float
    sigma: float
    center: tuple = (0.0, 0.0)
    family = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        if self.total_mass <= 0.0:
            raise ZeroDatumError("mass must be positive")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    @property
    def is_nonincreasing_radial(self):
        return True

    def label(self):
        return f"gaussian(mass={self.total_mass:.6g}, sigma={self.sigma:.6g})"

    def mass(self):
        return self.total_mass

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        amp = self.total_mass / (4.0 * math.pi * self.sigma)
        return amp * np.exp(-r * r / (4.0 * self.sigma))

    def _central_beta_moment(self, beta):
        # integral |x|^beta p_sigma = (4 sigma)^(beta/2) Gamma(beta/2 + 1)
        return self.total_mass * (4.0 * self.sigma) ** (0.5 * beta) \
            * special.gamma(0.5 * beta + 1.0)

    def _sup_norm(self):
        return self.total_mass / (4.0 * math.pi * self.sigma)

    def _lp_norm_finite(self, q):
        return self.total_mass * (4.0 * math.pi * self.sigma) ** (1.0 / q - 1.0) \
            * q ** (-1.0 / q)

    def _central_radial_mass(self, rho):
        return self.total_mass * (-math.expm1(-rho * rho / (4.0 * self.sigma)))

    def _central_generalized_inverse(self, m):
        return math.sqrt(-4.0 * self.sigma * math.log1p(-m))

    def _scale_radius(self):
        return 2.0 * math.sqrt(self.sigma)

    def closed_heat_mass(self, delta, s):
        # the heat kernel maps the bump to a wider bump, so the closed
        # form holds about every point
        spread = s + self.sigma
        return (s * self.total_mass / spread) * math.exp(
            -delta * delta / (4.0 * spread))


@dataclass(frozen=True)
class DiskIndicator(InitialDatum):
    """Uniform height on a disk."""

    height: float
    radius: float
    center: tuple = (0.0, 0.0)
    family = "disk"
    has_compact_support = True

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        if self.height <= 0.0 or self.radius <= 0.0:
            raise ValueError("height and radius must be positive")

    @property
    def is_nonincreasing_radial(self):
        return True

    def label(self):
        return f"disk(height={self.height:.6g}, radius={self.radius:.6g})"

    def mass(self):
        return self.height * math.pi * self.radius ** 2

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, self.height, 0.0)

    def radial_breakpoints(self):
        return (self.radius,)

    def _central_beta_moment(self, beta):
        return self.mass() * 2.0 * self.radius ** beta / (beta + 2.0)

    def _sup_norm(self):
        return self.height

    def _lp_norm_finite(self, p):
        return self.height * (math.pi * self.radius ** 2) ** (1.0 / p)

    def _central_radial_mass(self, rho):
        return self.mass() * min(1.0, rho / self.radius) ** 2

    def _central_generalized_inverse(self, m):
        return self.radius * math.sqrt(m)

    def _central_heat_mass(self, s):
        lam = self.radius ** 2 / (4.0 * s)
        return self.mass() * (-math.expm1(-lam)) / lam

    def _scale_radius(self):
        return self.radius

    def tail_radius(self, fraction=TAIL_FRACTION):
        return self.radius

    def support_geometry(self, rel_threshold=0.0):
        return SupportGeometry(self.radius, 2.0 * self.radius, self.center)

    def support_radius_from(self, z):
        return _offset(z, self.center) + self.radius


@dataclass(frozen=True)
class Annulus(InitialDatum):
    """Uniform height on an annulus r_inner < |x - center| < r_outer."""

    height: float
    r_inner: float
    r_outer: float
    center: tuple = (0.0, 0.0)
    family = "annulus"
    has_compact_support = True

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        if self.height <= 0.0 or self.r_inner <= 0.0:
            raise ValueError("height and radii must be positive")
        if not self.r_inner < self.r_outer:
            raise ValueError("annulus requires r_inner < r_outer")

    def label(self):
        return (f"annulus(height={self.height:.6g}, "
                f"r_inner={self.r_inner:.6g}, r_outer={self.r_outer:.6g})")

    def mass(self):
        return self.height * math.pi * (self.r_outer ** 2 - self.r_inner ** 2)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= self.r_inner) & (r <= self.r_outer),
                        self.height, 0.0)

    def profile_mode_radius(self):
        return 0.5 * (self.r_inner + self.r_outer)

    def radial_breakpoints(self):
        return (self.r_inner, self.r_outer)

    def _central_beta_moment(self, beta):
        e = beta + 2.0
        return self.height * TWO_PI * (self.r_outer ** e - self.r_inner ** e) / e

    def _sup_norm(self):
        return self.height

    def _lp_norm_finite(self, p):
        area = math.pi * (self.r_outer ** 2 - self.r_inner ** 2)
        return self.height * area ** (1.0 / p)

    def _central_radial_mass(self, rho):
        lo, hi = self.r_inner, self.r_outer
        r = min(max(rho, lo), hi)
        return self.height * math.pi * (r * r - lo * lo)

    def _central_generalized_inverse(self, m):
        lo2, hi2 = self.r_inner ** 2, self.r_outer ** 2
        return math.sqrt(lo2 + m * (hi2 - lo2))

    def _central_heat_mass(self, s):
        lo = self.r_inner ** 2 / (4.0 * s)
        hi = self.r_outer ** 2 / (4.0 * s)
        return 4.0 * math.pi * self.height * s * (math.exp(-lo) - math.exp(-hi))

    def _scale_radius(self):
        return self.r_outer

    def tail_radius(self, fraction=TAIL_FRACTION):
        return self.r_outer

    def support_geometry(self, rel_threshold=0.0):
        return SupportGeometry(self.r_outer, 2.0 * self.r_outer, self.center)

    def support_radius_from(self, z):
        return _offset(z, self.center) + self.r_outer


@dataclass(frozen=True)
class PolyGaussian(InitialDatum):
    """height * r^(2n) * exp(-rate * r^2) about the center."""

    height: float
    power: int
    rate: float
    center: tuple = (0.0, 0.0)
    family = "polygaussian"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        if self.height <= 0.0 or self.rate <= 0.0:
            raise ValueError("height and rate must be positive")
        if self.power < 0 or self.power != int(self.power):
            raise ValueError("power must be a non-negative integer")
        object.__setattr__(self, "power", int(self.power))

    @property
    def is_nonincreasing_radial(self):
        return self.power == 0

    def label(self):
        return (f"polygaussian(height={self.height:.6g}, "
                f"power={self.power}, rate={self.rate:.6g})")

    def mass(self):
        n = self.power
        return self.height * math.pi * math.factorial(n) / self.rate ** (n + 1)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.height * r ** (2 * self.power) * np.exp(-self.rate * r * r)

    def profile_mode_radius(self):
        if self.power == 0:
            return 0.0
        return math.sqrt(self.power / self.rate)

    def _central_beta_moment(self, beta):
        n, a = self.power, self.rate
        return self.height * math.pi * special.gamma(n + 1.0 + 0.5 * beta) \
            / a ** (n + 1.0 + 0.5 * beta)

    def _sup_norm(self):
        n = self.power
        if n == 0:
            return self.height
        return self.height * (n / self.rate) ** n * math.exp(-n)

    def _lp_norm_finite(self, p):
        n, a = self.power, self.rate
        val = self.height ** p * math.pi * special.gamma(n * p + 1.0) \
            / (p * a) ** (n * p + 1.0)
        return val ** (1.0 / p)

    def _central_radial_mass(self, rho):
        # regularized lower incomplete gamma of the squared radius
        return self.mass() * float(
            special.gammainc(self.power + 1.0, self.rate * rho * rho))

    def _central_generalized_inverse(self, m):
        u = float(special.gammaincinv(self.power + 1.0, m))
        return math.sqrt(u / self.rate)

    def _central_heat_mass(self, s):
        u = 4.0 * self.rate * s
        return self.mass() * (u / (1.0 + u)) ** (self.power + 1)

    def _scale_radius(self):
        return math.sqrt((self.power + 1.0) / self.rate)


@dataclass(frozen=True)
class DiffGaussians(InitialDatum):
    """Normalized difference of a slow and a fast gaussian decay.

    Density height/(rate_fast - rate_slow) * (exp(-rate_slow r^2) -
    exp(-rate_fast r^2)); vanishes at the center, peaks on a ring.
    """

    height: float
    rate_slow: float
    rate_fast: float
    center: tuple = (0.0, 0.0)
    family = "diffgaussians"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        if self.height <= 0.0 or self.rate_slow <= 0.0:
            raise ValueError("height and rates must be positive")
        if not self.rate_slow < self.rate_fast:
            raise ValueError("family requires rate_slow < rate_fast")

    def label(self):
        return (f"diffgaussians(height={self.height:.6g}, "
                f"rate_slow={self.rate_slow:.6g}, "
                f"rate_fast={self.rate_fast:.6g})")

    def mass(self):
        return math.pi * self.height / (self.rate_slow * self.rate_fast)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        rr = r * r
        amp = self.height / (self.rate_fast - self.rate_slow)
        return amp * (np.exp(-self.rate_slow * rr) - np.exp(-self.rate_fast * rr))

    def profile_mode_radius(self):
        d, b = self.rate_slow, self.rate_fast
        return math.sqrt(math.log(b / d) / (b - d))

    def _central_beta_moment(self, beta):
        d, b = self.rate_slow, self.rate_fast
        e = 0.5 * beta + 1.0
        amp = self.height * math.pi / (b - d)
        return amp * special.gamma(e) * (d ** -e - b ** -e)

    def _sup_norm(self):
        return float(self.profile(self.profile_mode_radius()))

    def _central_radial_mass(self, rho):
        d, b = self.rate_slow, self.rate_fast
        rr = rho * rho
        amp = self.height * math.pi / (b - d)
        slow = -math.expm1(-d * rr) / d
        fast = -math.expm1(-b * rr) / b
        return amp * (slow - fast)

    def _central_heat_mass(self, s):
        u = 4.0 * self.rate_slow * s
        v = 4.0 * self.rate_fast * s
        return self.mass() * (u / (1.0 + u)) * (v / (1.0 + v))

    def _scale_radius(self):
        return 1.0 / math.sqrt(self.rate_slow)


@dataclass(frozen=True)
class RadialProfile(InitialDatum):
    """Tabulated radial density, piecewise linear in r, zero beyond the last knot.

    Knot radii must start at 0 and increase strictly.
    """

    radii: tuple
    values: tuple
    center: tuple = (0.0, 0.0)
    family = "radial_profile"
    has_compact_support = True

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center))
        radii = tuple(float(r) for r in self.radii)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if len(radii) != len(values) or len(radii) < 2:
            raise ValueError("need matching radii/values with >= 2 knots")
        if radii[0] != 0.0:
            raise ValueError("first knot must sit at radius 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("knot radii must increase strictly")
        if any(v < 0.0 for v in values):
            raise ValueError("profile values must be non-negative")
        if all(v == 0.0 for v in values):
            raise ZeroDatumError("profile is identically zero")
        object.__setattr__(self, "_cum", self._cumulative())

    def _cumulative(self):
        # exact integral of 2*pi*r*profile(r) at every knot
        out = [0.0]
        for (r0, r1, v0, v1) in zip(self.radii, self.radii[1:],
                                    self.values, self.values[1:]):
            slope = (v1 - v0) / (r1 - r0)
            a = v0 - slope * r0
            seg = a * (r1 ** 2 - r0 ** 2) / 2.0 + slope * (r1 ** 3 - r0 ** 3) / 3.0
            out.append(out[-1] + TWO_PI * seg)
        return tuple(out)

    @property
    def is_nonincreasing_radial(self):
        return all(b <= a for a, b in zip(self.values, self.values[1:]))

    def label(self):
        return f"radial_profile({len(self.radii)} knots, mass={self.mass():.6g})"

    def mass(self):
        return self._cum[-1]

    def profile(self, r):
        return np.interp(np.asarray(r, dtype=float), self.radii, self.values,
                         left=self.values[0], right=0.0)

    def profile_mode_radius(self):
        return self.radii[int(np.argmax(self.values))]

    def _sup_norm(self):
        return max(self.values)

    def radial_breakpoints(self):
        return self.radii

    def _support_radius(self):
        # support is the closure of {profile > 0}
        vals = self.values
        last = len(vals) - 1
        while last > 0 and vals[last] == 0.0 and vals[last - 1] == 0.0:
            last -= 1
        return self.radii[last]

    def _central_radial_mass(self, rho):
        radii = self.radii
        if rho >= radii[-1]:
            return self._cum[-1]
        i = int(np.searchsorted(radii, rho, side="right")) - 1
        r0, v0 = radii[i], self.values[i]
        r1, v1 = radii[i + 1], self.values[i + 1]
        slope = (v1 - v0) / (r1 - r0)
        a = v0 - slope * r0
        seg = a * (rho ** 2 - r0 ** 2) / 2.0 + slope * (rho ** 3 - r0 ** 3) / 3.0
        return self._cum[i] + TWO_PI * seg

    def _scale_radius(self):
        return 0.5 * self.radii[-1]

    def tail_radius(self, fraction=TAIL_FRACTION):
        return self._support_radius()

    def support_geometry(self, rel_threshold=0.0):
        r = self._support_radius()
        return SupportGeometry(r, 2.0 * r, self.center)

    def support_radius_from(self, z):
        return _offset(z, self.center) + self._support_radius()


@dataclass(frozen=True)
class CartesianGrid(InitialDatum):
    """Uniform grid of non-negative samples, midpoint-rule semantics.

    ``origin`` is the coordinate of the center of cell [0, 0]; cell
    [i, j] sits at origin + (j, i) * cell_size (row-major samples).
    """

    values: np.ndarray
    cell_size: float
    origin: tuple = (0.0, 0.0)
    family = "grid"
    is_radial = False
    has_compact_support = True

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_center(self.origin))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("grid values must be a 2D array")
        if self.cell_size <= 0.0:
            raise ValueError("cell size must be positive")
        if np.any(vals < 0.0):
            raise ValueError("grid values must be non-negative")
        if not np.any(vals > 0.0):
            raise ZeroDatumError("grid is identically zero")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

        h = float(self.cell_size)
        ii, jj = np.nonzero(vals)
        xs = self.origin[0] + jj * h
        ys = self.origin[1] + ii * h
        w = vals[ii, jj]
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_w", w)
        m = float(w.sum() * h * h)
        object.__setattr__(self, "_mass", m)
        object.__setattr__(self, "_bary", (
            float((xs * w).sum() * h * h / m),
            float((ys * w).sum() * h * h / m)))

    @property
    def center(self):
        return self._bary

    def label(self):
        return f"grid({self.values.shape[0]}x{self.values.shape[1]}, mass={self._mass:.6g})"

    def mass(self):
        return self._mass

    def barycenter(self):
        return self._bary

    def profile(self, r):
        raise NotRadialError("grid data has no radial profile")

    def cell_coordinates(self):
        """(x, y, weight) arrays of the cells carrying mass."""
        return self._xs, self._ys, self._w

    def weighted_median(self):
        """Componentwise mass-weighted median of the cell coordinates."""
        out = []
        for coords in (self._xs, self._ys):
            order = np.argsort(coords)
            csum = np.cumsum(self._w[order])
            idx = int(np.searchsorted(csum, 0.5 * csum[-1]))
            out.append(float(coords[order][min(idx, len(order) - 1)]))
        return tuple(out)

    def search_probes(self):
        return (self.weighted_median(),)

    def heat_mass_sum(self, z, s):
        """Heat-weighted mass H(s) about z, summed over the cells."""
        dist_sq = (self._xs - z[0]) ** 2 + (self._ys - z[1]) ** 2
        return float((self._w * np.exp(-dist_sq / (4.0 * s))).sum()
                     * self.cell_size ** 2)

    def beta_moment_about(self, z, beta):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        z = np.asarray(z, dtype=float)
        d = np.hypot(self._xs - z[0], self._ys - z[1])
        moment = float((d ** beta * self._w).sum() * self.cell_size ** 2)
        return (moment / self._mass) ** (2.0 / beta)

    def lp_norm(self, p):
        if p < 1.0:
            raise NormDivergenceError("p must lie in [1, inf]")
        if math.isinf(p):
            return float(self._w.max())
        if p == 1.0:
            return self._mass
        return float((self._w ** p).sum() * self.cell_size ** 2) ** (1.0 / p)

    def radial_mass(self, z, rho):
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        z = self._bary if z is None else np.asarray(z, dtype=float)
        d = np.hypot(self._xs - z[0], self._ys - z[1])
        return float(self._w[d <= rho].sum() * self.cell_size ** 2)

    def mass_profile(self, z, n=None):
        """Exact cumulative mass about z, one step per cell; n is unused."""
        return _GridSnapshot(self, z)

    def generalized_inverse(self, z, m):
        if not 0.0 < m <= 1.0:
            raise ValueError("m must lie in (0, 1]")
        z = self._bary if z is None else np.asarray(z, dtype=float)
        return self.mass_profile(z).inverse(m)

    def tail_radius(self, fraction=TAIL_FRACTION):
        return self.support_radius_from(self._bary)

    def support_geometry(self, rel_threshold=0.0):
        if rel_threshold > 0.0:
            keep = self._w > rel_threshold * self._w.max()
        else:
            keep = slice(None)
        pts = np.column_stack([self._xs[keep], self._ys[keep]])
        return support_geometry_of_points(pts)

    def support_radius_from(self, z):
        z = np.asarray(z, dtype=float)
        return float(np.hypot(self._xs - z[0], self._ys - z[1]).max())


FAMILIES = {
    "gaussian": Gaussian,
    "disk": DiskIndicator,
    "annulus": Annulus,
    "polygaussian": PolyGaussian,
    "diffgaussians": DiffGaussians,
    "radial_profile": RadialProfile,
    "grid": CartesianGrid,
}
