"""Planar initial densities and their scalar descriptors.

Seven families are supported: five analytic ones (gaussian, disk
indicator, annulus, polynomial-gaussian, difference of gaussians), a
tabulated radial profile (piecewise linear in r), and a uniform
Cartesian grid of samples.  Every family exposes the same descriptor
surface: mass, barycenter, beta-variance, Lp norms, radial cumulative
mass about an arbitrary center, its generalized (right) inverse, and
the enclosing-disk geometry for compactly supported data.

Every per-family decision of the estimators lives here, behind these
methods.  The heat-weighted mass H(z, s) is chosen here, in one method,
`heat_mass`: a family's closed form at its center
(`_central_heat_mass`), else radial panel quadrature with a Bessel
factor off the center (`_heat_mass_quadrature`).  The gaussian's
closed form holds about every point, and a grid sums H over its
occupied block.  Radial cumulative mass is a closed form at the center
or lens quadrature (`radial_mass`), inverted by bisection where no
closed form exists; tc2 reads radial data at the center, so none is
tabulated.  A grid reads its cumulative mass and its inverse from one
class, `_BinnedGridProfile`: binned for the probes of a center search,
gathered whole for the exact profile and its tc2 cell infimum.
Radial families also carry the Laplace transform of their
squared-radius profile, H at the center over pi.

A radial family states its dataclass fields, checks them in
`_validate`, and gives its closed forms: mass and profile, and where it
has them H, the cumulative mass and its inverse at the center, moments
and norms, and the support radius (`_support_radius`).  The base class
derives the rest: the finite-value check, the center, the label, the
quadrature fallbacks, every off-center quantity, the tail radius and
the support geometry.  All instances are immutable and refuse NaN or
infinite parameters.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .errors import (
    HypothesisCheckError,
    InvalidFieldError,
    NormDivergenceError,
    NotRadialError,
    UnboundedSupportError,
    ZeroDatumError,
)
from .geometry import SupportGeometry, support_geometry_of_points
from .quadrature import circle_nodes, integrate_panels, merged_edges, panel_edges
from .searches import bisect

TWO_PI = 2.0 * math.pi

#: Relative tail mass kept outside truncation radii for unbounded families.
TAIL_FRACTION = 1e-14

#: extra panel reach, in units of sqrt(s), around the gaussian weight
_WEIGHT_REACH = 10.0

#: dataclass fields named otherwise in labels and spec files
SPEC_ALIASES = {"total_mass": "mass"}

#: squared-distance bins of a grid's binned cumulative-mass profile
_PROFILE_BINS = 4096


def _require_finite(datum):
    """Refuse NaN or infinite parameters, centers, knots and cells."""
    for f in fields(datum):
        if not np.all(np.isfinite(np.asarray(getattr(datum, f.name),
                                             dtype=float))):
            raise InvalidFieldError(f.name, "must be finite")


def _as_center(value, field):
    c = tuple(float(v) for v in value)
    if len(c) != 2:
        raise InvalidFieldError(field, "must be a point in the plane")
    return c


def _offset(z, center):
    if z is None:
        return 0.0
    return math.hypot(z[0] - center[0], z[1] - center[1])


class InitialDatum:
    """Shared descriptor logic; concrete families are frozen dataclasses."""

    family = "abstract"
    #: radially symmetric about ``center``
    is_radial = True
    #: the density vanishes outside a bounded set
    has_compact_support = False
    #: the profile never increases in r, so every search takes the center
    is_nonincreasing_radial = False

    # -- structure ----------------------------------------------------

    def __post_init__(self):
        _require_finite(self)
        object.__setattr__(self, "center", _as_center(self.center, "center"))
        self._validate()

    def _validate(self):
        """Refuse parameters outside the family's domain, naming the field
        (`InvalidFieldError`), and store what the family derives from
        them."""

    def _positive(self, *names):
        """Refuse any of the fields ``names`` that is not positive."""
        for name in names:
            if not getattr(self, name) > 0.0:
                raise InvalidFieldError(name, "must be positive")

    def label(self):
        """family(field=value, ...) over every field but the center."""
        args = ", ".join(
            f"{SPEC_ALIASES.get(f.name, f.name)}={getattr(self, f.name):.6g}"
            for f in fields(self) if f.name != "center")
        return f"{self.family}({args})"

    def profile(self, r):
        """Radial density value(s) at |x - center| = r."""
        raise NotImplementedError

    def radial_breakpoints(self):
        """Radii where the profile is non-smooth (quadrature panel edges)."""
        return ()

    def tail_radius(self):
        """Radius about the center holding all but TAIL_FRACTION of the
        mass: the support radius of compactly supported data."""
        if self.has_compact_support:
            return self._support_radius()
        if "_tail_radius" not in self.__dict__:  # filled on first use
            self.__dict__["_tail_radius"] = self.generalized_inverse(
                None, 1.0 - TAIL_FRACTION)
        return self.__dict__["_tail_radius"]

    # -- heat-weighted mass ----------------------------------------------

    def heat_mass(self, z, s):
        """H(s) about z (the center if None): the closed form at the
        center where the family has one, else panel quadrature."""
        if _offset(z, self.center) == 0.0:
            return self._central_heat_mass(s)
        return self._heat_mass_quadrature(z, s)

    def _central_heat_mass(self, s):
        """H(s) at the center: a family's closed form overrides this."""
        return self._heat_mass_quadrature(None, s)

    def _heat_mass_quadrature(self, z, s):
        """H(s) about z by panel quadrature of the radial profile."""
        delta = _offset(z, self.center)
        rmax = self.tail_radius()
        edges = self._radial_edges(
            rmax,
            np.clip(np.linspace(delta - _WEIGHT_REACH * math.sqrt(s),
                                delta + _WEIGHT_REACH * math.sqrt(s), 33),
                    0.0, rmax),
            [min(delta, rmax)])

        if delta == 0.0:
            def integrand(r):
                return self.profile(r) * r * np.exp(-r * r / (4.0 * s))
        else:
            # angular integral of the gaussian weight gives a Bessel factor;
            # the exponentially scaled i0e keeps large arguments finite.
            # It is finite and positive, so a node whose other factors are
            # zero (an annulus's hole) keeps its zero without it.
            def integrand(r):
                val = (self.profile(r) * r
                       * np.exp(-(r - delta) ** 2 / (4.0 * s)))
                live = val != 0.0
                if live.all():
                    return val * special.i0e(r * delta / (2.0 * s))
                val[live] *= special.i0e(r[live] * delta / (2.0 * s))
                return val

        return 2.0 * math.pi * integrate_panels(integrand, edges, order=48)

    def near_critical_references(self):
        """(name, value, assumption) of closed asymptotic critical times
        as the mass nears 8 pi; none for most families."""
        return ()

    def laplace(self, v):
        """Laplace transform of u -> profile(sqrt(u)), evaluated at v > 0.

        Defined for radially symmetric data only; pi * laplace(1/(4 s))
        is the heat-weighted mass H(s) at the symmetry center, so it is
        read from `heat_mass`.
        """
        if v <= 0.0:
            raise ValueError("laplace variable must be positive")
        if not self.is_radial:
            raise NotRadialError("laplace path requires radially symmetric data")
        return self.heat_mass(None, 1.0 / (4.0 * v)) / math.pi

    # -- descriptors ---------------------------------------------------

    def mass(self):
        raise NotImplementedError

    def barycenter(self):
        # the symmetry center of radial data, the barycenter of a grid
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
        return TWO_PI * integrate_panels(
            lambda r: self.profile(r) * r ** (beta + 1.0),
            self._radial_edges(self.tail_radius()))

    def _offset_beta_moment(self, delta, beta):
        rmax = self.tail_radius()
        cos_phi, wphi = circle_nodes(64)

        def integrand(r):
            rr = r[:, None]
            dist_sq = rr ** 2 + delta ** 2 - 2.0 * rr * delta * cos_phi[None, :]
            ang = np.maximum(dist_sq, 0.0) ** (0.5 * beta) @ wphi
            return self.profile(r) * r * ang

        return integrate_panels(integrand,
                                self._radial_edges(rmax, [min(delta, rmax)]))

    def _scale_radius(self):
        """Characteristic radius used to grade quadrature panels."""
        return max(self.generalized_inverse(None, 0.5), 1e-30)

    def _radial_edges(self, upper, *extra):
        """Panel edges on [0, upper] graded at the scale radius, merged
        with the ``extra`` edge sets.  The ladder to the tail radius,
        where most integrals end, is built once per datum."""
        tail = upper == self.tail_radius()
        ladder = self.__dict__.get("_tail_ladder") if tail else None
        if ladder is None:
            ladder = panel_edges(self.radial_breakpoints(), upper,
                                 self._scale_radius())
            if tail:
                ladder.setflags(write=False)
                self.__dict__["_tail_ladder"] = ladder
        return merged_edges(ladder, *extra) if extra else ladder

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
        val = TWO_PI * integrate_panels(
            lambda r: self.profile(r) ** p * r,
            self._radial_edges(self.tail_radius()))
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
        edges = self._radial_edges(hi, [lo], cluster, np.linspace(lo, hi, 9))
        edges = edges[(edges >= lo) & (edges <= hi)]
        total += integrate_panels(integrand, edges)
        return total

    # -- generalized inverse of the mass fraction -----------------------

    def generalized_inverse(self, z, m):
        """inf{rho > 0 : mass fraction in B(z, rho) >= m}, for m in (0, 1].

        m = 1 is only defined for compactly supported data (the answer is
        the farthest support point); unbounded families raise.  An array
        m is inverted elementwise, one fraction at a time.
        """
        if isinstance(m, np.ndarray):
            return np.array([self.generalized_inverse(z, x) for x in m])
        if not 0.0 < m <= 1.0:
            raise ValueError("m must lie in (0, 1]")
        if m == 1.0:
            return self.support_radius_from(z)
        delta = _offset(z, self.center)
        if delta == 0.0:
            return self._central_generalized_inverse(m)
        return self._bisect_generalized_inverse(z, m)

    def _central_generalized_inverse(self, m):
        """The inverse at the center: a family's closed form overrides this."""
        return self._bisect_generalized_inverse(None, m)

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
        # predicate bisection converges to the infimum even across plateaus
        return bisect(
            lambda rho: self.radial_mass(z, rho) >= target * (1.0 - 1e-14),
            0.0, hi)[1]

    # -- support ---------------------------------------------------------

    def _support_radius(self):
        """Radius about the center of the closed support."""
        raise UnboundedSupportError(
            f"{self.family} datum has unbounded support")

    def support_geometry(self):
        r = self._support_radius()
        return SupportGeometry(r, 2.0 * r, self.center)

    def support_radius_from(self, z):
        """Distance from z to the farthest point of the (compact) support."""
        return _offset(z, self.center) + self._support_radius()


def _sort_stable(d):
    """(order, d[order]) with ``order = np.argsort(d, kind="stable")``,
    from the faster default sort.

    Cells that tie in d go back to index order, as the stable sort
    leaves them, so the cumulative sums keep their bits.  Few cells tie
    about a point off the lattice, so the repair is cheap there, and
    skipped when nothing ties.
    """
    order = d.argsort()
    ds = d[order]
    tied = ds[1:] == ds[:-1]
    if not tied.any():
        return order, ds
    at = np.flatnonzero(np.concatenate([tied, [False]])
                        | np.concatenate([[False], tied]))
    run = np.cumsum(np.diff(ds[at], prepend=-1.0) != 0.0)  # d >= 0
    cells = order[at]
    order[at] = cells[(run * d.size + cells).argsort()]
    return order, ds


class _BinnedGridProfile:
    """Cumulative mass of grid data about a point, one step per cell at
    the square root of its key d2_k (`CartesianGrid.squared_distances`)
    in stable key order, read from one histogram and one sorted block.

    Cell k goes to bin min(floor(d2_k B / c^2), B - 1), for
    B = _PROFILE_BINS and c the corner distance: a monotone map of the
    key, so bins never split the order.  The bins a target may cross in
    are those whose prefix sums reach it within ``eta``, relative.
    ``eta`` bounds, in units of u = 2^-53, the error of those sums and of
    the whole profile's, for non-negative terms (Higham 2002, section 4):
    the histogram n + bins, a block's sum and its start 2 n, the whole
    sum n, and the few operations on the target.  So `radius_bounds`
    brackets the radius of a target from those bins alone, and a read
    differs from the whole profile's only where the target lies within
    ``eta`` of a step of the cumulative mass.

    `gather` sorts the cells of the bins of a range of fractions and sums
    them from the histogram prefix of the bins before; a read outside
    that block gathers again.  `mass_at` and `cell_infimum` read the whole.
    """

    def __init__(self, density, z):
        self._w = density.cell_coordinates()[2]
        self._d2 = density.squared_distances(z)
        self._h2 = density.cell_size ** 2
        self._mass = density.mass()
        corner_sq = density.corner_distance(z) ** 2
        self._wsq = corner_sq / _PROFILE_BINS  # a bin's width in d2
        self._bin = (self._d2 * (_PROFILE_BINS / corner_sq)).astype(np.intp)
        np.minimum(self._bin, _PROFILE_BINS - 1, out=self._bin)
        hist = np.bincount(self._bin, weights=self._w,
                           minlength=_PROFILE_BINS)
        # the weight of the bins before each bin, and the mass up to the
        # end of each
        prefix = np.cumsum(hist)
        self._before = np.concatenate(([0.0], prefix))
        self._reach = prefix * self._h2
        self._last = int(np.flatnonzero(hist)[-1])
        self.eta = 4.0 * (self._w.size + _PROFILE_BINS + 1) * 2.0 ** -53
        self._covers = (math.inf, -math.inf)  # targets of the block
        self.block = None   # (cells, distances) of the block

    def _bins(self, m):
        """(first, last) bins that may hold the crossing of each mass
        fraction of ``m``."""
        target = m * self._mass * (1.0 - 1e-14)
        return (np.minimum(self._reach.searchsorted(target * (1.0 - self.eta)),
                           self._last),
                np.minimum(self._reach.searchsorted(target * (1.0 + self.eta)),
                           self._last))

    def radius_bounds(self, m):
        """(lower, upper) bounds on the radius at each mass fraction of
        ``m``: the edges of its bins, one bin further out on each side for
        the rounding of the bin of a key."""
        lo, hi = self._bins(m)
        return (np.sqrt(np.maximum(lo - 1, 0) * self._wsq),
                np.sqrt((hi + 2) * self._wsq))

    def gather(self, low, high):
        """Sort the block of the bins that may hold the crossings of the
        mass fractions from ``low`` to ``high``, and return the profile.
        A whole profile serves every read: it drops the keys and bins."""
        if self._covers == (-math.inf, math.inf):
            return self
        lo, hi = int(self._bins(low)[0]), int(self._bins(high)[1])
        cells = np.flatnonzero((self._bin >= lo) & (self._bin <= hi))
        order, d2 = _sort_stable(self._d2[cells])
        cells = cells[order]
        # a read past the block's last cell takes it, as a read past the
        # whole profile takes the farthest cell
        self._radius = np.sqrt(np.append(d2, d2[-1]))
        self.block = cells, self._radius[:-1]
        self._cum = np.cumsum(np.concatenate(
            [[self._before[lo]], self._w[cells]]))[1:] * self._h2
        # the targets whose every bin lies in the block
        self._covers = (
            self._reach[lo - 1] / (1.0 - self.eta) if lo else -math.inf,
            self._reach[hi] / (1.0 + self.eta) if hi < self._last
            else math.inf)
        if self._covers == (-math.inf, math.inf):
            del self._d2, self._bin
        return self

    def mass_at(self, rho):
        """Mass of the cells within distance rho, read from the whole
        profile, which a profile not gathered whole gathers first."""
        self.gather(0.0, math.inf)
        idx = int(self.block[1].searchsorted(rho, side="right"))
        return float(self._cum[idx - 1]) if idx else 0.0

    def cell_infimum(self, threshold):
        """tc2 about the profile's point, exactly: the least
        d_k^2 / (4 ln(m_k (1 - eta) / threshold)) over the cells k in order
        whose m_k, the mass of the first k cells read at the safe end of
        its rounding, exceeds ``threshold``; a tie goes to its last cell."""
        self.gather(0.0, math.inf)
        mass = self._cum * (1.0 - self.eta)
        first = int(mass.searchsorted(threshold, side="right"))
        if first == mass.size:
            raise HypothesisCheckError(
                "tc2: the mass, less its rounding, does not exceed L(M)")
        d = self.block[1][first:]
        vals = d * d / (4.0 * np.log(mass[first:] / threshold))
        k = int(vals.argmin())
        if d[k] == 0.0:
            raise HypothesisCheckError(
                "tc2: the cells at the center hold more than L(M), so "
                "the infimum over radii is 0")
        return float(vals[k])

    def inverse(self, m):
        """Distance of the cell that completes the mass fraction m, to
        the sums' rounding; elementwise for an array m."""
        target = m * self._mass * (1.0 - 1e-14)
        array = isinstance(m, np.ndarray)
        if not (self._covers[0] < (target.min() if array else target)
                and (target.max() if array else target) <= self._covers[1]):
            self.gather(np.min(m), np.max(m))
        radius = self._radius[self._cum.searchsorted(target)]
        return radius if array else float(radius)


@dataclass(frozen=True)
class Gaussian(InitialDatum):
    """Heat-kernel bump: total mass spread by a gaussian of variance 2*sigma."""

    total_mass: float
    sigma: float
    center: tuple = (0.0, 0.0)
    family = "gaussian"
    is_nonincreasing_radial = True

    def _validate(self):
        self._positive("total_mass", "sigma")

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

    def heat_mass(self, z, s):
        # the heat kernel maps the bump to a wider bump, so the closed
        # form holds about every point
        delta = _offset(z, self.center)
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
    is_nonincreasing_radial = True

    def _validate(self):
        self._positive("height", "radius")

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

    def _support_radius(self):
        return self.radius

    def near_critical_references(self):
        mass = self.mass()
        if mass > 8.0 * math.pi * 1.01:
            return ()
        gap = mass - 8.0 * math.pi
        return (
            ("disk_asym_fixed_radius", 2.0 * math.pi * self.radius ** 2 / gap,
             "asymptotic as mass -> 8*pi, radius fixed"),
            ("disk_asym_fixed_height", 16.0 * math.pi / (self.height * gap),
             "asymptotic as mass -> 8*pi, height fixed"))


@dataclass(frozen=True)
class Annulus(InitialDatum):
    """Uniform height on an annulus r_inner < |x - center| < r_outer."""

    height: float
    r_inner: float
    r_outer: float
    center: tuple = (0.0, 0.0)
    family = "annulus"
    has_compact_support = True

    def _validate(self):
        self._positive("height", "r_inner")
        if not self.r_inner < self.r_outer:
            raise InvalidFieldError("r_inner", "must be below r_outer")

    def mass(self):
        return self.height * math.pi * (self.r_outer ** 2 - self.r_inner ** 2)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= self.r_inner) & (r <= self.r_outer),
                        self.height, 0.0)

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
        # e^-lo - e^-hi cancels as s grows; expm1 keeps the digits
        return -4.0 * math.pi * self.height * s * math.exp(-lo) \
            * math.expm1(lo - hi)

    def _scale_radius(self):
        return self.r_outer

    def _support_radius(self):
        return self.r_outer


@dataclass(frozen=True)
class PolyGaussian(InitialDatum):
    """height * r^(2n) * exp(-rate * r^2) about the center."""

    height: float
    power: int
    rate: float
    center: tuple = (0.0, 0.0)
    family = "polygaussian"

    def _validate(self):
        self._positive("height", "rate")
        if self.power < 0 or self.power != int(self.power):
            raise InvalidFieldError("power", "must be a non-negative integer")
        object.__setattr__(self, "power", int(self.power))

    @property
    def is_nonincreasing_radial(self):
        return self.power == 0

    def mass(self):
        n = self.power
        return self.height * math.pi * math.factorial(n) / self.rate ** (n + 1)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.height * r ** (2 * self.power) * np.exp(-self.rate * r * r)

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
        # (height^p pi Gamma(np + 1) / (pa)^(np + 1))^(1/p), in logs: at
        # the large p of the lower bound's q' scan each factor overflows
        n, a = self.power, self.rate
        return math.exp(math.log(self.height) + (
            math.log(math.pi) + math.lgamma(n * p + 1.0)
            - (n * p + 1.0) * math.log(p * a)) / p)

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

    def _validate(self):
        self._positive("height", "rate_slow")
        if not self.rate_slow < self.rate_fast:
            raise InvalidFieldError("rate_slow", "must be below rate_fast")

    def mass(self):
        return math.pi * self.height / (self.rate_slow * self.rate_fast)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        rr = r * r
        amp = self.height / (self.rate_fast - self.rate_slow)
        return amp * (np.exp(-self.rate_slow * rr) - np.exp(-self.rate_fast * rr))

    def _central_beta_moment(self, beta):
        d, b = self.rate_slow, self.rate_fast
        e = 0.5 * beta + 1.0
        amp = self.height * math.pi / (b - d)
        return amp * special.gamma(e) * (d ** -e - b ** -e)

    def _sup_norm(self):
        d, b = self.rate_slow, self.rate_fast
        # the profile peaks where d exp(-d r^2) = b exp(-b r^2)
        return float(self.profile(math.sqrt(math.log(b / d) / (b - d))))

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

    def _validate(self):
        radii = tuple(float(r) for r in self.radii)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if len(radii) != len(values) or len(radii) < 2:
            raise InvalidFieldError(
                "values", "must match radii, with at least 2 knots")
        if radii[0] != 0.0:
            raise InvalidFieldError("radii", "must start at 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidFieldError("radii", "must increase strictly")
        if any(v < 0.0 for v in values):
            raise InvalidFieldError("values", "must be non-negative")
        if all(v == 0.0 for v in values):
            raise ZeroDatumError("profile is identically zero")
        # exact integral of 2*pi*r*profile(r) at every knot
        cum = [0.0]
        for i, r1 in enumerate(radii[1:]):
            cum.append(cum[-1] + self._segment_mass(i, r1))
        object.__setattr__(self, "_cum", tuple(cum))

    def _segment_mass(self, i, rho):
        """Exact integral of 2*pi*r*profile(r) from knot i to rho, for rho
        up to knot i + 1."""
        r0, v0 = self.radii[i], self.values[i]
        r1, v1 = self.radii[i + 1], self.values[i + 1]
        slope = (v1 - v0) / (r1 - r0)
        a = v0 - slope * r0
        return TWO_PI * (a * (rho ** 2 - r0 ** 2) / 2.0
                         + slope * (rho ** 3 - r0 ** 3) / 3.0)

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
        return self._cum[i] + self._segment_mass(i, rho)

    def _scale_radius(self):
        return 0.5 * self.radii[-1]


@dataclass(frozen=True)
class CartesianGrid(InitialDatum):
    """Uniform grid of non-negative samples, midpoint-rule semantics.

    ``origin`` is the coordinate of the center of cell [0, 0]; cell
    [i, j] sits at origin + (j, i) * cell_size (row-major samples).
    Writeable ``values`` are copied; a read-only float64 array is held as is.
    """

    values: np.ndarray
    cell_size: float
    origin: tuple = (0.0, 0.0)
    family = "grid"
    is_radial = False
    has_compact_support = True

    def __post_init__(self):
        _require_finite(self)
        object.__setattr__(self, "origin", _as_center(self.origin, "origin"))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise InvalidFieldError("values", "must be a 2D array")
        if self.cell_size <= 0.0:
            raise InvalidFieldError("cell_size", "must be positive")
        vals = vals.copy() if vals.flags.writeable else vals
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # one full pass finds the non-zero cells; what follows reads those
        flat = np.flatnonzero(vals)
        w = vals.ravel()[flat]
        if np.any(w < 0.0):
            raise InvalidFieldError("values", "must be non-negative")
        if not len(w):
            raise ZeroDatumError("grid is identically zero")

        h = float(self.cell_size)
        ii, jj = np.divmod(flat, vals.shape[1])
        xs = self.origin[0] + jj * h
        ys = self.origin[1] + ii * h
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_w", w)
        # the heat weight factorises over x and y, so H reads the block of
        # occupied rows and columns against two 1-D weight vectors
        rows = ii[np.r_[True, ii[1:] != ii[:-1]]]
        cols = np.flatnonzero(np.bincount(jj, minlength=vals.shape[1]))
        object.__setattr__(self, "_block", vals[np.ix_(rows, cols)])
        object.__setattr__(self, "_block_xs", self.origin[0] + cols * h)
        object.__setattr__(self, "_block_ys", self.origin[1] + rows * h)
        m = float(w.sum() * h * h)
        object.__setattr__(self, "_mass", m)
        object.__setattr__(self, "_bary", (
            float((xs * w).sum() * h * h / m),
            float((ys * w).sum() * h * h / m)))
        # the estimators read the mass profile about the barycenter on
        # every evaluation at the center, so it is gathered whole here;
        # a center search reads binned profiles and gathers whole once,
        # at its winner
        object.__setattr__(self, "_bary_profile", _BinnedGridProfile(
            self, self._bary).gather(0.0, math.inf))
        median = []
        for coords in (xs, ys):
            order = np.argsort(coords)
            csum = np.cumsum(w[order])
            idx = int(np.searchsorted(csum, 0.5 * csum[-1]))
            median.append(float(coords[order][min(idx, len(order) - 1)]))
        object.__setattr__(self, "_median", tuple(median))
        top = np.argsort(w)[-8:]
        object.__setattr__(self, "_peaks", tuple(
            [(xs[i], ys[i]) for i in top] + [self._bary, self._median]))

    @property
    def center(self):
        return self._bary

    def label(self):
        return f"grid({self.values.shape[0]}x{self.values.shape[1]}, mass={self._mass:.6g})"

    def mass(self):
        return self._mass

    def profile(self, r):
        raise NotRadialError("grid data has no radial profile")

    def cell_coordinates(self):
        """(x, y, weight) arrays of the cells carrying mass."""
        return self._xs, self._ys, self._w

    def search_probes(self):
        """The componentwise mass-weighted median of the cells."""
        return (self._median,)

    def peak_candidates(self):
        """Points where the density smoothed by a narrow weight may peak:
        the eight heaviest cells, the barycenter and the weighted median."""
        return self._peaks

    def corner_distance(self, z):
        """Distance from z to the farthest corner of the box of the
        occupied cell centers, at least the cell size."""
        return max(self.cell_size, math.hypot(
            max(z[0] - self._block_xs[0], self._block_xs[-1] - z[0]),
            max(z[1] - self._block_ys[0], self._block_ys[-1] - z[1])))

    def squared_distances(self, z):
        """(x - z0)^2 + (y - z1)^2 of each cell carrying mass: the one key
        by which the cells are binned, sorted, summed and compared about
        z; a radius is the square root of a key."""
        d2 = self._xs - z[0]
        d2 *= d2
        dy2 = self._ys - z[1]
        dy2 *= dy2
        d2 += dy2
        return d2

    def distance_histogram(self, dist_sq, width, bins):
        """(bin of each cell, cell weights summed per bin) for the squared
        distances ``dist_sq`` of the cells from a point
        (`squared_distances`), on ``bins`` bins of one ``width`` in the
        distance.

        A cell goes to the bin whose lower edge is at most its distance,
        checked in squares after the division, so bins never decrease
        with the squared distance; the last bin also takes the cells
        past it.  tc1's peak bounds, which read the exact lower edges of
        bins uniform in the distance, bin this way.
        """
        buf = np.sqrt(dist_sq)
        buf /= width
        idx = buf.astype(np.intp)
        np.minimum(idx, bins - 1, out=idx)
        # the quotient is a few u from exact, far inside one bin; the
        # squared lower edge is (idx * width)^2
        np.multiply(idx, width, out=buf)
        buf *= buf
        idx -= buf > dist_sq
        return idx, np.bincount(idx, weights=self._w, minlength=bins)

    def heat_mass(self, z, s):
        """H(s) about z, as h^2 * g_y^T V g_x.

        exp(-|x - z|^2 / 4s) = g_x(x) * g_y(y), so one evaluation is two
        1-D exps of -(x - z0)^2 / 4s and -(y - z1)^2 / 4s and a
        matrix-vector product over V, the block of rows and columns that
        hold mass.  Its cost scales with occupied rows times occupied
        columns, not with the non-zero cells: the same for a full grid,
        more for mass spread thinly over many rows and columns (a diagonal
        line of n cells costs n^2).
        """
        gx = np.exp(-(self._block_xs - z[0]) ** 2 / (4.0 * s))
        gy = np.exp(-(self._block_ys - z[1]) ** 2 / (4.0 * s))
        return float(gy @ (self._block @ gx) * self.cell_size ** 2)

    def heat_mass_peak(self, z, s):
        """A local maximum of H(., s) climbed to from z by mean-shift steps
        z <- sum w K x / sum w K, K = exp(-|x - z|^2 / 4s), which never lower
        H in exact arithmetic (Comaniciu & Meer 2002).  It stops once a step
        is at most 1e-9 sqrt(s), after 500 steps, or if every K underflows."""
        xs, ys, block = self._block_xs, self._block_ys, self._block
        x, y = float(z[0]), float(z[1])
        for _ in range(500):
            gx = np.exp(-(xs - x) ** 2 / (4.0 * s))
            gy = np.exp(-(ys - y) ** 2 / (4.0 * s))
            v, vx = (block @ np.column_stack((gx, gx * xs))).T
            total = gy @ v
            if not total > 0.0:
                break
            x0, y0 = x, y
            x, y = float(gy @ vx / total), float((gy * ys) @ v / total)
            if math.hypot(x - x0, y - y0) <= 1e-9 * math.sqrt(s):
                break
        return x, y

    def beta_moment_about(self, z, beta):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        z = np.asarray(z, dtype=float)
        d = np.hypot(self._xs - z[0], self._ys - z[1])
        moment = float((d ** beta * self._w).sum() * self.cell_size ** 2)
        return (moment / self._mass) ** (2.0 / beta)

    def _sup_norm(self):
        return float(self._w.max())

    def _lp_norm_finite(self, p):
        return float((self._w ** p).sum() * self.cell_size ** 2) ** (1.0 / p)

    def radial_mass(self, z, rho):
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        if z is None or (float(z[0]), float(z[1])) == self._bary:
            return self._bary_profile.mass_at(rho)
        inside = np.sqrt(self.squared_distances(z)) <= rho
        return float(self._w[inside].sum() * self.cell_size ** 2)

    def mass_profile(self, z):
        """Exact cumulative mass about z, one step per cell: the binned
        profile gathered over every bin."""
        if (float(z[0]), float(z[1])) == self._bary:
            return self._bary_profile
        return _BinnedGridProfile(self, z).gather(0.0, math.inf)

    def binned_profile(self, z):
        """A center search's steering profile about z, gathered by need."""
        return _BinnedGridProfile(self, z)

    def generalized_inverse(self, z, m):
        if not np.all((0.0 < m) & (m <= 1.0)):
            raise ValueError("m must lie in (0, 1]")
        return self.mass_profile(self._bary if z is None else z).inverse(m)

    def tail_radius(self):
        return self.support_radius_from(self._bary)

    def support_geometry(self):
        # the cells are listed row by row, so cells of one y are adjacent;
        # no cell strictly between a row's leftmost and rightmost cell can
        # be a hull vertex
        row = np.flatnonzero(np.r_[True, self._ys[1:] != self._ys[:-1]])
        ys = self._ys[row]
        return support_geometry_of_points(np.column_stack([
            np.r_[np.minimum.reduceat(self._xs, row),
                  np.maximum.reduceat(self._xs, row)],
            np.r_[ys, ys]]))

    def support_radius_from(self, z):
        return float(np.sqrt(self.squared_distances(z).max()))


FAMILIES = {
    "gaussian": Gaussian,
    "disk": DiskIndicator,
    "annulus": Annulus,
    "polygaussian": PolyGaussian,
    "diffgaussians": DiffGaussians,
    "radial_profile": RadialProfile,
    "grid": CartesianGrid,
}
