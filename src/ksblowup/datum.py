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
occupied block.  Radial families also carry the Laplace transform of
their squared-radius profile, H at the center over pi.

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

#: distance bins of a grid's binned cumulative-mass profile
_PROFILE_BINS = 4096


def _require_finite(datum):
    """Refuse NaN or infinite parameters, centers, knots and cells."""
    for f in fields(datum):
        if not np.all(np.isfinite(np.asarray(getattr(datum, f.name),
                                             dtype=float))):
            raise InvalidFieldError(f.name, "must be finite")


def _as_center(value):
    c = tuple(float(v) for v in value)
    if len(c) != 2:
        raise ValueError("center must be a point in the plane")
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
        object.__setattr__(self, "center", _as_center(self.center))
        self._validate()

    def _validate(self):
        """Refuse parameters outside the family's domain and store what
        the family derives from them."""

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

    def tail_radius(self, fraction=TAIL_FRACTION):
        """Radius about the center holding all but ``fraction`` of the
        mass: the support radius of compactly supported data."""
        if self.has_compact_support:
            return self._support_radius()
        # filled on first use per fraction
        cache = self.__dict__.setdefault("_tail_cache", {})
        if fraction not in cache:
            cache[fraction] = self.generalized_inverse(None, 1.0 - fraction)
        return cache[fraction]

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
            # the exponentially scaled i0e keeps large arguments finite
            def integrand(r):
                arg = r * delta / (2.0 * s)
                return (self.profile(r) * r
                        * np.exp(-(r - delta) ** 2 / (4.0 * s))
                        * special.i0e(arg))

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

    def mass_profile(self, z, n=1024):
        """Cumulative mass about z on a dense radius grid of about n points."""
        return _RadialSnapshot(self, z, n)

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


class _RadialSnapshot:
    """Dense cumulative-mass profile of a datum about a fixed point.

    One vectorized angular sweep per center replaces thousands of lens
    quadratures when the center search probes off-symmetry points; the
    symmetric center itself always goes through the exact closed forms.
    """

    def __init__(self, density, z, n):
        center = density.center
        delta = math.hypot(z[0] - center[0], z[1] - center[1])
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
            cos_phi, wphi = circle_nodes(96)
            dist = np.sqrt(us[:, None] ** 2 + delta ** 2
                           + 2.0 * us[:, None] * delta * cos_phi[None, :])
            ring = us * (density.profile(dist.ravel())
                         .reshape(dist.shape) @ wphi)
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (ring[1:] + ring[:-1]) * np.diff(us))])
        self._us = us
        self._cum = cum
        self._mass = density.mass()
        # segment i of the inverse runs from (cum[i-1], us[i-1]) to
        # (cum[i], us[i]); the flat end segments 0 and n return us[0]
        # below the profile and us[-1] above it
        self._seg_cum = np.concatenate([cum[:1], cum[:-1], cum[-1:]])
        self._seg_us = np.concatenate([us[:1], us[:-1], us[-1:]])
        self._seg_dcum = np.concatenate([[1.0], np.diff(cum), [1.0]])
        self._seg_dus = np.concatenate([[0.0], np.diff(us), [0.0]])

    def mass_at(self, rho):
        return float(np.interp(rho, self._us, self._cum))

    def inverse(self, m):
        """Radius where the profile reaches the mass fraction m, linear
        between nodes; elementwise, with an array result, for an array m.

        A target above cum[i-1] and at most cum[i] picks segment i, so a
        flat segment of the profile is never read.
        """
        target = m * self._mass
        i = self._cum.searchsorted(target)
        rho = self._seg_us[i] + (target - self._seg_cum[i]) \
            * self._seg_dus[i] / self._seg_dcum[i]
        return rho if isinstance(m, np.ndarray) else float(rho)


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


class _GridSnapshot:
    """Exact cumulative mass of grid data about a point: every cell
    sorted by distance, one step per cell.

    A grid builds one about its barycenter, and a tc2 search one more at
    its winning center; the search's probes read `_BinnedGridProfile`.
    """

    def __init__(self, density, z):
        xs, ys, w = density.cell_coordinates()
        d = np.hypot(xs - z[0], ys - z[1])
        order, self._d = _sort_stable(d)
        self._cum = np.cumsum(w[order]) * density.cell_size ** 2
        self._mass = density.mass()

    def mass_at(self, rho):
        idx = int(np.searchsorted(self._d, rho, side="right"))
        return float(self._cum[idx - 1]) if idx else 0.0

    def inverse(self, m):
        """Distance of the cell that completes the mass fraction m;
        elementwise, with an array result, for an array m."""
        idx = self._cum.searchsorted(m * self._mass * (1.0 - 1e-14))
        radius = self._d.take(idx, mode="clip")
        return radius if isinstance(m, np.ndarray) else float(radius)


class _BinnedGridProfile:
    """The inverse of `_GridSnapshot` about a point, read from one
    distance histogram and exactly sorted blocks of cells.

    The cells are binned by distance once
    (`CartesianGrid.distance_histogram`).  A read finds the bins whose
    prefix sums reach its target within ``eta``, relative, and sorts
    only their cells, as the snapshot sorts them; each cumulative mass
    starts from the histogram prefix of the bins before the target's
    first bin.  ``eta`` bounds, in units of u = 2^-53, the error of that
    sum and of the snapshot's, for non-negative terms (Higham 2002,
    section 4): the histogram n + bins, the block's sum and its start
    2 n, the snapshot n, and the few operations on the target.  So the
    crossing of a target always lies inside its block, and a radius
    differs from the snapshot's only where the target lies within
    ``eta`` of a step of the cumulative mass.

    The bins follow squared distances, the snapshot's order the
    distances, and the two orders differ only between cells within a
    few ulps of each other.  A block with a cell that close to a bin
    edge (cells of a lattice about a lattice point, which tie exactly,
    can sit on one) bins every cell again by its distance, so that bins
    never split the snapshot's order.

    An array of fractions (the theta scan) is read from one block.  The
    first scalar read gathers one more, from the second scan fraction
    below it to the second above, which holds the golden stage's
    bracket; a later read outside that block gathers again.
    """

    def __init__(self, density, z):
        self._xs, self._ys, self._w = density.cell_coordinates()
        self._z = z
        self._density = density
        self._width = density.corner_distance(z) / _PROFILE_BINS
        self._h2 = density.cell_size ** 2
        self._mass = density.mass()
        dist_sq = self._xs - z[0]
        dist_sq *= dist_sq
        dy_sq = self._ys - z[1]
        dy_sq *= dy_sq
        dist_sq += dy_sq  # (x - z0)^2 + (y - z1)^2, as tc1 bins it
        self._bin_cells(dist_sq)
        self._by_distance = False
        self.eta = 4.0 * (self._w.size + _PROFILE_BINS + 1) * 2.0 ** -53
        self._scan = None   # the scan's targets, ascending
        self._covers = (math.inf, -math.inf)  # targets of the scalar block
        self.block = None   # (cells, distances) of the last block gathered

    def _bin_cells(self, dist_sq):
        self._bin, hist = self._density.distance_histogram(
            dist_sq, self._width, _PROFILE_BINS)
        # the weight of the bins before each bin, and the mass up to the
        # end of each
        prefix = np.cumsum(hist)
        self._before = np.concatenate(([0.0], prefix))
        self._reach = prefix * self._h2
        self._last = int(np.flatnonzero(hist)[-1])

    def _gather(self, low, high):
        """(first bins, last bins, cells, distances) of the block of the
        bins that may hold the targets from each of ``low`` to its
        ``high``, the cells sorted as the snapshot sorts them."""
        while True:
            lo = np.minimum(self._reach.searchsorted(low * (1.0 - self.eta)),
                            self._last)
            hi = np.minimum(self._reach.searchsorted(high * (1.0 + self.eta)),
                            self._last)
            in_block = np.zeros(_PROFILE_BINS, dtype=bool)
            in_block[lo] = in_block[hi] = True
            for i in np.flatnonzero(hi - lo > 1):  # wide windows are rare
                in_block[lo[i]:hi[i]] = True
            cells = np.flatnonzero(in_block[self._bin])
            order, d = _sort_stable(np.hypot(self._xs[cells] - self._z[0],
                                             self._ys[cells] - self._z[1]))
            # each cell's distance in bin widths, against the nearest edge
            # between two bins
            q = d / self._width
            edge = np.clip(np.rint(q), 1.0, _PROFILE_BINS - 1)
            if self._by_distance \
                    or not np.any(np.abs(q - edge) <= 2.0 ** -40 * edge):
                break
            self._by_distance = True
            self._bin_cells(np.hypot(self._xs - self._z[0],
                                     self._ys - self._z[1]) ** 2)
        cells = cells[order]
        self.block = cells, d
        return lo, hi, cells, d

    def inverse(self, m):
        """Distance of the cell that completes the mass fraction m, to
        the sums' rounding; elementwise, with an array result, for an
        array m."""
        target = m * self._mass * (1.0 - 1e-14)
        if isinstance(m, np.ndarray):
            self._scan, self._covers = np.sort(target), (math.inf, -math.inf)
            lo, _, cells, d = self._gather(target, target)
            csum = np.concatenate([[0.0], np.cumsum(self._w[cells])])
            # a target's sum starts from the histogram prefix of its
            # first bin, at that bin's first cell in the block
            start = self._bin[cells].searchsorted(lo)
            return d.take(csum[1:].searchsorted(
                target / self._h2 - self._before[lo] + csum[start]),
                mode="clip")
        if not self._covers[0] < target <= self._covers[1]:
            self._gather_scalar(target)
        return float(self._radius[self._cum.searchsorted(target)])

    def _gather_scalar(self, target):
        """The block of the scalar reads about ``target``."""
        low = high = target
        scan = self._scan if self._scan is not None else np.empty(0)
        j = int(scan.searchsorted(target))
        if 0 < j < scan.size:
            low, high = scan[max(j - 2, 0)], scan[min(j + 1, scan.size - 1)]
        (lo,), (hi,), cells, d = self._gather(np.array([low]),
                                              np.array([high]))
        self._cum = np.cumsum(np.concatenate(
            [[self._before[lo]], self._w[cells]]))[1:] * self._h2
        # a read past the block's last cell takes it, as the snapshot's
        # clipped read takes the farthest cell
        self._radius = np.append(d, d[-1])
        # the targets whose every bin lies in the block
        self._covers = (
            self._reach[lo - 1] / (1.0 - self.eta) if lo else -math.inf,
            self._reach[hi] / (1.0 + self.eta) if hi < self._last
            else math.inf)


@dataclass(frozen=True)
class Gaussian(InitialDatum):
    """Heat-kernel bump: total mass spread by a gaussian of variance 2*sigma."""

    total_mass: float
    sigma: float
    center: tuple = (0.0, 0.0)
    family = "gaussian"
    is_nonincreasing_radial = True

    def _validate(self):
        if self.total_mass <= 0.0:
            raise ZeroDatumError("mass must be positive")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

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
        if self.height <= 0.0 or self.radius <= 0.0:
            raise ValueError("height and radius must be positive")

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
        if self.height <= 0.0 or self.r_inner <= 0.0:
            raise ValueError("height and radii must be positive")
        if not self.r_inner < self.r_outer:
            raise ValueError("annulus requires r_inner < r_outer")

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
        return 4.0 * math.pi * self.height * s * (math.exp(-lo) - math.exp(-hi))

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
        if self.height <= 0.0 or self.rate <= 0.0:
            raise ValueError("height and rate must be positive")
        if self.power < 0 or self.power != int(self.power):
            raise ValueError("power must be a non-negative integer")
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

    def _validate(self):
        if self.height <= 0.0 or self.rate_slow <= 0.0:
            raise ValueError("height and rates must be positive")
        if not self.rate_slow < self.rate_fast:
            raise ValueError("family requires rate_slow < rate_fast")

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
            raise ValueError("need matching radii/values with >= 2 knots")
        if radii[0] != 0.0:
            raise ValueError("first knot must sit at radius 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("knot radii must increase strictly")
        if any(v < 0.0 for v in values):
            raise ValueError("profile values must be non-negative")
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
    """

    values: np.ndarray
    cell_size: float
    origin: tuple = (0.0, 0.0)
    family = "grid"
    is_radial = False
    has_compact_support = True

    def __post_init__(self):
        _require_finite(self)
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
        # the heat weight factorises over x and y, so H reads the block of
        # occupied rows and columns against two 1-D weight vectors
        rows = np.flatnonzero(vals.any(axis=1))
        cols = np.flatnonzero(vals.any(axis=0))
        object.__setattr__(self, "_block", vals[np.ix_(rows, cols)])
        object.__setattr__(self, "_block_xs", self.origin[0] + cols * h)
        object.__setattr__(self, "_block_ys", self.origin[1] + rows * h)
        m = float(w.sum() * h * h)
        object.__setattr__(self, "_mass", m)
        object.__setattr__(self, "_bary", (
            float((xs * w).sum() * h * h / m),
            float((ys * w).sum() * h * h / m)))
        # the estimators read the mass profile about the barycenter on
        # every evaluation at the center, so its one sort of the cells is
        # done here, with the weighted median and the heaviest cells;
        # elsewhere a center search reads binned profiles and sorts every
        # cell once, at its winner
        object.__setattr__(self, "_bary_profile",
                           _GridSnapshot(self, self._bary))
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

    def distance_histogram(self, dist_sq, width, bins):
        """(bin of each cell, cell weights summed per bin) for the squared
        distances ``dist_sq`` of the cells from a point, on ``bins`` bins
        of one ``width`` in the distance.

        A cell goes to the bin whose lower edge is at most its distance,
        checked in squares after the division, so bins never decrease
        with the squared distance; the last bin also takes the cells
        past it.  tc1's peak bounds and the binned profile bin this way.
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
        """Heat-weighted mass H(s) about z, as h^2 * g_y^T V g_x.

        exp(-|x - z|^2 / 4s) = g_x(x) * g_y(y), so one evaluation is two
        1-D exps and a matrix-vector product over V, the block of rows
        and columns that hold mass.  Its cost scales with occupied rows
        times occupied columns, not with the non-zero cells: the same
        for a full grid, more for mass spread thinly over many rows and
        columns (a diagonal line of n cells costs n^2).
        """
        gx = np.exp(-(self._block_xs - z[0]) ** 2 / (4.0 * s))
        gy = np.exp(-(self._block_ys - z[1]) ** 2 / (4.0 * s))
        return float(gy @ (self._block @ gx) * self.cell_size ** 2)

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
        z = np.asarray(z, dtype=float)
        d = np.hypot(self._xs - z[0], self._ys - z[1])
        return float(self._w[d <= rho].sum() * self.cell_size ** 2)

    def mass_profile(self, z, n=None):
        """Exact cumulative mass about z, one step per cell; n is unused."""
        if (float(z[0]), float(z[1])) == self._bary:
            return self._bary_profile
        return _GridSnapshot(self, z)

    def binned_profile(self, z):
        """The inverse of the cumulative mass about z to the rounding of
        its sums, read without sorting every cell: a center search's
        steering profile."""
        return _BinnedGridProfile(self, z)

    def generalized_inverse(self, z, m):
        if not np.all((0.0 < m) & (m <= 1.0)):
            raise ValueError("m must lie in (0, 1]")
        return self.mass_profile(self._bary if z is None else z).inverse(m)

    def tail_radius(self, fraction=TAIL_FRACTION):
        return self.support_radius_from(self._bary)

    def support_geometry(self):
        return support_geometry_of_points(
            np.column_stack([self._xs, self._ys]))

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
