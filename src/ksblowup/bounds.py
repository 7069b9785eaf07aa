"""Critical-time bound estimators and the assembled bound report.

Supercritical mass M > 8*pi forces blow-up; the heat-mass functional
capped at the threshold L(M) = 2 M^2 / (3 M - 8 pi) yields the
critical-time bound ``tc`` (an upper bound on the blow-up time), and a
ladder of coarser but more explicit estimators ``tc1`` .. ``tc4``, the
F-function method, the virial bound, and Lp lower bounds on ``tc``.
``full_report`` evaluates every applicable estimator and checks the
ordering lower <= tc <= upper.  The F-method row is the centred theta
form of ``tc2``, classified on the theta scan ``tc2`` already holds at
the symmetry center, so it evaluates no cumulative mass of its own.

``tc`` and ``tc2`` are infima over the center z, and ``tc1`` reads a
supremum over it.  Non-increasing radial data take the symmetry center.
Other radial data depend on z only through the offset delta =
|z - center|, so ``tc`` and ``tc1`` share one search of delta,
`searches.maximize_even`: a scan over [0, tail radius] that reads the
center unless an offset beats it there, and otherwise refines by golden
section about its best point.  Radial ``tc`` inverts H at the center and
runs it once at that root, leaving the center only for an offset that
beats it with a strictly earlier root; grid ``tc`` is one root find over
the peaks of H that mean-shift climbs reach.  Every ``tc`` ends with a
bisection of H at its center z*, which certifies H(z*, tc) >= target >
H(z*, prev(tc)), prev(tc) the float below tc, as computed.  Radial
``tc2`` reads the symmetry center (`_tc2_search` says why); grid ``tc2``
runs multi-start Nelder-Mead over the plane (``tc1`` tries the grid's
peak candidates).

Each search computes its invariants once.  One ``tc1`` search builds the
radial panel nodes of each truncation radius once.  On grids it builds
one histogram of cell distances per peak candidate; at each (q, lam) the
histograms bound every candidate's sum from above and below, within a
rounding margin computed from the cell count, and only the candidates
that can hold the maximum are summed exactly, from powers of their
squared cell distances held at the current q.  At the symmetry center
every angle of the radial kernel sees the same distance, so ``tc1``
reads one radial sum there, not 32 angles.  Before the ``tc1`` scan
evaluates a (q, lam) point it bounds the supremum there, over radial
data in closed form from ||n0||_inf and ||omega||_1, over grids by the
largest histogram bound, and skips the point when that bound shows its
value is +inf or no smaller than the best so far; the golden stages
about the scan's winner evaluate every probe.  On radial data that is
not non-increasing the scan and the golden stages steer on a panel rule
with 4x fewer kernel entries, and the full rule's offset search at each
stage winner decides: the smallest of those values is ``tc1``.  Both
rules search the offset alike, refining only a scan that peaks off the
center.  Each convolution computes its radial kernels in place, a scan's
in one batch.
One ``tc2`` search computes its 96 theta-scan fractions once.  On radial
data it reads the theta form at the center and its theta = 0 end.  A
grid search steers on the theta form: each probe bins the cells by
squared distance, bounds every scan radius from that histogram, reads
exactly only the scan points whose bounds may hold the scan's minimum,
and sorts one block of cells, the bins of their golden brackets.  The
exact cell infimum decides the center and a winner off it that beats
the center.
"""

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisCheckError,
    InvalidExponentsError,
    KSBlowupError,
    NotRadialError,
    SubcriticalMassError,
    UnboundedSupportError,
)
from .heatmass import HeatMassCurve
from .quadrature import circle_nodes, merged_edges, panel_nodes
from .searches import (
    _WIDTH_REL_TOL,
    bisect,
    golden_about_scan,
    golden_section,
    grid_then_golden,
    invert_increasing,
    maximize_even,
    minimize_over_plane,
)

EIGHT_PI = 8.0 * math.pi

#: lower factor in the gaussian sandwich  c0 * tc4 <= tc <= tc4,
#: the minimum of ln(1+u)/u over the reachable range u in (0, 1/2]
TC4_SANDWICH_FACTOR = 2.0 * math.log(1.5)

#: the paper's exponent threshold between its two Lp lower-bound regimes;
#: the ``lower`` row reads p = inf, in the log regime
LOWER_REGIME_P0 = 1.0 / math.log(2.0 * math.e / 3.0)

#: sharp ratio between the mass-uniform and log-form lower bounds
LOWER_SHARP_RATIO = (2.0 * math.e / 3.0) * math.log(1.5)


@dataclass(frozen=True)
class MassConstants:
    """Mass-derived constants gating every supercritical estimator."""

    mass: float
    threshold: float      # L(M) = 2 M^2 / (3M - 8 pi), in (0, M)
    ratio: float          # a = L(M)/M, in (2/3, 1)
    log_inv_ratio: float  # ln(1/a) = ln(1 + (M - 8 pi)/(2M))


def mass_constants(mass):
    if not mass > EIGHT_PI:
        raise SubcriticalMassError(
            f"mass {mass:.6g} <= 8*pi: no blow-up, critical time is infinite")
    threshold = 2.0 * mass * mass / (3.0 * mass - EIGHT_PI)
    ratio = threshold / mass
    return MassConstants(mass=mass, threshold=threshold, ratio=ratio,
                         log_inv_ratio=math.log(1.0 / ratio))


# The parameter searches of the estimators follow one fixed recipe.
_NM_MAX_ITER = 40        # Nelder-Mead iterations per start of grid tc2
_THETA_GRID = 96         # coarse scan points of the tc2 theta form
_THETA_EPS = 1e-6        # the theta scan's distance from 0 and 1
_QPRIME_GRID = 64        # coarse scan points of the lower bound's q'
_TC1_Q_VALUES = (1.25, 1.5, 2.0, 3.0, 5.0)  # ascending
_TC1_LAMBDA_GRID = 9     # log-spaced lambda values per q in the tc1 scan
_DELTA_SCAN = 17         # scan points over [0, tail radius] of radial centers

# The tc search inverts H at L (1 + k u), u = 2^-53, so that H(tc) >= L
# holds for the exact H and L.  k counts roundings, in units of u: L =
# 2 M^2 / (3M - 8 pi) 10 (8 pi, M^2, 3M, the difference and the quotient
# 1 each, 2 as the difference at most doubles the errors of 3M and 8 pi,
# 4 for a computed mass such as the disk's h pi R^2); a closed-form H at
# the center 9 (the disk: mass 4, R^2/4s 2, expm1, quotient and product
# 1 each); the product with L 1; slack 2.  k is even: 1 + k u is exact.
_TC_TARGET_FACTOR = 1.0 + 22 * 2.0 ** -53

# Grid tc1 bounds each peak candidate's sum from a histogram of its cell
# distances, on _TC1_BINS bins of one width, and sums exactly only a peak
# whose bound times a margin reaches the best exact sum so far.  The
# margin 1 + (2 n + 2^15) u, u = 2^-53, counts how far the computed exact
# sum of n cells may exceed the computed bound: the exact sum n and the
# histogram sum n + _TC1_BINS (Higham 2002, section 4); the kernel
# exp(-c s^p) of a cell against that of its bin's lower edge, whose
# squared distance s is no larger (the bin is checked by comparison, so
# the floor(d / width) assignment adds nothing): pow (8, as 4 ulp) and the
# product with c (1) on each side, 18 u relative of the exponent, times
# |exponent| <= 745 before exp underflows, plus 16 for the two exps (4
# ulp each); the products with the weights and with h^2, 4.  That is
# 2 n + 17526; the rest of 2^15 covers second-order terms and the roundings
# by the margin (exact, an even multiple of u above 1) and the slack.  Cells
# whose kernel underflows escape every relative count; the slack covers them.
_TC1_BINS = 4096

# The tc1 scan skips a (q, lam) point whose value can be neither finite nor
# below the best so far, from an upper bound on the supremum (`sup_upper`).
# Over radial data that bound holds ||n0||_inf ||omega||_1 times
# _TC1_RADIAL_MARGIN, a margin for the panel rule, which reads the
# convolution above its exact value where a narrow weight meets a ring's
# edge, and times _TC1_PRUNE_MARGIN for the rounding of the sums.  Over the
# benchmark pool, the sweep data and a dense (q, lam) grid, the rule read
# at most 0.39% above ||n0||_inf ||omega||_1 where the search probes,
# q >= 1.25 and lam >= scale^2 / 128 (the annulus pool entries at q = 1.25,
# lam = scale^2 / 128), and at most 3.8% at q = 1.05, lam = scale^2 / 256.
# A rule that read past the margin would skip a point that might have won,
# which loosens tc1 and never makes it unsafe.
_TC1_RADIAL_MARGIN = 2.0
_TC1_PRUNE_MARGIN = 1.0 + 1e-9
# The floor of a point's value, tc1 at that bound, is computed with the
# value's own log and pows; the slack covers their rounding.
_TC1_FLOOR_SLACK = 1.0 - 1e-12

# (Gauss-Legendre order per panel, angles) of the rule on which the tc1
# search steers over radial data that is not non-increasing: the full
# rule's panel edges with 4x fewer kernel entries than its (16, 32).  The
# full rule decides at the stage winners, so a steering error can only
# move the winner within the golden stages' tolerance, never make tc1
# unsafe.  On the 32 radial-ring pool data and 120 random annulus,
# PolyGaussian, DiffGaussians and off-origin RadialProfile data, (8, 16)
# kept the full rule's winning (q, lam) on every datum, as did (6, 12) on
# the pool and 60 random data; (4, 8) moved 9 of the 32 pool winners, by
# up to 8.4e-8 relative.  Where the search probes, the rule read at most
# 4.9% above ||n0||_inf ||omega||_1 on the pool, inside
# _TC1_RADIAL_MARGIN.  Both rules read a scan that peaks at the center
# unrefined (`maximize_even`): 2421 of the pool's 2460 steering scans and
# every full-rule scan at the pool's stage winners did.
_TC1_STEER_RULE = (8, 16)


def _search_seeds(density, extra_seeds=()):
    """Multi-start seeds of a grid's plane searches: center (the
    barycenter), the grid's probes, then ``extra_seeds``."""
    seeds = [density.center, *density.search_probes(), *extra_seeds]
    return list(dict.fromkeys((float(x), float(y)) for x, y in seeds))


def _delta_scan(density):
    """Offsets |z - center| that a radial center search scans first."""
    return np.linspace(0.0, density.tail_radius(), _DELTA_SCAN)


# ---------------------------------------------------------------------------
# tc: inversion of the heat-mass curve, minimized over the center
# ---------------------------------------------------------------------------

def _tc_search(density, extra_seeds=()):
    """(tc, center): H at that center reaches L(M) times
    `_TC_TARGET_FACTOR` at tc and falls short of it at the float below
    tc, as evaluated.

    As H increases in s, tc = inf{s : sup_z H(z, s) >= L}.  Radial data
    invert H at the symmetry center, at s0, then search the offset delta
    = |z - center| at s0 (not for non-increasing data).  If the center
    wins there, s0 is the root of the sup: an offset that reached L
    earlier would beat the center at s0.  An offset that wins becomes z
    only if its root is strictly earlier, and is searched about in turn.
    Grids run one root find of the largest H over their seeds
    (`_search_seeds`, with ``extra_seeds``), each climbing to a peak of
    H(., s) (`CartesianGrid.heat_mass_peak`) from where it stopped at the
    last s, seeds that stopped at one point as one.  For every datum a
    bisection of H at the winning center ends the search.  Each root is
    of H evaluated at a center, so a search that misses the global basin
    gives a looser bound, never a wrong one.

    The target is L times `_TC_TARGET_FACTOR`, which covers the rounding
    of L and of a closed-form H but not quadrature or grid-sum error.
    """
    target = mass_constants(density.mass()).threshold * _TC_TARGET_FACTOR
    if density.is_radial:
        (cx, cy), z = density.center, density.center
        s = HeatMassCurve(density).invert(target)
        while not density.is_nonincreasing_radial:
            # a win by rounding alone has no earlier root and moves nothing
            delta = maximize_even(lambda d: HeatMassCurve(
                density, (cx + d, cy)).evaluate(s), _delta_scan(density))[1]
            offset = (cx + delta, cy)
            root = s if offset == z else \
                HeatMassCurve(density, offset).invert(target)
            if not root < s:
                break
            z, s = offset, root
    else:
        reached = {}  # s -> the center of the largest H evaluated at s
        peaks = _search_seeds(density, extra_seeds)

        def sup_heat_mass(s):
            peaks[:] = list(dict.fromkeys(
                density.heat_mass_peak(z, s) for z in peaks))
            val, reached[s] = max(
                (HeatMassCurve(density, z).evaluate(s), z) for z in peaks)
            return val

        s = invert_increasing(sup_heat_mass, target)
        z = reached[s]
    # a float at which H at the winner reaches the target and H at the
    # float below does not; the step below s doubles while H there still
    # reaches it
    heat_mass = HeatMassCurve(density, z).evaluate
    gap = 2.0 * _WIDTH_REL_TOL * s
    while heat_mass(s - gap) >= target:
        s, gap = s - gap, 2.0 * gap
    return bisect(lambda t: heat_mass(t) >= target, s - gap, s)[1], z


def tc_bound(density):
    """Best available upper bound on the blow-up time via heat-mass inversion."""
    return _tc_search(density)[0]


def virial_bound(density):
    """Second-moment bound 2 pi V2 / (M - 8 pi); bounds the blow-up time only."""
    consts = mass_constants(density.mass())
    return 2.0 * math.pi * density.beta_variance(2.0) / (consts.mass - EIGHT_PI)


# ---------------------------------------------------------------------------
# tc1: gaussian-type weight family with two free parameters
# ---------------------------------------------------------------------------

def _omega_exponents(q, lam):
    p = q / (q - 1.0)
    try:
        return p, (4.0 * lam) ** (-p) / p
    except OverflowError:
        raise InvalidExponentsError(
            f"tc1 weight at q={q!r}, lam={lam!r}: (4 lam)^(-p) overflows"
        ) from None


class _RingConvolution:
    """sup_z (omega * density)(z) over radial data, for the weights
    omega = exp(-c |x|^(2p)) of the (q, lam) family, over one tc1 search.
    It holds the threshold L(M) the supremum is read against and, per
    truncation radius, the panel nodes and the profile times the radial
    weights on them; build one per search, so nothing outlives it.
    `sup_upper` bounds `sup` in closed form, with no kernel evaluated:
    the convolution is at most the mass and at most ||n0||_inf
    ||omega||_1, where ||omega||_1 = pi Gamma(1 + 1/p) c^(-1/p).

    Each truncation radius's panels are integrated with Gauss-Legendre
    rules of ``order`` nodes per panel and ``angles`` angles; the
    defaults are the full rule that every tc1 value comes from, and
    _TC1_STEER_RULE steers the search; both read `sup` by
    `maximize_even`.  The kernels are computed in place, from rs^2 and
    2 rs held with the panels, each operation rounded as the plain
    expression rounds it; off-center offsets of one truncation radius,
    as a scan's 16 mostly are, fill one (offsets, nodes, angles) buffer,
    and a single offset is a batch of one.  Each offset's angular sum is
    its own matrix product.  At delta = 0 the kernel does not depend on
    the angle, so the convolution is one radial sum over the same nodes,
    times the sum of the angular weights.
    """

    def __init__(self, density, order=16, angles=32):
        self.density = density
        self.threshold = mass_constants(density.mass()).threshold
        self._sup_norm = density.lp_norm(math.inf)
        self._rmax = density.tail_radius()
        self._scan = _delta_scan(density)
        self._order = order
        # truncation radius -> (rs, rs^2, 2 rs, profile * rs * wr)
        self._panels = {}
        self._cos_phi, self._wphi = circle_nodes(angles)
        self._wphi_sum = float(self._wphi.sum())
        self._work = np.empty((0, angles))  # the kernels, in place

    def sup(self, q, lam):
        """Exact at the center for non-increasing data; a feasible
        maximum elsewhere."""
        if self.density.is_nonincreasing_radial:
            return self.radial(q, lam, 0.0)
        # the sup sits on a ring |z - center| = delta
        return maximize_even(lambda d: self.radial(q, lam, d), self._scan,
                             self.radials(q, lam, self._scan))[0]

    def sup_upper(self, q, lam):
        """An upper bound on `sup`, in closed form."""
        p, _ = _omega_exponents(q, lam)
        # ||omega||_1, with c^(-1/p) = 4 lam p^(1/p)
        l1 = math.pi * math.gamma(1.0 + 1.0 / p) * (4.0 * lam * p ** (1.0 / p))
        return min(self.density.mass(),
                   self._sup_norm * _TC1_RADIAL_MARGIN * l1) \
            * _TC1_PRUNE_MARGIN

    def radial(self, q, lam, delta):
        """The convolution at the offset |z - center| = delta."""
        p, c = _omega_exponents(q, lam)
        return self._convolution(p, c, [delta])[0]

    def radials(self, q, lam, deltas):
        """[`radial` at delta, for delta in ``deltas``]: the offsets of one
        truncation radius, as `_convolution` reads it, go in one batch."""
        p, c = _omega_exponents(q, lam)
        reach, groups = (45.0 / c) ** (0.5 / p), {}
        for i, d in enumerate(deltas):
            groups.setdefault((min(self._rmax, d + reach), d == 0.0), []).append(i)
        out = [0.0] * len(deltas)
        for idx in groups.values():
            for i, val in zip(idx, self._convolution(p, c, [deltas[i] for i in idx])):
                out[i] = val
        return out

    def _convolution(self, p, c, ds):
        """[The convolution at each offset of ``ds``]: offsets all 0 or all
        off the center, of one truncation radius.  The result feeds only a
        logarithm, so moderate node counts suffice; overflow in the kernel's
        powers, which the caller ignores, only zeroes a negligible weight."""
        # the weight is below exp(-45) past this distance
        hi = min(self._rmax, ds[0] + (45.0 / c) ** (0.5 / p))
        panel = self._panels.get(hi)
        if panel is None:
            breaks = [b for b in self.density.radial_breakpoints() if b < hi]
            edges = np.linspace(0.0, hi, 14)
            rs, wr = panel_nodes(merged_edges(breaks, edges) if breaks
                                 else edges, order=self._order)
            panel = self._panels[hi] = (
                rs, rs ** 2, 2.0 * rs, self.density.profile(rs) * rs * wr)
        rs, rs_sq, two_rs, weighted = panel
        if ds[0] == 0.0:
            # the kernel does not depend on the angle: one radial sum
            return [float((np.exp(-c * rs_sq ** p) * weighted).sum())
                    * self._wphi_sum] * len(ds)
        if self._work.shape[0] < len(ds) * rs.size:
            self._work = np.empty((len(ds) * rs.size, self._wphi.size))
        # exp(-c max(rs^2 + delta^2 - 2 rs delta cos phi, 0)^p), each
        # operation as the expression rounds it, delta^2 a scalar power
        kernel = self._work[:len(ds) * rs.size].reshape(len(ds), rs.size, -1)
        np.multiply.outer(np.multiply.outer(ds, two_rs), self._cos_phi,
                          out=kernel)
        d_sq = [float(d) ** 2 for d in ds]
        np.subtract(np.add.outer(d_sq, rs_sq)[..., None], kernel, out=kernel)
        np.maximum(kernel, 0.0, out=kernel)
        kernel **= p
        kernel *= -c
        np.exp(kernel, out=kernel)
        return ((kernel @ self._wphi) * weighted).sum(axis=-1).tolist()


class _PeakConvolution:
    """The largest (omega * density)(z) over a grid's peak candidates z,
    for the weights of `_RingConvolution`, over one tc1 search.  It holds
    the threshold, each peak's cell weights binned by distance
    (`CartesianGrid.distance_histogram`) on _TC1_BINS bins of one width,
    and the p-th powers of the squared cell distances of the peaks summed
    exactly, at the current q only.  The kernel is non-increasing in the
    distance and the weights are non-negative, so a histogram read at the
    lower edges bounds its peak's sum from above, and at the upper edges
    from below; `sup_upper` is the largest upper bound, times the margin
    of _TC1_BINS's comment, plus the slack.
    """

    def __init__(self, density):
        self.density = density
        self.threshold = mass_constants(density.mass()).threshold
        self._peaks = density.peak_candidates()
        self._p, self._powers = None, {}
        _, _, self._w = density.cell_coordinates()
        n, self._h2 = self._w.size, density.cell_size ** 2
        # the farthest corner of the cells' bounding box from any peak
        width = max(density.corner_distance(z) for z in self._peaks) \
            / _TC1_BINS
        self._edges_sq = (np.arange(_TC1_BINS + 1) * width) ** 2
        self._hist = np.array([density.distance_histogram(
            density.squared_distances(z), width, _TC1_BINS)[1]
            for z in self._peaks])
        self._margin = 1.0 + (2 * n + 2 ** 15) * 2.0 ** -53
        # the sums of cells whose kernel underflows, which no relative
        # margin covers: at most 2^-1022 per unit weight, 2^-1074 per term
        self._slack = (density.mass() + (n + _TC1_BINS) * self._h2) * 2.0 ** -1020

    def sup(self, q, lam):
        """The largest exact sum over the peak candidates.

        The peaks are summed in order of falling lower bound, and a peak
        whose upper bound, times the margin, plus the slack, falls below
        the best exact sum so far is skipped: it cannot hold the maximum.
        """
        p, c, upper, lower = self._bounds(q, lam)
        if p != self._p:
            self._p, self._powers = p, {}  # drop the last q's powers
        best = -math.inf
        for i in sorted(range(len(upper)), key=lambda i: -lower[i]):
            if upper[i] * self._margin + self._slack < best:
                continue
            best = max(best, self._peak_sum(i, p, c))
        return best

    def sup_upper(self, q, lam):
        """An upper bound on `sup`, from the histograms."""
        return max(self._bounds(q, lam)[2]) * self._margin + self._slack

    def _bounds(self, q, lam):
        """(p, c, [upper bound], [lower bound]) of each peak's sum; the
        lower bounds only order the peaks, so they skip the factor h^2."""
        p, c = _omega_exponents(q, lam)
        with np.errstate(over="ignore"):
            kernel = np.exp(-c * self._edges_sq ** p)
        upper = self._hist @ kernel[:-1] * self._h2
        return p, c, upper.tolist(), (self._hist @ kernel[1:]).tolist()

    def _peak_sum(self, i, p, c):
        """The exact weighted sum about peak candidate i."""
        with np.errstate(over="ignore"):
            if i not in self._powers:
                self._powers[i] = \
                    self.density.squared_distances(self._peaks[i]) ** p
            return float((self._w * np.exp(-c * self._powers[i])).sum()
                         * self._h2)


def _tc1_convolution(density):
    """The supremum of one tc1 search: over radial data on the full panel
    rule, over a grid on its peak candidates."""
    if density.is_radial:
        return _RingConvolution(density)
    return _PeakConvolution(density)


def _tc1_value(conv, q, lam):
    if not q > 1.0 or not lam > 0.0:
        raise ValueError("tc1 requires q > 1 and lam > 0")
    return _tc1_of_sup(conv, q, lam, conv.sup(q, lam))


def _tc1_of_sup(conv, q, lam, sup):
    """tc1 at (q, lam) from the supremum ``sup``, which it does not
    increase with; +inf when uninformative."""
    log_plus = math.log(sup / conv.threshold) if sup > conv.threshold else 0.0
    if log_plus == 0.0:
        return math.inf
    return lam * q ** (-1.0 / q) * log_plus ** (-1.0 / q)


def tc1_value(density, q, lam):
    """The two-parameter bound at fixed (q, lam); +inf when uninformative."""
    with np.errstate(over="ignore"):
        return _tc1_value(_tc1_convolution(density), q, lam)


def tc1_bound(density):
    """Infimum of tc1_value over a (q, lam) grid with local refinement."""
    return _tc1_search(density)[0]


def _tc1_search(density):
    """(tc1, q, lam) of the winner; (inf, None, None) when no scanned
    point is informative.

    The scan replaces its best point only on a strictly smaller value,
    so it skips a point whose floor, tc1 at `sup_upper`, is no smaller
    than the best so far: that point could not have replaced it.  The
    golden stages about the scan's best evaluate every probe.

    Radial data that is not non-increasing steer the scan and both
    golden stages on _TC1_STEER_RULE, then evaluate the full rule, with
    its own offset search, once at each distinct stage winner; the
    smallest of those values wins, a tie going to the earliest stage.
    Every value returned is the full rule's at a point it evaluated.
    Other data steer on the full rule itself.
    """
    with np.errstate(over="ignore"):
        conv = _tc1_convolution(density)
        ring = density.is_radial and not density.is_nonincreasing_radial
        steer = _RingConvolution(density, *_TC1_STEER_RULE) if ring else conv
        stages = _tc1_stages(steer)
        if steer is not conv and stages[0][1] is not None:
            full = {}
            for _, q, lam in stages:
                if (q, lam) not in full:
                    full[q, lam] = _tc1_value(conv, q, lam)
            stages = [(full[q, lam], q, lam) for _, q, lam in stages]
    # a tie goes to the earliest stage
    return min(stages, key=lambda t: t[0])


def _tc1_stages(conv):
    """[(value, q, lam)] of the scan's best and of the golden stages in
    lam, then in q, about it; [(inf, None, None)] when no scanned point
    is informative."""
    scale = conv.density._scale_radius() ** 2
    lam_grid = np.geomspace(scale / 32.0, scale * 32.0, _TC1_LAMBDA_GRID)

    best = (math.inf, None, None)
    for q in _TC1_Q_VALUES:
        for lam in lam_grid:
            floor = _tc1_of_sup(conv, q, lam, conv.sup_upper(q, lam))
            if floor * _TC1_FLOOR_SLACK >= best[0]:
                continue
            val = _tc1_value(conv, q, lam)
            if val < best[0]:
                best = (val, q, lam)
    if best[1] is None:
        return [best]
    _, q0, lam0 = best
    lam1, v1 = golden_section(
        lambda lam: _tc1_value(conv, q0, lam),
        lam0 / 4.0, lam0 * 4.0, rel_tol=1e-6)
    qs = _TC1_Q_VALUES
    i = qs.index(q0)
    q2, v2 = golden_section(
        lambda q: _tc1_value(conv, q, lam1),
        qs[max(i - 1, 0)], qs[min(i + 1, len(qs) - 1)], rel_tol=1e-6)
    return [best, (v1, q0, lam1), (v2, q2, lam1)]


# ---------------------------------------------------------------------------
# tc2: radial cumulative mass, the theta form and the exact cell infimum
# ---------------------------------------------------------------------------

class _ThetaScan:
    """The theta form of one mass,
    (1/(4 ln(1/a))) * inf_theta inverse(a^theta)^2 / (1 - theta).

    The 96 scan points and their fractions a^theta are computed once,
    as the scalar powers the golden stage computes: array powers may
    round differently.  Build one per search.
    """

    def __init__(self, consts):
        self.consts = consts
        self.grid = np.linspace(_THETA_EPS, 1.0 - _THETA_EPS, _THETA_GRID)
        a = consts.ratio
        self.fractions = np.array([a ** theta for theta in self.grid])
        self._one_minus = (1.0 - self.grid).tolist()

    def form(self, inverse, radii):
        """The form over the cumulative-mass inverse ``inverse``, which
        maps a mass fraction to its radius, given ``radii``, the list of
        its values at the scan's fractions."""
        a = self.consts.ratio

        def objective(theta):
            return inverse(a ** theta) ** 2 / (1.0 - theta)

        # r^2 as the scalar objective() computes
        _, val = golden_about_scan(objective, self.grid, [
            r ** 2 / q for r, q in zip(radii, self._one_minus)])
        return val / (4.0 * self.consts.log_inv_ratio)

    def binned_form(self, profile):
        """`form` over a grid's binned profile, reading exactly only the
        scan points whose lower bound (`radius_bounds`) is at most the
        least upper bound, within 1e-9 for the bounds' rounding.  Every
        other point takes its lower bound, above the scan's minimum, so the
        minimum, its point and its golden bracket are unchanged.  One block
        holds the golden bracket of every point read, and serves the reads
        and the golden stage."""
        low, high = profile.radius_bounds(self.fractions)
        one_minus = 1.0 - self.grid
        keep = np.flatnonzero(low ** 2 / one_minus * (1.0 - 1e-9)
                              <= (high ** 2 / one_minus).min())
        profile.gather(self.fractions[min(keep[-1] + 1, self.grid.size - 1)],
                       self.fractions[max(keep[0] - 1, 0)])
        radii = low.tolist()
        for i in keep.tolist():
            radii[i] = profile.inverse(self.fractions[i])
        return self.form(profile.inverse, radii)


def tc2_at(density, z=None):
    """The radial-mass bound at the fixed center z (the center if None)."""
    scan = _ThetaScan(mass_constants(density.mass()))
    return _tc2_from(scan, density, density.center if z is None else z)[0]


def _tc2_from(scan, density, z):
    """(tc2 at z, centred).  A grid reads the exact infimum over rho of
    rho^2 / (4 ln(M(z, rho) / L)) on its whole profile
    (`_BinnedGridProfile.cell_infimum`); radial data the theta form, that
    infimum at rho = R(a^theta), and with compact support its closed
    theta = 0 end, (support radius from z)^2 / (4 ln(1/a)), which an
    inverse at 1 may read short of.  ``centred``: (scan, radii, theta) or
    None."""
    if not density.is_radial:
        return density.mass_profile(z).cell_infimum(
            scan.consts.threshold), None
    inverse = functools.partial(density.generalized_inverse, z)
    radii = inverse(scan.fractions).tolist()
    theta = scan.form(inverse, radii)
    end = math.inf if not density.has_compact_support else \
        density.support_radius_from(z) ** 2 / (4.0 * scan.consts.log_inv_ratio)
    return min(theta, end), (scan, radii, theta)


def _snapshot(density, z):
    # one named entry for the search's profile builds, which the
    # benchmark's traced run counts
    return density.mass_profile(z)


def tc2_bound(density):
    """Radial cumulative-mass bound, minimized over the center."""
    return _tc2_search(density)[0]


def _tc2_search(density):
    """(tc2, center, centred): `_tc2_from` at the center, or on a grid at
    the center that minimizes the theta form where it is smaller;
    ``centred`` is `_tc2_from`'s at the center.

    Radial data read the symmetry center and search nothing: tc2 at any
    fixed center is a bound.  To second order in the offset, an offset
    beats the center only where the density rises at the center's optimal
    radius; at a compact-support theta = 0 end the center wins to first
    order.  On the 32 ring pool entries and 100 random radial profiles,
    at 40 offsets each, no offset beat it; the closest read 0.11% above.

    A grid steers local Nelder-Mead on binned profiles
    (`_ThetaScan.binned_form`).  A winner whose steering value beats the
    center's is decided once, on its `_snapshot`: the binned profile
    gathered whole, the search's one sort of every cell, or the cached
    one at the barycenter itself."""
    scan = _ThetaScan(mass_constants(density.mass()))
    center = density.center
    center_val, centred = _tc2_from(scan, density, center)
    if density.is_radial:
        return center_val, center, centred

    z_best, steered, _ = minimize_over_plane(
        lambda z: scan.binned_form(density.binned_profile(z)),
        _search_seeds(density), max_iter=_NM_MAX_ITER)
    if not steered < center_val:
        return center_val, center, centred
    off_val = _snapshot(density, z_best).cell_infimum(scan.consts.threshold)
    if off_val < center_val:
        return off_val, z_best, centred
    return center_val, center, centred


# ---------------------------------------------------------------------------
# tc3: compact support through the smallest enclosing disk
# ---------------------------------------------------------------------------

def tc3_bound(density):
    """(R0^2/(4 ln(1/a)), D^2/(12 ln(1/a))): the enclosing-disk form and
    the coarser diameter (Jung) form of the support-radius bound."""
    consts = mass_constants(density.mass())
    geom = density.support_geometry()
    denom = 4.0 * consts.log_inv_ratio
    return geom.r0 ** 2 / denom, geom.diameter ** 2 / (3.0 * denom)


# ---------------------------------------------------------------------------
# tc4: beta-variance bounds
# ---------------------------------------------------------------------------

def tc4_bound(density):
    """Variance bound V_2/(4 ln(1/a)).  No beta > 2 form beats it: V_beta
    about any z is at least V_2 about z (power means), which is at least
    V_2 about the barycenter, the minimizer of the second moment."""
    consts = mass_constants(density.mass())
    return density.beta_variance(2.0) / (4.0 * consts.log_inv_ratio)


# ---------------------------------------------------------------------------
# F-method: the centred theta form, classified on the theta scan
# ---------------------------------------------------------------------------

def _f_method_bound(density, centred):
    """The F-method bound from ``centred``, the scan of `_tc2_search` at
    the symmetry center, or None when that search failed.

    F(x) = x + e^x pi R^2 profile(R) / M, R = R(e^-x) the generalized
    inverse, is read at the scan's points x = theta ln(1/a).  F(x0) =
    ln(1/a) is the first-order condition of R(a^theta)^2 / (1 - theta),
    so the interior case is the centred theta form.  The plateau case,
    theta = 0, reads R(1)^2, the squared support radius.
    """
    if not density.is_radial:
        raise NotRadialError("the F-method requires radial data")
    consts = mass_constants(density.mass())
    y0 = consts.log_inv_ratio
    if not consts.ratio ** _THETA_EPS < 1.0:
        raise HypothesisCheckError(
            "(a, 1) is too narrow to classify F in floats")
    if centred is None:
        raise HypothesisCheckError("tc2's centred theta scan failed")
    scan, radii, theta_form = centred
    r = np.array(radii)
    xs = scan.grid * y0
    ratios = math.pi * r * r * density.profile(r) / consts.mass
    fs = xs + np.exp(xs) * ratios
    diffs = np.diff(fs)
    if density.has_compact_support and ratios[0] >= y0 \
            and np.all(diffs >= -1e-9 * max(abs(fs).max(), 1.0)):
        return density.support_radius_from(density.center) ** 2 / (4.0 * y0)
    if np.all(diffs > 0.0) and ratios[0] < y0 and ratios[-1] > 0.0:
        if not fs[0] < y0 < fs[-1]:
            raise HypothesisCheckError(
                "F does not straddle ln(1/a) on the classification window")
        return theta_form
    raise HypothesisCheckError(
        "F is neither non-decreasing with F(0+) >= ln(1/a) nor "
        "strictly increasing with an interior crossing")


# ---------------------------------------------------------------------------
# Lower bounds from Lp norms and sharp heat-semigroup constants
# ---------------------------------------------------------------------------

def _conjugate(p):
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _cp(p):
    """Sharp one-exponent constant; limits at p in {1, inf} equal 1."""
    if p == 1.0 or math.isinf(p):
        return 1.0
    pc = _conjugate(p)
    return math.sqrt(p ** (1.0 / p) / pc ** (1.0 / pc))


def heat_constant(n, p, q):
    """Sharp Lp -> Lq smoothing constant of the heat semigroup on R^n."""
    if n < 1:
        raise InvalidExponentsError("dimension must be >= 1")
    if p < 1.0 or q < p:
        raise InvalidExponentsError("need 1 <= p <= q <= inf")
    if p == q:
        return 1.0
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    gap = inv_p - inv_q
    return (_cp(p) / _cp(q)) ** n * (4.0 * math.pi / gap) ** (-0.5 * n * gap)


@dataclass(frozen=True)
class LowerBoundDetail:
    value: float
    sup_form: float
    sup_maximizer_qprime: float
    regime_form: float


def lower_bound_detail(density):
    """The larger of the sup form, sup over q' >= 1 of (q' / 4 pi)
    (L / ||n0||_q)^q', q the conjugate of q', and the log form M /
    (||n0||_inf pi e 4 ln(1/a)): p = inf, as a finite p would scan q' over
    [p', Q] only, inside this [1, Q]."""
    consts = mass_constants(density.mass())

    def neg_objective(qp):
        return -(qp / (4.0 * math.pi)) \
            * (consts.threshold / density.lp_norm(_conjugate(qp))) ** qp

    qp_max = max(50.0, 4.0 / (1.0 - consts.ratio))
    grid = np.geomspace(1.0, qp_max, _QPRIME_GRID)
    qp_star, neg_val = grid_then_golden(neg_objective, grid)
    sup_form = -neg_val
    regime_form = consts.mass / density.lp_norm(math.inf) \
        / (math.pi * math.e * 4.0 * consts.log_inv_ratio)
    return LowerBoundDetail(value=max(sup_form, regime_form),
                            sup_form=sup_form,
                            sup_maximizer_qprime=qp_star,
                            regime_form=regime_form)


def lower_bound(density):
    """Best lower bound on tc from Lp data (not a bound on the blow-up time)."""
    return lower_bound_detail(density).value


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass
class BoundEstimate:
    name: str
    kind: str                  # "upper" | "lower" | "exact-reference"
    value: float = math.nan
    assumptions: tuple = ()
    status: str = "computed"   # "computed" | "inapplicable" | "failed"
    detail: str = ""
    seconds: float = 0.0


@dataclass
class BoundReport:
    label: str
    mass: float
    constants: MassConstants
    rows: list
    tolerance: float
    ordering_ok: bool = True
    violations: tuple = ()

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def computed(self, name):
        r = self.row(name)
        return r.value if r.status == "computed" else None


#: upper rows that also dominate tc (the virial row bounds the blow-up
#: time directly and may fall below tc, so it stays out of the chain)
_CHAIN_UPPERS = ("tc1", "tc2", "tc3", "tc3_jung", "tc4", "f_method")


def _run_row(name, kind, assumptions, fn):
    t0 = time.perf_counter()
    try:
        value = fn()
        status, detail = "computed", ""
    except (UnboundedSupportError, NotRadialError, HypothesisCheckError) as exc:
        value, status, detail = math.nan, "inapplicable", str(exc)
    except SubcriticalMassError:
        raise
    except KSBlowupError as exc:
        value, status, detail = math.nan, "failed", str(exc)
    return BoundEstimate(name=name, kind=kind, value=value,
                         assumptions=tuple(assumptions), status=status,
                         detail=detail, seconds=time.perf_counter() - t0)


#: the estimator rows in report order, which a sweep tabulates by default
_ESTIMATOR_ROWS = ("lower", "tc", "virial", "tc1", "tc2", "tc3", "tc3_jung",
                   "tc4", "f_method")
_ROW_ORDER = _ESTIMATOR_ROWS + ("disk_asym_fixed_radius",
                               "disk_asym_fixed_height")


def full_report(density, tolerance=1e-6):
    """Run every applicable estimator and assemble the ordered report."""
    consts = mass_constants(density.mass())
    rows = []

    rows.append(_run_row(
        "lower", "lower", ("finite Lp norm",),
        lambda: lower_bound(density)))

    tc2_state = {}

    def run_tc2():
        val, tc2_state["z"], tc2_state["centred"] = _tc2_search(density)
        return val

    rows.append(_run_row("tc2", "upper", (), run_tc2))

    # search tc from the tc2 optimizer too, so the report-level chain
    # cannot be broken by one search finding a better center than the other
    extra_seeds = (tc2_state["z"],) if "z" in tc2_state else ()
    rows.append(_run_row(
        "tc", "upper", (),
        lambda: _tc_search(density, extra_seeds)[0]))

    rows.append(_run_row(
        "virial", "upper",
        ("finite 2-moment", "bounds the blow-up time only, not tc"),
        lambda: virial_bound(density)))
    rows.append(_run_row(
        "tc1", "upper", (), lambda: tc1_bound(density)))

    # one support geometry serves both forms; the Jung row adds no time
    tc3 = _run_row("tc3", "upper", ("compact support",),
                   lambda: tc3_bound(density))
    jung = dataclasses.replace(
        tc3, name="tc3_jung",
        assumptions=tc3.assumptions + ("Jung diameter form",), seconds=0.0)
    if tc3.status == "computed":
        tc3.value, jung.value = tc3.value
    rows += [tc3, jung]
    rows.append(_run_row(
        "tc4", "upper", ("finite 2-moment",),
        lambda: tc4_bound(density)))

    rows.append(_run_row(
        "f_method", "upper", ("radial", "strictly increasing cumulative mass"),
        lambda: _f_method_bound(density, tc2_state.get("centred"))))

    for name, value, assumption in density.near_critical_references():
        rows.append(BoundEstimate(name=name, kind="exact-reference",
                                  value=value, assumptions=(assumption,)))
    # every comparison with NaN is false, so the ordering check would
    # pass a NaN value: it fails its row
    for r in rows:
        if r.status == "computed" and math.isnan(r.value):
            r.status, r.detail = "failed", "the estimator returned NaN"

    rows.sort(key=lambda r: _ROW_ORDER.index(r.name))

    report = BoundReport(label=density.label(), mass=consts.mass,
                         constants=consts, rows=rows, tolerance=tolerance)
    _check_ordering(report)
    return report


def _check_ordering(report):
    """Each computed lower row at most tc and every chain upper row, and
    each chain upper row at least tc, within the tolerance; the pairs
    without tc are checked when tc is not computed too."""
    slack = 1.0 + report.tolerance
    rows = [r for r in report.rows if r.status == "computed"]
    tc = [r for r in rows if r.name == "tc"]
    uppers = [r for r in rows if r.name in _CHAIN_UPPERS]
    violations = [f"{lo.name}={lo.value:.9g} above {up.name}={up.value:.9g}"
                  for lo in rows if lo.kind == "lower"
                  for up in tc + uppers if lo.value > up.value * slack]
    violations += [f"{up.name}={up.value:.9g} below tc={t.value:.9g}"
                   for t in tc for up in uppers if up.value * slack < t.value]
    report.violations = tuple(violations)
    report.ordering_ok = not violations
