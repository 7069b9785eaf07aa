"""Critical-time bound estimators and the assembled bound report.

Supercritical mass M > 8*pi forces blow-up; the heat-mass functional
capped at the threshold L(M) = 2 M^2 / (3 M - 8 pi) yields the
critical-time bound ``tc`` (an upper bound on the blow-up time), and a
ladder of coarser but more explicit estimators ``tc1`` .. ``tc4``, the
F-function method, the virial bound, and Lp lower bounds on ``tc``.
``full_report`` evaluates every applicable estimator and checks the
ordering lower <= tc <= upper.
"""

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import datum as dt
from .errors import (
    HypothesisCheckError,
    InvalidExponentsError,
    KSBlowupError,
    NotRadialError,
    SubcriticalMassError,
    UnboundedSupportError,
)
from .heatmass import HeatMassCurve, InversionConfig
from .quadrature import _gl_nodes, merged_edges, panel_nodes
from .searches import golden_section, grid_then_golden, minimize_over_plane

EIGHT_PI = 8.0 * math.pi

#: lower factor in the gaussian sandwich  c0 * tc4 <= tc <= tc4,
#: the minimum of ln(1+u)/u over the reachable range u in (0, 1/2]
TC4_SANDWICH_FACTOR = 2.0 * math.log(1.5)

#: exponent threshold splitting the lower-bound regimes
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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the parameter searches inside the estimators."""

    rel_tol: float = 1e-9
    nm_max_iter: int = 80
    extra_seeds: tuple = ()
    theta_grid: int = 96
    rho_grid: int = 96
    qprime_grid: int = 64
    tc1_q_values: tuple = (1.25, 1.5, 2.0, 3.0, 5.0)
    tc1_lambda_grid: int = 9
    inversion: InversionConfig = field(default_factory=InversionConfig)


_DEFAULT = SearchConfig()


def _search_seeds(density, config):
    """Multi-start seeds: center, barycenter, and shape-aware probes."""
    seeds = [density.center, density.barycenter(), *density.search_probes(),
             *config.extra_seeds]
    unique = []
    for s in seeds:
        if not any(math.hypot(s[0] - u[0], s[1] - u[1]) < 1e-12 for u in unique):
            unique.append((float(s[0]), float(s[1])))
    return unique


# ---------------------------------------------------------------------------
# tc: inversion of the heat-mass curve, minimized over the center
# ---------------------------------------------------------------------------

def _tc_search(density, config=None):
    config = config or _DEFAULT
    consts = mass_constants(density.mass())

    def critical_time(z):
        return HeatMassCurve(density, z).invert(consts.threshold,
                                                config.inversion)

    if density.is_nonincreasing_radial:
        z = density.center
        val = critical_time(z)
        return val, z, [(z, z, val)]
    seeds = _search_seeds(density, config)
    z, val, trace = minimize_over_plane(critical_time, seeds,
                                        max_iter=config.nm_max_iter)
    return val, z, trace


def tc_bound(density, config=None):
    """Best available upper bound on the blow-up time via heat-mass inversion."""
    return _tc_search(density, config)[0]


def virial_bound(density):
    """Second-moment bound 2 pi V2 / (M - 8 pi); bounds the blow-up time only."""
    consts = mass_constants(density.mass())
    return 2.0 * math.pi * density.beta_variance(2.0) / (consts.mass - EIGHT_PI)


# ---------------------------------------------------------------------------
# tc1: gaussian-type weight family with two free parameters
# ---------------------------------------------------------------------------

def _omega_exponents(q, lam):
    p = q / (q - 1.0)
    return p, (4.0 * lam) ** (-p) / p


def _omega_conv_radial(density, q, lam, deltas):
    """(weight * density) for radial data at offsets |z - center| = delta.

    Batched over ``deltas`` with one shared radial/angular grid.  The
    result only feeds a logarithm, so moderate node counts suffice.
    """
    p, c = _omega_exponents(q, lam)
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    rmax = density.tail_radius()
    reach = (45.0 / c) ** (0.5 / p)  # weight below exp(-45) past this distance
    hi = min(rmax, float(deltas.max()) + reach)
    edges = merged_edges([b for b in density.radial_breakpoints() if b < hi],
                         np.linspace(0.0, hi, 14))
    rs, wr = panel_nodes(edges, order=16)
    if rs.size == 0:
        return np.zeros(len(deltas))
    phi, wphi = _gl_nodes(32)
    phi = 0.5 * math.pi * (phi + 1.0)
    wphi = math.pi * wphi  # angular range [0, 2*pi] by symmetry
    cosphi = np.cos(phi)

    dist_sq = (rs[None, :, None] ** 2 + deltas[:, None, None] ** 2
               - 2.0 * rs[None, :, None] * deltas[:, None, None]
               * cosphi[None, None, :])
    with np.errstate(over="ignore"):
        ang = np.exp(-c * np.maximum(dist_sq, 0.0) ** p) @ wphi
    return (ang * (density.profile(rs) * rs * wr)[None, :]).sum(axis=1)


def _omega_conv_grid(density, q, lam, z):
    p, c = _omega_exponents(q, lam)
    xs, ys, w = density.cell_coordinates()
    dist_sq = (xs - z[0]) ** 2 + (ys - z[1]) ** 2
    with np.errstate(over="ignore"):
        vals = np.exp(-c * dist_sq ** p)
    return float((w * vals).sum() * density.cell_size ** 2)


def _omega_conv_sup(density, q, lam, config):
    """Sup norm of the weighted convolution (exact at the center for
    non-increasing radial data; a feasible maximum elsewhere)."""
    if density.is_nonincreasing_radial:
        return float(_omega_conv_radial(density, q, lam, 0.0)[0])
    if isinstance(density, dt.CartesianGrid):
        xs, ys, w = density.cell_coordinates()
        top = np.argsort(w)[-8:]
        cands = [(xs[i], ys[i]) for i in top]
        cands += [density.barycenter(), density.weighted_median()]
        return max(_omega_conv_grid(density, q, lam, z) for z in cands)
    # radial but not monotone: the sup sits on a ring |z - center| = delta;
    # a coarse batched scan plus one zoomed pass nails the peak
    mode = density.profile_mode_radius()
    hi = max(mode * 2.0, density._scale_radius())
    grid = np.linspace(0.0, hi, 33)
    vals = _omega_conv_radial(density, q, lam, grid)
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    up = grid[min(k + 1, len(grid) - 1)]
    if up > lo:
        zoom = np.linspace(lo, up, 33)
        vals = np.concatenate([vals, _omega_conv_radial(density, q, lam, zoom)])
    return float(vals.max())


def tc1_value(density, q, lam, config=None):
    """The two-parameter bound at fixed (q, lam); +inf when uninformative."""
    if not q > 1.0 or not lam > 0.0:
        raise ValueError("tc1 requires q > 1 and lam > 0")
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    sup = _omega_conv_sup(density, q, lam, config)
    log_plus = math.log(sup / consts.threshold) if sup > consts.threshold else 0.0
    if log_plus == 0.0:
        return math.inf
    return lam * q ** (-1.0 / q) * log_plus ** (-1.0 / q)


def tc1_bound(density, config=None):
    """Infimum of tc1_value over a (q, lam) grid with local refinement."""
    config = config or _DEFAULT
    mass_constants(density.mass())
    scale = density._scale_radius() ** 2
    lam_grid = np.geomspace(scale / 32.0, scale * 32.0, config.tc1_lambda_grid)

    best = (math.inf, None, None)
    for q in config.tc1_q_values:
        for lam in lam_grid:
            val = tc1_value(density, q, lam, config)
            if val < best[0]:
                best = (val, q, lam)
    if best[1] is None:
        return math.inf
    _, q0, lam0 = best
    lam1, v1 = golden_section(
        lambda lam: tc1_value(density, q0, lam, config),
        lam0 / 4.0, lam0 * 4.0, rel_tol=1e-6)
    qs = sorted(config.tc1_q_values)
    i = qs.index(q0)
    qlo = qs[max(i - 1, 0)]
    qhi = qs[min(i + 1, len(qs) - 1)]
    if qlo < qhi:
        _, v2 = golden_section(
            lambda q: tc1_value(density, q, lam1, config), qlo, qhi,
            rel_tol=1e-6)
    else:
        v2 = v1
    return min(best[0], v1, v2)


# ---------------------------------------------------------------------------
# tc2: radial cumulative mass, rho-form and theta-form
# ---------------------------------------------------------------------------

def _theta_form(consts, inverse, config):
    """(1/(4 ln(1/a))) * inf_theta inverse(a^theta)^2 / (1 - theta)."""
    a = consts.ratio
    eps = 1e-6

    def objective(theta):
        return inverse(a ** theta) ** 2 / (1.0 - theta)

    grid = np.linspace(eps, 1.0 - eps, config.theta_grid)
    _, val = grid_then_golden(objective, grid, rel_tol=config.rel_tol)
    return val / (4.0 * consts.log_inv_ratio)


def _rho_form_from(mass_at, consts, lo, hi, config):
    """inf_rho rho^2 / (4 ln+( mass_in_disk / L )) given a mass evaluator."""

    def objective(rho):
        frac = mass_at(rho) / consts.threshold
        if frac <= 1.0:
            return math.inf
        return rho ** 2 / (4.0 * math.log(frac))

    grid = np.geomspace(max(lo, 1e-12) * (1.0 + 1e-9), hi, config.rho_grid)
    _, val = grid_then_golden(objective, grid, rel_tol=config.rel_tol)
    return val


def _rho_form(density, consts, z, config):
    lo = density.generalized_inverse(z, consts.ratio)
    hi = density.support_radius_from(z) if density.has_compact_support \
        else density.generalized_inverse(z, 1.0 - 1e-13)
    return _rho_form_from(lambda rho: density.radial_mass(z, rho),
                          consts, lo, hi, config)


def tc2_forms(density, z=None, config=None):
    """(rho_form, theta_form) of the radial-mass bound at a fixed center."""
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    z = density.center if z is None else z
    rho = _rho_form(density, consts, z, config)
    theta = _theta_form(consts,
                        lambda m: density.generalized_inverse(z, m), config)
    return rho, theta


def _snapshot(density, z, n=1024):
    # one named entry for the search's profile builds, which the
    # benchmark's traced run counts
    return density.mass_profile(z, n)


def tc2_bound(density, config=None):
    """Radial cumulative-mass bound, minimized over the center."""
    return _tc2_search(density, config)[0]


def _tc2_search(density, config=None):
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    center = density.center
    if density.is_nonincreasing_radial:
        return min(tc2_forms(density, center, config)), center

    def steering_objective(z):
        snap = _snapshot(density, z, n=512)
        return _theta_form(consts, snap.inverse, config)

    seeds = _search_seeds(density, config)
    z_best, val_best, _ = minimize_over_plane(
        steering_objective, seeds, max_iter=config.nm_max_iter // 2)

    center_val = min(tc2_forms(density, center, config))
    off_center = math.hypot(z_best[0] - center[0], z_best[1] - center[1]) \
        > 1e-9 * (1.0 + density._scale_radius())
    if off_center and val_best < center_val:
        snap = _snapshot(density, z_best, n=4096)
        theta = _theta_form(consts, snap.inverse, config)
        rho = _rho_form_from(snap.mass_at, consts,
                             snap.inverse(consts.ratio),
                             snap.inverse(1.0 - 1e-12), config)
        off_val = min(rho, theta)
        if off_val < center_val:
            return off_val, z_best
    return center_val, center


# ---------------------------------------------------------------------------
# tc3: compact support through the smallest enclosing disk
# ---------------------------------------------------------------------------

class Tc3Bound(tuple):
    """(enclosing-disk form, diameter/Jung form)."""

    __slots__ = ()

    def __new__(cls, enclosing, jung):
        return super().__new__(cls, (enclosing, jung))

    @property
    def enclosing(self):
        return self[0]

    @property
    def jung(self):
        return self[1]


def tc3_bound(density):
    """Support-radius bound R0^2/(4 ln(1/a)) and the coarser D^2/(12 ln(1/a))."""
    consts = mass_constants(density.mass())
    geom = density.support_geometry()
    denom = 4.0 * consts.log_inv_ratio
    return Tc3Bound(geom.r0 ** 2 / denom,
                    geom.diameter ** 2 / (3.0 * denom))


# ---------------------------------------------------------------------------
# tc4: beta-variance bounds
# ---------------------------------------------------------------------------

def tc4_bound(density, beta=2.0, config=None):
    """Variance bound V_beta/(4 ln(1/a)); for beta > 2 also the sharper
    center-optimized moment form, reporting the smaller."""
    if beta < 2.0:
        raise ValueError("beta must be >= 2")
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    denom = 4.0 * consts.log_inv_ratio
    simple = density.beta_variance(beta) / denom
    if beta == 2.0:
        return simple
    seeds = [density.barycenter()] + list(config.extra_seeds)
    _, moment, _ = minimize_over_plane(
        lambda z: density.beta_moment_about(z, beta), seeds,
        max_iter=config.nm_max_iter)
    return min(simple, moment / denom)


# ---------------------------------------------------------------------------
# F-method: classification of the squared generalized inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FMethodBound:
    """Outcome of the F-function classification.

    ``case`` is "plateau" (non-decreasing F, bound from h(1-)),
    "interior" (strictly increasing F with an interior optimum), or
    "inapplicable" with the failed hypothesis in ``reason``.
    """

    value: float | None
    case: str
    reason: str = ""

    @property
    def applicable(self):
        return self.value is not None


_F_OFFSET = 1e-6  # one-sided limits at a+ and 1- use this offset


def f_method_bound(density, config=None):
    if not density.is_radial:
        raise NotRadialError("the F-method requires radial data")
    consts = mass_constants(density.mass())
    a, y0 = consts.ratio, consts.log_inv_ratio

    def h(t):
        return density.generalized_inverse(None, t) ** 2

    def h_prime(t):
        step = _F_OFFSET * min(t - a, 1.0 - t, 1.0)
        step = max(step, 1e-12)
        return (h(t + step) - h(t - step)) / (2.0 * step)

    try:
        ts = a + (1.0 - a) * np.linspace(_F_OFFSET, 1.0 - _F_OFFSET, 25)
        hp = np.array([h_prime(t) for t in ts])
        if np.any(hp <= 0.0):
            raise HypothesisCheckError(
                "h' <= 0 somewhere on (a, 1): generalized inverse has plateaus")

        def ratio(t):
            return h(t) / h_prime(t)

        def f_func(x):
            return x + math.exp(x) * ratio(math.exp(-x))

        xs = np.linspace(_F_OFFSET * y0, (1.0 - _F_OFFSET) * y0, 33)
        fs = np.array([f_func(x) for x in xs])
        diffs = np.diff(fs)
        scale = max(abs(fs).max(), 1.0)
        ratio_at_one = ratio(1.0 - _F_OFFSET)

        if np.all(diffs >= -1e-9 * scale) and ratio_at_one >= y0:
            if density.has_compact_support:
                h_at_one = density.support_radius_from(density.center) ** 2
            else:
                h_at_one = h(1.0 - _F_OFFSET)
            return FMethodBound(float(h_at_one / (4.0 * y0)), "plateau")

        strictly_increasing = np.all(diffs > 0.0)
        cond_start = ratio_at_one < y0
        cond_end = ratio(a + _F_OFFSET * (1.0 - a)) > 0.0
        if strictly_increasing and cond_start and cond_end:
            lo, hi = xs[0], xs[-1]
            if not (f_func(lo) < y0 < f_func(hi)):
                raise HypothesisCheckError(
                    "F does not straddle ln(1/a) on the classification window")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f_func(mid) < y0:
                    lo = mid
                else:
                    hi = mid
            x0 = 0.5 * (lo + hi)
            return FMethodBound(float(h(math.exp(-x0)) / (4.0 * (y0 - x0))),
                                "interior")
        raise HypothesisCheckError(
            "F is neither non-decreasing with F(0+) >= ln(1/a) nor "
            "strictly increasing with an interior crossing")
    except HypothesisCheckError as exc:
        return FMethodBound(None, "inapplicable", str(exc))


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
    regime: str


def lower_bound_detail(density, p=math.inf, config=None):
    if not p > 1.0:
        raise InvalidExponentsError("lower bound requires p > 1")
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    a = consts.ratio
    norm_p = density.lp_norm(p)
    p_conj = _conjugate(p)

    def norm_for_qprime(qp):
        if qp == 1.0:
            return density.lp_norm(math.inf)
        return density.lp_norm(qp / (qp - 1.0))

    def neg_objective(qp):
        return -(qp / (4.0 * math.pi)) \
            * (consts.threshold / norm_for_qprime(qp)) ** qp

    qp_max = max(50.0, 4.0 / (1.0 - a))
    grid = np.geomspace(max(p_conj, 1.0), qp_max, config.qprime_grid)
    qp_star, neg_val = grid_then_golden(neg_objective, grid,
                                        rel_tol=config.rel_tol)
    sup_form = -neg_val
    if isinstance(density, dt.Gaussian):
        # the sharp-Young maximizer is explicit for gaussian data
        qp0 = 1.0 / (1.0 - a)
        if qp0 >= p_conj:
            cand = -neg_objective(qp0)
            if cand >= sup_form:
                sup_form, qp_star = cand, qp0

    if math.isinf(p) or p >= LOWER_REGIME_P0 \
            or consts.mass <= EIGHT_PI / (3.0 - 2.0 * math.exp(1.0 - 1.0 / p)):
        regime = "log"
        regime_form = (consts.mass / norm_p) ** p_conj \
            / (math.pi * math.e * 4.0 * consts.log_inv_ratio)
    else:
        regime = "power"
        regime_form = (p_conj / (4.0 * math.pi)) \
            * (consts.threshold / norm_p) ** p_conj

    return LowerBoundDetail(value=max(sup_form, regime_form),
                            sup_form=sup_form,
                            sup_maximizer_qprime=qp_star,
                            regime_form=regime_form,
                            regime=regime)


def lower_bound(density, p=math.inf, config=None):
    """Best lower bound on tc from Lp data (not a bound on the blow-up time)."""
    return lower_bound_detail(density, p, config).value


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
        if value is None:
            value, status, detail = math.nan, "inapplicable", "hypotheses failed"
    except (UnboundedSupportError, NotRadialError, HypothesisCheckError) as exc:
        value, status, detail = math.nan, "inapplicable", str(exc)
    except SubcriticalMassError:
        raise
    except KSBlowupError as exc:
        value, status, detail = math.nan, "failed", str(exc)
    return BoundEstimate(name=name, kind=kind, value=value,
                         assumptions=tuple(assumptions), status=status,
                         detail=detail, seconds=time.perf_counter() - t0)


_ROW_ORDER = ("lower", "tc", "virial", "tc1", "tc2", "tc3", "tc3_jung",
              "tc4", "f_method", "disk_asym_fixed_radius",
              "disk_asym_fixed_height")


def full_report(density, config=None, tolerance=1e-6):
    """Run every applicable estimator and assemble the ordered report."""
    config = config or _DEFAULT
    consts = mass_constants(density.mass())
    rows = []

    rows.append(_run_row(
        "lower", "lower", ("finite Lp norm",),
        lambda: lower_bound(density, math.inf, config)))

    tc2_state = {}

    def run_tc2():
        val, z = _tc2_search(density, config)
        tc2_state["z"] = z
        return val

    rows.append(_run_row("tc2", "upper", (), run_tc2))

    # seed tc with the tc2 optimizer so the report-level chain cannot be
    # broken by one search finding a better center than the other
    tc_config = config
    if "z" in tc2_state:
        tc_config = dataclasses.replace(
            config, extra_seeds=tuple(config.extra_seeds) + (tc2_state["z"],))
    rows.append(_run_row(
        "tc", "upper", (),
        lambda: _tc_search(density, tc_config)[0]))

    rows.append(_run_row(
        "virial", "upper",
        ("finite 2-moment", "bounds the blow-up time only, not tc"),
        lambda: virial_bound(density)))
    rows.append(_run_row(
        "tc1", "upper", (), lambda: tc1_bound(density, config)))

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
        lambda: tc4_bound(density, 2.0, config)))

    def run_f_method():
        outcome = f_method_bound(density, config)
        if not outcome.applicable:
            raise HypothesisCheckError(outcome.reason)
        return outcome.value

    rows.append(_run_row(
        "f_method", "upper", ("radial", "strictly increasing cumulative mass"),
        run_f_method))

    # near-critical disk: closed asymptotic references
    if isinstance(density, dt.DiskIndicator) \
            and consts.mass <= EIGHT_PI * 1.01:
        gap = consts.mass - EIGHT_PI
        rows.append(BoundEstimate(
            name="disk_asym_fixed_radius", kind="exact-reference",
            value=2.0 * math.pi * density.radius ** 2 / gap,
            assumptions=("asymptotic as mass -> 8*pi, radius fixed",)))
        rows.append(BoundEstimate(
            name="disk_asym_fixed_height", kind="exact-reference",
            value=16.0 * math.pi / (density.height * gap),
            assumptions=("asymptotic as mass -> 8*pi, height fixed",)))

    rows.sort(key=lambda r: _ROW_ORDER.index(r.name))

    report = BoundReport(label=density.label(), mass=consts.mass,
                         constants=consts, rows=rows, tolerance=tolerance)
    _check_ordering(report)
    return report


def _check_ordering(report):
    tc = report.computed("tc")
    if tc is None:
        return
    violations = []
    slack = 1.0 + report.tolerance
    for row in report.rows:
        if row.status != "computed":
            continue
        if row.kind == "lower" and row.value > tc * slack:
            violations.append(f"{row.name}={row.value:.9g} above tc={tc:.9g}")
        if row.name in _CHAIN_UPPERS and row.value * slack < tc:
            violations.append(f"{row.name}={row.value:.9g} below tc={tc:.9g}")
    report.violations = tuple(violations)
    report.ordering_ok = not violations
