"""Every one-dimensional solver and the plane search of the estimators.

`invert_increasing` inverts an increasing function: factor-4 bracket
growth from s = 1, then Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973).  It returns the upper end of
a bracket narrower than `_WIDTH_REL_TOL` times that end, a point where
the function was evaluated and reached the target, so an upper bound
read from it is on the safe side of the root.  `bisect` halves a
bracket on a monotone predicate until no float lies inside it.

`maximize_even` is the one offset search of radial data: ``tc``, ``tc1``
and ``tc2`` see the center z only through delta = |z - center|, so each
scans delta and refines about its best scan point with bounded Brent
minimization, returning the best offset it evaluated.  The other
one-dimensional objectives are smooth and unimodal in every worked
example, so a coarse grid then golden-section refinement certifies an
upper envelope of the infimum.  Centers in the plane are searched by
multi-start Nelder-Mead, which records a per-start trace.
"""

import math

import numpy as np
from scipy import optimize

from .errors import BracketFailureError

GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_MAX_ITER = 200              # iteration cap of golden_section
_NM_XATOL, _NM_FATOL = 1e-7, 1e-12  # Nelder-Mead stopping tolerances
_BRACKET_STEPS = 200     # factor-4 steps while growing or shrinking the bracket
# the root finder stops once hi - lo <= _WIDTH_REL_TOL * hi
_WIDTH_REL_TOL = 1e-13
_DELTA_XATOL = 1e-8  # offset tolerance of maximize_even, relative to the scanned range


def invert_increasing(fn, target):
    """The upper end of a narrow bracket on fn(s) = target, fn increasing.

    The result is the upper end of a bracket [lo, hi] with
    fn(lo) < target <= fn(hi) and hi - lo <= _WIDTH_REL_TOL * hi, so it
    lies above the root by at most that width.  Should ``fn`` only
    estimate an increasing function from below, the result still
    carries an evaluation that reached the target.
    """
    # geometric bracket growth from the natural time unit; the ends
    # are exact powers of 4, so each keeps the value computed when it
    # was first reached
    lo = hi = 1.0
    f_lo = f_hi = fn(1.0) - target
    if f_hi < 0.0:
        for _ in range(_BRACKET_STEPS):
            lo, f_lo = hi, f_hi
            hi *= 4.0
            f_hi = fn(hi) - target
            if f_hi >= 0.0:
                break
        else:
            raise BracketFailureError("bracket growth budget exhausted")
    else:
        for _ in range(_BRACKET_STEPS):
            hi, f_hi = lo, f_lo
            lo /= 4.0
            f_lo = fn(lo) - target
            if f_lo < 0.0:
                break
        else:
            raise BracketFailureError("bracket shrink budget exhausted")
    return _brent(fn, target, lo, f_lo, hi, f_hi)


def _brent(fn, target, a, fa, b, fb):
    """Brent's zero finder on fa < 0 <= fb, returning the end with f >= 0.

    ``b`` is the best iterate and ``c`` the opposite end of the bracket;
    ``a`` is the previous iterate, kept for the inverse quadratic step.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _WIDTH_REL_TOL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b if fb >= 0.0 else c
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            # secant step when only two points are distinct, else inverse
            # quadratic interpolation through a, b and c
            r = fb / fa
            if a == c:
                p, q = 2.0 * m * r, 1.0 - r
            else:
                qa, rb = fa / fc, fb / fc
                p = r * (2.0 * m * qa * (qa - rb) - (b - a) * (rb - 1.0))
                q = (qa - 1.0) * (rb - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b) - target
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a


def bisect(pred, lo, hi):
    """The narrowest float bracket (lo, hi) of a monotone predicate that
    is false at ``lo`` and true at ``hi``.

    Halves until the midpoint equals an end; from there no step could
    move either end, so the result is the fixed point of any longer run.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def maximize_even(fn, scan):
    """(value, delta) of the largest fn(delta) found for fn even in delta.

    ``scan`` ascends from 0.  It is evaluated in order, then bounded
    Brent minimization of -fn refines about the best scan point; a peak
    at 0 is refined on [-scan[1], scan[1]].  ``fn`` is only called at
    |delta|, and the result is the best point evaluated, so fn(delta)
    equals the value returned.
    """
    best = [-math.inf, float(scan[0])]

    def neg(delta):
        delta = abs(float(delta))
        val = fn(delta)
        if val > best[0]:
            best[:] = [val, delta]
        return -val

    k = int(np.argmin([neg(d) for d in scan]))
    optimize.minimize_scalar(
        neg, method="bounded",
        bounds=(scan[k - 1] if k else -scan[1], scan[min(k + 1, len(scan) - 1)]),
        options={"xatol": _DELTA_XATOL * scan[-1]})
    return tuple(best)


def golden_section(fn, lo, hi, rel_tol=1e-9):
    """Minimize a unimodal function on [lo, hi]; returns (x, fn(x))."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if abs(b - a) <= rel_tol * (abs(a) + abs(b) + 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    if fc < fd:
        return c, fc
    return d, fd


def grid_then_golden(fn, grid):
    """Coarse scan of a 1D grid, then golden refinement around the minimum.

    Handles mildly multimodal objectives; the grid pins the basin and the
    golden stage polishes it.  Infinite values are allowed.
    """
    return golden_about_scan(fn, grid, [fn(x) for x in grid])


def golden_about_scan(fn, grid, vals):
    """The golden stage of ``grid_then_golden``, given fn's values on the
    grid, for a caller that evaluates its scan in one batch."""
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    k = int(np.argmin(vals))
    if not np.isfinite(vals[k]):
        return float(grid[k]), float(vals[k])
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    if lo == hi:
        return float(grid[k]), float(vals[k])
    x, fx = golden_section(fn, lo, hi)
    if vals[k] < fx:
        return float(grid[k]), float(vals[k])
    return x, fx


def minimize_over_plane(fn, seeds, max_iter=120):
    """Multi-start Nelder-Mead over the plane.

    Returns (best_point, best_value, trace); the trace lists one
    (seed, optimum, value) triple per start, in seed order, so reports
    can carry a search certificate.
    """
    best_z, best_val = None, math.inf
    trace = []
    for seed in seeds:
        seed = np.asarray(seed, dtype=float)
        res = optimize.minimize(
            lambda p: fn((p[0], p[1])), seed, method="Nelder-Mead",
            options={"xatol": _NM_XATOL, "fatol": _NM_FATOL,
                     "maxiter": max_iter,
                     "initial_simplex": _simplex(seed)})
        val = float(res.fun)
        trace.append(((float(seed[0]), float(seed[1])),
                      (float(res.x[0]), float(res.x[1])), val))
        if val < best_val:
            best_val = val
            best_z = (float(res.x[0]), float(res.x[1]))
    return best_z, best_val, trace


def _simplex(seed):
    scale = 0.25 * (1.0 + np.abs(seed))
    simplex = np.tile(seed, (3, 1))
    simplex[1, 0] += scale[0]
    simplex[2, 1] += scale[1]
    return simplex
