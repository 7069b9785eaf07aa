"""Every one-dimensional solver and the plane search of the estimators.

`invert_increasing` inverts an increasing function: factor-4 bracket
growth from a power of 4, then Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973).  It returns the upper end of
a bracket narrower than `_WIDTH_REL_TOL` times that end, a point where
the function was evaluated and reached the target, so an upper bound
read from it is on the safe side of the root.  `bisect` halves a
bracket on a monotone predicate until no float lies inside it.

`maximize_even` is the one offset search of radial data: ``tc`` and
``tc1`` see the center z only through delta = |z - center|, so each
scans delta, reads the center's value unless an offset beats it there,
and otherwise refines about the scan's best point.  That refinement is
the package's one: golden section about a coarse scan's best point,
returning the best point evaluated, refines the offset as it refines
theta, q', lam and q.  Those objectives are smooth and unimodal in
every worked example, so the value read certifies an upper envelope of
the infimum.  Grid ``tc2`` searches its center in the plane by
multi-start Nelder-Mead, which records a per-start trace.

`_nelder_mead` ports scipy 1.17's non-adaptive Nelder-Mead in two
variables step for step, in plain floats, so every report value keeps
its bits.  Importing ``scipy.optimize`` for it cost 0.2 s and 13 MB of
every start, and its wrapper more per probe than the loop.
"""

import math

import numpy as np

from .errors import BracketFailureError

GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_MAX_ITER = 200              # iteration cap of golden_section
_NM_XATOL, _NM_FATOL = 1e-7, 1e-12  # Nelder-Mead stopping tolerances
_S_MAX, _S_MIN = 4.0 ** 200, 4.0 ** -200  # the root finder's bracket limits
# the root finder stops once hi - lo <= _WIDTH_REL_TOL * hi
_WIDTH_REL_TOL = 1e-13


def invert_increasing(fn, target):
    """The upper end of a narrow bracket on fn(s) = target, fn increasing.

    The result is the upper end of a bracket [lo, hi] with
    fn(lo) < target <= fn(hi) and hi - lo <= _WIDTH_REL_TOL * hi, so it
    lies above the root by at most that width.  Should ``fn`` only
    estimate an increasing function from below, the result still
    carries an evaluation that reached the target.

    The bracket moves by factors of 4 from 1, within [4^-200, 4^200].
    """
    # the ends are exact powers of 4, so each keeps the value computed
    # when it was first reached
    lo = hi = 1.0
    f_lo = f_hi = fn(1.0) - target
    if f_hi < 0.0:
        while not f_hi >= 0.0:
            if hi >= _S_MAX:
                raise BracketFailureError("bracket growth budget exhausted")
            lo, f_lo = hi, f_hi
            hi *= 4.0
            f_hi = fn(hi) - target
    else:
        while not f_lo < 0.0:
            if lo <= _S_MIN:
                raise BracketFailureError("bracket shrink budget exhausted")
            hi, f_hi = lo, f_lo
            lo /= 4.0
            f_lo = fn(lo) - target
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


def maximize_even(fn, scan, vals=None):
    """(value, delta) of the largest fn(delta) found for fn even in delta.

    ``scan`` ascends from 0; ``vals``, fn on it from one batch, or the
    scan evaluated in order.  A scan with no value strictly above fn(0)
    returns (fn(0), 0) and refines nothing; any other is refined by
    `golden_about_scan` on -fn about its best point, which returns the
    best point evaluated, so fn(delta) equals the value returned.  The
    refinement's bracket lies in [0, scan[-1]], so ``fn`` is only called
    at non-negative offsets.
    """
    if vals is None:
        vals = [fn(float(d)) for d in scan]
    if not any(v > vals[0] for v in vals):
        return vals[0], 0.0
    delta, neg = golden_about_scan(lambda d: -fn(d), scan, [-v for v in vals])
    return -neg, delta


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

    ``fn`` takes a point as a pair of floats.  Returns (best_point,
    best_value, trace); the trace lists one (seed, optimum, value)
    triple per start, in seed order, so reports can carry a search
    certificate.
    """
    best_z, best_val = None, math.inf
    trace = []
    for seed in seeds:
        seed = (float(seed[0]), float(seed[1]))
        z, val = _nelder_mead(fn, seed, max_iter)
        trace.append((seed, z, val))
        if val < best_val:
            best_val = val
            best_z = z
    return best_z, best_val, trace


def _nelder_mead(fn, seed, max_iter):
    """(x, fn(x)) of the best vertex: scipy's ``_minimize_neldermead``,
    non-adaptive, N = 2, from a simplex with sides (1 + |seed|) / 4.
    The vertices are ordered by ``np.argsort`` as scipy orders them, so
    ties break alike."""
    x0, y0 = seed
    sim = [seed, (x0 + 0.25 * (1.0 + abs(x0)), y0),
           (x0, y0 + 0.25 * (1.0 + abs(y0)))]
    sim, fsim = _ordered(*_ordered(sim, [fn(v) for v in sim]))
    for _ in range(max_iter - 1):
        (bx, by), (mx, my), (wx, wy) = sim
        if all(abs(v) <= _NM_XATOL for v in (mx - bx, my - by, wx - bx, wy - by)) \
                and all(abs(fsim[0] - f) <= _NM_FATOL for f in fsim[1:]):
            break
        # reflect the worst vertex through the centroid of the others,
        # then expand by 2, contract by 1/2 or shrink by 1/2
        cx, cy = (bx + mx) / 2, (by + my) / 2
        xr = (2 * cx - wx, 2 * cy - wy)
        fxr = fn(xr)
        if fxr < fsim[0]:
            xe = (3 * cx - 2 * wx, 3 * cy - 2 * wy)
            fxe = fn(xe)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        else:
            outside = fxr < fsim[2]
            xc = (1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy) if outside \
                else (0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy)
            fxc = fn(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[2]):
                sim[2], fsim[2] = xc, fxc
            else:
                for j in (1, 2):
                    sim[j] = (bx + 0.5 * (sim[j][0] - bx),
                              by + 0.5 * (sim[j][1] - by))
                    fsim[j] = fn(sim[j])
        sim, fsim = _ordered(sim, fsim)
    return sim[0], float(np.min(fsim))


def _ordered(sim, fsim):
    order = np.argsort(fsim)
    return [sim[i] for i in order], [fsim[i] for i in order]
