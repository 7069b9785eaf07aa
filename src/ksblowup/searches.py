"""Derivative-free minimization helpers used by the bound estimators.

The one-dimensional objectives here (profile parameters of the bound
formulas) are smooth and unimodal in every worked example, so a coarse
deterministic grid followed by golden-section refinement certifies an
upper envelope of the true infimum.  Plane minimization over centers
uses multi-start Nelder-Mead and records its improvement trace.
"""

import math

import numpy as np
from scipy import optimize

GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_MAX_ITER = 200              # iteration cap of golden_section
_NM_XATOL, _NM_FATOL = 1e-7, 1e-12  # Nelder-Mead stopping tolerances


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
    grid = np.asarray(grid, dtype=float)
    vals = np.array([fn(x) for x in grid])
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
