"""Panel-based Gauss-Legendre quadrature for radial integrands.

All integrals in this package reduce to smooth (or piecewise smooth) 1D
radial integrands on a finite interval after tail truncation, so fixed
high-order Gauss-Legendre nodes per panel reach near machine precision
as long as panel edges include every discontinuity and resolve the
relevant length scales.  Panels are deterministic, which keeps every
downstream report reproducible.
"""

import functools
import math

import numpy as np

DEFAULT_NODES = 32
_LADDER_PANELS = 24  # points of the geometric ladder in panel_edges


@functools.lru_cache(maxsize=None)
def _gl_nodes(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@functools.lru_cache(maxsize=None)
def circle_nodes(order):
    """(cos phi, pi * w): Gauss-Legendre angles phi on (0, pi) and
    weights that integrate an even function of phi over the full circle."""
    nodes, weights = _gl_nodes(order)
    return np.cos(0.5 * math.pi * (nodes + 1.0)), math.pi * weights


def _panel_rule(edges, order):
    """(nodes, weights), each of shape (panels, order): Gauss-Legendre
    rules of ``order`` nodes on the consecutive panels of ``edges``."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = _gl_nodes(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    return (lo[:, None] + half[:, None] * (nodes[None, :] + 1.0),
            half[:, None] * weights[None, :])


def panel_nodes(edges, order=DEFAULT_NODES):
    """Flattened quadrature nodes and weights over consecutive panels."""
    pts, wts = _panel_rule(edges, order)
    return pts.ravel(), wts.ravel()


def integrate_panels(fn, edges, order=DEFAULT_NODES):
    """Integrate a vectorized function over consecutive panels.

    Parameters
    ----------
    fn : callable
        Maps an ndarray of abscissae to an ndarray of values.
    edges : array_like
        Increasing panel boundaries; integration runs over
        [edges[0], edges[-1]].
    order : int
        Gauss-Legendre order per panel.
    """
    pts, wts = _panel_rule(edges, order)
    if pts.size == 0:
        return 0.0
    return float(np.sum(wts * fn(pts.ravel()).reshape(pts.shape)))


def panel_edges(breakpoints, upper, scale):
    """Build panel edges on [0, upper] for a radial integrand.

    ``breakpoints`` are mandatory edges (density discontinuities, knots).
    A geometric ladder anchored at the positive ``scale`` fills the smooth
    regions so that sharply peaked integrands near the origin stay resolved.
    """
    upper = float(upper)
    if upper <= 0.0:
        return np.array([0.0, 0.0])
    pts = {0.0, upper}
    for b in breakpoints:
        if 0.0 < b < upper:
            pts.add(float(b))
    lo = min(scale, upper) * 1e-3
    ladder = np.geomspace(lo, upper, _LADDER_PANELS)
    pts.update(ladder[:-1].tolist())
    # linear fill keeps wide tails from being covered by one huge panel
    pts.update(np.linspace(0.0, upper, 9)[1:-1].tolist())
    return np.array(sorted(pts))


def merged_edges(*edge_sets):
    """Union of several edge arrays, deduplicated and sorted."""
    pts = sorted({float(e) for edges in edge_sets for e in np.atleast_1d(edges)})
    return np.array(pts)
