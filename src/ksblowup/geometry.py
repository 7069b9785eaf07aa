"""Enclosing-disk geometry for compactly supported data."""

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

# Inflation applied to containment tests so collinear/duplicate points do
# not trip the incremental algorithm on rounding noise.
_EPS = 1.0 + 1e-12

#: point pairs per block of the brute-force diameter
_PAIRS_PER_BLOCK = 1 << 18


@dataclass(frozen=True)
class SupportGeometry:
    """Smallest enclosing disk radius, support diameter, and disk center."""

    r0: float
    diameter: float
    center: tuple

    def __post_init__(self):
        if self.r0 < 0.0 or self.diameter < 0.0:
            raise ValueError("negative support geometry")


def _circle_from_two(a, b):
    cx = 0.5 * (a[0] + b[0])
    cy = 0.5 * (a[1] + b[1])
    r = math.hypot(a[0] - cx, a[1] - cy)
    return (cx, cy, r)


def _circle_from_three(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(ax - ux, ay - uy),
            math.hypot(bx - ux, by - uy),
            math.hypot(cx - ux, cy - uy))
    return (ux, uy, r)


def _contains(circle, p):
    return math.hypot(p[0] - circle[0], p[1] - circle[1]) <= circle[2] * _EPS


def smallest_enclosing_disk(points):
    """Smallest disk containing every point, via randomized incremental build.

    Returns ``(cx, cy, radius)``.  The input shuffle is seeded so repeated
    runs produce the same floating-point result.
    """
    pts = [(float(p[0]), float(p[1])) for p in np.atleast_2d(points)]
    if not pts:
        raise ValueError("no points")
    rng = random.Random(0)
    rng.shuffle(pts)

    circle = None
    for i, p in enumerate(pts):
        if circle is not None and _contains(circle, p):
            continue
        # p must lie on the boundary of the new disk
        circle = (p[0], p[1], 0.0)
        for j in range(i):
            q = pts[j]
            if _contains(circle, q):
                continue
            circle = _circle_from_two(p, q)
            for k in range(j):
                r = pts[k]
                if _contains(circle, r):
                    continue
                cand = _circle_from_three(p, q, r)
                if cand is not None:
                    circle = cand
    return circle


def point_set_diameter(points):
    """Largest pairwise distance, by brute force over the given points.

    Rows are taken in blocks of about ``_PAIRS_PER_BLOCK`` pairs, so the
    memory stays linear in the number of points; every pair is computed
    as in one n x n difference array, so the result is the same.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    step = max(1, _PAIRS_PER_BLOCK // len(pts))
    best = 0.0
    for i in range(0, len(pts), step):
        diff = pts[i:i + step, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((diff ** 2).sum(axis=2)).max()))
    return best


def _hull_vertices(pts):
    """The convex-hull vertices of ``pts``; ``pts`` itself when there are
    at most 16 points or the hull is degenerate, except that points all
    exactly on the line through the two lexicographic extremes reduce to
    those two."""
    if len(pts) <= 16:
        return pts
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        a, b = pts[order[0]], pts[order[-1]]
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) \
            - (b[1] - a[1]) * (pts[:, 0] - a[0])
        return pts[order[[0, -1]]] if np.all(cross == 0.0) else pts


def support_geometry_of_points(points):
    """Enclosing disk and diameter of a point set, both found on its convex
    hull: a disk holds a set iff it holds the hull, and the farthest pair
    of points are hull vertices."""
    hull = _hull_vertices(np.atleast_2d(np.asarray(points, dtype=float)))
    cx, cy, r0 = smallest_enclosing_disk(hull)
    return SupportGeometry(r0=r0, diameter=point_set_diameter(hull),
                           center=(cx, cy))
