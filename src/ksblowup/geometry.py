"""Enclosing-disk geometry for compactly supported data.

The smallest enclosing disk and the diameter of a point set are both
found on its convex hull.  The hull is Andrew's monotone chain, written
out here in plain floats: it is the one hull the package needs, a 2-D
one over at most a few thousand points, and importing ``scipy.spatial``
for it cost every process about 0.13 s and 12 MB.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

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


def _cross(o, a, b):
    """z-component of (a - o) x (b - o): positive on a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half_hull(points):
    """One chain of Andrew's monotone-chain walk over sorted points."""
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return chain


def _hull_vertices(pts):
    """The convex-hull vertices of ``pts``, counter-clockwise from the
    lexicographically smallest point, by Andrew's monotone chain.

    A point whose cross product with its chain neighbours is <= 0 is
    dropped, so points on an edge and repeated points are never vertices,
    and points all exactly on one line reduce to their two extremes.  The
    test takes the rounded cross product with no tolerance, so a point
    that rounding puts a hair outside an edge stays a vertex, where
    Qhull's merging would drop it; every point Qhull keeps is kept.
    """
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.r_[True, np.any(pts[1:] != pts[:-1], axis=1)]]
    if len(pts) <= 2:
        return pts
    walk = pts.tolist()
    lower = _half_hull(walk)
    upper = _half_hull(reversed(walk))
    return np.array(lower[:-1] + upper[:-1])


def support_geometry_of_points(points):
    """Enclosing disk and diameter of a point set, both found on its convex
    hull: a disk holds a set iff it holds the hull, and the farthest pair
    of points are hull vertices.

    The incremental build accepts a point up to a relative 1e-12 outside
    its disk, so the radius is widened to the farthest hull vertex from
    the disk's center: no point lies outside the returned disk.
    """
    hull = _hull_vertices(np.atleast_2d(np.asarray(points, dtype=float)))
    cx, cy, r0 = smallest_enclosing_disk(hull)
    r0 = max(r0, float(np.hypot(hull[:, 0] - cx, hull[:, 1] - cy).max()))
    return SupportGeometry(r0=r0, diameter=point_set_diameter(hull),
                           center=(cx, cy))
