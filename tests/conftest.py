import functools
import math
import os
import sys

import numpy as np
import pytest

import ksblowup as ks
from ksblowup import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import workloads  # noqa: E402

EIGHT_PI = 8.0 * math.pi


def analytic_families(mass):
    """One datum per analytic family, all carrying the given mass: the
    cases of ``ksblowup verify --suite ordering`` at that mass."""
    return {d.family: d for d in cli._ordering_cases((mass,))}


@functools.lru_cache(maxsize=None)
def analytic_report(name, mass):
    """``full_report`` of one analytic family at one mass, built once per
    session: the ordering criterion and the golden rows read the same
    reports."""
    return ks.full_report(analytic_families(mass)[name], tolerance=1e-6)


def disk_grid(n, height=16.0, radius=1.0, window=1.25, shift=(0.0, 0.0)):
    """Cell-center samples of a disk indicator on an n x n grid."""
    h = 2.0 * window / n
    xs = -window + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(xs, xs)
    vals = np.where(np.hypot(X - shift[0], Y - shift[1]) <= radius,
                    height, 0.0)
    return ks.CartesianGrid(vals, h, (-window + 0.5 * h, -window + 0.5 * h))


def two_bump_grid(n, mass=30.0 * math.pi, half=3.0):
    """Two unequal gaussian bumps, 65% and 35% of the mass, filling an
    n x n window; the lighter bump is the wider one."""
    h = 2.0 * half / n
    c = -half + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(c, c)
    vals = np.zeros_like(X)
    for (cx, cy), sigma, part in (((-0.9, 0.6), 0.35, 0.65),
                                  ((1.1, -0.8), 0.45, 0.35)):
        bump = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sigma ** 2))
        vals += part * mass * bump / (bump.sum() * h * h)
    return ks.CartesianGrid(vals, h, (float(c[0]), float(c[0])))


@functools.lru_cache(maxsize=None)
def pool_grid(kind, index):
    """Grid ``index`` of the benchmark's "dense" or "sparse" pool, built
    once per session."""
    entry = {"dense": workloads.dense_grid_entry,
             "sparse": workloads.sparse_grid_entry}[kind](index)
    return ks.CartesianGrid(*entry)


def mean_shift_step(grid, z, s):
    """One mean-shift step from z over a grid's cells, for
    `CartesianGrid.heat_mass_peak`, summed over the cells one by one."""
    xs, ys, w = grid.cell_coordinates()
    k = w * np.exp(-((xs - z[0]) ** 2 + (ys - z[1]) ** 2) / (4.0 * s))
    return float((k * xs).sum() / k.sum()), float((k * ys).sum() / k.sum())


def dilated_polygaussian(spec, lam):
    """A polygaussian spec dilated by ``lam``: the same mass, height
    times lam^(-2-2n) and rate over lam^2."""
    n = spec["power"]
    return {**spec, "height": spec["height"] * lam ** (-2 - 2 * n),
            "rate": spec["rate"] / lam ** 2}


@pytest.fixture(scope="session")
def families_16pi():
    return analytic_families(16.0 * math.pi)


@pytest.fixture(scope="session")
def gaussian_16pi():
    return ks.Gaussian(16.0 * math.pi, 1.0)


@pytest.fixture(scope="session")
def disk_16pi():
    return ks.DiskIndicator(16.0, 1.0)


@pytest.fixture(scope="session")
def small_disk_grid():
    return disk_grid(128)
