"""Seeded inputs for the benchmark workloads.

Each workload draws its inputs from a fixed pool of entries.  Entry
parameters come from ``numpy.random.default_rng`` seeded by the pool
index alone, so every entry is the same on every machine and the
reference row values in ``reference.json`` cover any workload seed.
The workload seed only decides which entries form a run's cycle and in
what order.  The program under test receives only the files that
``write_cycle`` produces: spec ``.json`` files and grid ``.npy`` arrays.

A cycle item is a dict with the pool ``id``, the ``argv`` that follows
``ksblowup`` and names the written spec file, the ``family`` and the
family parameters the checker needs for the oracle comparison.

This module needs only numpy, so inputs are made before the measured
process starts.
"""

import json
import math
import os

import numpy as np

EIGHT_PI = 8.0 * math.pi

#: radial masses are log-uniform in (8 pi, 100 pi]
MASS_MAX = 100.0 * math.pi
#: near-critical masses sit in (8 pi (1 + 1e-3), 9 pi]
NEAR_CRITICAL_MAX = 9.0 * math.pi

RADIAL_FAMILIES = ("annulus", "polygaussian", "diffgaussians",
                   "radial_profile")
#: per radial family: entries 0..NEAR-1 are near-critical, the rest span
#: the whole supercritical range
RADIAL_POOL = 8
RADIAL_NEAR = 3

GRID_POOL = 12
SWEEP_POOL = 6
SWEEP_FAMILIES = ("gaussian", "disk", "polygaussian")
SWEEP_STEPS = 24

DENSE_N = 160
DENSE_HALF = 3.0
SPARSE_N = 1024
SPARSE_HALF = 8.0


def _rng(*key):
    return np.random.default_rng([_hash_key(k) for k in key])


def _hash_key(value):
    """Stable integer for a pool key (str hashing is salted per process)."""
    if isinstance(value, int):
        return value
    return int.from_bytes(value.encode(), "little") % (2 ** 63)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _radial_mass(rng, index):
    if index < RADIAL_NEAR:
        return _log_uniform(rng, EIGHT_PI * (1.0 + 1e-3), NEAR_CRITICAL_MAX)
    return _log_uniform(rng, NEAR_CRITICAL_MAX, MASS_MAX)


def _profile_mass(radii, values):
    """Exact mass of a piecewise-linear radial profile."""
    total = 0.0
    for r0, r1, v0, v1 in zip(radii, radii[1:], values, values[1:]):
        slope = (v1 - v0) / (r1 - r0)
        a = v0 - slope * r0
        total += a * (r1 ** 2 - r0 ** 2) / 2.0 + slope * (r1 ** 3 - r0 ** 3) / 3.0
    return 2.0 * math.pi * total


def radial_entry(family, index):
    """Non-monotone radial datum with a seeded mass; returns (spec, params)."""
    rng = _rng("radial", family, index)
    mass = _radial_mass(rng, index)
    if family == "annulus":
        r_inner = float(rng.uniform(0.5, 1.5))
        r_outer = r_inner + float(rng.uniform(0.5, 1.5))
        params = {"height": mass / (math.pi * (r_outer ** 2 - r_inner ** 2)),
                  "r_inner": r_inner, "r_outer": r_outer}
    elif family == "polygaussian":
        power = int(rng.integers(1, 3))
        rate = float(rng.uniform(0.5, 2.0))
        params = {"height": mass * rate ** (power + 1)
                  / (math.pi * math.factorial(power)),
                  "power": power, "rate": rate}
    elif family == "diffgaussians":
        rate_slow = float(rng.uniform(0.5, 1.5))
        rate_fast = rate_slow * float(rng.uniform(1.5, 3.0))
        params = {"height": mass * rate_slow * rate_fast / math.pi,
                  "rate_slow": rate_slow, "rate_fast": rate_fast}
    elif family == "radial_profile":
        # five knots, the largest value on the second or third knot, so
        # the profile peaks off the origin
        steps = rng.uniform(0.3, 0.8, size=4)
        radii = [0.0] + np.cumsum(steps).tolist()
        peak = int(rng.integers(1, 3))
        values = rng.uniform(0.1, 0.6, size=5)
        values[peak] = 1.0
        values[-1] = 0.0
        scale = mass / _profile_mass(radii, values.tolist())
        params = {"radii": radii, "values": (values * scale).tolist()}
    else:
        raise ValueError(f"unknown radial family {family!r}")
    spec = {"family": family, **params}
    return spec, params


def _grid_axes(n, half):
    h = 2.0 * half / n
    c = -half + h * (np.arange(n) + 0.5)
    return c, h


def dense_grid_entry(index):
    """Two unequal gaussian bumps filling a DENSE_N^2 window."""
    rng = _rng("grid_dense", index)
    c, h = _grid_axes(DENSE_N, DENSE_HALF)
    x, y = np.meshgrid(c, c)
    mass = _log_uniform(rng, 12.0 * math.pi, 60.0 * math.pi)
    share = float(rng.uniform(0.55, 0.75))  # the larger bump's mass share
    while True:
        centres = rng.uniform(-1.6, 1.6, size=(2, 2))
        if np.hypot(*(centres[0] - centres[1])) >= 1.5:
            break
    sigmas = rng.uniform(0.3, 0.5, size=2)
    values = np.zeros_like(x)
    for (cx, cy), sigma, part in zip(centres, sigmas, (share, 1.0 - share)):
        bump = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma ** 2))
        values += part * mass * bump / (bump.sum() * h * h)
    if not np.all(values > 0.0):
        raise ValueError("dense grid entry has empty cells")
    return values, h, (float(c[0]), float(c[0]))


def sparse_grid_entry(index):
    """Two small disks in a wide SPARSE_N^2 window: about 2% of cells."""
    rng = _rng("grid_sparse", index)
    c, h = _grid_axes(SPARSE_N, SPARSE_HALF)
    x, y = np.meshgrid(c, c)
    mass = _log_uniform(rng, 12.0 * math.pi, 60.0 * math.pi)
    share = float(rng.uniform(0.55, 0.75))
    while True:
        centres = rng.uniform(-6.5, 6.5, size=(2, 2))
        if np.hypot(*(centres[0] - centres[1])) >= 3.0:
            break
    radii = rng.uniform(0.8, 1.0, size=2)
    values = np.zeros_like(x)
    for (cx, cy), r, part in zip(centres, radii, (share, 1.0 - share)):
        inside = (x - cx) ** 2 + (y - cy) ** 2 <= r * r
        values[inside] += part * mass / (inside.sum() * h * h)
    return values, h, (float(c[0]), float(c[0]))


def sweep_entry(family, index):
    """Monotone radial sweep whose every step is supercritical.

    Every sweep spans about the same mass range, (9-10) pi to (90-100) pi,
    so sweeps cost about the same and a run's cost does not hinge on
    which entries the seed picks; the family's shape parameter varies.
    """
    rng = _rng("sweep", family, index)
    lo_mass = float(rng.uniform(9.0, 10.0)) * math.pi
    hi_mass = float(rng.uniform(90.0, 100.0)) * math.pi
    if family == "gaussian":
        sigma = float(rng.uniform(0.5, 2.0))
        params = {"sigma": sigma}
        spec = {"family": "gaussian", "mass": lo_mass, "sigma": sigma}
        param, start, stop = "mass", lo_mass, hi_mass
    elif family == "disk":
        height = float(rng.uniform(5.0, 40.0))
        params = {"height": height}
        spec = {"family": "disk", "height": height, "radius": 1.0}
        param = "R"
        start = math.sqrt(lo_mass / (math.pi * height))
        stop = math.sqrt(hi_mass / (math.pi * height))
    elif family == "polygaussian":
        # power 0 is the monotone member; the CLI's "sigma" sweep of this
        # family varies the height
        rate = float(rng.uniform(0.5, 2.0))
        params = {"power": 0, "rate": rate}
        spec = {"family": "polygaussian", "height": lo_mass * rate / math.pi,
                "power": 0, "rate": rate}
        param, start, stop = "sigma", lo_mass * rate / math.pi, \
            hi_mass * rate / math.pi
    else:
        raise ValueError(f"unknown sweep family {family!r}")
    sweep = {"param": param, "start": start, "stop": stop,
             "steps": SWEEP_STEPS}
    return spec, params, sweep


# ---------------------------------------------------------------------------
# input kinds and workloads
# ---------------------------------------------------------------------------

#: Why each kind of input is in the benchmark.
KIND_WHY = {
    # Off-centre Bessel quadrature, inversion and the 2-D centre search do
    # most of the work; the tc row needs about 20 H evaluations per
    # inversion and tc1 about a second per report.  No grid code runs.
    "radial_ring": "non-monotone radial data: off-centre quadrature, "
                   "inversion and the 2-D centre search dominate",
    # The grid H sum over all n^2 cells, the grid cumulative-mass and
    # generalized-inverse argsorts and Welzl on every cell dominate; the
    # two basins show whether a faster search picks the wrong one.
    "grid_dense": "grid with mass in every cell and two unequal bumps: "
                  "cost scales with n^2 and the search has two basins",
    # Same grid layer, but cost scales with the non-zero cells, not n^2:
    # a dense-array rewrite that wins on grid_dense must show here
    # whether it loses.
    "grid_sparse": "1024^2 grid with two small disks (about 2% non-zero "
                   "cells): grid cost that scales with non-zero cells",
    # Closed-form H, report assembly, the centre-only tc1, CSV output and
    # the sweep's thread pool dominate; quadrature, the plane search and
    # geometry do almost nothing, so this bypasses those layers.
    "sweep_closed": "sweeps over monotone radial families: closed-form H, "
                    "report assembly and the sweep thread pool dominate",
}

#: The input kinds each workload takes its rounds from.  ``bound_mix``
#: puts the three ``bound`` kinds in one workload, one item of each per
#: round, so that it can measure for longer than three separate
#: workloads could in the same time; ``run.py`` still prints each kind's
#: figures on their own.
WORKLOAD_KINDS = {
    "bound_mix": ("radial_ring", "grid_dense", "grid_sparse"),
    "sweep_closed": ("sweep_closed",),
}

#: Why each workload exists.
WHY = {
    "bound_mix": "bound on radial, dense-grid and sparse-grid data in "
                 "turn: quadrature, plane search, grid sums and geometry",
    "sweep_closed": KIND_WHY["sweep_closed"],
}


def radial_cycle(seed):
    """Two entries per family, one near-critical and one from the whole
    range, so every run has the same family mix; families repeat in a
    fixed order, so any prefix of the cycle stays mixed."""
    rng = np.random.default_rng(seed)
    near_first = rng.permutation(len(RADIAL_FAMILIES))[:2].tolist()
    first, second = [], []
    for k, family in enumerate(RADIAL_FAMILIES):
        near = (family, int(rng.integers(0, RADIAL_NEAR)))
        regular = (family, int(rng.integers(RADIAL_NEAR, RADIAL_POOL)))
        a, b = (near, regular) if k in near_first else (regular, near)
        first.append(a)
        second.append(b)
    return first + second


def grid_cycle(seed, kind):
    """Every pool entry, in an order seeded by the seed and the kind."""
    rng = np.random.default_rng([seed, _hash_key(kind)])
    return [int(i) for i in rng.permutation(GRID_POOL)]


def sweep_cycle(seed):
    """Every pool entry, families interleaved, each family in seeded order."""
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(SWEEP_POOL).tolist() for _ in SWEEP_FAMILIES]
    return [(family, int(order[k])) for k in range(SWEEP_POOL)
            for family, order in zip(SWEEP_FAMILIES, orders)]


def _dump(path, spec):
    with open(path, "w") as fh:
        json.dump(spec, fh)


def _grid_item(kind, index, out_dir):
    maker = dense_grid_entry if kind == "grid_dense" else sparse_grid_entry
    values, h, origin = maker(index)
    stem = f"{kind}-{index}"
    np.save(os.path.join(out_dir, stem + ".npy"), values)
    spec = {"family": "grid",
            "grid": {"path": stem + ".npy", "rows": values.shape[0],
                     "cols": values.shape[1], "cell_size": h,
                     "origin": list(origin)}}
    path = os.path.join(out_dir, stem + ".json")
    _dump(path, spec)
    return {"id": stem, "kind": kind, "family": "grid", "params": {},
            "argv": ["bound", path, "--format", "json"]}


def write_item(kind, key, out_dir):
    """Write the input files of one pool entry; returns its cycle item."""
    if kind in ("grid_dense", "grid_sparse"):
        return _grid_item(kind, key, out_dir)
    family, index = key
    if kind == "radial_ring":
        spec, params = radial_entry(family, index)
        stem = f"{family}-{index}"
        path = os.path.join(out_dir, stem + ".json")
        _dump(path, spec)
        return {"id": stem, "kind": kind, "family": family,
                "params": params, "argv": ["bound", path, "--format", "json"]}
    if kind == "sweep_closed":
        spec, params, sweep = sweep_entry(family, index)
        stem = f"sweep-{family}-{index}"
        path = os.path.join(out_dir, stem + ".json")
        _dump(path, spec)
        return {"id": stem, "kind": kind, "family": family,
                "params": params, "sweep": sweep,
                "argv": ["sweep", path, "--param", sweep["param"],
                         "--from", repr(sweep["start"]),
                         "--to", repr(sweep["stop"]),
                         "--steps", str(sweep["steps"]), "--log"]}
    raise ValueError(f"unknown input kind {kind!r}")


def kind_cycle(kind, seed):
    """Pool keys of one cycle of ``kind``, in run order."""
    if kind == "radial_ring":
        return radial_cycle(seed)
    if kind in ("grid_dense", "grid_sparse"):
        return grid_cycle(seed, kind)
    if kind == "sweep_closed":
        return sweep_cycle(seed)
    raise ValueError(f"unknown input kind {kind!r}")


def cycle_keys(workload, seed):
    """(kind, pool key) of one cycle of ``workload``, in run order.

    Round k holds the k-th key of every kind of the workload; the cycle
    has as many rounds as it takes for every kind's cycle to come round
    whole, so repeating it weights every pool entry of a kind alike.
    """
    if workload not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload {workload!r}")
    cycles = [(kind, kind_cycle(kind, seed))
              for kind in WORKLOAD_KINDS[workload]]
    rounds = math.lcm(*(len(keys) for _, keys in cycles))
    return [(kind, keys[k % len(keys)])
            for k in range(rounds) for kind, keys in cycles]


def pool_keys(kind):
    """Every pool key of ``kind``, for recording reference values."""
    if kind == "radial_ring":
        return [(f, i) for f in RADIAL_FAMILIES for i in range(RADIAL_POOL)]
    if kind in ("grid_dense", "grid_sparse"):
        return list(range(GRID_POOL))
    if kind == "sweep_closed":
        return [(f, i) for f in SWEEP_FAMILIES for i in range(SWEEP_POOL)]
    raise ValueError(f"unknown input kind {kind!r}")


#: the traced run makes one untraced and one traced pass over this many
#: leading items of the cycle, a fixed amount of work per seed: one item
#: of each kind of ``bound_mix``, one sweep of each family
TRACE_ITEMS = 3


def write_cycle(workload, seed, out_dir):
    """Write the inputs of one cycle of ``workload`` into ``out_dir``;
    each pool entry is written once however often the cycle holds it."""
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    items = []
    for kind, key in cycle_keys(workload, seed):
        if (kind, str(key)) not in written:
            written[kind, str(key)] = write_item(kind, key, out_dir)
        items.append(written[kind, str(key)])
    return items
