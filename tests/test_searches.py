import ast
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

from ksblowup import searches
from ksblowup.searches import maximize_even, minimize_over_plane

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ksblowup"


def _traced(fn):
    calls = []

    def traced(delta):
        calls.append(delta)
        return fn(delta)

    return traced, calls


@pytest.mark.parametrize("fn, peak", [
    (lambda d: math.exp(-d * d), 0.0),
    (lambda d: math.exp(-(d - math.sqrt(2.0)) ** 2), math.sqrt(2.0)),
], ids=["peak_at_zero", "peak_on_ring"])
def test_maximize_even_returns_its_best_evaluation(fn, peak):
    traced, calls = _traced(fn)
    scan = np.linspace(0.0, 5.0, 17)
    val, delta = maximize_even(traced, scan)
    assert delta >= 0.0
    assert fn(delta) == val == max(fn(d) for d in calls)
    # fn is only ever asked about non-negative offsets, the scan first
    assert min(calls) >= 0.0
    assert calls[:len(scan)] == list(scan)
    assert delta == pytest.approx(peak, abs=1e-6)
    assert val >= max(fn(d) for d in np.linspace(0.0, 5.0, 4001))


def test_maximize_even_takes_a_best_offset_within_its_tolerance_as_zero():
    # a peak at 0 that rounding lifts just off it: the best offset the
    # refinement evaluates lies within its tolerance, 1e-8 of the scanned
    # range, of 0, so the result is 0 and the scan's fn(0)
    def fn(d):
        return 1.0 - d * d + (1e-15 if 0.0 < d <= 5e-8 else 0.0)

    traced, calls = _traced(fn)
    assert maximize_even(traced, np.linspace(0.0, 5.0, 17)) == (1.0, 0.0)
    assert any(0.0 < d <= 5e-8 for d in calls)


# ---------------------------------------------------------------------------
# the local minimizers are ports of scipy.optimize's: same calls, same bits
# ---------------------------------------------------------------------------

def _bits(values):
    """``repr`` of a result, which tells -0.0 from 0.0 and equates nans."""
    return repr(values)


def _scipy_maximize_even(fn, scan):
    """`maximize_even` as it was written on scipy.optimize.minimize_scalar."""
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
        options={"xatol": 1e-8 * scan[-1]})
    return tuple(best)


def _scipy_nelder_mead(fn, seed, max_iter):
    """One start of `minimize_over_plane` as it was written on
    scipy.optimize.minimize."""
    seed = np.asarray(seed, dtype=float)
    scale = 0.25 * (1.0 + np.abs(seed))
    simplex = np.tile(seed, (3, 1))
    simplex[1, 0] += scale[0]
    simplex[2, 1] += scale[1]
    res = optimize.minimize(
        lambda p: fn((p[0], p[1])), seed, method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": max_iter,
                 "initial_simplex": simplex})
    return (float(res.x[0]), float(res.x[1])), float(res.fun)


_EVEN_OBJECTIVES = {
    "smooth_ring": lambda d: math.exp(-(d - 1.3) ** 2 / 0.2),
    "peak_at_zero": lambda d: 1.0 / (1.0 + d * d),
    "plateau": lambda d: float(math.floor(4.0 - abs(d - 2.2))),
    "flat": lambda d: 2.5,
    "two_peaks": lambda d: math.exp(-(d - 0.7) ** 2) + 1.1 * math.exp(
        -(d - 3.9) ** 2 / 0.05),
    "peak_at_the_end": lambda d: d ** 3,
}


@pytest.mark.parametrize("name", sorted(_EVEN_OBJECTIVES))
@pytest.mark.parametrize("scan", [np.linspace(0.0, 5.0, 17),
                                  np.linspace(0.0, 0.3, 5)],
                         ids=["wide", "narrow"])
def test_maximize_even_repeats_scipy_bounded_brent(name, scan):
    # a peak at 0 is refined on the bracket [-scan[1], scan[1]]
    fn = _EVEN_OBJECTIVES[name]
    ours, our_calls = _traced(fn)
    theirs, their_calls = _traced(fn)
    assert _bits(maximize_even(ours, scan)) == _bits(
        _scipy_maximize_even(theirs, scan))
    assert our_calls == their_calls
    # the scan values may come from one batch; the refinement is the same
    ours, batch_calls = _traced(fn)
    vals = [fn(float(d)) for d in scan]
    assert _bits(maximize_even(ours, scan, vals)) == _bits(
        _scipy_maximize_even(fn, scan))
    assert batch_calls == their_calls[len(scan):]


@pytest.mark.parametrize("a, b, xatol", [
    (-3.0, 4.0, 1e-5), (0.1, 0.2, 1e-12), (-1e-3, 2.0, 0.0), (5.0, 5.5, 1e-2)])
@pytest.mark.parametrize("name", ["quadratic", "plateau", "cusp", "wavy",
                                  "nan"])
def test_fminbound_repeats_scipy(name, a, b, xatol):
    fn = {"quadratic": lambda x: (x - 0.31) ** 2,
          "plateau": lambda x: float(round(3.0 * x) ** 2),
          "cusp": lambda x: math.sqrt(abs(x - 1.7)),
          "wavy": lambda x: math.sin(7.0 * x) + 0.05 * x * x,
          "nan": lambda x: math.nan}[name]
    ours, our_calls = _traced(fn)
    theirs, their_calls = _traced(lambda x: fn(float(x)))
    res = optimize.minimize_scalar(theirs, method="bounded", bounds=(a, b),
                                   options={"xatol": xatol})
    assert _bits(searches._fminbound(ours, a, b, xatol)) == _bits(
        (float(res.x), float(res.fun)))
    assert our_calls == [float(x) for x in their_calls]


def test_fminbound_stops_at_scipys_call_cap():
    # at xatol = 0 the steps about a minimum at 0 shrink with |x| and
    # never settle, so both stop at 500 calls
    ours, our_calls = _traced(abs)
    theirs, their_calls = _traced(lambda x: abs(float(x)))
    res = optimize.minimize_scalar(theirs, method="bounded",
                                   bounds=(-1.0, 2.0), options={"xatol": 0.0})
    assert _bits(searches._fminbound(ours, -1.0, 2.0, 0.0)) == _bits(
        (float(res.x), float(res.fun)))
    assert our_calls == [float(x) for x in their_calls]
    assert len(our_calls) == 500


_PLANE_OBJECTIVES = {
    "smooth": lambda z: (z[0] - 0.4) ** 2 + 3.0 * (z[1] + 1.2) ** 2,
    "rosenbrock": lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2,
    # tied simplex values: the argsort order decides every step
    "flat": lambda z: 1.0,
    "terraces": lambda z: float(math.floor(abs(z[0] - 0.5) + abs(z[1]))),
    "wavy": lambda z: math.sin(3.0 * z[0]) * math.cos(2.0 * z[1])
    + 0.01 * z[0] ** 2,
    # infinite and nan values: the stopping test reads nan differences
    "walled": lambda z: math.inf if z[0] > 0.5 else z[0] ** 2 + z[1] ** 2,
    "nan": lambda z: math.nan,
}


@pytest.mark.parametrize("max_iter", [40, 80])
@pytest.mark.parametrize("name", sorted(_PLANE_OBJECTIVES))
@pytest.mark.parametrize("seed", [(0.0, 0.0), (-2.3, 1.7), (1e-3, 40.0)])
def test_nelder_mead_repeats_scipy(name, seed, max_iter):
    # the 40- and 80-iteration caps are those of the tc2 and tc searches
    fn = _PLANE_OBJECTIVES[name]
    ours, our_calls = _traced(fn)
    theirs, their_calls = _traced(fn)
    _, _, trace = minimize_over_plane(ours, [seed], max_iter=max_iter)
    assert _bits(trace) == _bits(
        [(seed, *_scipy_nelder_mead(theirs, seed, max_iter))])
    assert our_calls == their_calls


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

def test_no_module_imports_scipy_optimize():
    # the solvers are written out in searches; scipy serves only special
    # functions (datum)
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
                   for n in names):
                importers.add(path.stem)
    assert importers == set()


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # nothing the package imports pulls scipy.optimize in indirectly
    code = ("import sys, ksblowup.cli; "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_scipy_spatial_linalg_or_sparse():
    # the support hull is written out in geometry; scipy.special, the one
    # subpackage the package imports, pulls none of these in
    code = ("import sys, ksblowup.cli; "
            "loaded = [m for m in ('scipy.spatial', 'scipy.linalg', "
            "'scipy.sparse') if m in sys.modules]; "
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
