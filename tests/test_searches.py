import ast
import math
import pathlib

import numpy as np
import pytest

from ksblowup.searches import maximize_even

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


def test_only_searches_imports_scipy_optimize():
    # every solver lives in searches; the estimators reach scipy's
    # optimizers through it
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
    assert importers == {"searches"}
