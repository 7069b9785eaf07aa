"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps public entry points of the ``ksblowup`` layers from
outside the package.  A name is patched everywhere it is looked up: a
function imported by name into another module (``bounds`` imports
``minimize_over_plane``; ``heatmass`` and ``datum`` import
``integrate_panels``) is replaced in every module that holds it, and a
method is replaced on every class that defines it.  A target that no
longer exists is skipped and listed in ``missing``, so its metrics are
reported as absent.

Each span records its name, start, end, parent span and a report id.
Spans live in memory until the run ends.  The recorder is safe under
the sweep's worker threads: each thread keeps its own stack of open
spans, and a thread with no open span parents its spans to the span the
main thread has open, which is the sweep waiting on its pool.
"""

import functools
import importlib
import inspect
import math
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent report extra")

#: estimator rows whose own ``seconds`` field is reported per layer
ROW_NAMES = ("lower", "tc", "virial", "tc1", "tc2", "tc3", "tc3_jung", "tc4",
             "f_method")


class SpanRecorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans = []
        self.rows = []       # BoundReport rows of every traced full_report
        self.missing = []    # targets that could not be patched
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def suppressed(self):
        return getattr(self._local, "suppressed", False)

    def untraced(self, fn, *args):
        """Call ``fn`` on this thread without recording spans."""
        self._local.suppressed = True
        try:
            return fn(*args)
        finally:
            self._local.suppressed = False

    def open(self, name, new_report=False):
        stack = self._stack()
        outer = stack or self._main_stack
        parent, report = (outer[-1][0], outer[-1][2]) if outer else (None, None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if new_report or report is None:
            report = sid
        frame = [sid, name, report, {}, time.perf_counter(), parent]
        stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        sid, name, report, extra, start, parent = frame
        span = Span(sid, name, start, end, parent, report, extra or None)
        with self._lock:
            self.spans.append(span)

    def add_rows(self, rows):
        """Keep one report's (row name, seconds) pairs."""
        with self._lock:
            self.rows.append(rows)

    def wrap(self, name, fn, new_report=False, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a callable of the call's arguments.
        ``before(extra, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``after(extra, result, args, kwargs)`` fills in
        counts once the call returns.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.suppressed:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            frame = rec.open(label, new_report)
            try:
                if before is not None:
                    args, kwargs = before(frame[3], args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(frame[3], result, args, kwargs)
                return result
            finally:
                rec.close(frame)

        return wrapper


class Patcher:
    """Replaces functions and methods in loaded modules; undoes on exit."""

    def __init__(self, modules):
        self.modules = modules
        self._undo = []

    def function(self, module, attr, make_wrapper):
        """Wrap ``module.attr`` in every module that refers to it."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
        return True

    def method(self, classes, attr, make_wrapper):
        """Wrap ``attr`` on every class in ``classes`` that defines it."""
        found = False
        for cls in classes:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            found = True
            self._undo.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original))
        return found

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def _count_objective(extra, args, kwargs):
    """Before-hook that counts calls to the objective passed first."""
    fn = args[0]

    def counted(*a, **k):
        extra["fn_calls"] = extra.get("fn_calls", 0) + 1
        return fn(*a, **k)

    return (counted,) + tuple(args[1:]), kwargs


def _evaluate_kind(curve, *args, **kwargs):
    """Span name of an H evaluation, by input kind rather than code path."""
    d = curve.datum
    if hasattr(d, "cell_coordinates"):
        return "heatmass.evaluate.grid"
    c = d.center
    if math.hypot(curve.z[0] - c[0], curve.z[1] - c[1]) != 0.0:
        return "heatmass.evaluate.radial_offcentre"
    return "heatmass.evaluate.radial_centred"


def install(rec, package):
    """Patch the layers of ``package`` (the imported ``ksblowup``)."""
    mods = {name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("cli", "bounds", "heatmass", "searches",
                         "quadrature", "datum", "geometry")}
    patcher = Patcher(list(mods.values()))
    heatmass, datum, bounds = mods["heatmass"], mods["datum"], mods["bounds"]
    datum_classes = [c for c in vars(datum).values()
                     if inspect.isclass(c) and c.__module__ == datum.__name__]

    def need(ok, target):
        if not ok:
            rec.missing.append(target)

    # -- heatmass ---------------------------------------------------------
    def after_eval(extra, result, args, kwargs):
        d = args[0].datum
        if hasattr(d, "cell_coordinates"):
            extra["cell_evals"] = len(d.cell_coordinates()[2])

    def after_invert(extra, result, args, kwargs):
        curve, target = args[0], args[1]
        value = rec.untraced(curve.evaluate, result)
        extra["short"] = 1 if value < target else 0

    curves = [c for c in (getattr(heatmass, "HeatMassCurve", None),) if c]
    original_evaluate = curves[0].__dict__.get("evaluate") if curves else None
    evaluate = rec.wrap(_evaluate_kind, original_evaluate, after=after_eval) \
        if original_evaluate else None
    need(patcher.method(curves, "evaluate", lambda f: evaluate),
         "heatmass.HeatMassCurve.evaluate")
    # ``__call__`` is bound to the same function at class creation
    if evaluate and curves[0].__dict__.get("__call__") is original_evaluate:
        patcher.method(curves, "__call__", lambda f: evaluate)
    need(patcher.method(curves, "invert", lambda f: rec.wrap(
        "heatmass.invert", f, after=after_invert)),
        "heatmass.HeatMassCurve.invert")

    # -- searches ---------------------------------------------------------
    searches = mods["searches"]

    def after_plane(extra, result, args, kwargs):
        seeds = args[1] if len(args) > 1 else kwargs["seeds"]
        _, best, trace = result
        extra["starts"] = len(seeds)
        extra["best_hits"] = sum(
            1 for _, _, v in trace
            if v <= best + 1e-9 * max(abs(best), 1e-300))

    need(patcher.function(searches, "minimize_over_plane", lambda f: rec.wrap(
        "searches.plane", f, before=_count_objective, after=after_plane)),
        "searches.minimize_over_plane")
    for attr, label in (("golden_section", "searches.golden"),
                        ("grid_then_golden", "searches.grid_then_golden")):
        need(patcher.function(searches, attr, lambda f, label=label: rec.wrap(
            label, f, before=_count_objective)), f"searches.{attr}")

    # -- quadrature -------------------------------------------------------
    quadrature = mods["quadrature"]

    def after_panels(extra, result, args, kwargs):
        edges = args[1] if len(args) > 1 else kwargs["edges"]
        order = args[2] if len(args) > 2 else kwargs.get(
            "order", quadrature.DEFAULT_NODES)
        extra["nodes"] = max(len(edges) - 1, 0) * order

    need(patcher.function(quadrature, "integrate_panels", lambda f: rec.wrap(
        "quadrature.integrate_panels", f, after=after_panels)),
        "quadrature.integrate_panels")
    need(patcher.function(quadrature, "panel_nodes", lambda f: rec.wrap(
        "quadrature.panel_nodes", f)), "quadrature.panel_nodes")

    # -- datum ------------------------------------------------------------
    for attr in ("radial_mass", "generalized_inverse", "support_geometry"):
        need(patcher.method(datum_classes, attr, lambda f, attr=attr: rec.wrap(
            f"datum.{attr}", f)), f"datum.{attr}")

    # -- geometry ---------------------------------------------------------
    geometry = mods["geometry"]

    def after_disk(extra, result, args, kwargs):
        extra["points"] = len(args[0])

    need(patcher.function(geometry, "smallest_enclosing_disk", lambda f: rec.wrap(
        "geometry.enclosing_disk", f, after=after_disk)),
        "geometry.smallest_enclosing_disk")
    need(patcher.function(geometry, "point_set_diameter", lambda f: rec.wrap(
        "geometry.diameter", f)), "geometry.point_set_diameter")

    # -- bounds -----------------------------------------------------------
    def after_report(extra, result, args, kwargs):
        rec.add_rows([(r.name, r.seconds) for r in result.rows])

    need(patcher.function(bounds, "full_report", lambda f: rec.wrap(
        "bounds.report", f, new_report=True, after=after_report)),
        "bounds.full_report")
    need(patcher.function(bounds, "_snapshot", lambda f: rec.wrap(
        "bounds.snapshot", f)), "bounds._snapshot")

    # -- cli --------------------------------------------------------------
    cli = mods["cli"]
    need(patcher.function(cli, "main", lambda f: rec.wrap(
        "cli.main", f, new_report=True)), "cli.main")
    need(patcher.function(cli, "load_datum", lambda f: rec.wrap(
        "cli.load_datum", f)), "cli.load_datum")
    for attr in ("report_to_json", "report_to_csv"):
        need(patcher.function(cli, attr, lambda f: rec.wrap(
            "cli.serialize", f)), f"cli.{attr}")
    need(patcher.function(cli, "cmd_sweep", lambda f: rec.wrap(
        "cli.sweep", f)), "cli.cmd_sweep")
    return patcher


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part its (possibly overlapping)
    child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start)
            - covered_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


#: span name -> (patch target, per-report statistics).  ``n`` counts
#: spans, ``self_s`` sums self time, ``s`` sums wall time, and any other
#: key sums the count the span recorded under that key.  When the patch
#: target is missing, the span's metrics are absent.
_LAYERS = {
    "heatmass.evaluate.radial_offcentre": (
        "heatmass.HeatMassCurve.evaluate", ("n", "self_s")),
    "heatmass.evaluate.radial_centred": (
        "heatmass.HeatMassCurve.evaluate", ("n", "self_s")),
    "heatmass.evaluate.grid": (
        "heatmass.HeatMassCurve.evaluate", ("n", "self_s", "cell_evals")),
    "heatmass.invert": ("heatmass.HeatMassCurve.invert", ("n", "self_s")),
    "searches.plane": ("searches.minimize_over_plane",
                       ("n", "starts", "fn_calls", "self_s")),
    "searches.golden": ("searches.golden_section",
                        ("n", "fn_calls", "self_s")),
    "searches.grid_then_golden": ("searches.grid_then_golden",
                                  ("n", "fn_calls", "self_s")),
    "quadrature.integrate_panels": ("quadrature.integrate_panels",
                                    ("n", "nodes", "self_s")),
    "quadrature.panel_nodes": ("quadrature.panel_nodes", ("n",)),
    "datum.radial_mass": ("datum.radial_mass", ("n", "self_s")),
    "datum.generalized_inverse": ("datum.generalized_inverse",
                                  ("n", "self_s")),
    "datum.support_geometry": ("datum.support_geometry", ("n", "self_s")),
    "geometry.enclosing_disk": ("geometry.smallest_enclosing_disk",
                                ("n", "points", "self_s")),
    "geometry.diameter": ("geometry.point_set_diameter", ("self_s",)),
    "bounds.snapshot": ("bounds._snapshot", ("n", "self_s")),
    "bounds.report": ("bounds.full_report", ("self_s",)),
    "cli.load_datum": ("cli.load_datum", ("s",)),
    "cli.serialize": ("cli.report_to_json", ("s",)),
    "cli.sweep": ("cli.cmd_sweep", ("self_s",)),
}


def metric_unit(name):
    """Unit of a per-layer metric name."""
    if name.endswith("_frac"):
        return "fraction"
    if name == "heatmass.evals_per_invert":
        return "count/invert"
    if name.endswith((".s", ".self_s")):
        return "s/report"
    return "count/report"


def layer_metrics(spans, rows, reports, missing=()):
    """Per-layer metrics, per report, from the spans of a traced pass.

    ``rows`` holds one list of (row name, seconds) per traced report.
    Metrics whose patch target was missing are left out.
    """
    if reports < 1:
        raise ValueError("no reports")
    absent = {name for name, (src, _) in _LAYERS.items() if src in missing}
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}

    def per_report(value):
        return value / reports

    for name, (_, stats) in _LAYERS.items():
        if name in absent:
            continue
        group = by_name.get(name, [])
        for stat in stats:
            if stat == "n":
                total = len(group)
            elif stat == "self_s":
                total = sum(own[s.sid] for s in group)
            elif stat == "s":
                total = sum(s.end - s.start for s in group)
            else:
                total = sum((s.extra or {}).get(stat, 0) for s in group)
            out[f"{name}.{stat}"] = per_report(total)

    if "heatmass.invert" not in absent:
        inverts = by_name.get("heatmass.invert", [])
        ids = {s.sid for s in inverts}
        evals = sum(1 for s in spans if s.parent in ids
                    and s.name.startswith("heatmass.evaluate."))
        out["heatmass.evals_per_invert"] = evals / len(inverts) \
            if inverts else 0.0
        out["heatmass.invert.short_frac"] = sum(
            (s.extra or {}).get("short", 0) for s in inverts) / len(inverts) \
            if inverts else 0.0
    if "searches.plane" not in absent:
        planes = by_name.get("searches.plane", [])
        starts = sum((s.extra or {}).get("starts", 0) for s in planes)
        out["searches.plane.best_start_frac"] = sum(
            (s.extra or {}).get("best_hits", 0) for s in planes) / starts \
            if starts else 0.0
    if "bounds.report" not in absent:
        totals = defaultdict(float)
        for report_rows in rows:
            for row, seconds in report_rows:
                totals[row] += seconds
        for row in ROW_NAMES:
            out[f"bounds.row.{row}.s"] = per_report(totals[row])
    if "datum.support_geometry" not in absent:
        out["bounds.support_geometry_per_report"] = out[
            "datum.support_geometry.n"]
    return out
