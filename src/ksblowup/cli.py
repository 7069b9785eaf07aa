"""Command-line driver: parse datum specs, run estimators, emit reports.

Subcommands:

* ``bound``  -- evaluate every applicable estimator for one datum spec
  and write a CSV or JSON report.
* ``sweep``  -- sweep one family parameter and tabulate the bounds.
* ``verify`` -- run the oracle-equivalence, constants, and ordering
  self-checks.

Exit codes: 0 success, 1 spec/usage errors, 2 subcritical mass,
3 ordering violation (``bound`` still writes the report and lists each
violation on stderr; ``sweep`` writes the whole table, then lists each
violation as ``step k: ...``, steps counted from 1).
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds, datum as dt, oracles
from .errors import (
    DatumSpecError,
    InvalidFieldError,
    KSBlowupError,
    SubcriticalMassError,
)

TOL_ENV_VAR = "KSBLOWUP_TOL"
REPORT_COLUMNS = ("name", "kind", "value", "assumptions", "status", "seconds")


def format_value(v):
    """12 significant digits; literal 'inf' for infinite estimates."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    if math.isinf(v):
        return "inf"
    return format(float(v), ".12g")


def _require(spec, name, caster=float):
    if name not in spec:
        raise DatumSpecError(f"missing required field '{name}'", field=name)
    try:
        return caster(spec[name])
    except (TypeError, ValueError) as exc:
        raise DatumSpecError(f"field '{name}' is invalid: {exc}", field=name)


def _floats(values):
    return tuple(float(v) for v in values)


def datum_from_dict(spec, base_dir="."):
    """Build an InitialDatum from a parsed spec object.

    The spec names each field of the family's dataclass (``mass`` for
    ``total_mass``); tuple fields are read as tuples of floats, every
    other field as a float, and the family checks the values.
    """
    if not isinstance(spec, dict):
        raise DatumSpecError("datum spec must be a JSON object")
    family = spec.get("family")
    if family is None:
        raise DatumSpecError("missing required field 'family'", field="family")
    if family == "grid":
        return _grid_from_dict(spec, base_dir)
    if not isinstance(family, str) or family not in dt.FAMILIES:
        raise DatumSpecError(
            f"unknown family '{family}' (expected one of "
            f"{sorted(dt.FAMILIES)})", field="family")
    kwargs = {}
    for field in dataclasses.fields(dt.FAMILIES[family]):
        name = dt.SPEC_ALIASES.get(field.name, field.name)
        if name in spec or field.default is dataclasses.MISSING:
            kwargs[field.name] = _require(
                spec, name, _floats if field.type is tuple else float)
    try:
        return dt.FAMILIES[family](**kwargs)
    except InvalidFieldError as exc:
        name = dt.SPEC_ALIASES.get(exc.field, exc.field)
        raise DatumSpecError(
            f"invalid {family} parameters: {name} {exc.problem}", field=name)
    except (TypeError, ValueError) as exc:
        raise DatumSpecError(f"invalid {family} parameters: {exc}")


def _grid_from_dict(spec, base_dir):
    ref = spec.get("grid")
    if not isinstance(ref, dict):
        raise DatumSpecError("grid family needs a 'grid' object", field="grid")
    path = ref.get("path")
    if not path:
        raise DatumSpecError("grid reference needs 'path'", field="grid.path")
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    try:
        if full.endswith(".npy"):
            values = np.load(full)
        else:
            values = np.loadtxt(full, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DatumSpecError(f"cannot read grid array: {exc}",
                             field="grid.path")
    rows = _require(ref, "rows", int)
    cols = _require(ref, "cols", int)
    if values.shape != (rows, cols):
        raise DatumSpecError(
            f"grid array shape {values.shape} != declared ({rows}, {cols})",
            field="grid.rows")
    cell = _require(ref, "cell_size")
    origin = ref.get("origin", (0.0, 0.0))
    try:
        return dt.CartesianGrid(values, cell, _floats(origin))
    except InvalidFieldError as exc:
        # the cells come from the file that 'grid.path' names
        name = "path" if exc.field == "values" else exc.field
        raise DatumSpecError(f"invalid grid parameters: {exc}",
                             field=f"grid.{name}")
    except (TypeError, ValueError) as exc:
        raise DatumSpecError(f"invalid grid parameters: {exc}")


def load_datum(path):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise DatumSpecError(f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise DatumSpecError(f"spec file is not valid JSON: {exc}")
    return datum_from_dict(spec, base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_rows(report, names=None):
    rows = report.rows
    if names is not None:
        rows = [r for r in rows if r.name in names]
    return rows


def report_to_csv(report, names=None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in report_rows(report, names):
        writer.writerow([r.name, r.kind, format_value(r.value),
                         "; ".join(r.assumptions), r.status,
                         f"{r.seconds:.6f}"])
    return buf.getvalue()


def report_to_json(report, names=None):
    def number(v):
        rendered = format_value(v)
        if rendered in ("", "inf"):
            return rendered or None
        return float(rendered)

    payload = {
        "datum": report.label,
        "mass": number(report.mass),
        "constants": {
            "threshold": number(report.constants.threshold),
            "ratio": number(report.constants.ratio),
            "log_inv_ratio": number(report.constants.log_inv_ratio),
        },
        "tolerance": report.tolerance,
        "ordering_ok": report.ordering_ok,
        "violations": list(report.violations),
        "rows": [
            {
                "name": r.name,
                "kind": r.kind,
                "value": number(r.value),
                "assumptions": list(r.assumptions),
                "status": r.status,
                "detail": r.detail,
                "seconds": round(r.seconds, 6),
            }
            for r in report_rows(report, names)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_tolerance(args_tol):
    """The ordering tolerance: the flag, else $KSBLOWUP_TOL, else 1e-6.

    A NaN or infinite tolerance would switch the ordering check off,
    since every comparison against ``tc * nan`` is false.
    """
    tol, source = args_tol, "--tol"
    if tol is None:
        env = os.environ.get(TOL_ENV_VAR)
        if not env:
            return 1e-6
        source = f"environment variable {TOL_ENV_VAR}"
        try:
            tol = float(env)
        except ValueError:
            raise DatumSpecError(f"{source} is not a number: {env!r}",
                                 field="tol")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DatumSpecError(
            f"{source} must be a finite non-negative number, got {tol!r}",
            field="tol")
    return tol


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bound(args):
    density = load_datum(args.spec)
    tolerance = _default_tolerance(args.tol)
    names = None
    if args.bounds != "all":
        names = tuple(n.strip() for n in args.bounds.split(",") if n.strip())
        unknown = [n for n in names if n not in bounds._ROW_ORDER]
        if unknown:
            raise DatumSpecError(f"unknown bound names: {unknown}")
    report = bounds.full_report(density, tolerance=tolerance)
    if args.format == "json":
        text = report_to_json(report, names)
    else:
        text = report_to_csv(report, names)
    _write_output(text, args.out)
    if not report.ordering_ok:
        for violation in report.violations:
            print(f"ordering violation: {violation}", file=sys.stderr)
        return 3
    return 0


# sweep parameter -> constructor keyword, per family
_SWEEP_PARAMS = {
    "mass": {"gaussian": "total_mass"},
    "sigma": {"gaussian": "sigma", "disk": "height", "annulus": "height",
              "polygaussian": "height", "diffgaussians": "height"},
    "R": {"disk": "radius"},
}


def _with_param(density, param, value):
    kwarg = _SWEEP_PARAMS[param].get(density.family)
    if kwarg is None:
        raise DatumSpecError(
            f"parameter '{param}' does not apply to family "
            f"'{density.family}'", field="param")
    return dataclasses.replace(density, **{kwarg: value})


def cmd_sweep(args):
    density = load_datum(args.spec)
    if args.steps < 1:
        raise DatumSpecError("sweep needs at least one step", field="steps")
    if args.log:
        if args.start <= 0.0 or args.stop <= 0.0:
            raise DatumSpecError("log sweep needs positive endpoints")
        values = np.geomspace(args.start, args.stop, args.steps)
    else:
        values = np.linspace(args.start, args.stop, args.steps)
    tolerance = _default_tolerance(args.tol)
    names = tuple(n.strip() for n in args.bounds.split(",") if n.strip()) \
        if args.bounds != "all" else bounds._ROW_ORDER[:9]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    mass_col = [] if args.param == "mass" else ["mass"]
    writer.writerow([args.param, *mass_col, *names])
    broken = []    # (step, violations) of each step that breaks the ordering
    for step, value in enumerate(values, start=1):
        d = _with_param(density, args.param, float(value))
        report = bounds.full_report(d, tolerance=tolerance)
        if not report.ordering_ok:
            broken.append((step, report.violations))
        computed = {r.name: r.value for r in report.rows
                    if r.status == "computed"}
        row = [format_value(float(value))]
        if mass_col:
            row.append(format_value(report.mass))
        writer.writerow(row + [format_value(computed.get(n)) for n in names])
    _write_output(buf.getvalue(), args.out)
    for step, violations in broken:
        for violation in violations:
            print(f"step {step}: {violation}", file=sys.stderr)
    return 3 if broken else 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"{tag} {name}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    return bool(ok)


def _verify_families():
    ok = True
    mass = 16.0 * math.pi
    for sigma, m in ((1.0, 16.0 * math.pi), (0.5, 10.0 * math.pi)):
        got = bounds.tc_bound(dt.Gaussian(m, sigma))
        want = oracles.oracle_gaussian(m, sigma)
        ok &= _check(f"gaussian tc sigma={sigma} mass={m:.6g}",
                     abs(got - want) <= 1e-6 * want,
                     f"{got:.12g} vs {want:.12g}")
    disk = dt.DiskIndicator(16.0, 1.0)
    got = bounds.tc_bound(disk)
    want = oracles.oracle_disk(mass, 1.0)
    ok &= _check("disk tc", abs(got - want) <= 1e-6 * want,
                 f"{got:.12g} vs {want:.12g}")
    slack = 1.0 + 1e-6
    trio = (
        ("annulus", dt.Annulus(16.0 / 3.0, 1.0, 2.0),
         oracles.oracle_annulus(16.0 / 3.0, 1.0, 2.0)),
        ("polygaussian", dt.PolyGaussian(16.0, 1, 1.0),
         oracles.oracle_polygaussian(16.0, 1, 1.0)),
        ("diffgaussians", dt.DiffGaussians(32.0, 1.0, 2.0),
         oracles.oracle_diffgaussians(32.0, 1.0, 2.0)),
    )
    for name, density, upper in trio:
        got = bounds.tc_bound(density)
        ok &= _check(f"{name} oracle dominates pipeline",
                     got <= upper * slack, f"{got:.12g} vs {upper:.12g}")
    return ok


def _verify_constants():
    ok = True
    ok &= _check("disk kernel inverse at 2/3",
                 abs(oracles.disk_kernel_fraction_inverse(2.0 / 3.0)
                     - 0.87421) <= 1e-4)
    ok &= _check("variance sandwich factor",
                 abs(bounds.TC4_SANDWICH_FACTOR - 0.8109) <= 1e-4)
    ok &= _check("lower-bound regime threshold",
                 abs(bounds.LOWER_REGIME_P0 - 1.682) <= 1e-3)
    ok &= _check("sharp log-ratio constant",
                 abs(bounds.LOWER_SHARP_RATIO - 0.735) <= 1e-3)
    ok &= _check("heat constant C(2,p,p) = 1",
                 all(bounds.heat_constant(2, p, p) == 1.0
                     for p in (1.0, 1.7, 2.0, math.inf)))
    ok &= _check("heat constant C(2,1,inf) = 1/(4 pi)",
                 abs(bounds.heat_constant(2, 1.0, math.inf)
                     - 1.0 / (4.0 * math.pi)) <= 1e-15)
    return ok


def _ordering_cases():
    for mass in (9.0 * math.pi, 16.0 * math.pi, 100.0 * math.pi):
        yield dt.Gaussian(mass, 1.0)
        yield dt.DiskIndicator(mass / math.pi, 1.0)
        yield dt.Annulus(mass / (3.0 * math.pi), 1.0, 2.0)
        yield dt.PolyGaussian(mass / math.pi, 1, 1.0)
        yield dt.DiffGaussians(2.0 * mass / math.pi, 1.0, 2.0)


def _verify_ordering():
    ok = True
    for density in _ordering_cases():
        report = bounds.full_report(density)
        ok &= _check(f"ordering {density.label()}", report.ordering_ok,
                     "; ".join(report.violations))
    return ok


_SUITES = {
    "families": _verify_families,
    "constants": _verify_constants,
    "ordering": _verify_ordering,
}


def cmd_verify(args):
    suites = [args.suite] if args.suite else list(_SUITES)
    ok = True
    for name in suites:
        ok &= _SUITES[name]()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ksblowup",
        description="Critical-time bounds for supercritical-mass planar "
                    "Keller-Segel initial data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate bounds for one datum")
    p_bound.add_argument("spec", help="path to a JSON datum spec")
    p_bound.add_argument("--bounds", default="all",
                         help="'all' or comma-separated estimator names")
    p_bound.add_argument("--tol", type=float, default=None,
                         help=f"ordering tolerance (default 1e-6 or "
                              f"${TOL_ENV_VAR})")
    p_bound.add_argument("--out", default=None, help="output path")
    p_bound.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bound.set_defaults(fn=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="sweep a family parameter")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--param", choices=tuple(_SWEEP_PARAMS), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true",
                         help="log-spaced parameter values")
    p_sweep.add_argument("--bounds", default="all")
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("--suite", choices=tuple(_SUITES), default=None,
                          help="one suite (default: all)")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SubcriticalMassError as exc:
        print(f"error: {exc} (supercritical mass > 8*pi is required)",
              file=sys.stderr)
        return 2
    except DatumSpecError as exc:
        field = f" [field: {exc.field}]" if exc.field else ""
        print(f"error: {exc}{field}", file=sys.stderr)
        return 1
    except KSBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
