"""Correctness checks and bound-quality measures for CLI outputs.

A report fails when any of these holds:

* the CLI exited non-zero (every report of a failed sweep fails);
* ``bound`` printed ``ordering_ok: false``, or a ``sweep`` step breaks
  the same ordering rule, recomputed from its CSV cells;
* a row has status ``failed``; a sweep cell is blank where the reference
  has a value, which is how a sweep shows a failed row;
* the ``tc`` row misses its ``oracles`` value: gaussian and disk within
  1e-6 relative, annulus, polygaussian and diffgaussians at most
  oracle * (1 + 1e-6), the acceptance-suite tolerances.

Looseness compares each computed row with the reference value recorded
from the commit that defined the benchmark: (v - ref)/ref for upper
rows and (ref - v)/ref for the lower row, so a negative value is
tighter.  A row the reference computed that is no longer computed also
fails its report.
"""

import csv
import io
import json
import math

#: the report's ordering tolerance, ``ksblowup bound --tol`` default
ORDER_TOL = 1e-6
ORACLE_TOL = 1e-6
#: upper rows that must dominate tc (virial bounds the blow-up time only)
CHAIN_UPPERS = ("tc1", "tc2", "tc3", "tc3_jung", "tc4", "f_method")


def oracle_failure(oracles, family, params, mass, tc):
    """Reason the tc value misses its oracle, or None."""
    if family == "gaussian":
        want = oracles.oracle_gaussian(mass, params["sigma"])
        exact = True
    elif family == "disk":
        want = oracles.oracle_disk(mass, params["radius"])
        exact = True
    elif family == "annulus":
        want = oracles.oracle_annulus(params["height"], params["r_inner"],
                                      params["r_outer"])
        exact = False
    elif family == "polygaussian":
        want = oracles.oracle_polygaussian(params["height"], params["power"],
                                           params["rate"])
        exact = False
    elif family == "diffgaussians":
        want = oracles.oracle_diffgaussians(
            params["height"], params["rate_slow"], params["rate_fast"])
        exact = False
    else:
        return None
    if tc is None:
        return "tc not computed"
    if exact and abs(tc - want) > ORACLE_TOL * want:
        return f"tc={tc:.12g} differs from oracle {want:.12g}"
    if not exact and tc > want * (1.0 + ORACLE_TOL):
        return f"tc={tc:.12g} above oracle {want:.12g}"
    return None


def ordering_violations(values, kinds):
    """The ordering rule of ``bounds._check_ordering`` on one report."""
    tc = values.get("tc")
    if tc is None:
        return []
    slack = 1.0 + ORDER_TOL
    out = []
    for name, v in values.items():
        if kinds.get(name) == "lower" and v > tc * slack:
            out.append(f"{name}={v:.9g} above tc={tc:.9g}")
        if name in CHAIN_UPPERS and v * slack < tc:
            out.append(f"{name}={v:.9g} below tc={tc:.9g}")
    return out


def looseness(values, reference, kinds):
    """(largest looseness, rows lost) of computed ``values`` vs reference."""
    worst = -math.inf
    lost = []
    for name, ref in reference.items():
        kind = kinds.get(name, "upper")
        if kind not in ("upper", "lower") or not math.isfinite(ref):
            continue
        v = values.get(name)
        if v is None or not math.isfinite(v):
            lost.append(name)
            continue
        worst = max(worst, (v - ref) / ref if kind == "upper"
                    else (ref - v) / ref)
    return worst, lost


def _number(cell):
    """A CSV/JSON value as float; None when blank or missing."""
    if cell is None or cell == "":
        return None
    return float(cell)  # "inf" parses to math.inf


class Outcome:
    """Checked result of one CLI call."""

    def __init__(self, reports):
        self.reports = reports
        self.failed = 0
        self.reasons = []
        self.looseness = -math.inf

    def fail(self, reason, reports=1):
        self.failed += reports
        self.reasons.append(reason)


def check_bound(item, rc, stdout, reference, oracles):
    """Check one ``bound --format json`` call against the failure rules."""
    out = Outcome(1)
    if rc != 0:
        out.fail(f"{item['id']}: exit code {rc}")
        return out
    try:
        report = json.loads(stdout)
        rows = report["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        out.fail(f"{item['id']}: unreadable JSON report ({exc})")
        return out
    reasons = []
    if report.get("ordering_ok") is not True:
        reasons.append("ordering violated: "
                       + "; ".join(report.get("violations", [])))
    failed = [r["name"] for r in rows if r["status"] == "failed"]
    if failed:
        reasons.append(f"failed rows {failed}")
    values = {r["name"]: _number(r["value"]) for r in rows
              if r["status"] == "computed"}
    kinds = {r["name"]: r["kind"] for r in rows}
    miss = oracle_failure(oracles, item["family"], item["params"],
                          report["mass"],
                          values.get("tc"))
    if miss:
        reasons.append(miss)
    if reference is not None:
        out.looseness, lost = looseness(values, reference, kinds)
        if lost:
            reasons.append(f"rows no longer computed {lost}")
    if reasons:
        out.fail(f"{item['id']}: " + "; ".join(reasons))
    return out


def _sweep_datum(item, value):
    """(family params, mass) of one sweep step, for the oracle check."""
    family, params = item["family"], dict(item["params"])
    if family == "gaussian":
        return params, value
    if family == "disk":
        params["radius"] = value
        return params, math.pi * params["height"] * value ** 2
    if family == "polygaussian":
        params["height"] = value
        return params, math.pi * value / params["rate"]
    raise ValueError(f"no sweep oracle for family {family!r}")


def check_sweep(item, rc, stdout, reference, oracles):
    """Check one ``sweep`` call; each step is one report."""
    steps = item["sweep"]["steps"]
    out = Outcome(steps)
    if rc != 0:
        out.fail(f"{item['id']}: exit code {rc}", steps)
        return out
    table = list(csv.reader(io.StringIO(stdout)))
    if len(table) != steps + 1:
        out.fail(f"{item['id']}: {len(table) - 1} rows for {steps} steps",
                 steps)
        return out
    header, body = table[0], table[1:]
    names = [n for n in header[1:] if n != "mass"]
    kinds = {n: "lower" if n == "lower" else "upper" for n in names}
    for k, line in enumerate(body):
        cells = dict(zip(header, line))
        values = {n: _number(cells[n]) for n in names if cells[n] != ""}
        reasons = ordering_violations(values, kinds)
        params, mass = _sweep_datum(item, float(cells[header[0]]))
        miss = oracle_failure(oracles, item["family"], params, mass,
                              values.get("tc"))
        if miss:
            reasons.append(miss)
        if reference is not None:
            worst, lost = looseness(values, reference[k], kinds)
            out.looseness = max(out.looseness, worst)
            if lost:
                reasons.append(f"rows no longer computed {lost}")
        if reasons:
            out.fail(f"{item['id']} step {k}: " + "; ".join(reasons))
    return out


def check_call(item, rc, stdout, reference, oracles):
    if item["argv"][0] == "sweep":
        return check_sweep(item, rc, stdout, reference, oracles)
    return check_bound(item, rc, stdout, reference, oracles)


def reference_values(item, rc, stdout):
    """Row values of a call, in the shape ``reference.json`` stores."""
    if rc != 0:
        raise RuntimeError(f"{item['id']}: exit code {rc}")
    if item["argv"][0] == "sweep":
        table = list(csv.reader(io.StringIO(stdout)))
        header = table[0]
        return [{n: float(c) for n, c in zip(header, line)
                 if n not in (header[0], "mass") and c != ""}
                for line in table[1:]]
    report = json.loads(stdout)
    return {r["name"]: float(r["value"]) for r in report["rows"]
            if r["status"] == "computed"}
