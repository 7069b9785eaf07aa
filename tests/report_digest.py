"""Print every report value of a fixed case set, for comparing two checkouts.

For each case it prints the ``repr`` of every ``full_report`` row as
``(name, kind, value, status, detail, assumptions)``, at full precision:

* the 15 ``cli._ordering_cases`` (five analytic families, three masses);
* two near-critical data, ``DiskIndicator(8.05, 1)`` and
  ``Gaussian(8.05 pi, 1)``;
* two degenerate 5x5 grids of cell size 0.1, mass 40 in one cell and
  mass 20 in each of two cells, whose radii and moments read 0;
* the 56 ``bound`` entries of the benchmark pools (32 radial, 12 dense
  grids, 12 sparse grids), built from the spec files that
  ``benchmarks/workloads.py`` writes and read through ``cli.load_datum``;
  after each entry's report, the winning (q, lam) of its ``tc1`` search,
  and after each grid's, the winning centers of its ``tc`` plane search and
  its ``tc2`` search, so a change that moves a winner shows even where no
  printed value moves.

Then it prints the ``ksblowup sweep`` CSV, exit code and stderr of each of
the 18 sweep pool entries.  Pytest does not collect this file.  A change
that promises the same numbers prints the same digest as its parent:

    PYTHONPATH=src python tests/report_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python tests/report_digest.py > before.txt
    diff before.txt after.txt

A change that moves numbers compares the two digests instead:

    python tests/report_digest.py --compare before.txt after.txt

prints, per row name, how many values were compared, how many moved and
the largest relative move up and down, then every status, ``ordering_ok``,
``tc1`` winner, ``tc`` or ``tc2`` center or sweep exit code that changed; it exits 1 when there is
any such change.  Producing the digest takes about half a minute on one
core.
"""

import contextlib
import csv
import io
import math
import os
import sys
import tempfile
from collections import defaultdict


def _print_report(case, density):
    from ksblowup import bounds

    report = bounds.full_report(density)
    print(f"# {case} {report.label} ordering_ok={report.ordering_ok!r}")
    for r in report.rows:
        print(repr((r.name, r.kind, r.value, r.status, r.detail,
                    r.assumptions)))
    for violation in report.violations:
        print(f"  violation: {violation}")


def _print_tc1_winner(density):
    from ksblowup import bounds

    print(f"{_TC1_WINNER}{bounds._tc1_search(density)[1:]!r}")


def _print_grid_centers(density):
    from ksblowup import bounds

    print(f"{_TC_CENTER}{bounds._tc_search(density)[1]!r}")
    print(f"{_TC2_CENTER}{bounds._tc2_search(density)[1]!r}")


def _print_sweep(item):
    from ksblowup import cli

    out = os.path.join(os.path.dirname(item["argv"][1]), "sweep.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*item["argv"], "--out", out])
    print(f"# {item['id']} exit={code}")
    if os.path.exists(out):
        with open(out) as fh:
            sys.stdout.write(fh.read())
        os.remove(out)
    sys.stdout.write(err.getvalue())


class _Float64:
    """Stands in for ``np.float64`` while a digest line is read back."""

    float64 = float


_LINE_NAMES = {"__builtins__": {}, "nan": math.nan, "inf": math.inf,
               "np": _Float64}

#: the lines that follow a pool entry's report
_TC1_WINNER = "  tc1 winner: "
_TC_CENTER = "  tc center: "
_TC2_CENTER = "  tc2 center: "


def read_digest(path):
    """(values, flags) of a digest file.

    ``values`` maps (case, row name, step) to (value, status); a report row
    has step 0, a sweep cell the step of its line and status "computed" or
    "blank".  ``flags`` maps each case to its ``ordering_ok`` or sweep exit
    code, "<case> tc1 winner" to a pool entry's winning ``tc1`` (q, lam)
    and "<case> tc center" and "<case> tc2 center" to a grid's winning
    ``tc`` and ``tc2`` centers.
    """
    values, flags = {}, {}
    case, header = None, None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                case, flag = line.split()[1], line.rsplit(" ", 1)[1]
                flags[case] = flag
                header = [] if flag.startswith("exit=") else None
                step = 0
            elif line.startswith(_TC1_WINNER):
                flags[f"{case} tc1 winner"] = line[len(_TC1_WINNER):]
            elif line.startswith(_TC_CENTER):
                flags[f"{case} tc center"] = line[len(_TC_CENTER):]
            elif line.startswith(_TC2_CENTER):
                flags[f"{case} tc2 center"] = line[len(_TC2_CENTER):]
            elif header is None and line.startswith("("):
                name, _, value, status = eval(line, _LINE_NAMES)[:4]
                values[(case, name, 0)] = (value, status)
            elif header == []:
                header = next(csv.reader([line]))
            elif header:
                cells = next(csv.reader([line]))
                if len(cells) != len(header):
                    continue  # a line of the sweep's stderr
                step += 1
                for name, cell in zip(header[1:], cells[1:]):
                    values[(case, name, step)] = \
                        (float(cell), "computed") if cell else (math.nan,
                                                                "blank")
    return values, flags


def _relative_move(before, after):
    if before == after or (math.isnan(before) and math.isnan(after)):
        return 0.0
    if before == 0.0 or not (math.isfinite(before) and math.isfinite(after)):
        return math.inf if after > before else -math.inf
    return (after - before) / abs(before)


def compare(before_path, after_path):
    """Print how the values of two digests differ; 1 on a status change."""
    before, before_flags = read_digest(before_path)
    after, after_flags = read_digest(after_path)
    stats = defaultdict(lambda: [0, 0, 0.0, 0.0])
    changes = []
    for key in sorted(before.keys() | after.keys()):
        case, name, step = key
        where = f"{case} {name}" + (f" step {step}" if step else "")
        if key not in before or key not in after:
            changes.append(f"{where}: only in "
                           f"{'after' if key in after else 'before'}")
            continue
        (v0, s0), (v1, s1) = before[key], after[key]
        if s0 != s1:
            changes.append(f"{where}: status {s0} -> {s1}")
        if s0 != "computed" or s1 != "computed":
            continue
        row = stats[name]
        move = _relative_move(v0, v1)
        row[0] += 1
        row[1] += move != 0.0
        row[2] = max(row[2], move)
        row[3] = min(row[3], move)
    for case in sorted(before_flags.keys() | after_flags.keys()):
        f0, f1 = before_flags.get(case), after_flags.get(case)
        if f0 != f1:
            changes.append(f"{case}: {f0} -> {f1}")

    print(f"{'row':<24}{'compared':>9}{'moved':>7}{'max up':>11}"
          f"{'max down':>11}")
    for name in sorted(stats):
        n, moved, up, down = stats[name]
        print(f"{name:<24}{n:>9}{moved:>7}{up:>11.2g}{down:>11.2g}")
    print(f"{len(changes)} status, ordering or exit-code changes")
    for change in changes:
        print(f"  {change}")
    return 1 if changes else 0


def print_digest():
    import numpy as np

    from ksblowup import cli, datum as dt

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "benchmarks"))
    import workloads

    for k, density in enumerate(cli._ordering_cases()):
        _print_report(f"ordering-{k}", density)
    _print_report("near-critical-disk", dt.DiskIndicator(8.05, 1.0))
    _print_report("near-critical-gaussian", dt.Gaussian(8.05 * math.pi, 1.0))
    for case, cells in (("one-cell-grid", ((2, 2),)),
                        ("two-cell-grid", ((1, 1), (3, 3)))):
        vals = np.zeros((5, 5))
        for cell in cells:
            vals[cell] = 4000.0 / len(cells)
        _print_report(case, dt.CartesianGrid(vals, 0.1))
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("radial_ring", "grid_dense", "grid_sparse"):
            for key in workloads.pool_keys(kind):
                item = workloads.write_item(kind, key, tmp)
                density = cli.load_datum(item["argv"][1])
                _print_report(item["id"], density)
                _print_tc1_winner(density)
                if kind != "radial_ring":
                    _print_grid_centers(density)
        for key in workloads.pool_keys("sweep_closed"):
            _print_sweep(workloads.write_item("sweep_closed", key, tmp))


def main():
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: report_digest.py --compare BEFORE AFTER")
        return compare(sys.argv[2], sys.argv[3])
    print_digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
