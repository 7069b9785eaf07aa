"""Print every report value of a fixed case set, for comparing two checkouts.

For each case it prints the ``repr`` of every ``full_report`` row as
``(name, kind, value, status, detail, assumptions)``, at full precision:

* the 15 ``cli._ordering_cases`` (five analytic families, three masses);
* two near-critical data, ``DiskIndicator(8.05, 1)`` and
  ``Gaussian(8.05 pi, 1)``;
* the 56 ``bound`` entries of the benchmark pools (32 radial, 12 dense
  grids, 12 sparse grids), built from the spec files that
  ``benchmarks/workloads.py`` writes and read through ``cli.load_datum``.

Then it prints the ``ksblowup sweep`` CSV, exit code and stderr of each of
the 18 sweep pool entries.  Pytest does not collect this file.  A change
that promises the same numbers prints the same digest as its parent:

    PYTHONPATH=src python tests/report_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python tests/report_digest.py > before.txt
    diff before.txt after.txt

The whole set takes a few minutes on two cores.
"""

import contextlib
import io
import math
import os
import sys
import tempfile

from ksblowup import bounds, cli, datum as dt

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import workloads  # noqa: E402


def _print_report(case, density):
    report = bounds.full_report(density)
    print(f"# {case} {report.label} ordering_ok={report.ordering_ok!r}")
    for r in report.rows:
        print(repr((r.name, r.kind, r.value, r.status, r.detail,
                    r.assumptions)))
    for violation in report.violations:
        print(f"  violation: {violation}")


def _print_sweep(item):
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


def main():
    for k, density in enumerate(cli._ordering_cases()):
        _print_report(f"ordering-{k}", density)
    _print_report("near-critical-disk", dt.DiskIndicator(8.05, 1.0))
    _print_report("near-critical-gaussian", dt.Gaussian(8.05 * math.pi, 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("radial_ring", "grid_dense", "grid_sparse"):
            for key in workloads.pool_keys(kind):
                item = workloads.write_item(kind, key, tmp)
                _print_report(item["id"], cli.load_datum(item["argv"][1]))
        for key in workloads.pool_keys("sweep_closed"):
            _print_sweep(workloads.write_item("sweep_closed", key, tmp))


if __name__ == "__main__":
    main()
