"""Report values pinned at 12 significant digits.

``data/golden_reports.json`` holds, for a few monotone data (one a disk
just above the critical mass, with its two asymptotic rows), a disk grid,
a two-bump grid (two basins for the centre search) and the three
analytic families whose centre is found by Nelder-Mead search (annulus,
power-1 polygaussian, diffgaussians), the ``format_value`` string of
every row of ``full_report``.  A
change that promises the same numbers must leave every string as it
is.  Re-record only when a change is meant to move the bounds, and say
so in the change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
import os

import pytest

import ksblowup as ks
from ksblowup.cli import format_value

from conftest import analytic_report, disk_grid, two_bump_grid

#: golden names of the searched families, read from the session's shared
#: reports of ``analytic_families(16 pi)``
SEARCHED = {"annulus_16pi": "annulus", "polygaussian_16pi": "polygaussian",
            "diffgaussians_16pi": "diffgaussians"}

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_reports.json")


def golden_cases():
    return {
        "gaussian_16pi": ks.Gaussian(16.0 * math.pi, 1.0),
        "disk_16pi": ks.DiskIndicator(16.0, 1.0),
        "disk_near_critical": ks.DiskIndicator(8.05, 1.0),
        "polygaussian_power0": ks.PolyGaussian(16.0, 0, 1.0),
        "radial_profile_monotone": ks.RadialProfile((0.0, 0.5, 1.5),
                                                    (30.0, 20.0, 0.0)),
        "disk_grid_128": disk_grid(128),
        "two_bump_grid_48": two_bump_grid(48),
    }


def report_strings(name):
    """[name, status, 12-digit value] of every row, in report order."""
    if name in SEARCHED:
        report = analytic_report(SEARCHED[name], 16.0 * math.pi)
    else:
        report = ks.full_report(golden_cases()[name])
    return [[r.name, r.status, format_value(r.value)] for r in report.rows]


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


NAMES = [*golden_cases(), *SEARCHED]


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    assert report_strings(name) == _golden()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({name: report_strings(name) for name in NAMES}, fh,
                  indent=1)
        fh.write("\n")
