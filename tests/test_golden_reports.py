"""Report values pinned at 12 significant digits.

``data/golden_reports.json`` holds, for a few monotone data and a disk
grid, the ``format_value`` string of every row of ``full_report``.  A
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

from conftest import disk_grid

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_reports.json")


def golden_cases():
    return {
        "gaussian_16pi": ks.Gaussian(16.0 * math.pi, 1.0),
        "disk_16pi": ks.DiskIndicator(16.0, 1.0),
        "polygaussian_power0": ks.PolyGaussian(16.0, 0, 1.0),
        "radial_profile_monotone": ks.RadialProfile((0.0, 0.5, 1.5),
                                                    (30.0, 20.0, 0.0)),
        "disk_grid_128": disk_grid(128),
    }


def report_strings(density):
    """[name, status, 12-digit value] of every row, in report order."""
    return [[r.name, r.status, format_value(r.value)]
            for r in ks.full_report(density).rows]


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_report_matches_golden(name):
    assert report_strings(golden_cases()[name]) == _golden()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({name: report_strings(d)
                   for name, d in golden_cases().items()}, fh, indent=1)
        fh.write("\n")
