"""The benchmark's span patcher finds every name it patches.

A patch target that the package no longer defines is skipped, and the
benchmark then reports its per-layer metrics as absent; this test keeps
such a loss from passing unseen.
"""

import os
import sys

import ksblowup
from ksblowup import bounds, heatmass

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "benchmarks"))
import spans  # noqa: E402


def test_every_span_patch_target_exists():
    snapshot, evaluate = bounds._snapshot, heatmass.HeatMassCurve.evaluate
    rec = spans.SpanRecorder()
    spans.install(rec, ksblowup).restore()
    assert rec.missing == []
    assert bounds._snapshot is snapshot
    assert heatmass.HeatMassCurve.evaluate is evaluate
