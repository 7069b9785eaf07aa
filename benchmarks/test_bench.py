"""Checks of the benchmark's own logic.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import math
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ksblowup import oracles  # noqa: E402


def span(sid, name, start, end, parent=None):
    return spans.Span(sid, name, start, end, parent, 0, None)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_counts_overlapping_children_once():
    # two children from pool threads overlap on [3, 4]; a third runs past
    # the parent's end and only its covered part counts
    recorded = [span(0, "cli.sweep", 0.0, 10.0),
                span(1, "bounds.report", 1.0, 4.0, parent=0),
                span(2, "bounds.report", 3.0, 6.0, parent=0),
                span(3, "bounds.report", 8.0, 12.0, parent=0),
                span(4, "heatmass.invert", 1.5, 2.0, parent=1)]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)


def test_covered_length_merges_nested_and_disjoint_intervals():
    assert spans.covered_length([(1, 5), (2, 3), (7, 8)], 0, 10) == 5
    assert spans.covered_length([], 0, 10) == 0


def test_pool_thread_spans_parent_to_the_open_main_span():
    rec = spans.SpanRecorder()
    outer = rec.open("cli.sweep")

    def work():
        frame = rec.open("bounds.report", new_report=True)
        rec.close(frame)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.close(outer)
    reports = [s for s in rec.spans if s.name == "bounds.report"]
    assert len(reports) == 4
    assert all(s.parent == outer[0] for s in reports)
    assert len({s.report for s in reports}) == 4


def test_missing_target_is_reported_absent_not_fatal():
    import ksblowup
    from ksblowup import bounds

    original = bounds._snapshot
    del bounds._snapshot
    try:
        rec = spans.SpanRecorder()
        patcher = spans.install(rec, ksblowup)
        patcher.restore()
    finally:
        bounds._snapshot = original
    assert rec.missing == ["bounds._snapshot"]
    metrics = spans.layer_metrics([span(0, "bounds.report", 0.0, 1.0)],
                                  [[("tc", 0.5)]], 1, rec.missing)
    assert "bounds.snapshot.n" not in metrics
    assert metrics["bounds.row.tc.s"] == 0.5


def test_patches_every_module_that_imported_the_name():
    import ksblowup
    from ksblowup import datum, heatmass, quadrature

    original = quadrature.integrate_panels
    rec = spans.SpanRecorder()
    patcher = spans.install(rec, ksblowup)
    try:
        assert heatmass.integrate_panels is not original
        assert datum.integrate_panels is heatmass.integrate_panels
    finally:
        patcher.restore()
    assert heatmass.integrate_panels is original
    assert datum.integrate_panels is original


# ---------------------------------------------------------------------------
# checker failure rules
# ---------------------------------------------------------------------------

ANNULUS = {"id": "annulus-x", "family": "annulus",
           "params": {"height": 10.0, "r_inner": 1.0, "r_outer": 2.0},
           "argv": ["bound", "spec.json", "--format", "json"]}
ANNULUS_TC = oracles.oracle_annulus(10.0, 1.0, 2.0) * 0.99


def bound_json(tc=ANNULUS_TC, ordering_ok=True, tc1_status="computed"):
    rows = [
        {"name": "lower", "kind": "lower", "value": tc * 0.5,
         "status": "computed"},
        {"name": "tc", "kind": "upper", "value": tc, "status": "computed"},
        {"name": "tc1", "kind": "upper", "value": tc * 1.5,
         "status": tc1_status},
    ]
    return json.dumps({"mass": 10.0 * math.pi * 3.0,
                       "ordering_ok": ordering_ok,
                       "violations": [] if ordering_ok else ["x below tc"],
                       "rows": rows})


REFERENCE = {"lower": ANNULUS_TC * 0.5, "tc": ANNULUS_TC,
             "tc1": ANNULUS_TC * 1.5}


def test_clean_bound_report_passes_with_zero_looseness():
    out = check.check_bound(ANNULUS, 0, bound_json(), REFERENCE, oracles)
    assert (out.reports, out.failed) == (1, 0)
    assert out.looseness == 0.0


@pytest.mark.parametrize("rc, text, needle", [
    (1, "", "exit code 1"),
    (0, bound_json(ordering_ok=False), "ordering violated"),
    (0, bound_json(tc1_status="failed"), "failed rows"),
    (0, bound_json(tc=ANNULUS_TC / 0.99 * 1.01), "above oracle"),
])
def test_bound_failure_rules(rc, text, needle):
    out = check.check_bound(ANNULUS, rc, text, REFERENCE, oracles)
    assert out.failed == 1
    assert needle in " ".join(out.reasons)


def test_looseness_signs_for_upper_and_lower_rows():
    kinds = {"tc": "upper", "lower": "lower"}
    worst, lost = check.looseness({"tc": 1.1, "lower": 1.0},
                                  {"tc": 1.0, "lower": 1.0}, kinds)
    assert worst == pytest.approx(0.1) and lost == []
    worst, _ = check.looseness({"tc": 1.0, "lower": 0.8},
                               {"tc": 1.0, "lower": 1.0}, kinds)
    assert worst == pytest.approx(0.2)
    worst, _ = check.looseness({"tc": 0.9}, {"tc": 1.0}, kinds)
    assert worst == pytest.approx(-0.1)
    _, lost = check.looseness({}, {"tc": 1.0}, kinds)
    assert lost == ["tc"]


GAUSS_SWEEP = {"id": "sweep-gaussian-x", "family": "gaussian",
               "params": {"sigma": 1.0},
               "sweep": {"param": "mass", "start": 30.0, "stop": 40.0,
                         "steps": 2},
               "argv": ["sweep"]}


def sweep_csv(tc_scale=1.0, lower_scale=0.5, blank_tc1=False):
    lines = ["mass,lower,tc,tc1"]
    for mass in (30.0, 40.0):
        tc = oracles.oracle_gaussian(mass, 1.0) * tc_scale
        tc1 = "" if blank_tc1 else f"{tc * 1.2:.12g}"
        lines.append(f"{mass:.12g},{tc * lower_scale:.12g},{tc:.12g},{tc1}")
    return "\n".join(lines) + "\n"


def sweep_reference():
    return [check.reference_values(GAUSS_SWEEP, 0, sweep_csv())[k]
            for k in range(2)]


def test_clean_sweep_passes():
    out = check.check_sweep(GAUSS_SWEEP, 0, sweep_csv(), sweep_reference(),
                            oracles)
    assert (out.reports, out.failed) == (2, 0)
    assert out.looseness == 0.0


@pytest.mark.parametrize("rc, text, failed, needle", [
    (2, "", 2, "exit code 2"),
    (0, sweep_csv(lower_scale=1.5), 2, "above tc"),
    (0, sweep_csv(blank_tc1=True), 2, "no longer computed"),
    (0, sweep_csv(tc_scale=1.001), 2, "differs from oracle"),
])
def test_sweep_failure_rules(rc, text, failed, needle):
    out = check.check_sweep(GAUSS_SWEEP, rc, text, sweep_reference(),
                            oracles)
    assert out.failed == failed
    assert needle in " ".join(out.reasons)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_cycles_are_seeded_and_covered_by_reference(workload, tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    a = workloads.cycle_keys(workload, 7)
    assert a == workloads.cycle_keys(workload, 7)
    assert a != workloads.cycle_keys(workload, 8)
    for kind in workloads.WORKLOAD_KINDS[workload]:
        keys = [key for k, key in a if k == kind]
        pool = workloads.pool_keys(kind)
        assert set(map(str, keys)) <= set(map(str, pool))
        for key in pool:
            item = workloads.write_item(kind, key, str(tmp_path))
            assert item["id"] in reference[kind]


def test_bound_mix_rounds_hold_one_item_of_each_kind():
    kinds = workloads.WORKLOAD_KINDS["bound_mix"]
    keys = workloads.cycle_keys("bound_mix", 3)
    assert [k for k, _ in keys] == list(kinds) * (len(keys) // len(kinds))
    for kind in ("grid_dense", "grid_sparse"):
        counts = {}
        for k, key in keys:
            if k == kind:
                counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == workloads.pool_keys(kind)
        assert len(set(counts.values())) == 1


def test_radial_cycle_has_near_critical_masses():
    for seed in range(20):
        keys = workloads.radial_cycle(seed)
        assert sum(i < workloads.RADIAL_NEAR for _, i in keys) == 4
        assert [f for f, _ in keys] == list(workloads.RADIAL_FAMILIES) * 2


def test_benchmark_json_names_every_metric_with_its_unit():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {name: spans.metric_unit(name)
                for name in spans.layer_metrics([], [], 1)}
    expected["trace_overhead_frac"] = "fraction"
    assert layers == expected
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
