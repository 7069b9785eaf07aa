"""Benchmark for ``ksblowup bound`` and ``ksblowup sweep``.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload bound_mix --seed 1 \\
        --seconds 55 --trace 0

Workloads (see ``workloads.WHY``): ``bound_mix``, which runs ``bound`` on
the ``radial_ring``, ``grid_dense`` and ``grid_sparse`` input kinds in
turn, and ``sweep_closed``.  Each run:

1. writes the seeded inputs of one cycle under ``.bench_out/``;
2. times ``import ksblowup.cli`` in fresh processes (set-up);
3. starts the measured worker process, which imports the package from
   ``src/`` of the checkout and calls ``cli.main`` in a closed loop, one
   client, the next call starting when the previous one returns;
4. checks every output (``check.py``) against the failure rules, the
   ``oracles`` values and the reference rows in ``reference.json``;
5. prints a summary of the whole run and of each input kind, then as
   its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the worker makes one untraced and
one traced pass over the first ``workloads.TRACE_ITEMS`` items of the
cycle and the metrics are the per-layer ones.
Every result is also appended, with the machine and environment, to
``.bench_out/results.jsonl``.

Exit codes: 0 when the run completed (``correct`` says whether every
output passed), 2 when the run could not be made, for example when the
package source is missing.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: fresh-process imports of ``ksblowup.cli`` per run besides the worker's
SETUP_PROBES = 4
#: a run that has not finished by then is killed and reported as an error
WORKER_TIMEOUT_S = 170.0
#: tail percentiles tried, highest first, for the summary line
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: end-to-end metrics and their units.  ``ok_frac`` is 1 - failed_frac and
#: ``bound_ratio_max`` is 1 + looseness_max, so that neither reads 0 on a
#: clean run; the summary line prints failed_frac and looseness_max.
END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "report_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "bound_ratio_max": "ratio",
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    """Machine and software the result was measured with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_ENV
                             if k in os.environ},
    }


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def setup_samples(env):
    """Seconds to import ``ksblowup.cli`` in each of several fresh processes."""
    code = ("import time; t = time.perf_counter(); import ksblowup.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"cannot import ksblowup.cli:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def load_reference(items):
    """Reference row values of every item, by input kind and item id."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    absent = [item["id"] for item in items
              if item["id"] not in reference.get(item["kind"], {})]
    if absent:
        fail(f"no reference values for {absent}")
    return reference


def tail_percentile(samples):
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def run_worker(items_path, out_path, spans_path, seconds, trace, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), items_path,
           out_path, "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(out_path) as fh:
        return json.load(fh)


def check_calls(items, calls, reference):
    """(attempted reports, failed reports, worst looseness, reasons)."""
    from ksblowup import oracles

    by_id = {item["id"]: item for item in items}
    attempted = failed = 0
    worst = float("-inf")
    reasons = []
    for c in calls:
        item = by_id[c["id"]]
        outcome = check.check_call(item, c["rc"], c["stdout"],
                                   reference[item["kind"]][item["id"]],
                                   oracles)
        attempted += outcome.reports
        failed += outcome.failed
        worst = max(worst, outcome.looseness)
        reasons.extend(outcome.reasons)
        if c["rc"] != 0 and c["stderr"]:
            reasons.append(c["stderr"].strip().splitlines()[-1])
    return attempted, failed, worst, reasons


def speed(items, calls):
    """(reports per second, median seconds per report, per-report
    seconds) of ``calls``.  A report is a bound call, or one step of a
    sweep call, whose time is divided by its steps."""
    steps = {item["id"]: item.get("sweep", {}).get("steps", 1)
             for item in items}
    per_report = [c["seconds"] / steps[c["id"]] for c in calls]
    reports = sum(steps[c["id"]] for c in calls)
    return (reports / sum(c["seconds"] for c in calls),
            statistics.median(per_report), per_report)


def tail_text(per_report):
    tail = tail_percentile(per_report)
    if tail is None:
        return "no tail percentile: fewer than 40 samples"
    return f"report_s_p{tail[0]:g} {tail[1]:.6g} s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ksblowup", "cli.py")):
        fail(f"package source not found under {os.path.join(ROOT, 'src')}")

    base = os.path.join(ROOT, ".bench_out")
    work = os.path.join(
        base, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        items = workloads.write_cycle(args.workload, args.seed, work)
        if args.trace:
            items = items[:workloads.TRACE_ITEMS]
        items_path = os.path.join(work, "items.json")
        with open(items_path, "w") as fh:
            json.dump(items, fh)
        env = package_env()
        setup = [] if args.trace else setup_samples(env)
        result = run_worker(items_path, os.path.join(work, "worker.json"),
                            os.path.join(base,
                                         f"spans-{args.workload}.jsonl.gz"),
                            args.seconds, args.trace, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if os.path.realpath(result["ksblowup"]) != os.path.realpath(
            os.path.join(ROOT, "src", "ksblowup")):
        fail(f"worker imported ksblowup from {result['ksblowup']}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    reference = load_reference(items)
    attempted, failed, worst, reasons = check_calls(
        items, result["calls"], reference)
    for reason in reasons[:20]:
        print(f"failure: {reason}")

    setup.append(result["import_s"])
    env_info = dict(environment(), worker_cpus=result["cpus"])
    kinds = {}
    if args.trace:
        metrics = {name: {"value": value, "unit": spans.metric_unit(name)}
                   for name, value in sorted(result["layers"].items())}
        if result["missing"]:
            print(f"absent (target not found): {result['missing']}")
    else:
        calls = result["calls"]
        reports_per_s, report_s_p50, per_report = speed(items, calls)
        values = {
            "reports_per_s": reports_per_s,
            "report_s_p50": report_s_p50,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "bound_ratio_max": 1.0 + worst,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"summary {args.workload} seed={args.seed}: "
              f"reports={attempted} samples={len(per_report)} "
              f"failed_frac {failed / attempted:.6g} fraction, "
              f"looseness_max {worst:.6g} fraction, {tail_text(per_report)}, "
              f"cpu_s_per_report "
              f"{sum(c['cpu_s'] for c in calls) / attempted:.6g} s")
        kind_of = {item["id"]: item["kind"] for item in items}
        for kind in workloads.WORKLOAD_KINDS[args.workload]:
            mine = [c for c in calls if kind_of[c["id"]] == kind]
            if mine:
                rate, p50, samples = speed(items, mine)
                kinds[kind] = {"reports_per_s": rate, "report_s_p50": p50,
                               "samples": len(samples)}
                print(f"kind {kind}: reports_per_s {rate:.6g} 1/s, "
                      f"report_s_p50 {p50:.6g} s, samples={len(samples)}, "
                      f"{tail_text(samples)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env_info, sort_keys=True))

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(os.path.join(base, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.time(), "env": env_info,
                             "setup_samples": setup, "kinds": kinds,
                             **line}) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
