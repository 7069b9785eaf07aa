"""The measured process: runs ``ksblowup`` CLI calls in a closed loop.

Usage (``run.py`` starts it; inputs must exist already):

    python3 worker.py ITEMS.json OUT.json --seconds S [--trace --spans F]

Without ``--trace`` the worker makes one untimed warm-up call of the
first item, then cycles through the items for ``S`` seconds, one
``cli.main`` call at a time, and records each call's wall time, exit
code and output.  With ``--trace`` it makes one untraced pass
and then one traced pass over the items instead, so the traced pass does
a fixed amount of work and its counts repeat exactly.

The worker pins itself to one CPU, then imports ``ksblowup.cli``; that
import time is one set-up sample.  ``ru_maxrss`` at the end is the peak memory.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import sys
import time
import traceback


def call(cli, argv):
    """One CLI call with its output captured:
    (exit code, wall s, process CPU s, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed report, not a benchmark error
        rc = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return rc, seconds, time.process_time() - c0, out.getvalue(), \
        err.getvalue()


def record(item, rc, seconds, cpu_s, out, err):
    return {"id": item["id"], "rc": rc, "seconds": seconds, "cpu_s": cpu_s,
            "stdout": out, "stderr": err[-2000:]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("items")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file for the traced pass's spans")
    args = parser.parse_args()

    # one CPU: the sweep's thread pool and BLAS threads then contend for a
    # single core, so a neighbour's load on the other core does not change
    # how much parallelism a run gets
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    import ksblowup.cli as cli
    import_s = time.perf_counter() - t0

    with open(args.items) as fh:
        items = json.load(fh)
    result = {"import_s": import_s, "ksblowup": os.path.dirname(cli.__file__),
              "cpus": len(os.sched_getaffinity(0))}

    if not args.trace:
        # warm-up: lazy imports and first-use caches are not timed
        call(cli, items[0]["argv"])
        calls = []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < args.seconds:
            item = items[k % len(items)]
            calls.append(record(item, *call(cli, item["argv"])))
            k += 1
        result["calls"] = calls
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    else:
        import ksblowup
        import spans

        plain = [record(item, *call(cli, item["argv"])) for item in items]
        rec = spans.SpanRecorder()
        patcher = spans.install(rec, ksblowup)
        try:
            traced = [record(item, *call(cli, item["argv"]))
                      for item in items]
        finally:
            patcher.restore()
        result["calls"] = plain + traced
        untraced_s = sum(c["seconds"] for c in plain)
        traced_s = sum(c["seconds"] for c in traced)
        reports = sum(item.get("sweep", {}).get("steps", 1) for item in items)
        layers = spans.layer_metrics(rec.spans, rec.rows, reports,
                                     rec.missing)
        layers["trace_overhead_frac"] = traced_s / untraced_s - 1.0
        result["layers"] = layers
        result["missing"] = rec.missing
        with gzip.open(args.spans, "wt") as fh:
            for s in rec.spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
