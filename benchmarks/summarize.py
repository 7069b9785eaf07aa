"""Summarize benchmark results into a ``BENCH_<label>.json`` file.

    python3 benchmarks/summarize.py LABEL [RESULTS.jsonl]

Reads the results that ``run.py`` appended to ``.bench_out/results.jsonl``
(or the given file) and writes ``benchmarks/BENCH_<LABEL>.json``: for each
workload and metric, every value with its seed, the median and the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(Q3 - Q1) / median; the same for the figures of each input kind of a
mixed workload such as ``bound_mix``; plus the environment of the runs.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
#: figures ``run.py`` records for each input kind of a mixed workload
KIND_UNITS = {"reports_per_s": "1/s", "report_s_p50": "s"}


def summarize(records):
    grouped = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(lambda: defaultdict(list))
    envs = []
    for r in records:
        mode = "per_layer" if r["trace"] else "end_to_end"
        key = f"{r['workload']}/{mode}"
        seeds[key]["seeds"].append(r["seed"])
        seeds[key]["failed"].append(r["failed"])
        seeds[key]["attempted"].append(r["attempted"])
        for name, m in r["metrics"].items():
            grouped[key][name].append((m["value"], m["unit"]))
        for kind, figures in r.get("kinds", {}).items():
            if kind == r["workload"]:
                continue
            kind_key = f"{r['workload']}/kind/{kind}"
            seeds[kind_key]["seeds"].append(r["seed"])
            for name, unit in KIND_UNITS.items():
                grouped[kind_key][name].append((figures[name], unit))
        if r["env"] not in envs:
            envs.append(r["env"])
    out = {"environment": envs, "workloads": {}}
    for key in sorted(grouped):
        entry = dict(seeds[key])
        for name, pairs in sorted(grouped[key].items()):
            values = [v for v, _ in pairs]
            median = statistics.median(values)
            stats = {"unit": pairs[0][1], "values": values, "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / median if median else None)
            entry[name] = stats
        out["workloads"][key] = entry
    return out


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(HERE), ".bench_out", "results.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    out = summarize(records)
    target = os.path.join(HERE, f"BENCH_{label}.json")
    with open(target, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for key, entry in out["workloads"].items():
        for name, stats in entry.items():
            if isinstance(stats, dict) and "spread" in stats:
                print(f"{key:28s} {name:40s} median {stats['median']:.6g} "
                      f"{stats['unit']:12s} spread {stats['spread'] or 0:.4f}")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
