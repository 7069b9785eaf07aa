"""Record the reference row values of every workload pool entry.

    python3 benchmarks/record_reference.py [KIND ...]

Runs each pool entry of each input kind (``workloads.KIND_WHY``) once
through ``cli.main`` and stores the computed row values in
``reference.json``, which ``check.py`` measures looseness against.
The stored values come from the commit that defined the benchmark;
re-record only when a change is meant to move the bounds, and say so
in the change.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import call  # noqa: E402


def main(names):
    import ksblowup.cli as cli

    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as fh:
            reference = json.load(fh)
    for kind in names or list(workloads.KIND_WHY):
        entries = {}
        scratch = os.path.join(os.path.dirname(HERE), ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for key in workloads.pool_keys(kind):
                item = workloads.write_item(kind, key, tmp)
                rc, seconds, _, out, err = call(cli, item["argv"])
                if rc != 0:
                    raise RuntimeError(f"{item['id']}: exit {rc}\n{err}")
                entries[item["id"]] = check.reference_values(item, rc, out)
                print(f"{kind} {item['id']} {seconds:.2f} s", flush=True)
        reference[kind] = entries
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
