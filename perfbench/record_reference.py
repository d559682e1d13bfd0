"""Record the reference key numbers the benchmark compares every pass against.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

For each workload (default: all) and each data seed ``0 .. REFERENCE_SEEDS-1``
it runs one pass, requires every report check to pass, and writes the key
numbers of each experiment to ``perfbench/reference.json`` (entries of
workloads not named are kept).
"""

from __future__ import annotations

import json
import os
import sys

from workloads import REFERENCE_SEEDS, WORKLOADS, key_numbers
from worker import run_pass


def main(argv: list[str]) -> int:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    for name in argv or sorted(WORKLOADS):
        table[name] = {}
        for seed in range(REFERENCE_SEEDS):
            wall, _, outcomes = run_pass(name, seed, os.path.join(".bench_out", "record", name))
            entry = []
            for experiment, report in outcomes:
                if isinstance(report, str) or not report.passed:
                    print(f"{name} seed {seed}: {experiment} did not pass", file=sys.stderr)
                    return 1
                entry.append(key_numbers(experiment, report.metrics))
            table[name][str(seed)] = entry
            print(f"{name} seed {seed}: {wall:.2f} s", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
