"""Compare the solution digests of two benchmark result files, op by op.

    python3 bench/compare.py bench-results/BENCH_fast-mode_seed1.json other.json

Prints one line per op whose digest differs or that only one file has,
and exits 1 if there is any, else 0.  Two runs of the same workload and
seed on code that keeps every output stream identical print nothing but
the summary.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        report = json.load(fh)
    return report, {row["op"]: row["digest"] for row in report["ops"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (ra, a), (rb, b) = load(argv[0]), load(argv[1])
    if (ra["workload"], ra["seed"]) != (rb["workload"], rb["seed"]):
        print(
            f"note: comparing {ra['workload']} seed {ra['seed']} with "
            f"{rb['workload']} seed {rb['seed']}; digests only match on the same inputs"
        )
    differ = 0
    for op in sorted(a.keys() | b.keys()):
        if a.get(op) != b.get(op):
            differ += 1
            print(f"{op}: {a.get(op, 'missing')} != {b.get(op, 'missing')}")
    print(f"{len(a.keys() | b.keys()) - differ} ops identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
