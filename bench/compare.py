"""Compare two sets of untraced result files, metric by metric.

    python3 bench/compare.py A B     # A = parent, B = change
    python3 bench/compare.py A       # spread of one set

A and B are directories of `*-untraced.json` files written by `run.py`
(several seeds per workload).  One row per workload and end-to-end
metric: the median and quartiles over the runs of each set, the bound
from BENCHMARK.json, and a verdict:

    better      B's median is better by more than A's own spread
    within      no worse than the bound allows
    worse       worse by more than the bound (exit code 1)
    unresolved  a set's spread is wider than the bound, and B does not
                beat A on every run

The spread of a set is the distance between its quartiles as a share of
its median, the figure the driver computes.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{workload: {metric: [value per run]}} from a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-untraced.json")):
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        by_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            by_metric.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    gain = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        wins_all = all(sign * (y - x) > 0 for x in a for y in b)
        return "better" if wins_all else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(a):
        return "better"
    return "within"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_FILE, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sets = [load(directory) for directory in argv]
    worse = False
    header = f"{'workload':<15} {'metric':<12} {'bound':>6}"
    for label in "AB"[:len(sets)]:
        header += f" | {label + ' median':>12} {'q1':>11} {'q3':>11} {'spread':>7} {'n':>3}"
    print(header + ("   verdict" if len(sets) == 2 else ""))
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            columns = [runs.get(workload, {}).get(name) for runs in sets]
            if not all(columns):
                continue
            row = f"{workload:<15} {name:<12} {metric['bound']:>6.2f}"
            for values in columns:
                q1, median, q3 = quartiles(values)
                row += (f" | {median:>12.6g} {q1:>11.6g} {q3:>11.6g} "
                        f"{spread(values):>7.3f} {len(values):>3}")
            if len(sets) == 2:
                outcome = verdict(*columns, metric["better"] == "higher", metric["bound"])
                worse = worse or outcome == "worse"
                row += f"   {outcome}"
            print(row)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
