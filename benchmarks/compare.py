"""Compare two result sets of the benchmark, parent against change.

    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON object per line, ``{"workload", "seed",
"result"}``, as ``steady.py`` writes them. Every workload x end-to-end
metric of BENCHMARK.json gets its own row: each side's median and
quartiles, the share of pairs (runs with the same seed) the change wins,
and a verdict:

- improved: the change wins at least 9/10 of all pairs, ties counting for
  neither, and the medians differ in its favour by more than the
  distance between the parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: neither, and the parent's own quartile spread is wider than
  the bound, unless every change run reads better than every parent run;
- unchanged: neither, with the parent's spread inside the bound.

The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = BENCHMARK) -> dict:
    return json.loads(path.read_text())


def read_runs(path) -> dict:
    """workload -> metric -> [(seed, value), ...] in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                runs[record["workload"]][name].append((record["seed"], metric["value"]))
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def pair_up(parent, change) -> list[tuple[float, float]]:
    """Pair runs with the same seed, in the order each seed appears."""
    queues = defaultdict(list)
    for seed, value in parent:
        queues[seed].append(value)
    pairs = []
    for seed, value in change:
        if queues[seed]:
            pairs.append((queues[seed].pop(0), value))
    return pairs


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """Verdict and the change's pair win share for one workload x metric."""
    sign = 1 if better == "higher" else -1
    pairs = pair_up(parent, change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_med, c_med = median(p_values), median(c_values)
    q1, _, q3 = quartiles(p_values)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", share
    if -gain > bound * abs(p_med):
        return "worse", share
    all_better = min(sign * v for v in c_values) > max(sign * v for v in p_values)
    if spread(p_values) > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent_path, change_path, spec: dict) -> tuple[list[str], bool]:
    parent, change = read_runs(parent_path), read_runs(change_path)
    lines = [
        f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>5}  verdict"
    ]
    any_worse = False
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = parent[workload["name"]][name], change[workload["name"]][name]
            if not p or not c:
                lines.append(f"{workload['name']:<11} {name:<15} missing runs")
                continue
            result, share = verdict(p, c, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            cells = []
            for runs in (p, c):
                q1, q2, q3 = quartiles([v for _, v in runs])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {metric['unit']}")
            lines.append(
                f"{workload['name']:<11} {name:<15} {cells[0]:>34} {cells[1]:>34} "
                f"{share:>5.0%}  {result}"
            )
    return lines, any_worse


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, any_worse = compare(args[0], args[1], load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
