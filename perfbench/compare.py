#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as perfbench/run.py writes them
(.bench_results/<workload>/seed<N>-trace<T>.json); copy .bench_results
aside after running the parent commit, then run the change. For every
(workload, metric) it prints each side's median and quartiles, the
change of the medians, the share of seed-matched pairs the new side
wins, and a verdict that uses the bounds in BENCHMARK.json:

  better     the new median is better by more than the base runs' own
             spread (quartile distance over median) and the new side
             wins at least 9 of 10 pairs;
  worse      the new median is worse by more than the metric's bound
             from BENCHMARK.json (or, for per-layer metrics, which have
             no bound, by more than the base spread while losing at
             least 9 of 10 pairs);
  unchanged  neither, and both sides' spreads are within the bound;
  unresolved neither, and a spread is wider than the bound (or the
             metric has no bound), so the runs cannot tell.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """{(workload, metric): {seed: value}} and the hosts seen."""
    runs, hosts = defaultdict(dict), []
    for path in sorted(Path(directory).rglob("seed*-trace*.json")):
        record = json.loads(path.read_text())
        if record["host"] not in hosts:
            hosts.append(record["host"])
        for name, metric in record["metrics"].items():
            runs[(record["workload"], name)][record["seed"]] = metric["value"]
    return runs, hosts


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base, new, better, bound):
    """Verdict plus the numbers behind it; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3 = summary(list(base.values()))
    n_med, n_q1, n_q3 = summary(list(new.values()))
    scale = abs(b_med) if b_med else 1.0
    change = sign * (n_med - b_med) / scale  # > 0 means worse.
    base_spread = (b_q3 - b_q1) / scale
    new_spread = (n_q3 - n_q1) / (abs(n_med) if n_med else 1.0)
    seeds = sorted(set(base) & set(new))
    pairs = ([(base[s], new[s]) for s in seeds] if seeds else
             [(b, n) for b in base.values() for n in new.values()])
    wins = sum(sign * (n - b) < 0 for b, n in pairs) / len(pairs)
    losses = sum(sign * (n - b) > 0 for b, n in pairs) / len(pairs)
    if change < 0 and -change > base_spread and wins >= 0.9:
        label = "better"
    elif bound is not None and change > bound:
        label = "worse"
    elif bound is None and change > base_spread and losses >= 0.9:
        label = "worse"
    elif bound is not None and max(base_spread, new_spread) <= bound:
        label = "unchanged"
    else:
        label = "unresolved"
    return label, (b_med, b_q1, b_q3), (n_med, n_q1, n_q3), change, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_hosts = load_runs(args.base)
    new, new_hosts = load_runs(args.new)
    for label, hosts in (("base", base_hosts), ("new", new_hosts)):
        for host in hosts:
            print(f"{label} host: {json.dumps(host, sort_keys=True)}")
    if len({json.dumps(h, sort_keys=True) for h in base_hosts + new_hosts}) > 1:
        print("warning: the runs come from more than one host")

    print(f"{'workload':15} {'metric':30} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'worse by':>8} {'bound':>6} {'wins':>5}  verdict")
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in metrics:
            continue
        bound = metrics[name].get("bound")
        label, b, n, change, wins = verdict(base[key], new[key],
                                            metrics[name]["better"], bound)
        worse += label == "worse"
        fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        print(f"{workload:15} {name:30} {fmt(b):>30} {fmt(n):>30} "
              f"{change:+8.1%} {'' if bound is None else f'{bound:.2f}':>6} "
              f"{wins:5.0%}  {label}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
