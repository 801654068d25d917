#!/usr/bin/env python3
"""Builds and runs the simpush RAM-scale serving benchmark.

    python3 perfbench/run.py --workload uniform_ram --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark is compiled from the
repository's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the 2M-node graph is generated once into that
directory and loaded by every run. Each run prints a metric table, a
host line, and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it also writes a
span file and derives the span metrics (self times, stage sums) from
it. Every run's record, host stamp included, is kept under
.bench_results/ for perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
GRAPH_NAME = "chunglu-n2000000-m24000000-b2.2-s1.spg"
RUN_TIMEOUT_S = 170
# The replayed stage spans must sum to the QueryInto span within this
# share (median over replayed sources).
STAGE_SUM_TOLERANCE = 0.25
# Runnable by hand but left out of BENCHMARK.json: a full measurement
# fits two workloads at a steady sample size in under an hour (README.md).
EXTRA_WORKLOADS = {"update_mix_ram"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO / target
    return target / "perfbench"


def build(out):
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=800)
    return out / "serve_bench"


def ensure_graph(binary, out):
    graph = out / "graphs" / GRAPH_NAME
    if not graph.exists():
        graph.parent.mkdir(parents=True, exist_ok=True)
        log("generating the benchmark graph (once per build directory)")
        subprocess.run([str(binary), "--generate-graph", str(graph)],
                       check=True, stdout=sys.stderr, timeout=600)
    return graph


def read_first(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def host_stamp(out):
    """Which box recorded this: cores, quota, CPU, L3, compiler, build."""
    quota = read_first("/sys/fs/cgroup/cpu.max", "")
    if quota:
        limit, period = (quota.split() + ["100000"])[:2]
        quota = "none" if limit == "max" else round(int(limit) / int(period), 2)
    else:
        limit = read_first("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "-1")
        period = read_first("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "100000")
        quota = "none" if int(limit) <= 0 else round(int(limit) / int(period), 2)
    model = ""
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    l3 = ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read_first(index / "level") == "3":
            l3 = read_first(index / "size")
    cache = {}
    for line in read_first(out / "CMakeCache.txt").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout.splitlines()
            compiler = version[0] if version else compiler
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "logical_cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "cpu_model": model,
        "l3_cache": l3,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "kernel": platform.release(),
    }


def quantile(values, q):
    """Linear interpolation between order statistics (as the C++ side)."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def self_time(span, children):
    """Duration minus the part of the span's interval its children cover."""
    intervals = sorted((max(c["start_us"], span["start_us"]),
                        min(c["end_us"], span["end_us"]))
                       for c in children.get(span["id"], []))
    covered, cursor = 0.0, span["start_us"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span["end_us"] - span["start_us"] - covered


def span_metrics(path):
    """Per-layer metrics derived from the span file, plus its checks."""
    spans = [json.loads(line) for line in Path(path).read_text().splitlines()]
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    durations = defaultdict(list)
    for s in spans:
        durations[s["name"]].append(s["end_us"] - s["start_us"])
    p50 = {name: quantile(values, 0.5) for name, values in durations.items()}
    failures = []

    transport, handle, service_self = [], [], []
    handler_of = {"client.request": "service.handle",
                  "client.update": "service.graph_op"}
    for s in spans:
        if s["name"] not in handler_of:
            continue
        handlers = [c for c in children.get(s["id"], [])
                    if c["name"] == handler_of[s["name"]]]
        if len(handlers) != 1:
            failures.append(f"request {s['request']} has {len(handlers)} handler spans")
            continue
        h = handlers[0]
        if h["start_us"] < s["start_us"] or h["end_us"] > s["end_us"]:
            failures.append(f"request {s['request']}: {s['name']} < {h['name']}")
        if s["name"] != "client.request" or s["attrs"]["warmup"] or not s["attrs"]["ok"]:
            continue
        handle_us = h["end_us"] - h["start_us"]
        transport.append(self_time(s, children))
        handle.append(handle_us)
        service_self.append(handle_us - s["attrs"]["engine_ms"] * 1e3
                            - p50.get("registry.lease", 0) - p50.get("cache.get", 0))

    stage_names = ("simpush.source_push", "simpush.hitting",
                   "simpush.last_meeting", "simpush.reverse_push")
    per_request = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["name"] in stage_names or s["name"] == "runner.query_into":
            per_request[s["request"]][s["name"]] += s["end_us"] - s["start_us"]
    ratios = [sum(r[n] for n in stage_names) / r["runner.query_into"]
              for r in per_request.values() if r["runner.query_into"] > 0]
    stage_sum_ratio = quantile(ratios, 0.5)
    # Per source, and as medians: the stage p50s must add up to
    # engine.query_p50_ms too.
    query_p50 = p50.get("runner.query_into", 0.0)
    p50_sum_ratio = (sum(p50.get(n, 0.0) for n in stage_names) / query_p50
                     if query_p50 > 0 else 0.0)
    for label, ratio in (("per source", stage_sum_ratio),
                         ("as p50s", p50_sum_ratio)):
        if not ratios or abs(ratio - 1.0) > STAGE_SUM_TOLERANCE:
            failures.append(f"stage spans sum to {ratio:.3f} of QueryInto {label} "
                            f"(tolerance {STAGE_SUM_TOLERANCE})")

    def span_quantile(name, q=0.5, unit="ms"):
        values = durations.get(name, [])
        scale = 1e3 if unit == "ms" else 1.0
        return quantile(values, q) / scale, unit, len(values)

    def sample_p50(values):
        return quantile(values, 0.5) / 1e3, "ms", len(values)

    metrics = {
        "http.transport_p50_ms": sample_p50(transport),
        "service.handle_p50_ms": sample_p50(handle),
        "service.self_p50_ms": sample_p50(service_self),
        "cache.get_p50_us": span_quantile("cache.get", unit="us"),
        "registry.lease_p50_us": span_quantile("registry.lease", unit="us"),
        "registry.swap_p50_ms": span_quantile("service.graph_op"),
        "engine.query_p50_ms": span_quantile("runner.query_into"),
        "engine.query_p95_ms": span_quantile("runner.query_into", 0.95),
        "engine.pool_acquire_p50_us": span_quantile("pool.acquire", unit="us"),
        "simpush.source_push_p50_ms": span_quantile("simpush.source_push"),
        "simpush.hitting_p50_ms": span_quantile("simpush.hitting"),
        "simpush.last_meeting_p50_ms": span_quantile("simpush.last_meeting"),
        "simpush.reverse_push_p50_ms": span_quantile("simpush.reverse_push"),
        "simpush.stage_sum_ratio": (stage_sum_ratio, "ratio", len(ratios)),
    }
    return metrics, failures, len(spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "serve" / "service.h").exists():
        log(f"run.py: simpush sources not found under {REPO / 'src'}")
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]} | EXTRA_WORKLOADS:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2

    started = time.monotonic()
    out = build_dir()
    binary = build(out)
    graph = ensure_graph(binary, out)
    results = REPO / ".bench_results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    spans = results / f"spans-seed{args.seed}.jsonl"
    budget = max(30, RUN_TIMEOUT_S - (time.monotonic() - started))
    proc = subprocess.run(
        [str(binary), "--graph", str(graph), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans", str(spans)],
        capture_output=True, text=True, timeout=budget)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"run.py: serve_bench exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = list(raw["failures"])
    failed = raw["failed"]
    table = {name: (m["value"], m["unit"], m["samples"])
             for name, m in raw["end_to_end"].items()}
    if args.trace:
        table.update({name: (m["value"], m["unit"], m["samples"])
                      for name, m in raw["per_layer"].items()})
        derived, span_failures, span_count = span_metrics(spans)
        table.update(derived)
        failures += span_failures
        failed += len(span_failures)
        log(f"{span_count} spans written to {spans}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted
               if m["name"] not in table or table[m["name"]][1] != m["unit"]]
    if missing:
        log(f"run.py: metrics missing from the run or in another unit: {missing}")
        return 1

    host = host_stamp(out)
    for name, (value, unit, samples) in table.items():
        print(f"{args.workload:15} {name:30} {value:16.4f} {unit:6} samples={samples}")
    print("host " + json.dumps(host, sort_keys=True))
    for message in failures:
        print(f"FAILED: {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "attempted": raw["attempted"],
        "failed": failed, "failures": failures,
        "samples_verified": raw["samples_verified"],
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in table.items()},
    }
    (results / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
