#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as written by perfbench/run.py (it
stores them under .perfbench_out/results/); copy that directory aside
after measuring each commit. Records from traced runs are ignored.

For every (workload, end-to-end metric) of BENCHMARK.json it prints both
sides' median and quartiles and a verdict:

  better      the new side wins at least 9 of every 10 runs paired by
              seed (ties count for neither) and the medians differ by
              more than the base's own quartile distance; or, where a
              spread is wider than the bound, every new run beats every
              base run
  worse       the new median is worse than the base median by more than
              the metric's bound
  unchanged   neither, with both spreads within the bound
  unresolved  a spread (quartile distance / median) is wider than the
              bound, or a gain rests on fewer than 10 pairs

A spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.

Each side's median host noise (hypervisor steal share and the p99
lateness of a 1 ms sleep, both recorded by every run) is printed too.
When they differ by more than 2x, the two sides ran under different
host load, and a better/worse verdict is marked "(host load differs)":
two sets of the same commit measured under different load have come
out "better" on four train_pa metrics.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


HOST_KEYS = ("host_steal_share", "host_wake_lag_p99_us")


def load_records(directory):
    """workload -> list of (seed, {metric: value}) from untraced runs; the
    host-noise provenance rides along under HOST_KEYS."""
    by_workload = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in sorted(filenames):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(dirpath, name)) as f:
                    record = json.load(f)
            except (OSError, ValueError):
                continue
            prov = record.get("provenance") if isinstance(record, dict) else None
            if not prov or prov.get("trace") or "end_to_end" not in record:
                continue
            values = {k: v["value"] for k, v in record["end_to_end"].items()}
            values.update({k: prov[k] for k in HOST_KEYS if k in prov})
            by_workload.setdefault(prov["workload"], []).append(
                (prov["seed"], values))
    return by_workload


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs_by_seed(base, new, metric):
    """Pairs runs of equal seed, in record order."""
    pool = {}
    for seed, values in base:
        if metric in values:
            pool.setdefault(seed, []).append(values[metric])
    out = []
    for seed, values in new:
        if metric in values and pool.get(seed):
            out.append((pool[seed].pop(0), values[metric]))
    return out


def verdict(base_vals, new_vals, pairs, better, bound):
    sign = -1.0 if better == "lower" else 1.0  # sign * (new - base) > 0: gain
    q1_b, med_b, q3_b = quartiles(base_vals)
    _, med_n, _ = quartiles(new_vals)
    wide = spread(base_vals) > bound or spread(new_vals) > bound
    all_better = all(sign * (n - b) > 0 for b in base_vals for n in new_vals)
    if wide:
        return "better" if all_better else "unresolved"
    if sign * (med_n - med_b) < -bound * abs(med_b):
        return "worse"
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if sign * (med_n - med_b) > 0 and wins >= WIN_SHARE * len(pairs) and \
            abs(med_n - med_b) > (q3_b - q1_b):
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base = load_records(args.base)
    new = load_records(args.new)

    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print("\n%s (base %d runs, new %d runs)" % (workload, len(b_runs),
                                                   len(n_runs)))
        if not b_runs or not n_runs:
            status = 1
            continue
        host_differs = False
        for key in HOST_KEYS:
            bh = [v[key] for _, v in b_runs if key in v]
            nh = [v[key] for _, v in n_runs if key in v]
            if bh and nh:
                b_med, n_med = statistics.median(bh), statistics.median(nh)
                ratio = max(b_med, n_med) / max(min(b_med, n_med), 1e-9)
                host_differs |= ratio > 2
                print("  host %-22s base %10.4g  new %10.4g%s" % (
                    key, b_med, n_med,
                    "  <- host load differs" if ratio > 2 else ""))
        print("  %-16s %-6s %28s %28s %8s %7s  %s" % (
            "metric", "unit", "base median [q1, q3]", "new median [q1, q3]",
            "change", "pairs", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [v[name] for _, v in b_runs if name in v]
            nv = [v[name] for _, v in n_runs if name in v]
            if not bv or not nv:
                print("  %-16s missing on one side" % name)
                status = 1
                continue
            pairs = pairs_by_seed(b_runs, n_runs, name)
            v = verdict(bv, nv, pairs, metric["better"], metric["bound"])
            if host_differs and v in ("better", "worse"):
                v += " (host load differs)"
            bq, nq = quartiles(bv), quartiles(nv)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            print("  %-16s %-6s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%+7.1f%% %7d  %s" % (
                      name, metric["unit"], bq[1], bq[0], bq[2], nq[1], nq[0],
                      nq[2], 100 * change, len(pairs), v))
            if v.startswith("worse"):
                status = 1
        # Metrics the records carry but BENCHMARK.json does not gate
        # (select_p50_ms, select_p99_ms, max_rate_rps, failed_share):
        # shown, no verdict.
        declared = {m["name"] for m in spec["end_to_end"]} | set(HOST_KEYS)
        extra = sorted({k for _, v in b_runs + n_runs for k in v} - declared)
        for name in extra:
            bv = [v[name] for _, v in b_runs if name in v]
            nv = [v[name] for _, v in n_runs if name in v]
            if bv and nv:
                bq, nq = quartiles(bv), quartiles(nv)
                print("  %-16s %-6s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                      "%8s %7s  not gated" % (name, "", bq[1], bq[0], bq[2],
                                              nq[1], nq[0], nq[2], "", ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
