#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit against runs of a change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds result files as benchmark/run.sh writes them to
build-bench/results/: one JSON object per run with "workload", "seed" and
"metrics" ({name: {"value", "unit"}}).  Run the same seeds on both sides,
at least ten per workload, alternating which side runs first.

For every metric of the spec (BENCHMARK.json) and every workload, prints
each side's median and quartiles, the share of pairs the change won, and a
verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound, unless
              every change run beats every parent run;
  unchanged   otherwise.

Per-layer metrics have no bound: they are only ever improved, worse (the
mirror of the improved rule) or unresolved.  Pairs match runs of equal
seed, else runs in sorted order.  Exits 1 when any end-to-end metric
regressed.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(directory, workloads):
    """{workload: [(seed, {metric: value})]} from every *.json file."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or "metrics" not in doc:
            continue
        workload = doc.get("workload")
        if workload is None:
            workload = next((w for w in workloads if path.name.startswith(w)), None)
        if workload is None:
            print(f"compare.py: skipping {path}: no workload", file=sys.stderr)
            continue
        values = {name: m["value"] for name, m in doc["metrics"].items()
                  if isinstance(m, dict) and m.get("value") is not None}
        runs.setdefault(workload, []).append((doc.get("seed", path.name), values))
    for entries in runs.values():
        entries.sort(key=lambda e: str(e[0]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs_of(parent, change):
    """Pair runs by seed when both sides ran the same seeds, else by order."""
    p_seeds = [s for s, _ in parent]
    c_seeds = [s for s, _ in change]
    if sorted(map(str, p_seeds)) == sorted(map(str, c_seeds)):
        c_by_seed = {str(s): v for s, v in change}
        return [(v, c_by_seed[str(s)]) for s, v in parent]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def verdict(metric, p_vals, c_vals, pairs):
    lower = metric["better"] == "lower"
    bound = metric.get("bound")

    def better(c, p):
        return c < p if lower else c > p

    med_p, med_c = statistics.median(p_vals), statistics.median(c_vals)
    q1, q3 = quartiles(p_vals)
    spread = q3 - q1
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    n = len(pairs)
    if n and wins >= 0.9 * n and better(med_c, med_p) and abs(med_c - med_p) > spread:
        return "improved", wins, n
    if med_p == 0:
        return "unresolved", wins, n
    worse_by = (med_c - med_p) / abs(med_p) * (1 if lower else -1)
    if bound is None:
        if n and losses >= 0.9 * n and abs(med_c - med_p) > spread:
            return "worse", wins, n
        return "unresolved", wins, n
    if worse_by > bound:
        return "regressed", wins, n
    all_better = all(better(c, p) for c in c_vals for p in p_vals)
    if spread / abs(med_p) > bound and not all_better:
        return "unresolved", wins, n
    return "unchanged", wins, n


def fmt(v):
    return f"{v:.6g}"


def main():
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="directory of the parent commit's results")
    ap.add_argument("change", help="directory of the change's results")
    ap.add_argument("--spec", default=str(here.parent / "BENCHMARK.json"),
                    help="benchmark spec with the metric bounds")
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    parent = load_runs(args.parent, workloads)
    change = load_runs(args.change, workloads)

    header = ("metric", "workload", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "won", "verdict")
    rows = []
    regressed = False
    for metric in metrics:
        for workload in workloads:
            p_runs = [v for _, v in parent.get(workload, []) if metric["name"] in v]
            c_runs = [v for _, v in change.get(workload, []) if metric["name"] in v]
            if not p_runs or not c_runs:
                continue
            p_vals = [v[metric["name"]] for v in p_runs]
            c_vals = [v[metric["name"]] for v in c_runs]
            pairs = [(p[metric["name"]], c[metric["name"]])
                     for p, c in pairs_of(parent[workload], change[workload])
                     if metric["name"] in p and metric["name"] in c]
            v, wins, n = verdict(metric, p_vals, c_vals, pairs)
            regressed |= v == "regressed"
            med_p, med_c = statistics.median(p_vals), statistics.median(c_vals)
            delta = f"{(med_c - med_p) / abs(med_p):+.2%}" if med_p else "n/a"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            rows.append((metric["name"], workload,
                         f"{fmt(med_p)} [{fmt(pq[0])}, {fmt(pq[1])}]",
                         f"{fmt(med_c)} [{fmt(cq[0])}, {fmt(cq[1])}]",
                         delta, f"{wins}/{n}", v))
    if not rows:
        print("compare.py: no metric has runs on both sides", file=sys.stderr)
        return 2
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
