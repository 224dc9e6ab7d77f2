#!/usr/bin/env python3
"""Checks that the benchmark is steady and its counts repeat.

Run from the root of the repository:

    python3 perfbench/spread.py --workloads serve-ingest,serve-query --seeds 1-10

For every workload it runs the benchmark once per seed (`--trace 0`) and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartile of the values, as a share of the
median. A spread at or above a third of the metric's bound in
BENCHMARK.json is flagged (setup_s is only reported). It also checks that
every run is correct and prints exactly the metrics BENCHMARK.json lists.

With --counts SEED it instead runs each workload twice traced (`--trace 1`)
with that seed and checks that every count-type per-layer metric is
identical in both runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out =subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    wanted = bench["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ names)}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stderr[-2000:]}")
    return result


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(bench, workloads, seeds):
    steady = True
    for w in workloads:
        values = {}
        for seed in seeds:
            result = run(bench, w, seed, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = ""
            if m["name"] != "setup_s" and spread >= limit:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {w:<18} {m['name']:<16} median {med:12.4f} {m['unit']:<4} "
                  f"spread {spread:7.4f} (bound {m['bound']}){flag}", flush=True)
    return steady


def counts(bench, workloads, seed):
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    all_same = True
    for w in workloads:
        a, b = (run(bench, w, seed, 1)["metrics"] for _ in range(2))
        differ = [n for n, unit in units.items()
                  if unit in ("count", "bytes") and a[n]["value"] != b[n]["value"]]
        for name in differ:
            print(f"  {w}: {name} differs: {a[name]['value']} vs {b[name]['value']}")
        print(f"{w}: counts {'DIFFER' if differ else 'identical'}", flush=True)
        all_same = all_same and not differ
    return all_same


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--counts", type=int, default=None)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    if args.counts is not None:
        ok = counts(bench, workloads, args.counts)
    else:
        ok = spreads(bench, workloads, parse_seeds(args.seeds))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
