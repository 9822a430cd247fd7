"""Collect perfbench run records into one point of the BENCH trajectory.

    python3 tools/bench_point.py --label change --seeds 1-10 --out BENCH_6.json
    python3 tools/bench_point.py --label parent --seeds 1-10 --out BENCH_6.json \
        --runs ../parent-checkout/.perfbench_out/runs

`perfbench/run.py` leaves one record per (workload, seed, trace) in
`.perfbench_out/runs/`. For the given seeds this script reads them and
stores, under `--label` in the output file (other labels in it are kept):

  - the machine, Python/numpy/scipy versions and git sha of the runs;
  - per workload, the median and quartiles of every end-to-end metric
    over the untraced runs, with the failed and attempted operations;
  - per workload, the per-layer rows of the traced runs (median and
    quartiles when there are several).

Metric names and units come from BENCHMARK.json, so the point follows the
benchmark's definition rather than a copy of it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_KEYS = ("machine", "nproc", "python", "numpy", "scipy", "git_sha")


def parse_seeds(text):
    """'1-3,7' -> {1, 2, 3, 7}."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    """Median and quartiles (inclusive method) of a non-empty list."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load_runs(runs_dir, seeds):
    runs = []
    for path in sorted(glob.glob(os.path.join(runs_dir, "*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        if run["record"]["seed"] in seeds and not run["record"]["smoke"]:
            runs.append(run)
    return runs


def point(runs, bench):
    """The BENCH entry of one set of runs."""
    env = {}
    for key in RECORD_KEYS:
        seen = sorted({json.dumps(run["record"].get(key)) for run in runs})
        env[key] = json.loads(seen[0]) if len(seen) == 1 else [json.loads(v) for v in seen]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {}
    for wl in [w["name"] for w in bench["workloads"]]:
        plain = [r for r in runs if r["record"]["workload"] == wl and not r["record"]["trace"]]
        traced = [r for r in runs if r["record"]["workload"] == wl and r["record"]["trace"]]
        if not (plain or traced):
            continue
        entry = workloads[wl] = {}
        if plain:
            entry["seeds"] = sorted(r["record"]["seed"] for r in plain)
            entry["correct"] = all(r["result"]["correct"] for r in plain)
            entry["failed"] = [r["result"]["failed"] for r in plain]
            entry["attempted"] = [r["result"]["attempted"] for r in plain]
            entry["end_to_end"] = {
                name: dict(summarize([r["result"]["metrics"][name]["value"] for r in plain]),
                           unit=units[name])
                for name in end_to_end}
        if traced:
            entry["traced_seeds"] = sorted(r["record"]["seed"] for r in traced)
            names = [n for n in units if n not in end_to_end
                     and all(n in r["result"]["metrics"] for r in traced)]
            entry["per_layer"] = {
                name: dict(summarize([r["result"]["metrics"][name]["value"] for r in traced]),
                           unit=units[name])
                for name in names}
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="name of this point, e.g. parent or change")
    ap.add_argument("--seeds", required=True, help="seeds to collect, e.g. 1-10 or 1,3,5")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to create or update")
    ap.add_argument("--runs", default=os.path.join(ROOT, ".perfbench_out", "runs"),
                    help="directory of perfbench run records")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = load_runs(args.runs, parse_seeds(args.seeds))
    if not runs:
        print(f"error: no run records for seeds {args.seeds} in {args.runs}", file=sys.stderr)
        return 2
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc[args.label] = point(runs, bench)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
