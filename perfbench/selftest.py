"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks, for every workload, that a run prints the result line the
benchmark contract asks for: exactly the keys correct, attempted, failed
and metrics, with every metric of BENCHMARK.json present under its unit and
no other. Two traced runs on one seed must agree exactly on the counts the
program makes (models.phi.calls, simulate.levels.count and every
stationary.failed.* class). Finally the benchmark must refuse to run, with
a non-zero exit and no result, in a directory that holds only
BENCHMARK.json and the benchmark's files. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402

SEED = 7
EXACT_COUNTS = ["models.phi.calls", "simulate.levels.count"] + [
    f"stationary.failed.{c}" for c in metrics.FAILURE_CLASSES]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, expected):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(res)}")
    if res["correct"] is not True or not res["attempted"] >= 1:
        raise AssertionError(f"run not correct: {proc.stdout[-1500:]}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = [(n, got[n]) for n in expected if n in got and got[n] != expected[n]]
        raise AssertionError(f"metrics differ: missing {missing}, extra {extra}, units {units}")
    if any(not isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
        raise AssertionError("a metric value is not a number")
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e != dict(metrics.END_TO_END) or layers != dict(metrics.PER_LAYER):
        raise AssertionError("BENCHMARK.json metrics differ from metrics.py")
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        result_of(run(workload, 0), e2e)
        first = result_of(run(workload, 1), layers)["metrics"]
        second = result_of(run(workload, 1), layers)["metrics"]
        for key in EXACT_COUNTS:
            if first[key]["value"] != second[key]["value"]:
                raise AssertionError(f"{workload}: {key} {first[key]['value']} != "
                                     f"{second[key]['value']} on one seed")
        print(f"ok {workload}", flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(names[0], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
