"""levy-collapse benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Workloads (see workloads.py):

  analytic-sweep  build and evaluate about 100 seeded models
  mc-engines      the exact and Euler simulation engines on canonical models
  cli-commands    the four CLI commands as subprocesses

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      median over SETUP_REPEATS fresh interpreters of the time
               from process start to the first timed operation
  round_s      median seconds per round; a round solves 12 models, plus the
               5 ROADMAP rows in the first (analytic-sweep), calls each of
               the 6 engine configurations once (mc-engines) or runs each
               of the 4 commands once (cli-commands)
  op_s.gmean   geometric mean seconds per operation: one model, engine call
               or command; a command, which every round repeats, counts
               once, at the median of its rounds
  op_s.p90     90th percentile of the same per-operation times
               (Harrell-Davis estimate)
  peak_rss_mb  peak resident memory of the workload process plus its
               largest child
--trace 1 prints the per-layer metrics: a traced run, its untraced twin on
the same operations, and an import-time probe (metrics.py lists them).

The last line of the output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record.
Failed operations (an error the package raises, an output that fails its
check) are counted, never skipped. `correct` is false when a result cannot
be trusted at all: a crash, a determinism break, an unexpected CLI exit
code, or a CLI output that differs from the in-process value.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("analytic-sweep", "mc-engines", "cli-commands")
SETUP_REPEATS = 5
# every run ends within this many seconds, hung or not
RUN_LIMIT_S = 175

sys.path.insert(0, HERE)
import metrics  # noqa: E402


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn_worker(spec, deadline):
    """Run worker.py in a fresh interpreter; returns (start time, result).

    The worker leads its own process group, so a worker that overruns the
    run's time limit is killed together with the CLI processes it started.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"worker {spec['mode']} overran the {RUN_LIMIT_S} s limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {spec['mode']} exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_record(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "git_sha": git_sha()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)
    spawn = functools.partial(spawn_worker, deadline=time.monotonic() + RUN_LIMIT_S)
    if not os.path.isfile(os.path.join(ROOT, "src", "levy_collapse", "__init__.py")):
        print(f"error: no levy_collapse sources under {ROOT}/src", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    base = {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "workdir": workdir}
    try:
        if args.trace:
            result = metrics.per_layer(base, spawn, os.path.join(OUT, "spans", tag))
        else:
            result = metrics.end_to_end(base, spawn, SETUP_REPEATS)
    except (HarnessError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(args)
    record["details"] = result.pop("details")
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", f"{tag}.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
