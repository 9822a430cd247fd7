"""One benchmark process: set a workload up, then run, trace or stop.

run.py starts this script in a fresh interpreter with a JSON spec as its
only argument and reads one JSON object from the last line of its output.
Set-up is everything before the first timed operation: the import of the
package, input generation and warm-up. Its end is reported as a
`time.monotonic()` reading, which on Linux shares one clock across
processes, so the parent can time set-up from the moment it started us.

Modes:
  setup   set up, report, exit
  run     timed rounds until the workload's plan is done
  plain   one fixed group of operations, untimed set-up, no tracing
  traced  the same group with the span recorder installed
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    descendant (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def execute(op, workloads, lc):
    """Run one operation; returns its record
    [kind, label, seconds, status, failure class, work, detail]."""
    clock = time.perf_counter
    status, cls, work, detail = "ok", "", None, ""
    t0 = clock()
    try:
        work = op.fn()
    except (lc.LevyCollapseError, workloads.CheckFailed) as exc:
        status, cls = "failed", workloads.classify_failure(exc)
        detail = f"{type(exc).__name__}: {exc}"
    except workloads.IntegrityError as exc:
        status, detail = "integrity", str(exc)
    except Exception:
        status, detail = "crash", traceback.format_exc(limit=6)
    return [op.kind, op.label, clock() - t0, status, cls, work, detail[:500]]


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import levy_collapse as lc
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"], spec["workdir"])
    wl.warm_up()
    out = {"ready": time.monotonic()}
    mode = spec["mode"]
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)

    ops, rounds, checks = [], [], []
    if mode == "run":
        deadline = out["ready"] + spec["seconds"]
        fixed = spec.get("rounds") or wl.fixed_rounds(spec["seconds"])
        r = 0
        while True:
            t0 = time.perf_counter()
            ops.extend(execute(op, workloads, lc) for op in wl.round_ops(r))
            rounds.append(time.perf_counter() - t0)
            r += 1
            if (r >= fixed) if fixed else (r >= wl.min_rounds and time.monotonic() >= deadline):
                break
        try:
            checks = [list(c) for c in wl.finish()]
        except workloads.IntegrityError as exc:
            checks = [["finish", None, str(exc)]]
    else:
        groups = wl.trace_groups()
        out["groups"] = len(groups)
        ops = [execute(op, workloads, lc) for op in groups[spec["group"]]]

    out.update(ops=ops, rounds=rounds, checks=checks, rss_mb=peak_rss_mb())
    if tracer is not None:
        out["trace"] = {"self_s": tracer.self_s, "total_s": tracer.total_s,
                        "calls": tracer.calls,
                        "counts": tracer.counts, "spans": len(tracer.records),
                        "dropped": tracer.dropped}
        tracer.dump(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
