"""Interleaved in-process A/B timing of perfbench's analytic-sweep operation.

    python3 tools/sweep_ab.py --root ../parent-checkout --seeds 1-2
    python3 tools/sweep_ab.py --root . --seeds 1 --blocks 0 --repeats 1

Both trees are loaded into one process: `--root` (A) and this checkout (B),
each as its own copy of the package and of perfbench's `workloads.py`, so
the same models run on both under the same load. The models are those of
the sweep, the baseline rows and `sweep_block(seed, b)` for the chosen
blocks, built from their `repr` in each tree's catalog. Every model runs
the sweep's `solve_and_check` on A and on B in turn, `--repeats` times,
each run on a fresh solution; its time on a side is the least of its runs.

The report gives per seed the geometric mean and the Harrell-Davis 90th
percentile of the per-model times on each side, then over all seeds the
ratio B/A of the per-family geometric means, the number of models that
run faster on B, and each side's failures. An A/A run (`--root .`,
seeds 1-2, 3 repeats, 2-vCPU x86_64 VM) read a gmean B/A of 0.993 and
per-seed p90 ratios of 0.99 and 1.07, so gmean differences of about 1%
resolve, where one perfbench run spreads 10-25%. perfbench is only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_point import parse_seeds  # noqa: E402

# caches that hold the state of one model: cleared before every run
_PER_MODEL_CACHES = (("stationary", "stationary_solution"), ("stationary", "_alpha_root"),
                     ("models", "_series_terms"), ("models", "_excess_terms"))


def _load(path, name, package=False):
    """Import the file (or package directory) `path` as module `name`."""
    init = os.path.join(path, "__init__.py") if package else path
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[path] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root, tag):
    """(package, workloads) of the checkout `root`, under names ending in `tag`;
    workloads.py sees that package as `levy_collapse` while it loads."""
    pkg = _load(os.path.join(root, "src", "levy_collapse"), f"levy_collapse_{tag}", True)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "levy_collapse"}
    sys.modules["levy_collapse"] = pkg
    for sub in ("models", "stationary", "simulate", "cli"):
        sys.modules[f"levy_collapse.{sub}"] = importlib.import_module(f"{pkg.__name__}.{sub}")
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        work = _load(os.path.join(root, "perfbench", "workloads.py"), f"workloads_{tag}")
    finally:
        sys.path.pop(0)
        for k in [k for k in sys.modules if k.split(".")[0] == "levy_collapse"]:
            del sys.modules[k]
        sys.modules.update(saved)
    return pkg, work


def sweep_rows(work, seed, blocks):
    """(label, model repr, lam, theta) of the sweep models of one seed."""
    rows = list(work.BASELINE_ROWS) + [r for b in blocks for r in work.sweep_block(seed, b)]
    return [(label, repr(model), lam, theta) for label, model, lam, theta in rows]


def timed(pkg, work, model, lam, theta):
    """Seconds of one sweep operation on a fresh solution, or the error."""
    for mod, attr in _PER_MODEL_CACHES:
        fn = getattr(getattr(pkg, mod), attr, None)
        if fn is not None:
            fn.cache_clear()
    start = time.perf_counter()
    try:
        work.solve_and_check(model, lam, theta)
    except (pkg.LevyCollapseError, work.CheckFailed) as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, None


def gmean(xs):
    return math.exp(sum(map(math.log, xs)) / len(xs)) if xs else math.nan


def run(root, seeds, blocks, repeats):
    """{seed: [(label, family, tA, tB, errA, errB)]}; A is `root`, B this checkout."""
    sides = [load_tree(os.path.abspath(root), "a"),
             load_tree(os.path.dirname(HERE), "b")]
    out = {}
    for seed in sorted(seeds):
        rows = []
        for label, text, lam, theta in sweep_rows(sides[1][1], seed, blocks):
            models = [eval(text, vars(pkg)) for pkg, _ in sides]
            best, errs = [math.inf, math.inf], [None, None]
            for _ in range(repeats):
                for i, (pkg, work) in enumerate(sides):
                    t, errs[i] = timed(pkg, work, models[i], lam, theta)
                    best[i] = min(best[i], t)
            rows.append((label, label.split(".")[0], *best, *errs))
        out[seed] = rows
    return out


def report(results):
    """Lines of the report on `run`'s results."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    from metrics import hd_quantile

    lines = ["seed  models  gmean A (ms)  gmean B (ms)  B/A    HD p90 A (ms)  HD p90 B (ms)  B/A"]
    every = [row for rows in results.values() for row in rows]
    for seed, rows in results.items():
        ta, tb = [r[2] for r in rows], [r[3] for r in rows]
        ga, gb = gmean(ta), gmean(tb)
        pa, pb = hd_quantile(ta, 0.9), hd_quantile(tb, 0.9)
        lines.append(f"{seed:>4}  {len(rows):>6}  {1e3 * ga:>12.3f}  {1e3 * gb:>12.3f}  "
                     f"{gb / ga:5.3f}  {1e3 * pa:>13.3f}  {1e3 * pb:>13.3f}  {pb / pa:5.3f}")
    ratio = gmean([r[3] / r[2] for r in every])
    lines.append(f"all seeds: gmean B/A {ratio:.3f} over {len(every)} models")
    for fam in sorted({r[1] for r in every}):
        sel = [r[3] / r[2] for r in every if r[1] == fam]
        lines.append(f"  family {fam:<10} B/A {gmean(sel):.3f} ({len(sel)} models)")
    faster = sum(r[3] < r[2] for r in every)
    lines.append(f"B faster on {faster} of {len(every)} models")
    for side, col in (("A", 4), ("B", 5)):
        failed = [(seed, r[0], r[col]) for seed, rows in results.items()
                  for r in rows if r[col] is not None]
        lines.append(f"failures on {side}: {len(failed)}")
        lines.extend(f"  {seed}:{label}: {err}" for seed, label, err in failed)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, help="checkout A (B is this one)")
    ap.add_argument("--seeds", default="1-2", help="e.g. 1-4 or 1,3")
    ap.add_argument("--blocks", default="0-7", help="sweep blocks, e.g. 0-7")
    ap.add_argument("--repeats", type=int, default=3, help="runs per model and side")
    args = ap.parse_args(argv)
    results = run(args.root, parse_seeds(args.seeds),
                  sorted(parse_seeds(args.blocks)), args.repeats)
    print("\n".join(report(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
