"""Re-measure the baseline rows of ROADMAP.md and compare.

    python3 perfbench/baseline.py

Prints one row per ROADMAP baseline figure: the ROADMAP value, the value
measured here (median of several fresh measurements) and their ratio, and
flags every row that disagrees by more than 15%. BASELINE.md records a run.
Each analytic figure is taken on a new StationarySolution, so no cache of
an earlier measurement serves it; the CLI rows run the committed configs/.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import levy_collapse as lc  # noqa: E402
from levy_collapse import simulate, stationary  # noqa: E402
from metrics import import_probe  # noqa: E402
from workloads import BM_CANON, MM1_CANON, PARETO15, PARETO20  # noqa: E402

REPEATS = 5
TOLERANCE = 0.15
_fresh = iter(range(1, 10**6))


def fresh(model, theta=1.0):
    """A new solution; lambda moves by a few ulps per call, so not even the
    cached Gauss-Jacobi rules of an earlier solution serve it."""
    return stationary.StationarySolution(model, 1.0 + next(_fresh) * 1e-15, theta)


def median_time(fn, repeats=REPEATS):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def timed_on_fresh(model, theta, method, repeats=REPEATS):
    """Median seconds of `method(sol)` on fresh solutions (build untimed)."""
    out = []
    for _ in range(repeats):
        sol = fresh(model, theta)
        t0 = time.perf_counter()
        method(sol)
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def throughput(run, units, repeats=3):
    rates = []
    for r in range(repeats):
        rng = simulate.replication_rng(99, r)
        t0 = time.perf_counter()
        work = units(run(rng))
        rates.append(work / (time.perf_counter() - t0))
    return statistics.median(rates)


def cli_seconds(command, config, repeats=3):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = []
    for _ in range(repeats):
        tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_out"))
        try:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "levy_collapse.cli", command, "--config",
                            os.path.join(ROOT, "configs", config), "--out", tmp, "--quiet"],
                           env=env, check=True, capture_output=True, timeout=300)
            out.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return statistics.median(out)


def rows():
    uni = lc.Uniform01()
    A_bm = fresh(BM_CANON).alpha_lambda
    A_mm1 = fresh(MM1_CANON).alpha_lambda
    imports = import_probe(ROOT)
    yield "import levy_collapse", 1.0, imports["levy_collapse"], "s"
    yield "import scipy.integrate", 0.85, imports["scipy.integrate"], "s"
    for cmd, cfg, ref in (("analyze", "bm_canonical.cfg", 1.2),
                          ("simulate", "mm1_canonical.cfg", 1.8),
                          ("tail", "tail.cfg", 2.5), ("validate", "validate.cfg", 6.0)):
        yield f"CLI {cmd} ({cfg})", ref, cli_seconds(cmd, cfg), "s"
    for name, model in (("BM", BM_CANON), ("M/M/1", MM1_CANON)):
        # the ROADMAP gives a range; the row compares against its ends
        yield f"build, analytic {name}", (0.012, 0.018), median_time(lambda: fresh(model)), "s"
    yield "build, Pareto 1.5", 0.033, median_time(lambda: fresh(PARETO15)), "s"
    yield "build, Pareto 2.0", 0.400, median_time(lambda: fresh(PARETO20), 3), "s"
    yield ("lst below the root, M/M/1", 0.0005,
           timed_on_fresh(MM1_CANON, 1.0, lambda s: s.lst(0.5 * A_mm1)), "s")
    yield ("lst above the root, M/M/1", 0.0010,
           timed_on_fresh(MM1_CANON, 1.0, lambda s: s.lst(2.0 * A_mm1)), "s")
    yield ("lst above the root, theta = 300", 0.006,
           timed_on_fresh(MM1_CANON, 300.0, lambda s: s.lst(2.0 * A_mm1)), "s")
    for name, model, A in (("BM", BM_CANON, A_bm), ("M/M/1", MM1_CANON, A_mm1)):
        yield (f"mean_lst_collapsed(A), {name}", (0.017, 0.027),
               timed_on_fresh(model, 1.0, lambda s: s.mean_lst_collapsed(s.alpha_lambda)), "s")
    yield ("mean_lst_collapsed(A), Pareto 1.5", 0.270,
           timed_on_fresh(PARETO15, 1.0, lambda s: s.mean_lst_collapsed(s.alpha_lambda), 3), "s")
    yield ("mean_lst_collapsed(A), Pareto 2.0", 0.170,
           timed_on_fresh(PARETO20, 1.0, lambda s: s.mean_lst_collapsed(s.alpha_lambda), 3), "s")
    for name, model, A in (("BM", BM_CANON, A_bm), ("M/M/1", MM1_CANON, A_mm1)):
        yield (f"40-point grid, {name}", (0.035, 0.040),
               timed_on_fresh(model, 1.0, lambda s: s.grid(np.linspace(0.0, 3.0 * A, 40))), "s")
    yield ("40-point grid, theta = 300", 0.150,
           timed_on_fresh(MM1_CANON, 300.0, lambda s: s.grid(np.linspace(0.0, 3.0 * A_mm1, 40)), 3),
           "s")
    yield ("embedded chain, M/M/1", 2.2e6, throughput(
        lambda rng: simulate.embedded_chain_run(MM1_CANON, 1.0, uni, 0, 1_000_000, rng),
        lambda pool: pool.count), "cycles/s")
    yield ("Loynes, M/M/1 (samples)", 0.36e6, throughput(
        lambda rng: simulate.loynes_run(MM1_CANON, 1.0, uni, 200_000, rng),
        lambda pool: pool.count), "samples/s")
    yield ("exact path, M/M/1", 0.33e6, throughput(
        lambda rng: simulate.path_simulate(MM1_CANON, 1.0, uni, n_collapses=200_000, rng=rng),
        lambda pool: pool.count), "collapses/s")
    yield ("Euler path, BM at h = 1e-3", 20e6, throughput(
        lambda rng: simulate.path_simulate(BM_CANON, 1.0, uni, n_collapses=5_000,
                                           step_h=1e-3, rng=rng),
        lambda pool: pool.time_total / 1e-3), "steps/s")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    print(f"| row | ROADMAP | measured | ratio | > {TOLERANCE:.0%} off |")
    print("| --- | --- | --- | --- | --- |")
    for name, ref, got, unit in rows():
        lo, hi = ref if isinstance(ref, tuple) else (ref, ref)
        ratio = got / hi if got > hi else (got / lo if got < lo else 1.0)
        flag = "yes" if abs(ratio - 1.0) > TOLERANCE else ""
        ref_txt = f"{lo:.3g}-{hi:.3g}" if lo != hi else f"{lo:.3g}"
        print(f"| {name} | {ref_txt} {unit} | {got:.3g} {unit} | {ratio:.2f} | {flag} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
