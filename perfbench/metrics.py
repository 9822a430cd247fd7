"""Metric definitions and their computation from worker results.

END_TO_END and PER_LAYER are the metric lists of BENCHMARK.json, in order;
selftest.py checks that the two agree. Each per-layer metric names, in
README.md, the end-to-end metric it should move.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_s.gmean", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

BUILD_FAMILIES = ("bm", "exp", "erlang", "det", "pareto", "sum")
FAILURE_CLASSES = ("root", "left", "middle", "dyadic", "outer", "series", "endpoint",
                   "normalizer", "grid", "quad", "check", "other")
BRANCHES = ("below", "at", "above")
VALIDATE_SUITES = ("analytic", "bm-closed-form", "mm1-closed-form", "fixed-point",
                   "simulation", "routes", "coupling", "tail")
CLI_COMMANDS = ("analyze", "simulate", "tail", "validate")
# operation kind of mc-engines -> per-layer throughput metric
THROUGHPUT = (("embedded", "simulate.embedded.samples_per_s"),
              ("loynes", "simulate.loynes.samples_per_s"),
              ("path", "simulate.path.collapses_per_s"),
              ("euler", "simulate.euler.steps_per_s"))

# per-layer metric -> (unit, source, key); source "self" is the self time of
# the span name, "total" its time with nested spans, "calls" its call count,
# "count" a tracer counter
_TRACED = (
    [("models.phi.calls", "count", "calls", "models.phi"),
     ("models.phi_s", "s", "self", "models.phi"),
     ("models.excess_lst.calls", "count", "calls", "models.excess_lst"),
     ("models.excess_lst_s", "s", "self", "models.excess_lst"),
     ("models.sample.draws", "count", "count", "models.sample.draws"),
     ("models.sample_s", "s", "self", "models.sample"),
     ("stationary.find_alpha_lambda_s", "s", "self", "stationary.find_alpha_lambda")]
    + [(f"stationary.build_s.{f}", "s", "self", f"stationary.build.{f}") for f in BUILD_FAMILIES]
    + [(f"stationary.lst_s.{b}", "s", "self", f"stationary.lst.{b}") for b in BRANCHES]
    + [(f"stationary.lst.calls.{b}", "count", "calls", f"stationary.lst.{b}") for b in BRANCHES]
    + [("stationary.mean_lst_collapsed_s", "s", "total", "stationary.mean_lst_collapsed"),
       ("stationary.mean_lst_collapsed.calls", "count", "calls", "stationary.mean_lst_collapsed"),
       ("stationary.moments_s", "s", "total", "stationary.moments"),
       ("stationary.grid_s", "s", "total", "stationary.grid"),
       ("stationary.fixed_point_residual_s", "s", "total", "stationary.fixed_point_residual"),
       ("simulate.embedded_chain_run_s", "s", "self", "simulate.embedded_chain_run"),
       ("simulate.loynes_run_s", "s", "self", "simulate.loynes_run"),
       ("simulate.path_simulate_s.exact", "s", "self", "simulate.path_simulate.exact"),
       ("simulate.path_simulate_s.euler", "s", "self", "simulate.path_simulate.euler"),
       ("simulate.coupling_check_s", "s", "self", "simulate.coupling_check"),
       ("simulate.tail_table_s", "s", "self", "simulate.tail_table"),
       ("simulate.SamplePool.add_s", "s", "self", "simulate.SamplePool.add"),
       ("simulate.SamplePool.add.values", "count", "count", "simulate.SamplePool.add.values"),
       ("simulate.SamplePool.merge_s", "s", "self", "simulate.SamplePool.merge"),
       ("simulate.SamplePool.merge.calls", "count", "calls", "simulate.SamplePool.merge"),
       ("simulate.levels.count", "count", "count", "simulate.levels.count"),
       ("simulate.loynes.draws", "count", "count", "simulate.loynes.draws"),
       ("simulate.loynes.samples", "count", "count", "simulate.loynes.samples"),
       ("runner.run_analyze_s", "s", "total", "runner.run_analyze"),
       ("runner.run_simulate_s", "s", "total", "runner.run_simulate"),
       ("runner.run_tail_s", "s", "total", "runner.run_tail")]
    + [(f"runner.run_validate_s.{s}", "s", "total", f"runner.run_validate.{s}")
       for s in VALIDATE_SUITES]
    + [("runner.write_csv_s", "s", "self", "runner.write_csv"),
       ("runner.csv_bytes", "count", "count", "runner.csv_bytes")]
)

PER_LAYER = tuple(
    [("import.levy_collapse_s", "s"), ("import.scipy_integrate_s", "s")]
    + [(name, unit) for name, unit, _, _ in _TRACED]
    + [(f"stationary.failed.{c}", "count") for c in FAILURE_CLASSES]
    + [("simulate.loynes.draws_per_sample", "draws/sample")]
    + [(name, "1/s") for _, name in THROUGHPUT]
    + [("cli.process_overhead_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("trace.overhead_frac", "1")]
)


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, the weights being the
    Beta(p(n+1), (1-p)(n+1)) probabilities of the n equal slices of
    [0, 1] (Harrell and Davis 1982). It moves smoothly when one operation
    changes rank, where a single order statistic jumps to its neighbour.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def tally(results):
    """(correct, attempted, failed, failures by class) over worker results."""
    correct, attempted, failed, classes = True, 0, 0, {}
    for res in results:
        for kind, label, secs, status, cls, work, detail in res["ops"]:
            attempted += 1
            if status != "ok":
                failed += 1
                key = cls or status
                classes[key] = classes.get(key, 0) + 1
            if status in ("integrity", "crash"):
                correct = False
        for name, ok, detail in res["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                classes["check"] = classes.get("check", 0) + 1
            if ok is None:
                correct = False
    return correct and attempted > 0, attempted, failed, classes


def _problems(results):
    return [[label, status, detail] for res in results
            for kind, label, secs, status, cls, work, detail in res["ops"] if status != "ok"] + \
        [c for res in results for c in res["checks"] if not c[1]]


def end_to_end(base, spawn, repeats):
    setups = []
    for _ in range(repeats - 1):
        start, res = spawn(dict(base, mode="setup"))
        setups.append(res["ready"] - start)
    start, res = spawn(dict(base, mode="run"))
    setups.append(res["ready"] - start)
    # an operation that every round repeats (a CLI command on one seed)
    # counts once, at the median of its repeats
    by_label = {}
    for op in res["ops"]:
        by_label.setdefault(op[1], []).append(op[2])
    times = [statistics.median(v) for v in by_label.values()]
    correct, attempted, failed, classes = tally([res])
    values = {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(res["rounds"]),
        "op_s.gmean": statistics.geometric_mean(times),
        "op_s.p90": hd_quantile(times, 0.9),
        "peak_rss_mb": res["rss_mb"],
    }
    kinds = {}
    for op in res["ops"]:
        kinds.setdefault(op[0], []).append(op[2])
    details = {"setups_s": setups, "ops": len(times), "rounds": len(res["rounds"]),
               "op_s_by_kind": {k: statistics.median(v) for k, v in kinds.items()},
               "failures": classes, "problems": _problems([res]),
               "op_s": [[op[1], op[2], op[3]] for op in res["ops"]],
               "checks": res["checks"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: _metric(values[n], u) for n, u in END_TO_END},
            "details": details}


def _import_seconds(stderr, name):
    """Cumulative import seconds of `name` from -X importtime output.

    scipy loads its subpackages through a module __getattr__, and those
    package entries are missing from the listing; their submodules are
    listed one level deeper, so the shallowest `name.*` entries are summed.
    A module that is not imported reads 0.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            label = parts[2].rstrip()
            rows.append((len(label) - len(label.lstrip()), label.strip(), int(parts[1])))
    exact = [cum for _, mod, cum in rows if mod == name]
    if exact:
        return exact[0] / 1e6
    subs = [(depth, cum) for depth, mod, cum in rows if mod.startswith(name + ".")]
    top = min((depth for depth, _ in subs), default=None)
    return sum(cum for depth, cum in subs if depth == top) / 1e6


def import_probe(root, repeats=3):
    """Median import seconds of levy_collapse and of scipy.integrate over
    fresh interpreters, from -X importtime."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    found = {"levy_collapse": [], "scipy.integrate": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import levy_collapse"],
                              env=env, cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        for name, vals in found.items():
            vals.append(_import_seconds(proc.stderr, name))
    return {name: statistics.median(vals) for name, vals in found.items()}


def _sum_traces(results):
    total = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for res in results:
        for part, acc in total.items():
            for key, val in res["trace"][part].items():
                acc[key] = acc.get(key, 0) + val
    return total


def _by_kind(ops):
    out = {}
    for kind, label, secs, status, cls, work, detail in ops:
        t, w = out.get(kind, (0.0, 0.0))
        out[kind] = (t + secs, w + (work or 0.0))
    return out


def per_layer(base, spawn, spans_prefix):
    imports = import_probe(base["root"])
    plain, traced, g = [], [], 0
    while True:
        _, res = spawn(dict(base, mode="plain", group=g))
        plain.append(res)
        _, res = spawn(dict(base, mode="traced", group=g,
                            spans_path=f"{spans_prefix}-g{g}.json"))
        traced.append(res)
        g += 1
        if g >= res["groups"]:
            break
    runs = plain + traced
    sub = None
    if base["workload"] == "cli-commands":
        _, sub = spawn(dict(base, mode="run", rounds=1))
        runs.append(sub)
    correct, attempted, failed, _ = tally(runs)
    tr = _sum_traces(traced)
    values = {"import.levy_collapse_s": imports["levy_collapse"],
              "import.scipy_integrate_s": imports["scipy.integrate"]}
    sources = {"self": tr["self_s"], "total": tr["total_s"], "calls": tr["calls"],
               "count": tr["counts"]}
    for name, unit, source, key in _TRACED:
        values[name] = sources[source].get(key, 0)
    traced_ops = [op for res in traced for op in res["ops"]]
    for cls in FAILURE_CLASSES:
        values[f"stationary.failed.{cls}"] = sum(
            1 for op in traced_ops if op[3] != "ok" and op[4] == cls)
    samples = tr["counts"].get("simulate.loynes.samples", 0)
    values["simulate.loynes.draws_per_sample"] = (
        tr["counts"].get("simulate.loynes.draws", 0) / samples if samples else 0.0)
    kinds = _by_kind([op for res in plain for op in res["ops"]])
    for kind, name in THROUGHPUT:
        secs, work = kinds.get(kind, (0.0, 0.0))
        values[name] = work / secs if secs else 0.0
    inproc = {cmd: secs for cmd, (secs, _) in kinds.items()}
    overheads = []
    for cmd in CLI_COMMANDS:
        got = [op[2] for op in (sub["ops"] if sub else []) if op[0] == cmd]
        values[f"cli.{cmd}_s"] = statistics.median(got) if got else 0.0
        if got and cmd in inproc:
            overheads.append(values[f"cli.{cmd}_s"] - inproc[cmd])
    values["cli.process_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    t_plain = sum(op[2] for res in plain for op in res["ops"])
    t_traced = sum(op[2] for op in traced_ops)
    values["trace.overhead_frac"] = t_traced / t_plain - 1.0
    details = {"ops_per_pass": len(traced_ops), "plain_s": t_plain, "traced_s": t_traced,
               "spans": sum(res["trace"]["spans"] for res in traced),
               "spans_dropped": sum(res["trace"]["dropped"] for res in traced),
               "problems": _problems(runs)}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: _metric(values[n], u) for n, u in PER_LAYER},
            "details": details}
