"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every workload is a sequence of rounds of operations. The content of round
`r` depends only on (seed, r), so a timed run, its untraced twin and its
traced twin execute the same operations in the same order. Each operation
raises `levy_collapse.LevyCollapseError` when the package refuses the
input and `CheckFailed` when an output fails its check; both count as a
failed operation. `IntegrityError` marks results the benchmark cannot
trust at all (a determinism break, a CLI crash) and makes the run incorrect.

The package is driven only through its public API and its command line.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys

import numpy as np

import levy_collapse as lc
from levy_collapse import cli, simulate, stationary
from metrics import CLI_COMMANDS, VALIDATE_SUITES


class CheckFailed(Exception):
    """An operation returned an output that fails its correctness check."""


class IntegrityError(Exception):
    """A result that no timing may be reported for."""


class Op:
    """One timed operation; `kind` groups operations for per-kind figures."""

    __slots__ = ("kind", "label", "fn")

    def __init__(self, kind, label, fn):
        self.kind, self.label, self.fn = kind, label, fn


# ---------------------------------------------------------------------------
# analytic-sweep
# ---------------------------------------------------------------------------

FAMILIES = ("bm", "exp", "erlang", "det", "pareto", "sum")
LAM_RANGE = (1e-2, 1e2)
THETA_RANGE = (0.03, 500.0)
# fixed-point residual gate of the validate command
RESIDUAL_GATE = 1e-7
# E f(alpha U) at 1.5 * root integrates f across all three branches
RESIDUAL_AT = (1.5,)
GRID_AT = (0.0, 0.5, 1.0, 2.0)

BM_CANON = lc.BrownianDrift(0.0, 2.0)
MM1_CANON = lc.CppMinusDrift(1.0, 1.0, lc.Exponential(2.0))
PARETO15 = lc.CppMinusDrift(1.0, 0.8, lc.Pareto(1.5, 1.0 / 3.0))
PARETO20 = lc.CppMinusDrift(1.0, 0.8, lc.Pareto(2.0, 1.0 / 3.0))

# the baseline rows of ROADMAP.md; theta = 300 puts theta*K above 150, where
# the solver switches to its Gauss-Laguerre rules
BASELINE_ROWS = (
    ("baseline.bm", BM_CANON, 1.0, 1.0),
    ("baseline.mm1", MM1_CANON, 1.0, 1.0),
    ("baseline.pareto1.5", PARETO15, 1.0, 1.0),
    ("baseline.pareto2.0", PARETO20, 1.0, 1.0),
    ("baseline.theta300", MM1_CANON, 1.0, 300.0),
)

# (substring of the QuadratureFailure message, failure class)
_FAILURE_CLASSES = (
    ("root refinement", "root"),
    ("never exceeds lambda", "root"),
    ("phi'(alpha_lambda)", "root"),
    ("left piece", "left"),
    ("middle piece", "middle"),
    ("dyadic piece", "dyadic"),
    ("outer remainder", "outer"),
    ("root expansion", "series"),
    ("phi derivatives", "series"),
    ("endpoint-weighted", "endpoint"),
    ("normalizing integral", "normalizer"),
    ("out of [0, 1]", "grid"),
    ("did not converge:", "quad"),
)


def classify_failure(exc: BaseException) -> str:
    """Failure class of an analytic operation, read from its message."""
    if isinstance(exc, CheckFailed):
        return "check"
    msg = str(exc)
    for needle, cls in _FAILURE_CLASSES:
        if needle in msg:
            return cls
    return "other"


# the sweep's models come from one fixed base draw (ROADMAP item C ranges);
# the run seed moves every parameter by a factor of at most exp(+-JITTER),
# so runs on different seeds solve different models of comparable cost.
# A solve's cost is not smooth in the parameters (adaptive quadrature picks
# other subdivisions; a model near the failure region flips between a 2 s
# solve and a 0.01 s failure), so the jitter is small: a wider one makes
# the per-model tail follow the seed rather than the code
DESIGN_SEED = 20250116
JITTER = 0.01


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _draw_model(rng, family, jig):
    """A model of `family` from the base draw `rng`, jiggled by `jig`."""
    if family == "bm":
        return lc.BrownianDrift(jig(rng.uniform(-2.0, 2.0)), jig(_log_uniform(rng, 0.1, 10.0)))
    if family == "sum":
        return lc.Sum((lc.BrownianDrift(jig(rng.uniform(-1.0, 1.0)),
                                        jig(_log_uniform(rng, 0.1, 5.0))),
                       _draw_model(rng, "exp", jig)))
    d, gamma = (jig(x) for x in _log_uniform(rng, 0.1, 10.0, 2))
    if family == "exp":
        jumps = lc.Exponential(jig(_log_uniform(rng, 0.1, 10.0)))
    elif family == "erlang":
        jumps = lc.Erlang(int(rng.integers(2, 7)), jig(_log_uniform(rng, 0.1, 10.0)))
    elif family == "det":
        jumps = lc.Deterministic(jig(_log_uniform(rng, 0.1, 10.0)))
    else:
        delta = float(rng.uniform(1.2, 2.8))
        jumps = lc.Pareto(1.0 + (delta - 1.0) * jig(1.0), jig(_log_uniform(rng, 0.1, 1.0)))
    return lc.CppMinusDrift(d, gamma, jumps)


def sweep_block(seed: int, b: int, per_family: int = 2):
    """Block b of the sweep, its round b: `per_family` models of every family.

    lambda and theta are log-uniform over the ROADMAP item C ranges, drawn
    as a Latin hypercube over the block, so every block spans both ranges
    evenly and blocks cost about the same.
    """
    rng = np.random.default_rng([DESIGN_SEED, b])
    jit = np.random.default_rng([seed, b])

    def jig(x):
        return float(x) * math.exp(jit.uniform(-JITTER, JITTER))

    n = per_family * len(FAMILIES)
    families = [f for f in FAMILIES for _ in range(per_family)]
    rng.shuffle(families)
    axes = []
    for lo, hi in (LAM_RANGE, THETA_RANGE):
        cells = (rng.permutation(n) + rng.uniform(size=n)) / n
        axes.append(np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * cells))
    rows = [(f"{fam}.{b}.{i}", _draw_model(rng, fam, jig), jig(axes[0][i]), jig(axes[1][i]))
            for i, fam in enumerate(families)]
    jit.shuffle(rows)
    return rows


def solve_and_check(model, lam, theta):
    """The sweep's operation: build, transform grid, moments, residuals."""
    sol = stationary.stationary_solution(model, lam, theta)
    A = sol.alpha_lambda
    grid = sol.grid(tuple(a * A for a in GRID_AT))
    if grid.values[0] != 1.0:
        raise CheckFailed(f"f(0) = {grid.values[0]!r}, not 1")
    for a, v in zip(grid.alphas, grid.values):
        if not 0.0 <= v <= 1.0:
            raise CheckFailed(f"f({a:.6g}) = {v!r} outside [0, 1]")
    sol.moments(4)
    for a in RESIDUAL_AT:
        res = stationary.fixed_point_residual(model, lam, theta, a * A)
        if not res <= RESIDUAL_GATE:
            raise CheckFailed(f"fixed-point residual {res:.3e} at {a}*root")


# seconds one sweep block takes on a 2-vCPU x86_64 machine in its faster
# phases (README.md); sizes the sweep to --seconds without making the
# model list depend on the speed of the code under test
SWEEP_BLOCK_S = 3.0


class AnalyticSweep:
    name = "analytic-sweep"

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.smoke = smoke
        self.per_family = 1 if smoke else 2
        self.trace_rounds = 1 if smoke else 3

    def fixed_rounds(self, seconds):
        return 1 if self.smoke else max(1, round(seconds / SWEEP_BLOCK_S))

    def warm_up(self):
        # loads the lazily built Gauss rules and scipy paths; a model of its
        # own so nothing the sweep solves is cached beforehand
        solve_and_check(lc.BrownianDrift(0.3, 1.1), 0.7, 1.3)

    def round_ops(self, r):
        rows = []
        if r == 0:
            rows = [row for row in BASELINE_ROWS if not self.smoke or row[0] == "baseline.bm"]
        rows = rows + sweep_block(self.seed, r, self.per_family)
        return [Op("solve", label, lambda m=m, lam=lam, th=th: solve_and_check(m, lam, th))
                for label, m, lam, th in rows]

    def trace_groups(self):
        return [[op for r in range(self.trace_rounds) for op in self.round_ops(r)]]

    def finish(self):
        return []


# ---------------------------------------------------------------------------
# mc-engines
# ---------------------------------------------------------------------------

EULER_H = 1e-3
SUM2 = lc.Sum((lc.CppMinusDrift(0.6, 0.5, lc.Exponential(2.0)),
               lc.CppMinusDrift(0.6, 0.4, lc.Deterministic(0.5))))
TAIL_THRESHOLDS = (5.0, 10.0, 20.0)
# Z* of the Pareto model has an infinite second moment, so its sample mean
# has no standard error; the transform at this alpha is checked instead
PARETO_ALPHA = 0.5
# discretization allowance of the Euler engine at step h (sigma^2 = 2): the
# discrete reflection misses the overshoot below zero, E ~ 0.5826 sigma sqrt(h)
# (Asmussen, Glynn and Pitman 1995), and the walk sits exactly at its running
# minimum, a level of 0, with probability ~ sqrt(lam h) (Sparre Andersen);
# both budgets are doubled
EULER_MEAN_ALLOWANCE = 2.0 * 0.5826 * math.sqrt(2.0 * EULER_H)
EULER_ZERO_ALLOWANCE = 2.0 * math.sqrt(EULER_H)

# name, engine, model, size per call (levels), extra keyword arguments; the
# sizes make every call take about 0.2 s on a 2-vCPU x86_64 machine, so no
# engine dominates a round
MC_CONFIGS = (
    ("embedded.mm1", "embedded", MM1_CANON, 400_000, {}),
    ("embedded.bm", "embedded", BM_CANON, 400_000, {}),
    ("loynes.mm1", "loynes", MM1_CANON, 70_000, {}),
    ("path.sum", "path", SUM2, 30_000, {}),
    ("path.pareto", "path", PARETO15, 60_000,
     {"thresholds": TAIL_THRESHOLDS, "alphas": (PARETO_ALPHA,)}),
    ("euler.bm", "euler", BM_CANON, 3_000, {"step_h": EULER_H}),
)


def run_engine(engine, model, n, rng, kw):
    uni = lc.Uniform01()
    if engine == "embedded":
        return simulate.embedded_chain_run(model, 1.0, uni, 1000, n, rng, **kw)
    if engine == "loynes":
        return simulate.loynes_run(model, 1.0, uni, n, rng, **kw)
    return simulate.path_simulate(model, 1.0, uni, n_collapses=n, rng=rng, **kw)


class McEngines:
    name = "mc-engines"
    min_rounds = 2

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.scale = 0.02 if smoke else 1.0
        self.trace_rounds = 2 if smoke else 4
        self.ref = {}
        for name, engine, model, n, kw in MC_CONFIGS:
            sol = stationary.stationary_solution(model, 1.0, 1.0)
            self.ref[name] = {"mean": sol.moments(1)[1], "atom": sol.atom,
                              "lst": sol.lst(PARETO_ALPHA)}
        self.merged = {}
        self.reps = {name: [] for name, *_ in MC_CONFIGS}

    def fixed_rounds(self, seconds):
        return None

    def _size(self, n):
        return max(1, int(n * self.scale))

    def warm_up(self):
        for k, (name, engine, model, n, kw) in enumerate(MC_CONFIGS):
            run_engine(engine, model, 200 if engine != "euler" else 20,
                       simulate.replication_rng(self.seed, 2_000_000 + k), kw)

    def _op(self, k, r):
        name, engine, model, n, kw = MC_CONFIGS[k]
        n = self._size(n)

        def fn():
            rng = simulate.replication_rng(self.seed, 1000 * r + k)
            pool = run_engine(engine, model, n, rng, kw)
            prev = self.merged.get(name)
            self.merged[name] = pool if prev is None else prev.merge(pool)
            p0, _ = pool.zero_frequency()
            lst = lc.empirical_lst(pool, (PARETO_ALPHA,))[0][0] if name == "path.pareto" else 0.0
            self.reps[name].append((pool.moment(1), p0, lst))
            return pool.time_total / EULER_H if engine == "euler" else pool.count
        return Op(engine, f"{name}.{r}", fn)

    def round_ops(self, r):
        return [self._op(k, r) for k in range(len(MC_CONFIGS))]

    def trace_groups(self):
        return [[op for r in range(self.trace_rounds) for op in self.round_ops(r)]]

    def finish(self):
        """Statistical checks on the merged pools, then the rerun check.

        Each replicate runs on its own stream, so the spread of replicate
        estimates gives a standard error that holds for correlated chains;
        with a single replicate the pool's own i.i.d. error is used.
        """
        results = []
        for name, engine, model, n, kw in MC_CONFIGS:
            reps = self.reps[name]
            pool = self.merged.get(name)
            if pool is None:
                continue
            ref = self.ref[name]
            checks = [("zero_freq", 1, pool.zero_frequency()[0], ref["atom"])]
            if name == "path.pareto":
                checks.append(("lst", 2, lc.empirical_lst(pool, (PARETO_ALPHA,))[0][0],
                               ref["lst"]))
            else:
                checks.append(("mean", 0, pool.moment(1), ref["mean"]))
            for stat, col, est, target in checks:
                if len(reps) > 1:
                    se = statistics.stdev(x[col] for x in reps) / math.sqrt(len(reps))
                elif stat == "zero_freq":
                    se = pool.zero_frequency()[1]
                elif stat == "lst":
                    se = lc.empirical_lst(pool, (PARETO_ALPHA,))[0][1]
                else:
                    se = pool.moment_se(1)
                allow = 0.0
                if engine == "euler":
                    allow = EULER_MEAN_ALLOWANCE if stat == "mean" else EULER_ZERO_ALLOWANCE
                ok = abs(est - target) <= 4.0 * se + allow
                results.append((f"{name}.{stat}", ok, f"{est:.6g} vs {target:.6g} "
                                f"(4 SE {4 * se:.3g}, allowance {allow:.3g})"))
        for k, (name, engine, model, n, kw) in enumerate(MC_CONFIGS):
            size = 2000 if engine != "euler" else 50
            sums = []
            for _ in range(2):
                pool = run_engine(engine, model, size,
                                  simulate.replication_rng(self.seed, 1_000_000 + k), kw)
                sums.append(pool.sums.tobytes() + pool.lst_sum.tobytes())
            if sums[0] != sums[1]:
                raise IntegrityError(f"{name}: two runs on one seed gave different pool sums")
        return results


# ---------------------------------------------------------------------------
# cli-commands
# ---------------------------------------------------------------------------

_MODEL_BM = """model.kind = bm
model.c = 0
model.sigma2 = 2
collapse = uniform
lambda = 1
"""
_MODEL_MM1 = """model.kind = cpp
model.d = 1
model.gamma = 1
model.jumps = exp
model.mu = 2
collapse = uniform
lambda = 1
"""
_MODEL_TAIL = """model.kind = cpp
model.d = 1
model.gamma = 0.8
model.jumps = pareto
model.delta = 1.5
model.xm = 0.33333333333333331
collapse = uniform
lambda = 1
"""
ANALYZE_ALPHAS = "0 0.1 0.25 0.5 0.75 1 1.25 1.5 2 2.5 3"
CLI_CONFIGS = {
    "analyze": _MODEL_BM + f"alphas = {ANALYZE_ALPHAS}\nn_moments = 4\n",
    "simulate": _MODEL_MM1 + ("engine = embedded\nn_samples = 200000\nn_burn = 1000\n"
                              "alphas = 0.25 0.5 1 2\nthreads = 2\nreplications = 8\n"),
    "tail": _MODEL_TAIL + "n_samples = 200000\nthresholds = 5 10 20\n",
    "validate": _MODEL_BM + "suite = all\nn_samples = 40000\nn_burn = 1000\n",
}


def _fmt17(x):
    return f"{float(x):.17g}"


class CliCommands:
    name = "cli-commands"
    min_rounds = 2

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        self.configs = dict(CLI_CONFIGS)
        if smoke:
            self.configs["simulate"] = self.configs["simulate"].replace("200000", "4000")
            self.configs["tail"] = self.configs["tail"].replace("200000", "4000")
            self.configs["validate"] = self.configs["validate"].replace("40000", "2000")
        self.paths = {}
        os.makedirs(workdir, exist_ok=True)
        for cmd, text in self.configs.items():
            self.paths[cmd] = self._write(cmd, text)
        for suite in VALIDATE_SUITES:
            text = self.configs["validate"].replace("suite = all", f"suite = {suite}")
            self.paths[f"validate.{suite}"] = self._write(f"validate.{suite}", text)
        cfg = lc.parse_config(self.configs["analyze"])
        # the class, not the cached constructor, so the commands run in this
        # process still build their own solution
        sol = stationary.StationarySolution(cfg.model, cfg.lam, cfg.collapse.theta)
        self.summary_expected = ("alpha_lambda,b,atom\n" + ",".join(
            _fmt17(x) for x in (sol.alpha_lambda, sol.b, sol.atom)) + "\n")
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(lc.__file__)))
        self.env["PYTHONPATH"] = src

    def fixed_rounds(self, seconds):
        return None

    def _write(self, name, text):
        path = os.path.join(self.workdir, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def warm_up(self):
        pass

    def argv(self, cmd, key=None):
        out = os.path.join(self.workdir, "out", key or cmd)
        return [cmd, "--config", self.paths[key or cmd], "--out", out,
                "--seed", str(self.seed)], out

    def check_outputs(self, cmd, out, stdout):
        if cmd == "analyze":
            with open(os.path.join(out, "summary.csv")) as fh:
                got = fh.read()
            if got != self.summary_expected:
                raise IntegrityError("analyze summary.csv differs from the in-process "
                                     f"values: {got!r} vs {self.summary_expected!r}")
        elif cmd == "simulate":
            with open(os.path.join(out, "summary.csv")) as fh:
                rows = dict(line.split(",", 1) for line in fh.read().splitlines()[1:])
            n = int(self.configs["simulate"].split("n_samples = ")[1].split()[0])
            if float(rows["count"].split(",")[0]) != n:
                raise CheckFailed(f"simulate pooled {rows['count']} levels, not {n}")
        elif cmd == "tail":
            with open(os.path.join(out, "tail.csv")) as fh:
                n_rows = len(fh.read().splitlines()) - 1
            if n_rows != len(TAIL_THRESHOLDS):
                raise CheckFailed(f"tail.csv has {n_rows} rows")
        else:
            rows = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
            failed = [ln.split()[1] for ln in rows if ln.startswith("FAIL ")]
            if not rows:
                raise CheckFailed("validate printed no check rows")
            if failed:
                raise CheckFailed(f"validate rows failed: {', '.join(failed)}")

    @staticmethod
    def check_exit(cmd, code, stderr):
        """Exit 3 is the package refusing an input, and exit 1 of validate
        reports FAIL rows (checked with the output); anything else, a
        traceback included, means the run cannot be trusted."""
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        if code == 3:
            raise CheckFailed(f"{cmd} exited 3: {last}")
        if code == 1 and cmd == "validate" and last.startswith("error: ValidationError:"):
            return
        if code != 0:
            raise IntegrityError(f"{cmd} exited {code}: {stderr.strip()[-300:]}")

    def _subprocess_op(self, cmd):
        def fn():
            argv, out = self.argv(cmd)
            proc = subprocess.run([sys.executable, "-m", "levy_collapse.cli"] + argv,
                                  env=self.env, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=150)
            self.check_exit(cmd, proc.returncode, proc.stderr)
            self.check_outputs(cmd, out, proc.stdout)
        return Op(cmd, cmd, fn)

    def round_ops(self, r):
        # every round repeats the same commands on the same seed
        return [self._subprocess_op(cmd) for cmd in CLI_COMMANDS]

    def _inproc_op(self, cmd, key=None):
        def fn():
            argv, out = self.argv(cmd, key)
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            self.check_exit(cmd, code, err.getvalue())
            self.check_outputs(cmd, out, buf.getvalue())
        return Op(cmd, key or cmd, fn)

    def trace_groups(self):
        """In-process `cli.main` runs, one fresh process per command; the
        validate suites run one by one so each gets its own span."""
        groups = [[self._inproc_op(cmd)] for cmd in CLI_COMMANDS[:3]]
        groups.append([self._inproc_op("validate", f"validate.{s}") for s in VALIDATE_SUITES])
        return groups

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (AnalyticSweep, McEngines, CliCommands)}
