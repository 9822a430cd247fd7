"""Experiment orchestration and CSV emission.

Each command writes byte-deterministic CSV files into the configured
output directory: floats are serialized with 17 significant digits so a
reader recovers the exact doubles. `run_validate` executes the analytic
vs simulation cross-check suites and reports one row per check.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from . import simulate, stationary
from .config import RunConfig
from .errors import ValidationError
from .models import (
    BrownianDrift,
    CppMinusDrift,
    Exponential,
    Pareto,
    Sum,
    Uniform01,
    collapse_from_theta,
)

_CANON_BM = BrownianDrift(0.0, 2.0)
_CANON_MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
_CANON_MIX = Sum((BrownianDrift(0.3, 1.5), CppMinusDrift(0.2, 0.7, Exponential(1.1))))


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], rows) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def run_analyze(cfg: RunConfig) -> List[str]:
    """Transform grid, moments and headline constants for one model."""
    if not cfg.alphas:
        raise ValidationError("alphas must be non-empty for analyze")
    sol = stationary.stationary_solution(cfg.model, cfg.lam, cfg.collapse.theta)
    grid = sol.grid(cfg.alphas)
    out = cfg.out_dir
    paths = [
        write_csv(os.path.join(out, "lst.csv"), ("alpha", "f_alpha", "branch"),
                  zip(grid.alphas, grid.values, grid.branch_tags)),
        write_csv(os.path.join(out, "moments.csv"), ("n", "m_n"),
                  enumerate(sol.moments(cfg.n_moments))),
        write_csv(os.path.join(out, "summary.csv"), ("alpha_lambda", "b", "atom"),
                  [(sol.alpha_lambda, sol.b, sol.atom)]),
    ]
    return paths


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _chunks(total: int, parts: int) -> List[int]:
    parts = min(parts, total)
    base, extra = divmod(total, parts)
    return [base + (1 if r < extra else 0) for r in range(parts)]


def _replicate(args) -> simulate.SamplePool:
    cfg, r, n = args
    rng = simulate.replication_rng(cfg.seed(), r)
    kw = dict(alphas=cfg.alphas, thresholds=cfg.thresholds,
              reservoir_cap=cfg.reservoir_cap)
    if cfg.engine == "embedded":
        return simulate.embedded_chain_run(cfg.model, cfg.lam, cfg.collapse,
                                           cfg.n_burn, n, rng, **kw)
    if cfg.engine == "loynes":
        return simulate.loynes_run(cfg.model, cfg.lam, cfg.collapse, n, rng,
                                   eps_trunc=cfg.eps_trunc, **kw)
    if cfg.horizon is not None:
        return simulate.path_simulate(cfg.model, cfg.lam, cfg.collapse,
                                      horizon=cfg.horizon, step_h=cfg.step_h,
                                      rng=rng, z0=cfg.z0, stream_id=r, **kw)
    return simulate.path_simulate(cfg.model, cfg.lam, cfg.collapse,
                                  n_collapses=n, step_h=cfg.step_h,
                                  rng=rng, z0=cfg.z0, stream_id=r, **kw)


def _run_pools(cfg: RunConfig) -> List[simulate.SamplePool]:
    if cfg.engine in ("embedded", "loynes") and not simulate.has_exact_wl(cfg.model):
        raise ValidationError("no exact W_tau sampler for this model; use engine = path")
    # replication count fixes the sample split and the (seed, r) streams;
    # threads only sizes the worker pool, so results do not depend on it
    reps = cfg.replications if cfg.replications > 0 else cfg.threads
    jobs = [(cfg, r, n) for r, n in enumerate(_chunks(cfg.n_samples, reps))]
    if len(jobs) <= 1 or cfg.threads <= 1:
        return [_replicate(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(cfg.threads, len(jobs))) as pool:
        return list(pool.map(_replicate, jobs))


# summary rows of the moment estimates, by order
_MOMENT_ROWS = {"mean": 1, "moment2": 2, "moment3": 3, "moment4": 4}


def _summary_rows(pool: simulate.SamplePool, model) -> list:
    """The pool's summary without finite estimates of infinite quantities:
    order n reads inf (stderr nan) where the n-th cumulant of the input is
    infinite, so is the stationary n-th moment, and its stderr reads nan
    where the 2n-th is, the variance of the estimate then being infinite."""
    rows = []
    for stat, value, se in pool.summary():
        n = _MOMENT_ROWS.get(stat)
        if n is not None and math.isinf(model.cumulant(n)):
            value, se = math.inf, math.nan
        elif n is not None and math.isinf(model.cumulant(2 * n)):
            se = math.nan
        rows.append((stat, value, se))
    return rows


def run_simulate(cfg: RunConfig) -> List[str]:
    """One engine run (possibly fanned over replications) with CSV dumps."""
    cfg.seed()  # fail before any work if the seed is missing
    pools = _run_pools(cfg)
    merged = pools[0]
    for p in pools[1:]:
        merged = merged.merge(p)

    def sample_rows():
        for r, p in enumerate(pools):
            for i, z in enumerate(p.res_vals):
                yield (r, i, z)

    out = cfg.out_dir
    return [
        write_csv(os.path.join(out, "samples.csv"), ("replicate", "n", "zeta"),
                  sample_rows()),
        write_csv(os.path.join(out, "summary.csv"), ("stat", "value", "stderr"),
                  _summary_rows(merged, cfg.model)),
    ]


def run_tail(cfg: RunConfig) -> List[str]:
    """Exceedance-ratio experiment for Pareto jumps via the exact engine."""
    cfg.seed()
    model = cfg.model
    if not (isinstance(model, CppMinusDrift) and isinstance(model.jumps, Pareto)):
        raise ValidationError("tail command needs model.kind = cpp with pareto jumps")
    if not cfg.thresholds:
        raise ValidationError("thresholds must be non-empty for tail")
    delta, xm = model.jumps.delta, model.jumps.xm
    pools = _run_pools(replace(cfg, engine="path", collapse=Uniform01()))
    merged = pools[0]
    for p in pools[1:]:
        merged = merged.merge(p)
    rows = simulate.tail_table(merged, delta, xm)
    target = stationary.tail_constant(model.gamma, cfg.lam, delta)
    return [write_csv(os.path.join(cfg.out_dir, "tail.csv"),
                      ("threshold", "exceedances", "samples", "ratio", "lo", "hi",
                       "target"),
                      [(r.threshold, r.exceedances, r.samples, r.ratio, r.lo, r.hi,
                        target) for r in rows])]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# uniform multipliers only: the closed forms below are theta = 1 formulas
_BM_SETS = ((0.0, 2.0, 1.0), (0.5, 1.0, 2.0), (-0.7, 3.0, 0.6),
            (1.0, 4.0, 3.0), (0.2, 0.5, 1.3))
_MM1_SETS = ((1.0, 1.0, 2.0, 1.0), (2.0, 1.5, 1.0, 0.8),
             (1.0, 0.4, 3.0, 2.0), (1.5, 2.0, 2.5, 1.2))


def _row(check: str, expected: float, observed: float, tol: float):
    return (check, expected, observed, tol, abs(expected - observed) <= tol)


def _suite_analytic(cfg) -> list:
    rows = []
    sol = stationary.stationary_solution(_CANON_BM, 1.0, 1.0)
    four_pi = 4.0 / math.pi
    rows.append(_row("bm.alpha_lambda", 1.0, sol.alpha_lambda, cfg.tol("root", 1e-12)))
    rows.append(_row("bm.b", four_pi, sol.b, cfg.tol("b", 1e-8)))
    rows.append(_row("bm.f1", 4.0 / (3.0 * math.pi), sol.lst(1.0), cfg.tol("f", 1e-7)))
    m = sol.moments(2)
    rows.append(_row("bm.m1", four_pi, m[1], cfg.tol("moment", 1e-8)))
    rows.append(_row("bm.m2", 3.0, m[2], cfg.tol("moment", 1e-8)))
    rows.append(_row("bm.f0", 1.0, sol.lst(0.0), 1e-9))
    rows.append(_row("bm.atom", 0.0, sol.atom, 0.0))
    solm = stationary.stationary_solution(_CANON_MM1, 1.0, 1.0)
    rows.append(_row("mm1.atom.vs.rate_balance",
                     stationary.level_crossing_p0(1.0, 1.0, solm.b), solm.atom,
                     1e-10))
    far = solm.lst(1e4 * solm.alpha_lambda)
    rows.append(_row("mm1.atom.vs.far_transform", solm.atom, far, 1e-3))
    rows.append(_row("mm1.f0", 1.0, solm.lst(0.0), 1e-9))
    return rows


def _suite_closed_form(kind: str, cfg) -> list:
    rows = []
    tol = cfg.tol("dual_route", 1e-8)
    if kind == "bm":
        sets, closed = _BM_SETS, stationary.bm_closed_form_lst
        make = lambda p: BrownianDrift(p[0], p[1])
    else:
        sets, closed = _MM1_SETS, stationary.mm1_closed_form_lst
        make = lambda p: CppMinusDrift(p[0], p[1], Exponential(p[2]))
    for p in sets:
        lam = p[-1]
        sol = stationary.stationary_solution(make(p), lam, 1.0)
        # the closed forms have a pole at the positive factorization root, so
        # the comparison stays on [0, 0.95 root] where both routes are defined
        grid = sol.grid(np.linspace(0.0, 0.95 * sol.alpha_lambda, 50))
        worst = max(abs(v - closed(*p, a)) for a, v in zip(grid.alphas, grid.values))
        tag = "x".join(_fmt(v) for v in p)
        rows.append(_row(f"{kind}.dual_route[{tag}]", 0.0, worst, tol))
    return rows


def _suite_fixed_point(cfg) -> list:
    rows = []
    tol = cfg.tol("fixed_point", 1e-7)
    for name, model, lam, theta in (("bm", _CANON_BM, 1.0, 1.0),
                                    ("mm1", _CANON_MM1, 1.0, 1.0),
                                    ("mix", _CANON_MIX, 1.2, 1.0)):
        sol = stationary.stationary_solution(model, lam, theta)
        A = sol.alpha_lambda
        worst = 0.0
        for a in np.linspace(0.0, 3.0 * A, 40):
            if abs(a - A) < 1e-3 * A:
                continue
            worst = max(worst, stationary.fixed_point_residual(model, lam, theta,
                                                               float(a)))
        rows.append(_row(f"fixed_point.{name}", 0.0, worst, tol))
    return rows


def _suite_simulation(cfg) -> list:
    rows = []
    n = cfg.n_samples
    uni = Uniform01()
    rng = simulate.replication_rng(cfg.seed(), 101)
    pool = simulate.embedded_chain_run(_CANON_BM, 1.0, uni, cfg.n_burn, n, rng,
                                       alphas=(0.5,))
    four_pi = 4.0 / math.pi
    rows.append(_row("sim.bm.mean", four_pi, pool.moment(1), 4 * pool.moment_se(1)))
    rows.append(_row("sim.bm.m2", 3.0, pool.moment(2), 4 * pool.moment_se(2)))
    (val, se), = simulate.empirical_lst(pool, (0.5,))
    f05 = stationary.stationary_solution(_CANON_BM, 1.0, 1.0).lst(0.5)
    rows.append(_row("sim.bm.lst_half", f05, val, 4 * se))
    rows.append(_row("sim.bm.zero_freq", 0.0, pool.zeros, 0.0))
    rng = simulate.replication_rng(cfg.seed(), 102)
    poolm = simulate.embedded_chain_run(_CANON_MM1, 1.0, uni, cfg.n_burn, n, rng)
    p0, se0 = poolm.zero_frequency()
    target = stationary.level_crossing_p0(
        1.0, 1.0, stationary.stationary_solution(_CANON_MM1, 1.0, 1.0).b)
    rows.append(_row("sim.mm1.zero_freq", target, p0, 4 * se0))
    return rows


def _suite_routes(cfg) -> list:
    n = cfg.n_samples
    uni = Uniform01()
    seed = cfg.seed()
    pe = simulate.embedded_chain_run(_CANON_MM1, 1.0, uni, cfg.n_burn, n,
                                     simulate.replication_rng(seed, 111))
    pl = simulate.loynes_run(_CANON_MM1, 1.0, uni, n,
                             simulate.replication_rng(seed, 112),
                             eps_trunc=cfg.eps_trunc)
    pp = simulate.path_simulate(_CANON_MM1, 1.0, uni, n_collapses=n,
                                rng=simulate.replication_rng(seed, 113))
    rows = []
    pairs = (("embedded.loynes", pe, pl), ("embedded.path", pe, pp),
             ("loynes.path", pl, pp))
    for name, a, b in pairs:
        av, bv = a.ecdf_values(), b.ecdf_values()
        ks = simulate.ks_statistic(av, bv)
        rows.append(_row(f"routes.ks.{name}", 0.0, ks,
                         simulate.ks_critical(av.size, bv.size, 0.01)))
    return rows


def _suite_coupling(cfg) -> list:
    rows = []
    seed = cfg.seed()
    cases = (("mm1", _CANON_MM1, 1.0, 1.0),
             ("mm1b", CppMinusDrift(2.0, 1.5, Exponential(1.0)), 0.8, 2.0),
             ("mix", _CANON_MIX, 1.2, 1.0))
    tol = cfg.tol("coupling", 1e-9)
    for i, (name, model, lam, theta) in enumerate(cases):
        kw = {"step_h": 1e-3} if model.sigma2_total() > 0 else {}
        viol, mn = simulate.coupling_check(model, lam, collapse_from_theta(theta),
                                           1.0, 6.0, 1000,
                                           simulate.replication_rng(seed, 121 + i),
                                           **kw)
        rows.append(_row(f"coupling.violation.{name}", 0.0, viol, tol))
        rows.append(_row(f"coupling.min_gap.{name}", 0.0, min(mn, 0.0), 1e-12))
    return rows


def _suite_tail(cfg) -> list:
    if isinstance(cfg.model, CppMinusDrift) and isinstance(cfg.model.jumps, Pareto):
        model, lam = cfg.model, cfg.lam
    else:
        model, lam = CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0)), 1.0
    thresholds = cfg.thresholds or (10.0, 20.0)
    rows_t = simulate.tail_experiment(model.gamma, model.d, lam,
                                      model.jumps.delta, model.jumps.xm,
                                      cfg.n_samples, thresholds,
                                      simulate.replication_rng(cfg.seed(), 131))
    target = stationary.tail_constant(model.gamma, lam, model.jumps.delta)
    out = []
    for r in rows_t:
        # widened tolerance: the 30% regular-variation band plus the CI halfwidth
        tol = 0.3 * target + 0.5 * (r.hi - r.lo)
        out.append(_row(f"tail.ratio@{_fmt(r.threshold)}", target, r.ratio, tol))
    return out


_SUITES = {
    "analytic": _suite_analytic,
    "bm-closed-form": lambda cfg: _suite_closed_form("bm", cfg),
    "mm1-closed-form": lambda cfg: _suite_closed_form("mm1", cfg),
    "fixed-point": _suite_fixed_point,
    "simulation": _suite_simulation,
    "routes": _suite_routes,
    "coupling": _suite_coupling,
    "tail": _suite_tail,
}


def run_validate(cfg: RunConfig) -> Tuple[List[str], list]:
    """Run the requested suite(s); returns (paths, rows) with pass flags."""
    if cfg.suite == "all":
        names = list(_SUITES)
    elif cfg.suite in _SUITES:
        names = [cfg.suite]
    else:
        raise ValidationError(
            f"suite must be 'all' or one of {', '.join(_SUITES)}")
    rows = []
    for name in names:
        rows.extend(_SUITES[name](cfg))
    path = write_csv(os.path.join(cfg.out_dir, "validate.csv"),
                     ("check", "expected", "observed", "tol", "pass"), rows)
    return [path], rows
