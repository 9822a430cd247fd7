"""End-to-end acceptance checklist.

Each test covers one shipping criterion, records a PASS/FAIL row for the
terminal summary (see conftest), and then asserts. Statistical criteria
run at fixed master seed 20260815 with the stated standard-error budgets;
timed criteria measure wall clock around the governing computation.
"""

import math
import time

import numpy as np
import pytest

from levy_collapse import (
    BrownianDrift,
    CppMinusDrift,
    Exponential,
    Pareto,
    StationarySolution,
    Sum,
    Uniform01,
    bm_closed_form_lst,
    coupling_check,
    embedded_chain_run,
    empirical_lst,
    explicit_solution,
    find_alpha_lambda,
    fixed_point_residual,
    ks_critical,
    ks_statistic,
    loynes_run,
    mm1_closed_form_lst,
    path_simulate,
    replication_rng,
    small_alpha_expansion_check,
    stationary_solution,
    tail_table,
)

BM = BrownianDrift(0.0, 2.0)
MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
MIXTURE = Sum((BrownianDrift(0.3, 1.5), CppMinusDrift(0.2, 0.7, Exponential(1.1))))
UNI = Uniform01()
SEED = 20260815

_shared = {}


def test_criterion_01_canonical_brownian_closed_forms(acceptance):
    t0 = time.perf_counter()
    sol = StationarySolution(BM, 1.0, 1.0)  # fresh build, no cache
    m = sol.moments(2)
    elapsed = time.perf_counter() - t0
    checks = [
        ("alpha_lambda", sol.alpha_lambda, 1.0, 1e-12),
        ("b", sol.b, 4.0 / math.pi, 1e-8),
        ("f(1)", sol.lst(1.0), 4.0 / (3.0 * math.pi), 1e-7),
        ("m1", m[1], 4.0 / math.pi, 1e-8),
        ("m2", m[2], 3.0, 1e-8),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    acceptance("1 canonical Brownian constants at closed-form accuracy",
               ok and elapsed < 1.0, f"{elapsed:.2f}s")
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{name}: {got} vs {want}"
    assert elapsed < 1.0


def test_criterion_02_dual_route_agreement(acceptance):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0)
        s2 = rng.uniform(0.3, 4.0)
        lam = rng.uniform(0.3, 3.0)
        sol = StationarySolution(BrownianDrift(c, s2), lam, 1.0)
        for a in np.linspace(0.0, 0.95 * sol.alpha_lambda, 50):
            worst = max(worst, abs(sol.lst(float(a))
                                   - bm_closed_form_lst(c, s2, lam, float(a))))
    for _ in range(20):
        d = rng.uniform(0.5, 2.5)
        gam = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.3, 3.0)
        sol = StationarySolution(CppMinusDrift(d, gam, Exponential(mu)), lam, 1.0)
        for a in np.linspace(0.0, 0.95 * sol.alpha_lambda, 50):
            worst = max(worst, abs(sol.lst(float(a))
                                   - mm1_closed_form_lst(d, gam, mu, lam, float(a))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    acceptance("2 dual-route transform agreement on 40 random models", ok,
               f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_03_fixed_point_residual(acceptance):
    worst = 0.0
    for model, lam in ((BM, 1.0), (MM1, 1.0), (MIXTURE, 1.2)):
        a = find_alpha_lambda(model, lam)
        for x in np.linspace(0.0, 3.0 * a, 61):
            if abs(x - a) <= max(1e-3, 1e-3 * a):
                continue
            worst = max(worst, fixed_point_residual(model, lam, 1.0, float(x)))
    ok = worst <= 1e-7
    acceptance("3 fixed-point residual on [0, 3 alpha_lambda]", ok,
               f"max residual {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_04_branch_continuity(acceptance):
    worst = 0.0
    for model, lam in ((BM, 1.0), (MM1, 1.0)):
        for theta in (1.0, 2.0):
            sol = stationary_solution(model, lam, theta)
            a = sol.alpha_lambda
            mid = sol.b / (theta / a + sol.phi_prime_root / lam)
            eps = 2e-9 * a  # next to the root, on either side
            worst = max(worst, abs(sol.lst(a - eps) - mid),
                        abs(sol.lst(a + eps) - mid))
    ok = worst <= 1e-5
    acceptance("4 branch continuity at the root (theta 1 and 2)", ok,
               f"max dev {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_05_monte_carlo_matches_transforms(acceptance):
    t0 = time.perf_counter()
    results = []
    for rep, (model, lam) in enumerate(((BM, 1.0), (MM1, 1.0))):
        sol = stationary_solution(model, lam, 1.0)
        alphas = tuple(f * sol.alpha_lambda for f in (0.25, 0.5, 1.0, 2.0))
        pool = embedded_chain_run(model, lam, UNI, 1000, 1_000_000,
                                  replication_rng(SEED, rep), alphas=alphas)
        _shared[model] = pool
        m = sol.moments(2)
        for a, (val, se) in zip(alphas, empirical_lst(pool, alphas)):
            results.append((f"lst@{a:.3g}", abs(val - sol.lst(a)), 3.0 * se))
        for n in (1, 2):
            results.append((f"m{n}", abs(pool.moment(n) - m[n]),
                            3.0 * pool.moment_se(n)))
    elapsed = time.perf_counter() - t0
    ok = all(dev <= bound for _, dev, bound in results) and elapsed < 20.0
    worst = max(dev / bound for _, dev, bound in results)
    acceptance("5 embedded chain reproduces transforms and moments at 3 SE",
               ok, f"worst dev {worst:.2f} SE-budget, {elapsed:.1f}s")
    for name, dev, bound in results:
        assert dev <= bound, f"{name}: {dev} > {bound}"
    assert elapsed < 20.0


def test_criterion_06_atom_at_zero(acceptance):
    pool_mm1 = _shared[MM1]
    pool_bm = _shared[BM]
    p0, se0 = pool_mm1.zero_frequency()
    target = 1.0 * stationary_solution(MM1, 1.0, 1.0).b / 2.0
    dev_sim = abs(p0 - target)
    far_devs = []
    for theta in (1.0, 2.0, 5.0):
        sol = stationary_solution(MM1, 1.0, theta)
        far_devs.append(abs(sol.atom - sol.lst(1e4 * sol.alpha_lambda)))
    ok = (dev_sim <= 3.0 * se0 and pool_bm.zeros == 0
          and max(far_devs) <= 1e-3
          and stationary_solution(MM1, 1.0, 1.0).atom == pytest.approx(target, rel=1e-12))
    acceptance("6 zero atom: rate balance, simulation and far transform", ok,
               f"sim dev {dev_sim:.2e} vs 3se {3 * se0:.2e}, far {max(far_devs):.2e}")
    assert dev_sim <= 3.0 * se0
    assert pool_bm.zeros == 0
    assert max(far_devs) <= 1e-3


def test_criterion_07_route_triangulation(acceptance):
    n = 100_000
    t0 = time.perf_counter()
    emb = embedded_chain_run(MM1, 1.0, UNI, 1000, n, replication_rng(SEED, 2))
    loy = loynes_run(MM1, 1.0, UNI, n, replication_rng(SEED, 3))
    pat = path_simulate(MM1, 1.0, UNI, n_collapses=n, rng=replication_rng(SEED, 4))
    elapsed = time.perf_counter() - t0
    crit = ks_critical(n, n, 0.01)
    ds = [ks_statistic(a.ecdf_values(), b.ecdf_values())
          for a, b in ((emb, loy), (emb, pat), (loy, pat))]
    ok = max(ds) <= crit and elapsed < 60.0
    acceptance("7 three sampling routes agree pairwise (KS at 1%)", ok,
               f"max D {max(ds):.4f} vs {crit:.4f}, {elapsed:.1f}s")
    assert max(ds) <= crit
    assert elapsed < 60.0


def test_criterion_08_coupling_contraction(acceptance):
    rng = np.random.default_rng(SEED)
    worst_violation = 0.0
    worst_gap = math.inf
    for k in range(100):
        x0 = rng.uniform(0.0, 2.0)
        y0 = x0 + rng.uniform(0.0, 3.0)
        v, g = coupling_check(MM1, 1.0, UNI, x0, y0, 1000,
                              replication_rng(SEED, 100 + k))
        worst_violation = max(worst_violation, v)
        worst_gap = min(worst_gap, g)
    ok = worst_violation <= 1e-9 and worst_gap >= -1e-12
    acceptance("8 pathwise coupling contraction on 100 exact runs", ok,
               f"max violation {worst_violation:.2e}, min gap {worst_gap:.2e}")
    assert worst_violation <= 1e-9
    assert worst_gap >= -1e-12


def test_criterion_09_euler_discretization(acceptance):
    n = 100_000
    emb = embedded_chain_run(BM, 1.0, UNI, 1000, n, replication_rng(SEED, 5))
    pat = path_simulate(BM, 1.0, UNI, n_collapses=n, step_h=1e-4,
                        rng=replication_rng(SEED, 6))
    d = ks_statistic(emb.ecdf_values(), pat.ecdf_values())
    ok = d < 0.01
    acceptance("9 Euler path at step 1e-4 matches the exact chain", ok,
               f"KS {d:.4f} vs budget 0.01")
    assert d < 0.01


def test_criterion_10_heavy_tail(acceptance):
    xm = 1.0 / 3.0
    model = CppMinusDrift(1.0, 0.8, Pareto(1.5, xm))
    pool = path_simulate(model, 1.0, UNI, n_collapses=10_000_000,
                         rng=replication_rng(SEED, 7), thresholds=(10.0,))
    ratio = tail_table(pool, 1.5, xm)[0].ratio
    target = 4.0 / 3.0
    ratios = small_alpha_expansion_check(model, 1.0, (1e-3, 1e-4))
    flat = abs(ratios[1] - ratios[0]) / abs(ratios[1])
    sol = stationary_solution(model, 1.0, 1.0)
    # m1 comes from the root identity; the collapse ladder's E f(root U)
    # gives it a second way
    A = sol.alpha_lambda
    m1_ladder = 2.0 * (model.cumulant(1) / 1.0 + sol.mean_lst_collapsed(A) / A)
    m1 = sol.moments(1)[1]
    ok = (abs(ratio - target) <= 0.30 * target and flat <= 0.10
          and abs(m1_ladder - m1) <= 1e-6)
    acceptance("10 heavy-tail ratio, expansion flatness and mean identity", ok,
               f"ratio {ratio:.3f} vs 4/3, flatness {flat:.3f}, "
               f"mean gap {abs(m1_ladder - m1):.1e}")
    assert abs(ratio - target) <= 0.30 * target
    assert flat <= 0.10
    assert abs(m1_ladder - m1) <= 1e-6


def test_criterion_11_explicit_solution(acceptance):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 100))
        v = rng.exponential(1.0, n + 1)
        u = rng.random(n)
        u[rng.random(n) < 0.08] = 0.0
        y = rng.exponential(1.0, n)
        z = float(v[0])
        for j in range(n):
            hold = z * u[j] - y[j]
            z = v[j + 1] + (hold if hold > 0.0 else 0.0)
        worst = max(worst, abs(explicit_solution(v, u, y) - z))
    ok = worst <= 1e-12
    acceptance("11 closed form equals the iterated recursion", ok,
               f"max dev {worst:.2e}")
    assert worst <= 1e-12
