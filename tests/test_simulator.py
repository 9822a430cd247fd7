"""Monte Carlo layer: recursion, exact samplers, engines, pools, diagnostics.

Statistical assertions use 3 or 4 standard errors of headroom around
analytic targets from the transform layer, so the two routes stay
independent; structural assertions (determinism, merging, validation)
are exact.
"""

import math
import os
from decimal import Decimal, getcontext
import subprocess
import sys

import numpy as np
import pytest

import levy_collapse
from levy_collapse import (
    BrownianDrift,
    ConfigError,
    CppMinusDrift,
    DomainError,
    EmptyPool,
    Exponential,
    ModelError,
    Pareto,
    SamplePool,
    Uniform01,
    coupling_check,
    embedded_chain_run,
    empirical_lst,
    explicit_solution,
    has_exact_wl,
    ks_critical,
    ks_statistic,
    loynes_run,
    mm1_roots,
    path_simulate,
    replication_rng,
    sample_wl_bm,
    sample_wl_mm1,
    stationary_solution,
    tail_table,
    w_tau_lst,
)

import reference_values as ref

BM = BrownianDrift(0.0, 2.0)
MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
UNI = Uniform01()


# ---------------------------------------------------------------------------
# one-step recursion and its closed form
# ---------------------------------------------------------------------------


def test_closed_form_matches_iteration():
    assert explicit_solution([3.5], [], []) == 3.5
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 100))
        v = rng.exponential(1.0, n + 1)
        u = rng.random(n)
        u[rng.random(n) < 0.1] = 0.0  # exercise hard resets
        y = rng.exponential(1.0, n)
        z = float(v[0])
        for j in range(n):
            hold = z * u[j] - y[j]
            z = v[j + 1] + (hold if hold > 0.0 else 0.0)
        assert explicit_solution(v, u, y) == pytest.approx(z, abs=1e-12)


def test_closed_form_forgets_everything_before_a_zero_multiplier():
    rng = np.random.default_rng(32)
    v = rng.exponential(1.0, 12)
    u = rng.random(11)
    y = rng.exponential(1.0, 11)
    m = 4
    u[m] = 0.0
    full = explicit_solution(v, u, y)
    suffix = explicit_solution(v[m + 1:], u[m + 1:], y[m + 1:])
    assert full == pytest.approx(suffix, abs=1e-14)


def test_closed_form_length_validation():
    with pytest.raises(DomainError):
        explicit_solution([1.0, 2.0], [0.5], [0.1, 0.2])
    with pytest.raises(DomainError):
        explicit_solution([1.0], [0.5], [0.1])


# ---------------------------------------------------------------------------
# exact inter-collapse samplers
# ---------------------------------------------------------------------------


def test_exact_sampler_coverage():
    assert has_exact_wl(BM)
    assert has_exact_wl(MM1)
    assert not has_exact_wl(BrownianDrift(1.0, 0.0))
    assert not has_exact_wl(CppMinusDrift(0.0, 0.7, Exponential(1.1)))
    assert not has_exact_wl(CppMinusDrift(1.0, 0.8, Pareto(1.5, 0.3)))


def test_brownian_pair_sampler_moments():
    rng = np.random.default_rng(1001)
    w, l = sample_wl_bm(0.0, 2.0, 1.0, rng, 1_000_000)
    for x, mean in ((w, 1.0), (l, 1.0)):
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mean) <= 4.0 * se
    e = np.exp(-0.5 * w)
    se = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(e.mean() - 2.0 / 3.0) <= 4.0 * se


def test_exponential_jump_pair_sampler():
    rng = np.random.default_rng(1002)
    w, l = sample_wl_mm1(1.0, 1.0, 2.0, 1.0, rng, 1_000_000)
    eta = math.sqrt(2.0)
    # atom at zero of size eta/mu, else exponential(eta)
    p0 = float(np.mean(w == 0.0))
    se0 = math.sqrt(p0 * (1.0 - p0) / w.size)
    assert abs(p0 - eta / 2.0) <= 4.0 * se0
    e = np.exp(-w)
    se = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(e.mean() - w_tau_lst(MM1, 1.0, 1.0)) <= 4.0 * se
    se = l.std(ddof=1) / math.sqrt(l.size)
    assert abs(l.mean() - 1.0 / math.sqrt(2.0)) <= 4.0 * se


def test_exponential_jump_mixture_is_always_proper():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        d = rng.uniform(0.5, 2.5)
        gam = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.3, 3.0)
        _, z2, _, _ = mm1_roots(d, gam, mu, lam)
        assert 0.0 < -z2 < mu
    # the sampler itself runs on a spread of parameters
    for _ in range(25):
        sample_wl_mm1(rng.uniform(0.5, 2.5), rng.uniform(0.2, 2.0),
                      rng.uniform(0.5, 4.0), rng.uniform(0.3, 3.0), rng, 100)


def test_exponential_jump_roots_are_stable_when_mu_dominates():
    # (lam+gamma)/d far below mu: the naive sum (s + disc)/2 cancels, giving
    # eta/mu > 1 at the first point and a zero root at the second; the
    # references are the two quadratic roots at 50 digits
    getcontext().prec = 50
    for d, gam, mu, lam in ((1.0, 1.0, 1e7, 1e-7), (1.0, 0.0, 1e8, 1e-9)):
        z1, z2, f1, f2 = mm1_roots(d, gam, mu, lam)
        s = (Decimal(lam) + Decimal(gam)) / Decimal(d) - Decimal(mu)
        disc = (s * s + 4 * Decimal(lam) * Decimal(mu) / Decimal(d)).sqrt()
        assert z1 == pytest.approx(float((s + disc) / 2), rel=1e-12)
        assert z2 == pytest.approx(float((s - disc) / 2), rel=1e-12)
        assert 0.0 < -z2 <= mu
        w, l = sample_wl_mm1(d, gam, mu, lam, np.random.default_rng(2), 1000)
        assert np.all(w >= 0.0) and np.all(l > 0.0)
    assert mm1_roots(1.0, 1.0, 1e7, 1e-7)[0] == pytest.approx(1.0000001e-7, rel=1e-12)
    assert -mm1_roots(1.0, 1.0, 1e7, 1e-7)[1] / 1e7 == pytest.approx(0.9999999, rel=1e-12)


def test_exponential_jump_mixture_guard_survives_optimized_mode():
    # the roots keep eta <= mu for every valid input, so the subprocess
    # injects a negative root beyond the jump pole -mu; the guard must
    # still raise under -O, where an assert would be gone
    src = os.path.dirname(os.path.dirname(os.path.abspath(levy_collapse.__file__)))
    code = ("import numpy as np\n"
            "import levy_collapse.simulate as sim\n"
            "from levy_collapse import ModelError, sample_wl_mm1\n"
            "sim.mm1_roots = lambda d, g, mu, lam: (1e-7, -1.0035 * mu, 0.5, 0.5)\n"
            "try:\n"
            "    sample_wl_mm1(1.0, 1.0, 1e7, 1e-7, np.random.default_rng(1), 1)\n"
            "except ModelError as exc:\n"
            "    print('ModelError', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.startswith("ModelError")
    for name in ("d=1.0", "gamma=1.0", "mu=10000000.0", "lambda=1e-07"):
        assert name in out.stdout


# ---------------------------------------------------------------------------
# embedded chain engine
# ---------------------------------------------------------------------------


def test_embedded_chain_matches_transform_layer():
    rng = replication_rng(20260815, 0)
    pool = embedded_chain_run(BM, 1.0, UNI, 1000, 200_000, rng,
                              alphas=(0.5, 1.0))
    assert pool.count == 200_000
    assert pool.zeros == 0  # Brownian input leaves no atom
    assert abs(pool.moment(1) - 4.0 / math.pi) <= 4.0 * pool.moment_se(1)
    assert abs(pool.moment(2) - 3.0) <= 4.0 * pool.moment_se(2)
    for a, (val, se) in zip((0.5, 1.0), empirical_lst(pool, (0.5, 1.0))):
        assert abs(val - stationary_solution(BM, 1.0, 1.0).lst(a)) <= 4.0 * se


def test_embedded_chain_zero_atom_matches_exponential_case():
    rng = replication_rng(20260815, 1)
    pool = embedded_chain_run(MM1, 1.0, UNI, 1000, 200_000, rng)
    p0, se0 = pool.zero_frequency()
    assert abs(p0 - ref.MM1_ATOM) <= 4.0 * se0
    assert abs(pool.moment(1) - ref.MM1_M1) <= 4.0 * pool.moment_se(1)


def test_embedded_chain_is_deterministic():
    a = embedded_chain_run(BM, 1.0, UNI, 100, 5000, replication_rng(7, 3),
                           alphas=(0.5,), thresholds=(2.0,))
    b = embedded_chain_run(BM, 1.0, UNI, 100, 5000, replication_rng(7, 3),
                           alphas=(0.5,), thresholds=(2.0,))
    assert a.summary() == b.summary()
    assert np.array_equal(a.res_vals, b.res_vals)


def test_embedded_chain_validation():
    with pytest.raises(DomainError):
        embedded_chain_run(BM, 1.0, UNI, -1, 100, replication_rng(1, 0))
    with pytest.raises(DomainError):
        embedded_chain_run(BM, 1.0, UNI, 0, 0, replication_rng(1, 0))
    with pytest.raises(ModelError):
        embedded_chain_run(CppMinusDrift(1.0, 0.8, Pareto(1.5, 0.3)),
                           1.0, UNI, 0, 10, replication_rng(1, 0))


# ---------------------------------------------------------------------------
# backward max-representation engine
# ---------------------------------------------------------------------------


def test_backward_engine_with_unit_truncation_returns_first_draw():
    # eps_trunc = 1 keeps only V0, whose law is the uncollapsed level
    rng = replication_rng(20260815, 2)
    pool = loynes_run(BM, 1.0, UNI, 100_000, rng, eps_trunc=1.0, alphas=(0.5,))
    assert abs(pool.moment(1) - 1.0) <= 4.0 * pool.moment_se(1)
    (val, se), = empirical_lst(pool, (0.5,))
    assert abs(val - w_tau_lst(BM, 1.0, 0.5)) <= 4.0 * se


def test_backward_engine_matches_transform_layer():
    rng = replication_rng(20260815, 3)
    alphas = (0.25, 0.5, 1.0)
    pool = loynes_run(BM, 1.0, UNI, 100_000, rng, alphas=alphas)
    for a, (val, se) in zip(alphas, empirical_lst(pool, alphas)):
        assert abs(val - stationary_solution(BM, 1.0, 1.0).lst(a)) <= 4.0 * se


def test_backward_engine_validation():
    rng = replication_rng(1, 1)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            loynes_run(BM, 1.0, UNI, 100, rng, eps_trunc=eps)
    with pytest.raises(DomainError):
        loynes_run(BM, 1.0, UNI, 0, rng)


def test_cold_start_means_increase_toward_stationarity():
    # distributional monotonicity from a cold start: per-chain step
    # differences have nonnegative mean within 3 standard errors
    rng = replication_rng(20260815, 4)
    n = 10_000
    z = np.zeros(n)
    means = []
    diffs = []
    for _ in range(20):
        w, l = sample_wl_bm(0.0, 2.0, 1.0, rng, n)
        u = UNI.sample(rng, n)
        z_new = w + np.maximum(z * u - l, 0.0)
        d = z_new - z
        diffs.append((d.mean(), d.std(ddof=1) / math.sqrt(n)))
        z = z_new
        means.append(z.mean())
    for m, s in diffs:
        assert m >= -3.0 * s
    assert means[-1] > means[0]


# ---------------------------------------------------------------------------
# continuous-time path engine
# ---------------------------------------------------------------------------


def test_path_engine_pure_drift_is_exact():
    # drain at rate 1 from z0 = 1 with no jumps and no collapses: the level
    # hits zero at t = 1, the regulator then grows at the drain rate, and
    # the occupied area is the triangle 1/2
    model = BrownianDrift(-1.0, 0.0)
    pool, state = path_simulate(model, 0.0, UNI, horizon=2.0,
                                rng=replication_rng(1, 0), z0=1.0,
                                return_final=True)
    assert state.z == 0.0
    assert state.regulator == pytest.approx(1.0, abs=1e-12)
    assert state.n_collapses == 0
    assert pool.time_total == pytest.approx(2.0, abs=1e-12)
    assert pool.time_integral == pytest.approx(0.5, abs=1e-12)


def test_path_engine_mode_validation():
    rng = replication_rng(1, 0)
    with pytest.raises(ConfigError):
        path_simulate(MM1, 1.0, UNI, rng=rng)
    with pytest.raises(ConfigError):
        path_simulate(MM1, 1.0, UNI, horizon=1.0, n_collapses=5, rng=rng)
    with pytest.raises(ConfigError):
        path_simulate(BM, 1.0, UNI, n_collapses=5, rng=rng)  # needs step_h
    with pytest.raises(ConfigError):
        path_simulate(BM, 1.0, UNI, n_collapses=5, step_h=0.0, rng=rng)
    with pytest.raises(ConfigError):
        path_simulate(MM1, 0.0, UNI, n_collapses=5, rng=rng)
    with pytest.raises(ConfigError):
        path_simulate(MM1, 1.0, UNI, horizon=-1.0, rng=rng)
    with pytest.raises(ConfigError):
        path_simulate(MM1, 1.0, UNI, horizon=1.0, z0=-0.1, rng=rng)


def test_engines_refuse_non_finite_inputs_before_any_draw():
    # nan passes a `< 0` check, and a run to an inf horizon never ends: the
    # nan horizon comes first, so a missing check fails instead of hanging
    rng = replication_rng(1, 0)
    state = rng.bit_generator.state
    for kw in ({"horizon": math.nan}, {"horizon": math.inf},
               {"n_collapses": 5, "z0": math.nan}, {"n_collapses": 5, "z0": math.inf},
               {"n_collapses": 5, "step_h": math.nan}):
        with pytest.raises(ConfigError):
            path_simulate(MM1, 1.0, UNI, rng=rng, **kw)
    for x0, y0, lam in ((1.0, math.inf, 1.0), (math.nan, 1.0, 1.0), (0.5, 1.0, math.nan)):
        with pytest.raises(DomainError):
            coupling_check(MM1, lam, UNI, x0, y0, 10, rng)
    for grids in (((math.inf,), ()), ((math.nan,), ()), ((), (math.nan,)), ((), (math.inf,))):
        with pytest.raises(DomainError):
            SamplePool(*grids)
    assert rng.bit_generator.state == state


def test_path_engine_agrees_with_embedded_chain():
    # same stationary law from two independent mechanisms; KS at the 1%
    # asymptotic threshold
    n = 20_000
    emb = embedded_chain_run(MM1, 1.0, UNI, 1000, n, replication_rng(20260815, 5))
    path = path_simulate(MM1, 1.0, UNI, n_collapses=n,
                         rng=replication_rng(20260815, 6))
    d = ks_statistic(emb.ecdf_values(), path.ecdf_values())
    assert d <= ks_critical(n, n, 0.01)


def test_path_engine_euler_bias_is_controlled():
    # sqrt(h) boundary bias at h = 1e-3 plus 4 standard errors
    n = 20_000
    pool = path_simulate(BM, 1.0, UNI, n_collapses=n, step_h=1e-3,
                         rng=replication_rng(20260815, 7))
    assert pool.count == n
    assert abs(pool.moment(1) - 4.0 / math.pi) <= 0.06


def test_coupling_contracts_paths():
    v, g = coupling_check(MM1, 1.0, UNI, 0.7, 0.7, 200, replication_rng(3, 1))
    assert v == 0.0 and g == 0.0
    v, g = coupling_check(MM1, 1.0, UNI, 0.2, 1.5, 500, replication_rng(3, 2))
    assert v <= 1e-12
    assert g >= -1e-12
    rng = np.random.default_rng(33)
    for _ in range(8):
        x0 = rng.uniform(0.0, 1.0)
        y0 = x0 + rng.uniform(0.0, 2.0)
        v, g = coupling_check(MM1, 1.0, UNI, x0, y0, 100,
                              replication_rng(4, int(rng.integers(1 << 20))))
        assert v <= 1e-9
        assert g >= -1e-9
    with pytest.raises(DomainError):
        coupling_check(MM1, 1.0, UNI, 1.0, 0.5, 10, replication_rng(1, 1))
    for model in (BM, MM1):
        for h in (-0.5, 0.0):
            with pytest.raises(ConfigError, match="step_h must be > 0"):
                coupling_check(model, 1.0, UNI, 1.0, 2.0, 10, replication_rng(1, 1),
                               step_h=h)


# ---------------------------------------------------------------------------
# sample pools
# ---------------------------------------------------------------------------


def test_pool_merge_is_commutative_and_order_free():
    rng = np.random.default_rng(8)
    a = SamplePool((0.5, 1.0), (2.0,), cap=500)
    b = SamplePool((0.5, 1.0), (2.0,), cap=500)
    a.add(rng.exponential(1.0, 700), rng)
    b.add(rng.exponential(2.0, 900), rng)
    ab, ba = a.merge(b), b.merge(a)
    assert ab.count == ba.count == 1600
    assert np.array_equal(ab.sums, ba.sums)
    assert np.array_equal(ab.lst_sum, ba.lst_sum)
    assert np.array_equal(ab.exceed, ba.exceed)
    assert np.array_equal(ab.res_vals, ba.res_vals)
    assert ab.res_vals.size == 500  # trimmed to cap
    assert ab.summary() == ba.summary()


def test_reservoir_keeps_the_smallest_keys_in_key_order():
    # the reservoir is put in key order only when it is read; it holds the
    # cap smallest keys drawn, with their levels, after every add and merge
    cap = 300
    pools, keys, vals = [], [], []
    for seed in (11, 12):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        pool = SamplePool((), (), cap=cap)
        for k in range(5):
            z = 1000.0 * seed + np.arange(200.0 * k, 200.0 * (k + 1))
            pool.add(z, rng)
            keys.append(twin.random(z.size))
            vals.append(z)
        pools.append(pool)
        order = np.argsort(np.concatenate(keys[-5:]))[:cap]
        assert np.array_equal(pool.res_vals, np.concatenate(vals[-5:])[order])
        assert np.array_equal(pool.res_keys, np.concatenate(keys[-5:])[order])
    merged = pools[0].merge(pools[1])
    order = np.argsort(np.concatenate(keys))[:cap]
    assert np.array_equal(merged.ecdf_values(), np.sort(np.concatenate(vals)[order]))
    assert np.array_equal(merged.res_vals, np.concatenate(vals)[order])
    assert np.array_equal(merged.res_keys, np.concatenate(keys)[order])


def test_pool_merge_requires_matching_grids():
    rng = np.random.default_rng(9)
    a = SamplePool((0.5,), (), cap=10)
    a.add([1.0], rng)
    for other in (SamplePool((0.7,), (), cap=10), SamplePool((0.5,), (1.0,), cap=10),
                  SamplePool((0.5,), (), cap=20)):
        with pytest.raises(DomainError):
            a.merge(other)


def test_pool_accumulators_and_validation():
    rng = np.random.default_rng(10)
    pool = SamplePool((1.0,), (0.5,), cap=4)
    pool.add([0.0, 1.0, 2.0, 0.0, 3.0], rng)
    assert pool.count == 5
    assert pool.zeros == 2
    assert pool.zero_frequency()[0] == pytest.approx(0.4, abs=1e-15)
    assert pool.moment(1) == pytest.approx(1.2, abs=1e-15)
    assert pool.moment(4) == pytest.approx((1.0 + 16.0 + 81.0) / 5.0, abs=1e-13)
    assert pool.res_vals.size == 4  # reservoir respects its cap
    assert int(pool.exceed[0]) == 3
    with pytest.raises(DomainError):
        pool.moment(5)
    with pytest.raises(DomainError):
        pool.moment_se(3)
    with pytest.raises(DomainError):
        pool.add([-0.5], rng)
    with pytest.raises(DomainError):
        SamplePool((-0.5,), ())
    with pytest.raises(DomainError):
        SamplePool((), (0.0,))


def test_pool_power_sums_saturate_without_a_warning():
    # 1e100^4 overflows; inf is the power sum, and the package's warnings
    # (errors under this suite's filterwarnings) stay quiet
    pool = SamplePool((0.5,), (1.0,), cap=4)
    pool.add([1e100], np.random.default_rng(0))
    assert pool.moment(1) == 1e100
    assert pool.moment(4) == math.inf


def test_pool_rejects_a_nan_level_untouched():
    # nan < 0 is false, so a sign test alone would pool it and every power
    # sum would read nan
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    pool = SamplePool((0.5,), (1.0,), cap=4)
    with pytest.raises(DomainError):
        pool.add([1.0, math.nan], rng)
    assert pool.count == 0
    assert pool.zeros == 0
    assert not pool.sums.any()
    assert rng.bit_generator.state == state  # no reservoir keys drawn


def test_empty_pool_raises():
    pool = SamplePool((0.5,), ())
    with pytest.raises(EmptyPool):
        pool.moment(1)
    with pytest.raises(EmptyPool):
        pool.summary()
    with pytest.raises(EmptyPool):
        empirical_lst(pool, (0.5,))


def test_empirical_transform_edges():
    rng = np.random.default_rng(12)
    pool = SamplePool((0.5,), ())
    pool.add(np.zeros(100), rng)
    assert empirical_lst(pool, (0.0,)) == [(1.0, 0.0)]
    (val, se), = empirical_lst(pool, (0.5,))
    assert val == 1.0 and se == 0.0  # e^0 for every sample
    with pytest.raises(DomainError):
        empirical_lst(pool, (0.75,))
    with pytest.raises(DomainError):
        empirical_lst(pool, (-0.5,))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_ks_statistic_hand_values():
    assert ks_statistic([1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]) == 0.25
    assert ks_statistic([1.0, 2.0], [5.0, 6.0]) == 1.0
    with pytest.raises(EmptyPool):
        ks_statistic([], [1.0])


def test_ks_critical_values():
    assert ks_critical(100_000, 100_000, 0.01) == pytest.approx(
        0.007278954160144188, abs=1e-18)
    with pytest.raises(DomainError):
        ks_critical(0, 5)
    with pytest.raises(DomainError):
        ks_critical(5, 5, 0.0)


def test_tail_table_hand_case():
    rng = np.random.default_rng(13)
    pool = SamplePool((), (5.0, 20.0), cap=10)
    pool.add([0.1, 6.0, 30.0], rng)
    rows = tail_table(pool, 1.5, 1.0 / 3.0)
    assert [r.exceedances for r in rows] == [2, 1]
    assert all(r.samples == 3 for r in rows)
    assert rows[0].ratio == pytest.approx(38.72983346207417, rel=1e-14)
    assert rows[1].ratio == pytest.approx(154.91933384829667, rel=1e-14)
    for r in rows:
        assert 0.0 <= r.lo <= r.ratio <= r.hi


def test_tail_table_below_scale_uses_raw_frequency():
    rng = np.random.default_rng(14)
    pool = SamplePool((), (0.2,), cap=10)
    pool.add([0.1, 6.0, 30.0], rng)
    row, = tail_table(pool, 1.5, 1.0 / 3.0)
    assert row.ratio == pytest.approx(2.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# replication streams
# ---------------------------------------------------------------------------


def test_replication_streams_are_reproducible_and_distinct():
    a = replication_rng(123, 0).random(8)
    b = replication_rng(123, 0).random(8)
    c = replication_rng(123, 1).random(8)
    d = replication_rng(124, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
