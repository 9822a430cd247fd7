"""The exact engines as folds of increasing maps z -> max(a z + b, c).

The engines fold their events in array batches but must draw exactly the
same random numbers as stepping one event at a time. The references below
are those one-at-a-time loops; each comparison runs both from the same
seed and requires the same generator calls (method, arguments, order),
identical counts, zeros, exceedances and reservoir keys, and levels, pool
sums, time totals and terminal state equal up to rounding (1e-10
relative).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_collapse import (
    Beta1,
    BrownianDrift,
    CppMinusDrift,
    Deterministic,
    Erlang,
    Exponential,
    Pareto,
    PathState,
    SamplePool,
    Sum,
    Uniform01,
    coupling_check,
    embedded_chain_run,
    path_simulate,
    replication_rng,
)
from levy_collapse.simulate import _BLOCK, _exact_wl, _fold

UNI = Uniform01()
MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
BM = BrownianDrift(0.0, 2.0)
SUM2 = Sum((CppMinusDrift(0.6, 0.5, Exponential(2.0)),
            CppMinusDrift(0.6, 0.4, Deterministic(0.5))))
PARETO15 = CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0))
ERLANG = CppMinusDrift(1.0, 1.0, Erlang(3, 4.0))
RARE = CppMinusDrift(1.0, 0.05, Exponential(2.0))
BUSY = CppMinusDrift(25.0, 20.0, Exponential(1.0))
POOL_KW = dict(alphas=(0.5, 2.0), thresholds=(0.5, 3.0), reservoir_cap=20_000)
RTOL = 1e-10


class _Recorder:
    """Generator proxy that logs every draw call with its arguments."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls.append((name, repr(args), repr(kwargs)))
            return draw(*args, **kwargs)
        return call


def recorders(seed, rep):
    return _Recorder(replication_rng(seed, rep)), _Recorder(replication_rng(seed, rep))


def assert_same_draws(new, ref):
    assert new.calls == ref.calls
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


# ---------------------------------------------------------------------------
# one-event-at-a-time references
# ---------------------------------------------------------------------------


class _RefStream:
    def __init__(self, rng, fn):
        self._rng, self._fn, self._buf, self._i = rng, fn, [], 0

    def take(self):
        if self._i == len(self._buf):
            self._buf = self._fn(self._rng, _BLOCK).tolist()
            self._i = 0
        self._i += 1
        return self._buf[self._i - 1]


def _ref_streams(model, lam, collapse, rng):
    parts = model.jump_parts()
    g_tot = sum(g for g, _ in parts)
    ecol = _RefStream(rng, lambda r, n: r.exponential(1.0 / lam, n)) if lam > 0 else None
    ejmp = _RefStream(rng, lambda r, n: r.exponential(1.0 / g_tot, n)) if g_tot > 0 else None
    pick = _RefStream(rng, lambda r, n: r.random(n)) if len(parts) > 1 else None
    sizes = [_RefStream(rng, lambda r, n, j=jumps: j.sample(r, n)) for _, jumps in parts]
    cuts = np.cumsum([g for g, _ in parts]) / g_tot if len(parts) > 1 else None
    umult = _RefStream(rng, lambda r, n, c=collapse: c.sample(r, n))

    def jump():
        if pick is None:
            return sizes[0].take()
        i = int(np.searchsorted(cuts, pick.take(), side="right"))
        return sizes[min(i, len(sizes) - 1)].take()

    return ecol, ejmp, jump, umult


def ref_embedded(model, lam, collapse, n_burn, n_samples, rng, **kw):
    draw = _exact_wl(model, lam)
    pool = SamplePool(kw.get("alphas", ()), kw.get("thresholds", ()),
                      kw.get("reservoir_cap", 100_000))
    z, total, done = 0.0, n_burn + n_samples, 0
    while done < total:
        m = min(_BLOCK, total - done)
        w, l = draw(rng, m)
        u = collapse.sample(rng, m)
        out = []
        for v, uu, yy in zip(w.tolist(), u.tolist(), l.tolist()):
            hold = z * uu - yy
            z = v + (hold if hold > 0.0 else 0.0)
            out.append(z)
        keep = n_burn - done
        done += m
        if keep < m:
            pool.add(np.asarray(out[max(keep, 0):]), rng)
    return pool


def ref_path(model, lam, collapse, *, rng, horizon=None, n_collapses=None,
             z0=0.0, **kw):
    drift = model.drift_rate()
    pool = SamplePool(kw.get("alphas", ()), kw.get("thresholds", ()),
                      kw.get("reservoir_cap", 100_000))
    ecol, ejmp, jump, umult = _ref_streams(model, lam, collapse, rng)

    def advance(z, dt):
        z_new = z + drift * dt
        pool.time_total += dt
        if z_new >= 0.0:
            pool.time_integral += dt * (z + 0.5 * drift * dt)
            return z_new, 0.0
        pool.time_integral += 0.5 * z * (z / -drift)
        return 0.0, -z_new

    t, z, reg, ncol = 0.0, float(z0), 0.0, 0
    next_col = t + ecol.take() if ecol else math.inf
    next_jmp = t + ejmp.take() if ejmp else math.inf
    buf = []
    while True:
        t_next = min(next_col, next_jmp)
        if horizon is not None and t_next >= horizon:
            if horizon > t:
                z, pushed = advance(z, horizon - t)
                reg += pushed
            t = horizon
            break
        z, pushed = advance(z, t_next - t)
        reg += pushed
        t = t_next
        if next_jmp <= next_col:
            z += jump()
            next_jmp = t + ejmp.take()
        else:
            buf.append(z)
            z *= umult.take()
            ncol += 1
            next_col = t + ecol.take()
            if len(buf) >= _BLOCK:
                pool.add(np.asarray(buf), rng)
                buf.clear()
            if n_collapses is not None and ncol >= n_collapses:
                break
    if buf:
        pool.add(np.asarray(buf), rng)
    return pool, PathState(t, z, reg, next_col, next_jmp, ncol, None)


def ref_coupling(model, lam, collapse, x0, y0, n_collapses, rng):
    drift = model.drift_rate()
    ecol, ejmp, jump, umult = _ref_streams(model, lam, collapse, rng)
    t, zx, zy, gap0, pi, ncol = 0.0, x0, y0, y0 - x0, 1.0, 0
    violation, min_gap = 0.0, y0 - x0
    next_col = t + ecol.take()
    next_jmp = t + ejmp.take() if ejmp else math.inf
    while ncol < n_collapses:
        t_next = min(next_col, next_jmp)
        zx = max(zx + drift * (t_next - t), 0.0)
        zy = max(zy + drift * (t_next - t), 0.0)
        t = t_next
        if next_jmp <= next_col:
            b = jump()
            zx, zy = zx + b, zy + b
            next_jmp = t + ejmp.take()
        else:
            u = umult.take()
            zx, zy, pi = zx * u, zy * u, pi * u
            ncol += 1
            next_col = t + ecol.take()
            violation = max(violation, (zy - zx) - gap0 * pi)
        min_gap = min(min_gap, zy - zx)
    return violation, min_gap


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _close(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref), initial=0.0))
    np.testing.assert_allclose(new, ref, rtol=RTOL, atol=RTOL * scale)


def assert_same_pool(new, ref):
    assert new.count == ref.count
    assert new.zeros == ref.zeros
    np.testing.assert_array_equal(new.exceed, ref.exceed)
    np.testing.assert_array_equal(new.res_keys, ref.res_keys)
    _close(new.res_vals, ref.res_vals)
    for k in range(4):
        _close(new.sums[k], ref.sums[k])
    _close(new.lst_sum, ref.lst_sum)
    _close(new.lst_sqsum, ref.lst_sqsum)
    _close(new.time_total, ref.time_total)
    _close(new.time_integral, ref.time_integral)


def assert_same_state(new, ref):
    assert new.n_collapses == ref.n_collapses
    for f in ("t", "z", "regulator", "next_collapse", "next_jump"):
        a, b = getattr(new, f), getattr(ref, f)
        if math.isinf(b):
            assert a == b
        else:
            _close(a, b)


@pytest.mark.parametrize("model,n_burn,n", [(MM1, 1000, 200_000), (BM, 70_000, 150_000),
                                            (MM1, 0, 5)])
def test_embedded_fold_draws_what_the_loop_draws(model, n_burn, n):
    r_new, r_ref = recorders(51, 1)
    new = embedded_chain_run(model, 1.0, UNI, n_burn, n, r_new, **POOL_KW)
    ref = ref_embedded(model, 1.0, UNI, n_burn, n, r_ref, **POOL_KW)
    assert_same_draws(r_new, r_ref)
    assert_same_pool(new, ref)


@pytest.mark.parametrize("model,collapse,n", [
    (SUM2, UNI, 300_000),         # two jump parts: pick stream and two size streams
    (PARETO15, UNI, 150_000),
    (ERLANG, Beta1(4.0), 100_000),
    (RARE, UNI, 70_000),          # collapse blocks refill between jumps
    (BUSY, UNI, 20_000),          # jump blocks refill between collapses
    (MM1, UNI, _BLOCK),           # the run ends on a reservoir flush
])
def test_path_fold_draws_what_the_loop_draws(model, collapse, n):
    r_new, r_ref = recorders(52, 2)
    new, s_new = path_simulate(model, 1.0, collapse, n_collapses=n, rng=r_new,
                               return_final=True, **POOL_KW)
    ref, s_ref = ref_path(model, 1.0, collapse, n_collapses=n, rng=r_ref, **POOL_KW)
    assert_same_draws(r_new, r_ref)
    assert_same_pool(new, ref)
    assert_same_state(s_new, s_ref)


@pytest.mark.parametrize("model,lam,horizon,z0", [
    (MM1, 1.0, 3000.0, 2.5),
    (SUM2, 0.7, 500.0, 0.0),
    (BUSY, 0.0, 40.0, 4.0),                    # no collapses: lam = 0
    (CppMinusDrift(1.0, 0.0), 1.3, 200.0, 1.0),  # no jumps
    (CppMinusDrift(1.0, 0.0), 0.0, 2.0, 1.0),    # no events at all
    (MM1, 1.0, 0.0, 1.0),
])
def test_path_fold_horizon_mode(model, lam, horizon, z0):
    r_new, r_ref = recorders(53, 3)
    new, s_new = path_simulate(model, lam, UNI, horizon=horizon, z0=z0, rng=r_new,
                               return_final=True, stream_id=4, **POOL_KW)
    ref, s_ref = ref_path(model, lam, UNI, horizon=horizon, z0=z0, rng=r_ref,
                          **POOL_KW)
    assert_same_draws(r_new, r_ref)
    assert_same_pool(new, ref)
    assert_same_state(s_new, s_ref)
    assert s_new.stream_id == 4


@pytest.mark.parametrize("model,collapse,x0,y0,n", [
    (MM1, UNI, 1.0, 6.0, 1000),
    (SUM2, UNI, 0.0, 3.0, 100_000),
    (ERLANG, Beta1(4.0), 0.4, 0.9, 5000),
])
def test_coupling_fold_draws_what_the_loop_draws(model, collapse, x0, y0, n):
    r_new, r_ref = recorders(54, 4)
    v_new, g_new = coupling_check(model, 1.0, collapse, x0, y0, n, r_new)
    v_ref, g_ref = ref_coupling(model, 1.0, collapse, x0, y0, n, r_ref)
    assert_same_draws(r_new, r_ref)
    # both are rounding-level quantities of levels of order y0
    assert abs(v_new - v_ref) <= 1e-12 * y0
    assert abs(g_new - g_ref) <= 1e-12 * y0
    assert g_new >= 0.0


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

_maps = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
              st.floats(-10.0, 10.0),
              st.one_of(st.just(0.0), st.floats(-5.0, 5.0))),
    min_size=1, max_size=300)


@settings(max_examples=150, deadline=None)
@given(_maps, st.floats(0.0, 10.0))
def test_fold_is_the_scalar_recursion(maps, z0):
    a, b, c = (np.array(x) for x in zip(*maps))
    ref = []
    z = z0
    for ak, bk, ck in maps:
        z = max(ak * z + bk, ck)
        ref.append(z)
    ref = np.array(ref)
    got = _fold(a, b, c, z0)
    scale = z0 + float(np.abs(b).sum() + np.abs(c).max())
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
    # a clamp at c = 0 that the affine part misses by a clear margin gives
    # exactly zero, as a reset through a = 0 does
    bound = 2.0 * max(z0, float(np.abs(ref).max())) + 1.0
    clamp = (c == 0.0) & ((b < -bound) | ((a == 0.0) & (b <= 0.0)))
    assert np.all(got[clamp] == 0.0)


def test_fold_on_long_blocks():
    # more than one full block, length not a multiple of 64
    rng = np.random.default_rng(55)
    n = _BLOCK + 17
    a = rng.random(n)
    a[rng.random(n) < 0.01] = 0.0
    c = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(1.0, n))
    b = c - rng.exponential(1.0, n)
    ref = np.empty(n)
    z = 0.3
    for k, (ak, bk, ck) in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
        z = max(ak * z + bk, ck)
        ref[k] = z
    _close(_fold(a, b, c, 0.3), ref)
