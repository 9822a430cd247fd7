"""Monte Carlo engines for the collapsed reflected process.

Three independent sampling routes back the analytic layer:

* the embedded pre-collapse chain zeta_n = V_n + (zeta_{n-1} U_n - Y_n)^+,
  exact whenever the inter-collapse pair (W, L) has a closed-form sampler
  (Brownian input, exponential jumps);
* the backward max-representation of the same chain, truncated once the
  running product of multipliers is negligible;
* a continuous-time path engine, exact for finite-activity models without
  a Brownian part and Euler-discretized between event epochs otherwise.

All routes feed a mergeable `SamplePool`, so replications can run
independently and be combined in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DomainError, EmptyPool, ModelError
from .models import (
    BrownianDrift,
    CollapseLaw,
    CppMinusDrift,
    Exponential,
    LevyModel,
    Pareto,
    Sum,
    Uniform01,
)
from .stationary import bm_roots, mm1_roots

_BLOCK = 1 << 16
_RESERVOIR_CAP = 100_000
_EPS_TRUNC = 1e-12
_WILSON_Z = 1.959963984540054  # two-sided 95%


def replication_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent, reproducible stream for one replication."""
    return np.random.default_rng([int(master_seed), int(replicate)])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainState:
    """Pre-collapse level together with the running multiplier product."""

    zeta: float
    n: int = 0
    pi_n: float = 1.0

    def __post_init__(self):
        if self.zeta < 0:
            raise DomainError("chain level must be >= 0")
        if not 0.0 <= self.pi_n <= 1.0:
            raise DomainError("multiplier product must lie in [0, 1]")
        if self.n < 0:
            raise DomainError("step counter must be >= 0")


@dataclass(frozen=True)
class PathState:
    """Snapshot of the continuous-time engine at its stopping time."""

    t: float
    z: float
    regulator: float  # cumulative amount pushed in at zero
    next_collapse: float
    next_jump: float
    n_collapses: int
    stream_id: Optional[int] = None


@dataclass(eq=False)
class SamplePool:
    """Mergeable accumulator for simulated levels.

    Keeps power sums up to order four, mean-transform accumulators
    sum e^{-a Z} (and their squares) on a fixed alpha grid, exceedance
    counters on a threshold grid, an exact zero counter, optional
    occupation-time totals, and a bounded uniform subsample of the levels.
    The subsample keeps the entries with the smallest random keys, so
    merging two pools and trimming again is still uniform over the union
    and independent of merge order. It is put in key order only when
    `res_keys` or `res_vals` is read.
    """

    alphas: Tuple[float, ...] = ()
    thresholds: Tuple[float, ...] = ()
    cap: int = _RESERVOIR_CAP
    count: int = 0
    zeros: int = 0
    time_total: float = 0.0
    time_integral: float = 0.0
    sums: np.ndarray = field(default=None, repr=False)
    lst_sum: np.ndarray = field(default=None, repr=False)
    lst_sqsum: np.ndarray = field(default=None, repr=False)
    exceed: np.ndarray = field(default=None, repr=False)
    _keys: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)
    _vals: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False)
    _sorted: bool = field(default=True, init=False, repr=False)

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        self.thresholds = tuple(float(t) for t in self.thresholds)
        self.cap = int(self.cap)
        if any(a < 0 for a in self.alphas):
            raise DomainError("transform grid needs alpha >= 0")
        if any(t <= 0 for t in self.thresholds):
            raise DomainError("exceedance thresholds must be > 0")
        if self.cap < 0:
            raise DomainError("reservoir cap must be >= 0")
        if self.sums is None:
            self.sums = np.zeros(4)
        if self.lst_sum is None:
            self.lst_sum = np.zeros(len(self.alphas))
        if self.lst_sqsum is None:
            self.lst_sqsum = np.zeros(len(self.alphas))
        if self.exceed is None:
            self.exceed = np.zeros(len(self.thresholds), dtype=np.int64)

    def add(self, values, rng: np.random.Generator) -> None:
        """Fold a batch of levels in; rng supplies the reservoir keys."""
        z = np.asarray(values, dtype=float).ravel()
        if z.size == 0:
            return
        if not z.min() >= 0.0:  # also rejects nan
            raise DomainError("levels must be >= 0")
        self.count += int(z.size)
        self.zeros += int(np.count_nonzero(z == 0.0))
        p = z.copy()
        with np.errstate(over="ignore"):  # inf is the saturated power sum
            for k in range(4):
                self.sums[k] += p.sum()
                if k < 3:
                    p *= z
        for i, a in enumerate(self.alphas):
            e = np.exp(-a * z)
            self.lst_sum[i] += e.sum()
            self.lst_sqsum[i] += (e * e).sum()
        for i, t in enumerate(self.thresholds):
            self.exceed[i] += int(np.count_nonzero(z > t))
        if self.cap > 0:
            self._push(rng.random(z.size), z)

    def _push(self, keys: np.ndarray, vals: np.ndarray) -> None:
        keys = np.concatenate([self._keys, keys])
        vals = np.concatenate([self._vals, vals])
        if keys.size > self.cap:
            idx = np.argpartition(keys, self.cap)[: self.cap]
            keys, vals = keys[idx], vals[idx]
        self._keys, self._vals, self._sorted = keys, vals, False

    def _sort(self) -> None:
        if not self._sorted:
            order = np.argsort(self._keys, kind="stable")
            self._keys, self._vals, self._sorted = self._keys[order], self._vals[order], True

    @property
    def res_keys(self) -> np.ndarray:
        """Reservoir keys in ascending order."""
        self._sort()
        return self._keys

    @property
    def res_vals(self) -> np.ndarray:
        """Reservoir levels in the order of their keys."""
        self._sort()
        return self._vals

    def merge(self, other: "SamplePool") -> "SamplePool":
        """Combine two pools; commutative, and associative up to rounding."""
        if (self.alphas != other.alphas or self.thresholds != other.thresholds
                or self.cap != other.cap):
            raise DomainError("pools must share alpha grid, thresholds and cap")
        out = SamplePool(self.alphas, self.thresholds, self.cap)
        out.count = self.count + other.count
        out.zeros = self.zeros + other.zeros
        out.time_total = self.time_total + other.time_total
        out.time_integral = self.time_integral + other.time_integral
        out.sums = self.sums + other.sums
        out.lst_sum = self.lst_sum + other.lst_sum
        out.lst_sqsum = self.lst_sqsum + other.lst_sqsum
        out.exceed = self.exceed + other.exceed
        out._push(np.concatenate([self._keys, other._keys]),
                  np.concatenate([self._vals, other._vals]))
        return out

    def moment(self, order: int) -> float:
        if self.count == 0:
            raise EmptyPool("no samples accumulated")
        if not 1 <= order <= 4:
            raise DomainError("pooled moments cover orders 1 through 4")
        return float(self.sums[order - 1] / self.count)

    def moment_se(self, order: int) -> float:
        """Standard error of `moment`; needs twice the order pooled."""
        if not 1 <= order <= 2:
            raise DomainError("moment standard errors need order <= 2")
        m = self.moment(order)
        m2 = self.moment(2 * order)
        return math.sqrt(max(m2 - m * m, 0.0) / self.count)

    def zero_frequency(self) -> Tuple[float, float]:
        """Fraction of exact zeros with its binomial standard error."""
        if self.count == 0:
            raise EmptyPool("no samples accumulated")
        p = self.zeros / self.count
        return p, math.sqrt(p * (1.0 - p) / self.count)

    def ecdf_values(self) -> np.ndarray:
        """Retained levels in ascending order."""
        return np.sort(self._vals)

    def summary(self) -> List[Tuple[str, float, float]]:
        """(stat, value, stderr) rows; deterministic given the accumulators."""
        if self.count == 0:
            raise EmptyPool("no samples accumulated")
        rows = [("count", float(self.count), 0.0),
                ("mean", self.moment(1), self.moment_se(1)),
                ("moment2", self.moment(2), self.moment_se(2)),
                ("moment3", self.moment(3), math.nan),
                ("moment4", self.moment(4), math.nan)]
        p0, se0 = self.zero_frequency()
        rows.append(("zero_freq", p0, se0))
        if self.time_total > 0.0:
            rows.append(("time_avg", self.time_integral / self.time_total, math.nan))
        for (a, (val, se)) in zip(self.alphas, empirical_lst(self, self.alphas)):
            rows.append((f"lst@{a:.12g}", val, se))
        for t, k in zip(self.thresholds, self.exceed):
            p = float(k) / self.count
            rows.append((f"exceed@{t:.12g}", p, math.sqrt(p * (1.0 - p) / self.count)))
        return rows


def empirical_lst(pool: SamplePool, alphas) -> List[Tuple[float, float]]:
    """Sample means of e^{-alpha Z} with standard errors.

    Only alpha = 0 (exactly 1, error 0) and points of the pool's fixed
    grid are available: the transform accumulators are folded in per
    batch, not recomputable from a reservoir.
    """
    if pool.count == 0:
        raise EmptyPool("no samples accumulated")
    out = []
    for a in alphas:
        a = float(a)
        if a < 0:
            raise DomainError("alpha must be >= 0")
        if a == 0.0:
            out.append((1.0, 0.0))
            continue
        try:
            i = pool.alphas.index(a)
        except ValueError:
            raise DomainError(f"alpha {a!r} is not on the pool grid") from None
        m1 = float(pool.lst_sum[i]) / pool.count
        m2 = float(pool.lst_sqsum[i]) / pool.count
        out.append((m1, math.sqrt(max(m2 - m1 * m1, 0.0) / pool.count)))
    return out


# ---------------------------------------------------------------------------
# the collapse recursion and its closed form
# ---------------------------------------------------------------------------


def lindley_step(state: ChainState, v: float, u: float, y: float) -> ChainState:
    """One collapse cycle: new level v + (zeta*u - y)^+, product times u."""
    if v < 0 or y < 0:
        raise DomainError("v and y must be >= 0")
    if not 0.0 <= u <= 1.0:
        raise DomainError("collapse multiplier must lie in [0, 1]")
    hold = state.zeta * u - y
    return ChainState(v + (hold if hold > 0.0 else 0.0), state.n + 1, state.pi_n * u)


def explicit_solution(v: Sequence[float], u: Sequence[float],
                      y: Sequence[float]) -> float:
    """Closed-form value of the recursion after len(u) steps from z0 = v[0].

    Backward accumulation: the final level is v[-1] plus the largest of
    the partial sums sum_{j>=k} P_{j+1} (u_j v_j - y_j), where P_{j+1}
    multiplies the collapse factors after step j; the empty sum (k = n)
    leaves v[-1] alone. A zero multiplier kills every earlier term, so
    the value depends only on inputs from that step onward.
    """
    v = [float(x) for x in v]
    u = [float(x) for x in u]
    y = [float(x) for x in y]
    if len(v) != len(u) + 1 or len(u) != len(y):
        raise DomainError("need len(v) == len(u) + 1 == len(y) + 1")
    best = 0.0
    tail = 0.0
    prod = 1.0
    for j in range(len(u) - 1, -1, -1):
        tail += prod * (u[j] * v[j] - y[j])
        if tail > best:
            best = tail
        prod *= u[j]
    return v[-1] + best


# ---------------------------------------------------------------------------
# exact inter-collapse samplers
# ---------------------------------------------------------------------------


def sample_wl_bm(c: float, sigma2: float, lam: float, rng: np.random.Generator,
                 size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Independent pair (W, L): reflected level and regulator at an
    independent exp(lam) time, Brownian input started at zero.

    L is exponential with rate y1. The W factor follows from the
    factorization 1 - phi(alpha)/lam = (1 - alpha/y1)(1 - alpha/y2):
    dividing out the L part leaves 1/(1 - alpha/y2), an exponential
    with rate -y2.
    """
    y1, y2, _, _ = bm_roots(c, sigma2, lam)
    return rng.exponential(-1.0 / y2, size), rng.exponential(1.0 / y1, size)


def sample_wl_mm1(d: float, gamma: float, mu: float, lam: float,
                  rng: np.random.Generator, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """(W, L) pair for exponential jumps with drain rate d.

    L is exponential with rate z1. W carries an atom at zero: with
    eta = -z2 the transform factor (1 + alpha/mu)/(1 + alpha/eta) is the
    mixture 'zero with probability eta/mu, else exponential(eta)', valid
    because eta <= mu for every gamma >= 0.
    """
    z1, z2, _, _ = mm1_roots(d, gamma, mu, lam)
    eta = -z2
    if not eta <= mu * (1.0 + 1e-12):
        raise ModelError(
            f"W factor is not a probability mixture for d={d}, gamma={gamma}, "
            f"mu={mu}, lambda={lam} (negative root {z2} beyond the jump pole -mu)")
    at_zero = rng.random(size) < eta / mu
    w = np.where(at_zero, 0.0, rng.exponential(1.0 / eta, size))
    return w, rng.exponential(1.0 / z1, size)


def has_exact_wl(model: LevyModel) -> bool:
    """True when the inter-collapse pair has a closed-form sampler."""
    if isinstance(model, BrownianDrift):
        return model.sigma2 > 0
    return (isinstance(model, CppMinusDrift) and model.d > 0
            and isinstance(model.jumps, Exponential))


def _exact_wl(model: LevyModel, lam: float) -> Callable:
    if not has_exact_wl(model):
        raise ModelError("no exact (W, L) sampler for this model; use the path engine")
    if isinstance(model, BrownianDrift):
        return lambda rng, n: sample_wl_bm(model.c, model.sigma2, lam, rng, n)
    return lambda rng, n: sample_wl_mm1(model.d, model.gamma, model.jumps.mu,
                                        lam, rng, n)


# ---------------------------------------------------------------------------
# chain engines
# ---------------------------------------------------------------------------


def _fold(a: np.ndarray, b: np.ndarray, c: np.ndarray, z0: float) -> np.ndarray:
    """Levels z_k = max(a_k z_{k-1} + b_k, c_k), k = 1..n, from z_0 = z0.

    Needs a >= 0 and finite b, c: the maps are then increasing and closed
    under composition, (a2, b2, c2) o (a1, b1, c1) =
    (a2 a1, a2 b1 + b2, max(a2 c1 + b2, c2)). Blocked scan: the maps fill
    rows of w columns (w up to 64, about sqrt(n/16)); each row's maps are
    composed column by column, one scalar pass carries the level across the
    row maps, and a sweep over the columns applies every row's maps in
    order from the row's start level. Only the start levels carry the
    composition's rounding, and w = 1 is the plain recursion.
    """
    n = a.size
    w = max(1, min(64, math.isqrt(n // 16)))
    rows = -(-n // w)

    def grid(x, fill):
        g = np.full(rows * w, fill)
        g[:n] = x
        return np.ascontiguousarray(g.reshape(rows, w).T)

    a2, b2, c2 = grid(a, 1.0), grid(b, 0.0), grid(c, 0.0)
    A, B, C = a2[0].copy(), b2[0].copy(), c2[0].copy()
    for j in range(1, w):
        aj = a2[j]
        np.multiply(aj, C, out=C)
        C += b2[j]
        np.maximum(C, c2[j], out=C)
        np.multiply(aj, B, out=B)
        B += b2[j]
        A *= aj
    start = []
    z = float(z0)
    for ar, br, cr in zip(A.tolist(), B.tolist(), C.tolist()):
        start.append(z)
        z = ar * z + br
        if z < cr:
            z = cr
    out = np.empty((w, rows))
    z = np.asarray(start)
    for j in range(w):
        np.multiply(a2[j], z, out=out[j])
        out[j] += b2[j]
        z = np.maximum(out[j], c2[j], out=out[j])
    return out.T.reshape(-1)[:n]


def embedded_chain_run(model: LevyModel, lam: float, collapse: CollapseLaw,
                       n_burn: int, n_samples: int, rng: np.random.Generator, *,
                       alphas=(), thresholds=(),
                       reservoir_cap: int = _RESERVOIR_CAP) -> SamplePool:
    """Exact pre-collapse chain from a cold start, pooling post-burn levels.

    Each block of draws is one fold of the maps z -> max(U z + V - Y, V).
    """
    n_burn, n_samples = int(n_burn), int(n_samples)
    if n_burn < 0 or n_samples <= 0:
        raise DomainError("need n_burn >= 0 and n_samples > 0")
    draw = _exact_wl(model, lam)
    pool = SamplePool(alphas, thresholds, reservoir_cap)
    z = 0.0
    total = n_burn + n_samples
    done = 0
    while done < total:
        m = min(_BLOCK, total - done)
        w, l = draw(rng, m)
        u = collapse.sample(rng, m)
        levels = _fold(u, w - l, w, z)
        z = float(levels[-1])
        keep = n_burn - done  # first index to keep within this block
        done += m
        if keep < m:
            pool.add(levels[max(keep, 0):], rng)
    return pool


def loynes_run(model: LevyModel, lam: float, collapse: CollapseLaw,
               n_samples: int, rng: np.random.Generator, *,
               eps_trunc: float = _EPS_TRUNC, alphas=(), thresholds=(),
               reservoir_cap: int = _RESERVOIR_CAP) -> SamplePool:
    """Truncated backward max-representation draws, one lane per sample.

    Each lane evaluates Z = V_0 + max_n sum_{k<=n} (V_k U_k - Y_k) pi_{k-1}
    over i.i.d. cycles, with pi_k = U_1 ... U_k, and stops after the
    first cycle whose product pi_n is at most `eps_trunc` (at once when
    eps_trunc = 1). Blocks of up to _BLOCK lanes run in rounds: a round
    draws one cycle for each lane still live, in lane order, and a lane
    that stops leaves the round set with its running max as its sample.
    """
    if not 0.0 < eps_trunc <= 1.0:
        raise DomainError("eps_trunc must lie in (0, 1]")
    n_samples = int(n_samples)
    if n_samples <= 0:
        raise DomainError("need n_samples > 0")
    draw = _exact_wl(model, lam)
    pool = SamplePool(alphas, thresholds, reservoir_cap)
    for off in range(0, n_samples, _BLOCK):
        m = min(_BLOCK, n_samples - off)
        v0, _ = draw(rng, m)
        out = np.zeros(m)
        lane = np.arange(m)
        tail = np.zeros(m)
        best = np.zeros(m)
        pi = np.ones(m)
        while True:
            live = pi > eps_trunc
            if not live.all():
                out[lane[~live]] = best[~live]
                lane, tail, best, pi = lane[live], tail[live], best[live], pi[live]
                if lane.size == 0:
                    break
            v, y = draw(rng, lane.size)
            u = collapse.sample(rng, lane.size)
            tail += (v * u - y) * pi
            np.maximum(best, tail, out=best)
            pi *= u
        pool.add(v0 + out, rng)
    return pool


# ---------------------------------------------------------------------------
# continuous-time path engine
# ---------------------------------------------------------------------------


class _Stream:
    """Draws of one kind prefetched in blocks of _BLOCK from one generator.

    The Euler loop takes one draw at a time; the exact engine reads the
    block `buf[i:]` directly and advances `i` itself.
    """

    __slots__ = ("_rng", "_fn", "buf", "i")

    def __init__(self, rng, fn):
        self._rng = rng
        self._fn = fn
        self.buf = np.empty(0)
        self.i = 0

    def left(self) -> int:
        return self.buf.size - self.i

    def fill(self) -> None:
        """Draw the next block once the current one is used up."""
        if self.i == self.buf.size:
            self.buf = self._fn(self._rng, _BLOCK)
            self.i = 0

    def take(self) -> float:
        self.fill()
        self.i += 1
        return float(self.buf[self.i - 1])


def _event_streams(model, lam, collapse, rng):
    """Clock, jump-size and multiplier streams for the event loop."""
    parts = model.jump_parts()
    g_tot = sum(g for g, _ in parts)
    ecol = _Stream(rng, lambda r, n: r.exponential(1.0 / lam, n)) if lam > 0 else None
    ejmp = _Stream(rng, lambda r, n: r.exponential(1.0 / g_tot, n)) if g_tot > 0 else None
    pick = _Stream(rng, lambda r, n: r.random(n)) if len(parts) > 1 else None
    sizes = [_Stream(rng, lambda r, n, j=jumps: j.sample(r, n)) for _, jumps in parts]
    cuts = np.cumsum([g for g, _ in parts]) / g_tot if len(parts) > 1 else None
    umult = _Stream(rng, lambda r, n, c=collapse: c.sample(r, n))
    return ecol, ejmp, pick, sizes, cuts, umult


def _take_jump(pick, sizes, cuts) -> float:
    if pick is None:
        return sizes[0].take()
    i = int(np.searchsorted(cuts, pick.take(), side="right"))
    return sizes[min(i, len(sizes) - 1)].take()


class _EventBatches:
    """Event epochs of a model without a Brownian part, read in batches.

    Each event is a map z -> max(a z + b, c) of the level just after the
    previous event: drain for dt at the drift rate, clamped at zero, then
    either a jump B, (1, drift dt + B, B), or a collapse U,
    (U, U drift dt, 0). The draws come from the same streams, in the same
    calls, sizes and order as taking one event at a time: a batch holds
    every event whose draws already sit in the prefetched blocks (at most
    _BLOCK events), and only its front event refills blocks, in the order
    pick, size, jump clock or multiplier, collapse clock. The multiplier
    block runs out at every _BLOCK-th collapse, so a batch ends there and a
    caller flushing its reservoir after it draws the keys where stepping
    one event at a time would.
    """

    def __init__(self, model, lam, collapse, rng):
        (self._ecol, self._ejmp, self._pick, self._sizes, self._cuts,
         self._umult) = _event_streams(model, lam, collapse, rng)
        self._drift = model.drift_rate()
        self.t = 0.0
        self.n_collapses = 0
        self.next_col = self.t + self._ecol.take() if self._ecol else math.inf
        self.next_jmp = self.t + self._ejmp.take() if self._ejmp else math.inf

    def _parts(self, p):
        return np.minimum(np.searchsorted(self._cuts, p, side="right"),
                          len(self._sizes) - 1)

    def _fill_front(self) -> None:
        if self.next_jmp <= self.next_col:
            pick = self._pick
            if pick is None:
                self._sizes[0].fill()
            else:
                pick.fill()
                self._sizes[int(self._parts(pick.buf[pick.i]))].fill()
            self._ejmp.fill()
        else:
            self._umult.fill()
            self._ecol.fill()

    def batches(self, horizon: Optional[float], n_collapses: Optional[int]):
        """Yield (dt, col, a, b, c) for each batch of events before horizon
        and up to the n_collapses-th collapse; col marks the collapses."""
        stop = math.inf if horizon is None else horizon
        last = math.inf if n_collapses is None else n_collapses
        ecol, ejmp, pick, sizes, umult = (self._ecol, self._ejmp, self._pick,
                                          self._sizes, self._umult)
        while self.n_collapses < last and min(self.next_col, self.next_jmp) < stop:
            self._fill_front()
            # jump k needs pick k, its part's next size and jump clock k; the
            # first jump short of one is the first that cannot run
            nj, part = 0, np.zeros(0, dtype=np.intp)
            jt = np.array([self.next_jmp])
            if ejmp is not None:
                nj = ejmp.left()
                if pick is None:
                    part = np.zeros(nj, dtype=np.intp)
                else:
                    part = self._parts(pick.buf[pick.i:pick.i + min(nj, pick.left())])
                    nj = part.size
                for j, s in enumerate(sizes):
                    over = np.flatnonzero(np.cumsum(part == j) > s.left())
                    if over.size:
                        nj = min(nj, int(over[0]))
                jt = np.cumsum(np.concatenate(([self.next_jmp],
                                               ejmp.buf[ejmp.i:ejmp.i + nj])))
            # collapse k needs multiplier k and collapse clock k; a batch that
            # reaches the run's last collapse stops right after it
            nc, c_stop = 0, self.next_col
            ct = np.array([self.next_col])
            if ecol is not None:
                cut = last - self.n_collapses
                nc = min(ecol.left(), umult.left(), cut)
                ct = np.cumsum(np.concatenate(([self.next_col],
                                               ecol.buf[ecol.i:ecol.i + nc])))
                c_stop = ct[nc - 1] if nc == cut else ct[nc]
            # merge, jumps first at ties
            j_stop = jt[nj]
            nj = int(min(np.searchsorted(jt[:nj], c_stop, side="right"),
                         np.searchsorted(jt[:nj], stop, side="left")))
            nc = int(np.searchsorted(ct[:nc], min(j_stop, stop), side="left"))
            col = np.zeros(nj + nc, dtype=bool)
            col[np.arange(nc) + np.searchsorted(jt[:nj], ct[:nc], side="right")] = True
            if col.size > _BLOCK:
                col = col[:_BLOCK]
                nc = int(np.count_nonzero(col))
                nj = _BLOCK - nc
            t = np.empty(col.size)
            t[col] = ct[:nc]
            t[~col] = jt[:nj]
            size = np.empty(nj)
            for j, s in enumerate(sizes):
                m = part[:nj] == j
                k = int(np.count_nonzero(m))
                size[m] = s.buf[s.i:s.i + k]
                s.i += k
            u = umult.buf[umult.i:umult.i + nc]
            umult.i += nc
            for stream, k in ((pick, nj), (ejmp, nj), (ecol, nc)):
                if stream is not None:
                    stream.i += k
            dt = np.diff(t, prepend=self.t)
            dd = self._drift * dt
            jmp = ~col
            a = np.ones(col.size)
            a[col] = u
            b = np.empty(col.size)
            b[jmp] = dd[jmp] + size
            b[col] = u * dd[col]
            c = np.zeros(col.size)
            c[jmp] = size
            self.t = float(t[-1])
            self.next_jmp = float(jt[nj])
            self.next_col = float(ct[nc])
            self.n_collapses += nc
            yield dt, col, a, b, c


def _drain(z: np.ndarray, dt: np.ndarray, drift: float, pool: SamplePool):
    """Move levels z along the drift for dt each, clamped at zero.

    Returns the levels reached and the total pushed in at zero, and adds
    the elapsed time and occupied area to pool.
    """
    q = z + drift * dt
    below = q < 0.0
    area = dt * (z + 0.5 * drift * dt)
    area[below] = 0.5 * z[below] * (z[below] / -drift)  # hits zero at z / -drift
    pool.time_total += float(dt.sum())
    pool.time_integral += float(area.sum())
    return np.maximum(q, 0.0), float(-q[below].sum())


def _euler_run(model, lam, collapse, rng, z, step_h, visit, *,
               horizon=None, n_collapses=None, pool=None):
    """Event loop of the Euler engine for lanes z driven by the same noise.

    z lists one level per lane. Between events every lane takes the same
    Euler increments and is reflected through the discrete running-infimum
    map; pool, if given, runs with a single lane and gains its time
    totals. After each event,
    visit(pre, u, z) gets the levels just before it, the collapse
    multiplier (None for a jump) and the levels after it. Returns the
    final levels, time and lane-0 regulator, the next collapse and jump
    epochs and the number of collapses.
    """
    drift = model.drift_rate()
    sig = math.sqrt(model.sigma2_total())
    full_drift, full_sd = drift * step_h, sig * math.sqrt(step_h)
    ecol, ejmp, pick, sizes, cuts, umult = _event_streams(model, lam, collapse, rng)

    def advance(z, dt):
        n = max(1, math.ceil(dt / step_h - 1e-9))
        h_last = dt - step_h * (n - 1)
        xi = rng.standard_normal(n)
        incs = full_drift + full_sd * xi
        incs[-1] = drift * h_last + sig * math.sqrt(h_last) * float(xi[-1])
        s = np.cumsum(incs)
        qs = [zk + s for zk in z]
        if pool is None:
            lows = [float(q.min()) for q in qs]
        else:
            low = np.minimum.accumulate(qs[0])
            lows = [float(low[-1])]
            w = qs[0] - np.minimum(low, 0.0)
            hs = np.full(n, step_h)
            hs[-1] = h_last
            pool.time_total += dt
            pool.time_integral += float(w @ hs)
        return ([float(q[-1]) - min(low, 0.0) for q, low in zip(qs, lows)],
                max(0.0, -lows[0]))

    t = 0.0
    reg = 0.0
    ncol = 0
    next_col = t + ecol.take() if ecol else math.inf
    next_jmp = t + ejmp.take() if ejmp else math.inf
    while True:
        t_next = min(next_col, next_jmp)
        if horizon is not None and t_next >= horizon:
            if horizon > t:
                z, pushed = advance(z, horizon - t)
                reg += pushed
            t = horizon
            break
        pre, pushed = advance(z, t_next - t)
        reg += pushed
        t = t_next
        if next_jmp <= next_col:
            u = None
            jump = _take_jump(pick, sizes, cuts)
            z = [zk + jump for zk in pre]
            next_jmp = t + ejmp.take()
        else:
            u = umult.take()
            z = [zk * u for zk in pre]
            ncol += 1
            next_col = t + ecol.take()
        visit(pre, u, z)
        if n_collapses is not None and ncol >= n_collapses:
            break
    return z, t, reg, next_col, next_jmp, ncol


def path_simulate(model: LevyModel, lam: float, collapse: CollapseLaw, *,
                  horizon: Optional[float] = None,
                  n_collapses: Optional[int] = None,
                  step_h: Optional[float] = None,
                  rng: np.random.Generator,
                  z0: float = 0.0, alphas=(), thresholds=(),
                  reservoir_cap: int = _RESERVOIR_CAP,
                  stream_id: Optional[int] = None,
                  return_final: bool = False):
    """Simulate the collapsed process in continuous time.

    Event epochs (jumps of the compound part, collapses) come from
    competing exponential clocks. Between events a model without a
    Brownian part moves along its drift exactly, clamped at zero, and its
    events are folded in batches; with a Brownian part the segment is
    Euler-discretized with step step_h and reflected through the discrete
    running-infimum map. The pool collects the level immediately before
    each collapse plus occupation-time totals; pass return_final=True to
    also get the terminal PathState.
    """
    if (horizon is None) == (n_collapses is None):
        raise ConfigError("give exactly one of horizon or n_collapses")
    if horizon is not None and horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if n_collapses is not None and (int(n_collapses) <= 0 or lam <= 0):
        raise ConfigError("n_collapses mode needs n_collapses > 0 and lam > 0")
    if lam < 0 or z0 < 0:
        raise ConfigError("need lam >= 0 and z0 >= 0")
    sig2 = model.sigma2_total()
    if sig2 > 0 and step_h is None:
        raise ConfigError("step_h is required when the model has a Brownian part")
    if step_h is not None and step_h <= 0:
        raise ConfigError("step_h must be > 0")
    if n_collapses is not None:
        n_collapses = int(n_collapses)

    pool = SamplePool(alphas, thresholds, reservoir_cap)
    held: list = []  # pre-collapse levels not yet pooled
    n_held = 0

    def hold(levels):
        nonlocal n_held
        held.append(levels)
        n_held += len(levels)
        if n_held >= _BLOCK:
            pool.add(np.concatenate(held), rng)
            held.clear()
            n_held = 0

    if sig2 > 0.0:
        def visit(pre, u, z):
            if u is not None:
                hold(pre[:1])

        (z,), t, reg, next_col, next_jmp, ncol = _euler_run(
            model, lam, collapse, rng, [float(z0)], step_h, visit,
            horizon=horizon, n_collapses=n_collapses, pool=pool)
    else:
        drift = model.drift_rate()
        events = _EventBatches(model, lam, collapse, rng)
        z, reg = float(z0), 0.0
        for dt, col, a, b, c in events.batches(horizon, n_collapses):
            levels = _fold(a, b, c, z)
            pre, pushed = _drain(np.concatenate(([z], levels[:-1])), dt, drift, pool)
            reg += pushed
            hold(pre[col])
            z = float(levels[-1])
        t = events.t
        if horizon is not None:
            if horizon > t:
                end, pushed = _drain(np.array([z]), np.array([horizon - t]), drift, pool)
                z = float(end[0])
                reg += pushed
            t = horizon
        next_col, next_jmp, ncol = events.next_col, events.next_jmp, events.n_collapses
    if held:
        pool.add(np.concatenate(held), rng)
    if return_final:
        state = PathState(t, z, reg, next_col, next_jmp, ncol, stream_id)
        return pool, state
    return pool


def coupling_check(model: LevyModel, lam: float, collapse: CollapseLaw,
                   x0: float, y0: float, n_collapses: int,
                   rng: np.random.Generator, *,
                   step_h: Optional[float] = None) -> Tuple[float, float]:
    """Run two paths through identical randomness from levels x0 <= y0.

    Returns (violation, min_gap): the largest positive excess of the gap
    over (y0 - x0) times the multiplier product, taken at collapse
    epochs, and the smallest gap seen at any event epoch. Both stay at
    rounding level for exact engines; Euler paths inherit O(sqrt(h)).
    """
    if not 0.0 <= x0 <= y0:
        raise DomainError("need 0 <= x0 <= y0")
    n_collapses = int(n_collapses)
    if n_collapses <= 0 or lam <= 0:
        raise DomainError("need n_collapses > 0 and lam > 0")
    sig2 = model.sigma2_total()
    if sig2 > 0 and step_h is None:
        raise ConfigError("step_h is required when the model has a Brownian part")
    gap0 = y0 - x0
    pi = 1.0
    violation = 0.0
    min_gap = gap0

    if sig2 > 0.0:
        def visit(pre, u, z):
            nonlocal pi, violation, min_gap
            gap = z[1] - z[0]
            if u is not None:
                pi *= u
                violation = max(violation, gap - gap0 * pi)
            min_gap = min(min_gap, gap)

        _euler_run(model, lam, collapse, rng, [float(x0), float(y0)], step_h, visit,
                   n_collapses=n_collapses)
        return violation, min_gap

    # both paths are one fold of the same increasing maps, so the gap
    # cannot turn negative
    zx, zy = float(x0), float(y0)
    for _, col, a, b, c in _EventBatches(model, lam, collapse, rng).batches(
            None, n_collapses):
        lx, ly = _fold(a, b, c, zx), _fold(a, b, c, zy)
        gap = ly - lx
        pis = np.cumprod(np.concatenate(([pi], a[col])))
        if pis.size > 1:
            violation = max(violation, float(np.max(gap[col] - gap0 * pis[1:])))
        min_gap = min(min_gap, float(gap.min()))
        pi = float(pis[-1])
        zx, zy = float(lx[-1]), float(ly[-1])
    return violation, min_gap


# ---------------------------------------------------------------------------
# experiments and diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailRow:
    threshold: float
    exceedances: int
    samples: int
    ratio: float
    lo: float
    hi: float


def _wilson(k: int, n: int, z: float = _WILSON_Z) -> Tuple[float, float]:
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half


def tail_table(pool: SamplePool, delta: float, xm: float) -> List[TailRow]:
    """Exceedance ratios against the exact jump tail (xm/t)^delta, with
    Wilson 95% intervals, one row per pooled threshold."""
    if pool.count == 0:
        raise EmptyPool("no samples accumulated")
    rows = []
    for t, k in zip(pool.thresholds, pool.exceed):
        denom = (xm / t) ** delta if t > xm else 1.0
        lo, hi = _wilson(int(k), pool.count)
        rows.append(TailRow(t, int(k), pool.count, (k / pool.count) / denom,
                            lo / denom, hi / denom))
    return rows


def tail_experiment(gamma: float, d: float, lam: float, delta: float, xm: float,
                    n_samples: int, thresholds: Sequence[float],
                    rng: np.random.Generator) -> List[TailRow]:
    """Exceedance ratios P(Z > t) / P(B > t) for Pareto jumps, 1 < delta < 2.

    Uses the exact path engine with uniform multipliers and reports
    Wilson 95% intervals scaled by the exact jump tail; for large t the
    ratio flattens toward `tail_constant`.
    """
    if not 1.0 < delta < 2.0:
        raise DomainError("tail index delta must lie in (1, 2)")
    model = CppMinusDrift(d, gamma, Pareto(delta, xm))
    pool = path_simulate(model, lam, Uniform01(), n_collapses=int(n_samples),
                         rng=rng, thresholds=tuple(thresholds))
    return tail_table(pool, delta, xm)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance between ECDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptyPool("KS needs two nonempty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical(n: int, m: int, q: float = 0.01) -> float:
    """Asymptotic two-sample rejection threshold c(q) sqrt((n+m)/(n m))."""
    if n <= 0 or m <= 0:
        raise DomainError("need positive sample sizes")
    if not 0.0 < q < 1.0:
        raise DomainError("tail probability q must lie in (0, 1)")
    c = math.sqrt(-0.5 * math.log(0.5 * q))
    return c * math.sqrt((n + m) / (n * m))


def sample_unit_increment(model: LevyModel, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """Draws of X_1, for Monte Carlo checks of the exponent.

    The Brownian part is normal with mean c; a compound part adds a
    Poisson(gamma) number of jumps and subtracts the drain d.
    """
    size = int(size)
    if isinstance(model, Sum):
        out = np.zeros(size)
        for part in model.parts:
            out += sample_unit_increment(part, rng, size)
        return out
    if isinstance(model, BrownianDrift):
        return rng.normal(model.c, math.sqrt(model.sigma2), size)
    counts = rng.poisson(model.gamma, size) if model.gamma > 0 else np.zeros(size, int)
    out = np.full(size, -model.d, dtype=float)
    total = int(counts.sum())
    if total:
        jumps = model.jumps.sample(rng, total)
        idx = np.repeat(np.arange(size), counts)
        out += np.bincount(idx, weights=jumps, minlength=size)
    return out
