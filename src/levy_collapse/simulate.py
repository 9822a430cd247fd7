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

Each engine call spawns two children of its generator before its first
draw, in this order: the reservoir keys' and the lane noise's (the Euler
normals). The generator itself draws only events and chain inputs, in
the order of stepping one event at a time, so neither when a batch pools
its levels nor how a lane splits its normals moves a draw.
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
)
from .stationary import bm_roots, mm1_roots

_BLOCK = 1 << 16
_ROW = 128  # Euler steps per row
_STEP_CAP = 1 << 16  # Euler grid cells per chunk
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
class PathState:
    """Snapshot of the continuous-time engine at its stopping time."""

    t: float
    z: float
    regulator: float  # cumulative amount pushed in at zero
    next_collapse: float
    next_jump: float
    n_collapses: int


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
        if not all(0 <= a < math.inf for a in self.alphas):
            raise DomainError("transform grid needs finite alpha >= 0")
        if not all(0 < t < math.inf for t in self.thresholds):
            raise DomainError("exceedance thresholds must be finite and > 0")
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


def explicit_solution(v: Sequence[float], u: Sequence[float],
                      y: Sequence[float]) -> float:
    """Closed-form value of the recursion z -> v + (z u - y)^+ after len(u)
    steps from z0 = v[0]; one step from z is explicit_solution([z, v], [u], [y]).

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
    if not 0 < lam < math.inf:
        raise DomainError("need finite lam > 0")
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
    keys, _ = rng.spawn(2)
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
            pool.add(levels[max(keep, 0):], keys)
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
    keys, _ = rng.spawn(2)
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
        pool.add(v0 + out, keys)
    return pool


# ---------------------------------------------------------------------------
# continuous-time path engine
# ---------------------------------------------------------------------------


class _Stream:
    """Draws of one kind prefetched in blocks of _BLOCK from one generator.

    Readers take the block `buf[i:]` directly and advance `i` themselves.
    """

    __slots__ = ("_rng", "_fn", "buf", "i")

    def __init__(self, rng, fn):
        self._rng, self._fn, self.buf, self.i = rng, fn, np.empty(0), 0

    def left(self) -> int:
        return self.buf.size - self.i

    def fill(self) -> None:
        """Draw the next block once the current one is used up."""
        if self.i == self.buf.size:
            self.buf = self._fn(self._rng, _BLOCK)
            self.i = 0


class _EventBatches:
    """Event epochs of the path engines, read in batches.

    Each event is a bare map z -> max(a z + b, b) of the level just before
    it: a jump B is (1, B, B) and a collapse U is (U, 0, 0). What moves the
    level between events is the caller's (see `_Exact` and `_Euler`), and
    so are the reservoir keys; both draw from children of the generator.
    The events come from the same streams, in the same calls, sizes and
    order as taking one event at a time: a batch holds every event whose
    draws already sit in the prefetched blocks (at most _BLOCK events), and
    only its first event refills blocks, in the order pick, size, jump
    clock or multiplier, collapse clock.
    """

    def __init__(self, model, lam, collapse, rng):
        parts = model.jump_parts()
        g_tot = sum(g for g, _ in parts)
        self._ecol = _Stream(rng, lambda r, n: r.exponential(1.0 / lam, n)) if lam > 0 else None
        self._ejmp = _Stream(rng, lambda r, n: r.exponential(1.0 / g_tot, n)) if g_tot > 0 else None
        self._pick = _Stream(rng, lambda r, n: r.random(n)) if len(parts) > 1 else None
        self._sizes = [_Stream(rng, lambda r, n, j=jumps: j.sample(r, n)) for _, jumps in parts]
        self._cuts = np.cumsum([g for g, _ in parts]) / g_tot if len(parts) > 1 else None
        self._umult = _Stream(rng, lambda r, n: collapse.sample(r, n))
        self.t = 0.0
        self.n_collapses = 0
        for s in (self._ecol, self._ejmp):  # the first epoch of each clock
            if s is not None:
                s.fill()
                s.i = 1
        self.next_col = float(self._ecol.buf[0]) if self._ecol else math.inf
        self.next_jmp = float(self._ejmp.buf[0]) if self._ejmp else math.inf

    def _parts(self, p):
        return np.minimum(np.searchsorted(self._cuts, p, side="right"),
                          len(self._sizes) - 1)

    def _refill(self) -> None:
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
        """Yield (dt, col, a, b) for each batch of events before horizon and
        up to the n_collapses-th collapse: dt[k] is the time since the
        previous event, col marks the collapses and (a[k], b[k], b[k]) is
        event k's map.
        """
        stop = math.inf if horizon is None else horizon
        last = math.inf if n_collapses is None else n_collapses
        ecol, ejmp, pick, sizes, umult = (self._ecol, self._ejmp, self._pick,
                                          self._sizes, self._umult)
        while self.n_collapses < last and min(self.next_col, self.next_jmp) < stop:
            self._refill()
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
            # collapse k needs multiplier k and collapse clock k; a batch stops
            # right after the run's last collapse
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
            a = np.ones(col.size)
            a[col] = u
            b = np.zeros(col.size)
            b[~col] = size
            dt = np.diff(t, prepend=self.t)
            self.t = float(t[-1])
            self.next_jmp = float(jt[nj])
            self.next_col = float(ct[nc])
            self.n_collapses += nc
            yield dt, col, a, b


class _Exact:
    """Lanes of a model without a Brownian part, moved exactly between events.

    A segment of length dt drains at the drift rate d, clamped at zero: the
    map (1, d dt, 0). Composed into the event map (a, b, b) after it, it is
    (a, a d dt + b, b), so a batch of segments and events is one `_fold`
    per lane, with nothing to draw between events. With a pool (one lane),
    the lane's time totals and pushes at zero are kept too.
    """

    def __init__(self, model, z, pool=None):
        self.drift, self.pool, self.reg = model.drift_rate(), pool, 0.0
        self.z = [float(v) for v in z]

    def run(self, dt, a, b):
        """Segment k of length dt[k], then the event map (a[k], b[k], b[k]),
        for each k. Returns per lane the levels just before and just after
        each event."""
        dd = self.drift * dt
        composed = a * dd + b
        pre, post = [], []
        for i, z in enumerate(self.z):
            lv = _fold(a, composed, b, z)
            start = np.concatenate(([z], lv[:-1]))
            q = start + dd
            pre.append(np.maximum(q, 0.0))
            post.append(lv)
            self.z[i] = float(lv[-1])
        if self.pool is not None:  # one lane, whose segment k starts at start[k]
            below = q < 0.0
            area = dt * (start + 0.5 * self.drift * dt)
            # a segment that reaches zero does so at start / -drift
            area[below] = 0.5 * start[below] * (start[below] / -self.drift)
            self.pool.time_total += float(dt.sum())
            self.pool.time_integral += float(area.sum())
            self.reg += float(-q[below].sum())
        return pre, post


class _Euler:
    """Euler segments between events, for lanes driven by the same noise.

    A segment of length dt takes ceil(dt / h) steps, the last one
    shortened to fit. From level z, with partial sums of its increments
    of total S and minimum m, the discrete running-infimum map ends it at
    (z + S) - min(z + m, 0) = max(z + S, S - m): the map (1, S, S - m).
    Steps fill rows of _ROW, a segment's last row padded with zero
    increments, and each row is such a map of the level at its start, so
    a segment cut between rows or chunks carries only its level. Segments
    and the event maps between them are folded per lane in chunks of at
    most _STEP_CAP cells, which bounds the memory whatever a segment's
    length; each chunk's normals are one draw, in step order, from the
    lanes' own generator. With a pool (one lane), the lane's time totals
    and pushes at zero are kept too.
    """

    def __init__(self, model, step_h, rng, z, pool=None):
        self.h, self.rng, self.pool, self.reg = float(step_h), rng, pool, 0.0
        self.drift, self.sig = model.drift_rate(), math.sqrt(model.sigma2_total())
        self.z = [float(v) for v in z]
        # work space of one chunk, reused: fresh arrays this size cost page faults
        self._cap = max(1, _STEP_CAP // _ROW)
        self._x, self._s = np.empty(self._cap * _ROW), np.empty((self._cap, _ROW))
        self._cells = np.ones((self._cap, _ROW), dtype=bool)  # all True between chunks

    def run(self, dt, a, b):
        """Segment k of length dt[k], then the event map (a[k], b[k], b[k]),
        for each k. Returns per lane the levels just before and just after
        each event."""
        h = self.h
        n = np.maximum(1.0, np.ceil(dt / h - 1e-9)).astype(np.int64)
        h_last = dt - h * (n - 1)
        if self.pool is not None:
            self.pool.time_total += float(dt.sum())
        rows = -(-n // _ROW)
        ends = np.cumsum(rows)  # rows up to the end of each segment
        pre, post = ([np.empty(dt.size) for _ in self.z] for _ in range(2))
        pos = k0 = 0
        while k0 < dt.size:
            # rows pos..stop-1 of the run, and the events of the segments
            # k0..k1-1 that end among them
            stop = min(pos + self._cap, int(ends[-1]))
            k1 = int(np.searchsorted(ends, stop, side="right"))
            g = np.arange(pos, stop)
            seg = np.searchsorted(ends, g, side="right")
            last = g == ends[seg] - 1
            fill = np.where(last, n[seg] - (rows[seg] - 1) * _ROW, _ROW)
            inc = self._x[:int(fill.sum())]
            self.rng.standard_normal(out=inc)
            tail, hl = np.cumsum(fill)[last] - 1, h_last[seg[last]]
            x_tail = inc[tail]
            inc *= self.sig * math.sqrt(h)
            inc += self.drift * h
            inc[tail] = self.drift * hl + self.sig * np.sqrt(hl) * x_tail
            s, cells = self._s[:g.size], self._cells[:g.size]
            s[last] = 0.0
            cells[last] = np.arange(_ROW) < fill[last, None]
            s[cells] = inc
            cells[last] = True
            np.cumsum(s, axis=1, out=s)
            m = s.min(axis=1)
            ev = ends[k0:k1] - pos
            row = g - pos + np.searchsorted(ev, g - pos, side="right")
            ev += np.arange(k1 - k0)
            A, B, C = np.ones((3, g.size + k1 - k0))
            A[ev], B[ev], C[ev] = a[k0:k1], b[k0:k1], b[k0:k1]
            B[row], C[row] = s[:, -1], s[:, -1] - m
            for i, z in enumerate(self.z):
                lv = np.concatenate(([z], _fold(A, B, C, z)))
                pre[i][k0:k1], post[i][k0:k1] = lv[ev], lv[ev + 1]
                self.z[i] = float(lv[-1])
            if self.pool is not None:  # one lane, whose levels are lv
                # levels zr + s_j - min(zr + running min, 0), whose last term
                # is 0 but on rows reflected at zero; steps weigh h, a
                # segment's last step h_last, padding (its row's end) nothing
                zr = lv[row]
                dip = np.flatnonzero(zr + m < 0.0)
                low = s[dip]
                np.minimum.accumulate(low, axis=1, out=low)
                np.minimum(low + zr[dip, None], 0.0, out=low)
                end = zr[last] + s[last, -1] - np.minimum(zr[last] + m[last], 0.0)
                self.pool.time_integral += (
                    h * (_ROW * float(zr.sum()) + float(s.sum()) - float(low.sum()))
                    + float(np.dot(end, hl - h * (_ROW + 1 - fill[last]))))
                self.reg -= float((zr[dip] + m[dip]).sum())
            pos, k0 = stop, k1
        return pre, post


def _lanes(model, step_h, rng, z, pool=None):
    """The reservoir keys' generator, and the level mover for lanes started
    at z: exact for a model without a Brownian part, Euler-discretized with
    step step_h for one with it. Both generators are children of rng,
    spawned once step_h is checked: the keys', then the lane noise's."""
    brownian = model.sigma2_total() > 0.0
    if brownian and step_h is None:
        raise ConfigError("step_h is required when the model has a Brownian part")
    if step_h is not None and not 0 < step_h < math.inf:
        raise ConfigError("step_h must be > 0 and finite")
    keys, noise = rng.spawn(2)
    return keys, (_Euler(model, step_h, noise, z, pool) if brownian
                  else _Exact(model, z, pool))


def path_simulate(model: LevyModel, lam: float, collapse: CollapseLaw, *,
                  horizon: Optional[float] = None,
                  n_collapses: Optional[int] = None,
                  step_h: Optional[float] = None,
                  rng: np.random.Generator,
                  z0: float = 0.0, alphas=(), thresholds=(),
                  reservoir_cap: int = _RESERVOIR_CAP,
                  return_final: bool = False):
    """Simulate the collapsed process in continuous time.

    Event epochs (jumps of the compound part, collapses) come from
    competing exponential clocks, and each event is a bare map
    z -> max(a z + b, b). Between events one lane moves the level: along
    the drift exactly, clamped at zero, for a model without a Brownian
    part, or Euler-discretized with step step_h and reflected through the
    discrete running-infimum map with one. Events are read in batches that
    draw the same numbers as stepping one event at a time; the Euler
    normals and the reservoir keys come from children of rng. The pool
    collects the level immediately before each collapse, one batch at a
    time, plus occupation-time totals; pass return_final=True to also get
    the terminal PathState.
    """
    if (horizon is None) == (n_collapses is None):
        raise ConfigError("give exactly one of horizon or n_collapses")
    if horizon is not None and not 0 <= horizon < math.inf:
        raise ConfigError("horizon must be finite and >= 0")
    if n_collapses is not None and (int(n_collapses) <= 0 or lam <= 0):
        raise ConfigError("n_collapses mode needs n_collapses > 0 and lam > 0")
    if not (0 <= lam < math.inf and 0 <= z0 < math.inf):
        raise ConfigError("need finite lam >= 0 and z0 >= 0")
    if n_collapses is not None:
        n_collapses = int(n_collapses)

    pool = SamplePool(alphas, thresholds, reservoir_cap)
    keys, lanes = _lanes(model, step_h, rng, [z0], pool)
    events = _EventBatches(model, lam, collapse, rng)
    for dt, col, a, b in events.batches(horizon, n_collapses):
        (pre,), _ = lanes.run(dt, a, b)
        pool.add(pre[col], keys)
    t = events.t if horizon is None else horizon
    if t > events.t:  # the last segment, closed by the identity map
        lanes.run(np.array([t - events.t]), np.ones(1), np.zeros(1))
    if return_final:
        return pool, PathState(t, lanes.z[0], lanes.reg, events.next_col,
                               events.next_jmp, events.n_collapses)
    return pool


def coupling_check(model: LevyModel, lam: float, collapse: CollapseLaw,
                   x0: float, y0: float, n_collapses: int,
                   rng: np.random.Generator, *,
                   step_h: Optional[float] = None) -> Tuple[float, float]:
    """Run two paths through identical randomness from levels x0 <= y0.

    Returns (violation, min_gap): the largest positive excess of the gap
    over (y0 - x0) times the multiplier product, taken at collapse
    epochs, and the smallest gap seen at any event epoch. The two paths
    are two lanes of one level mover, exact or Euler as in
    `path_simulate`: every segment and event moves them by the same
    increasing map, which never widens the gap, so the violation stays at
    rounding level and the gap cannot turn negative.
    """
    if not 0.0 <= x0 <= y0 < math.inf:
        raise DomainError("need 0 <= x0 <= y0 < inf")
    n_collapses = int(n_collapses)
    if n_collapses <= 0 or not 0 < lam < math.inf:
        raise DomainError("need n_collapses > 0 and finite lam > 0")
    gap0, pi, violation, min_gap = y0 - x0, 1.0, 0.0, y0 - x0
    _, lanes = _lanes(model, step_h, rng, [x0, y0])
    events = _EventBatches(model, lam, collapse, rng)
    for dt, col, a, b in events.batches(None, n_collapses):
        _, (lx, ly) = lanes.run(dt, a, b)
        gap = ly - lx
        pis = np.cumprod(np.concatenate(([pi], a[col])))
        if pis.size > 1:
            violation = max(violation, float(np.max(gap[col] - gap0 * pis[1:])))
        min_gap = min(min_gap, float(gap.min()))
        pi = float(pis[-1])
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
