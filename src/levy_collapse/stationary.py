"""Stationary law of the reflected process with proportional collapses.

The level is reflected at zero between collapse epochs (Poisson, rate lam)
and multiplied by an independent Beta(theta, 1) factor at each epoch
(theta = 1 is Uniform). All stationary quantities derive from the Laplace
exponent phi through the positive root alpha_lambda of phi(alpha) = lam.

Writing h(y) = phi(y) / (y * (lam - phi(y))), the transform of the
stationary level is, for alpha below the root,

    f(alpha) = b / (1 - phi(alpha)/lam)
               * int_alpha^root exp(-theta * int_alpha^x h(y) dy) dx,

with a mirrored expression above the root and a normalizer b fixed by
f(0) = 1. The inner integral of h diverges logarithmically at the root, so
h is never integrated directly: the exact identity

    h(y) = lam / (y * (lam - phi(y))) - 1/y

isolates the simple pole, the singular part
K / (root - y), K = lam / (root * phi'(root)), integrates in closed form,
and only the regular remainder r(y) is handled numerically. r is sampled
into Chebyshev antiderivatives up to the root and beyond it, piecewise
where one piece does not converge (the interval is split), and each stored
series is chopped to the error its piece was accepted at. Next to the
root, where the direct formula turns into 0/0 and loses two digits per
decade, r comes from averages of phi' and phi'' between y and the root,
with no 0/0. The closed-form factors become the endpoint weight s^(theta K)
of one integral over s = (root - x)/(root - alpha) in [0, 1]: below the
root a Gauss-Jacobi piece on [0, 1/2], then Gauss-Legendre pieces halving
toward s = 1 as deep as alpha's distance to x = 0, the kink of heavy-tailed
transforms, asks; above it one Gauss-Jacobi piece. The rules are fixed at
construction, so evaluations are smooth in alpha, as moment checks need.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polyutils as pu
from numpy.polynomial.chebyshev import chebint
from numpy.polynomial.legendre import leggauss

from .errors import (DomainError, ModelError, QuadratureFailure,
                     SubordinatorInput)
from .models import CppMinusDrift, LevyModel, Pareto, _regions

__all__ = [
    "find_alpha_lambda",
    "w_tau_lst",
    "wx_joint_lst",
    "StationarySolution",
    "stationary_solution",
    "fixed_point_residual",
    "TransformGrid",
    "incomplete_beta",
    "bm_roots",
    "bm_closed_form_lst",
    "mm1_roots",
    "mm1_closed_form_lst",
    "level_crossing_p0",
    "tail_constant",
    "small_alpha_expansion_check",
    "onoff_mixture_lst",
]

# relative half-width of the band around alpha_lambda that `branch` tags "at"
_AT_ROOT_RTOL = 1e-9


def _naming(model: LevyModel, lam: float, theta: Optional[float] = None) -> str:
    """The end of every error message about one solution."""
    tail = f": {model!r}, lambda={lam:.6g}"
    return tail if theta is None else f"{tail}, theta={theta:.6g}"


def find_alpha_lambda(model: LevyModel, lam: float) -> float:
    """Positive root of phi(alpha) = lam, unique since phi is convex with
    phi(0) = 0. The bracket expands by doubling, then a Newton iteration
    with bisection safeguard refines it down to the evaluation noise of phi:
    everything downstream divides by distances to this root."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ModelError("collapse rate lambda must be positive and finite"
                         + _naming(model, lam))
    ftol = 4e-16 * lam
    for g_rate, jumps in model.jump_parts():
        ftol += g_rate * jumps.lst_abs_tol()
    lo, hi = 0.0, 1.0
    while model.phi(hi) - lam <= 0:
        lo = hi
        hi *= 2.0
        if hi > 1e16:
            raise SubordinatorInput(
                "phi(alpha) never exceeds lambda: the driving process is "
                f"nondecreasing and never reflects ({type(model).__name__})")
    x = hi
    for _ in range(200):
        fx = model.phi(x) - lam
        if fx > 0:
            hi = x
        else:
            lo = x
        if abs(fx) <= ftol or hi - lo <= 4e-16 * hi:
            break
        dfx = model.phi_dn(x, 1)
        xn = x - fx / dfx if dfx > 0 else math.nan
        if not (math.isfinite(xn) and lo < xn < hi):
            xn = 0.5 * (lo + hi)
        x = xn
    if abs(model.phi(x) - lam) > 1e-10 * lam:
        raise QuadratureFailure("root refinement for phi(alpha) = lambda stalled"
                                + _naming(model, lam))
    return x


# ---------------------------------------------------------------------------
# inter-collapse transforms
# ---------------------------------------------------------------------------


def w_tau_lst(model: LevyModel, lam: float, alpha: float) -> float:
    """Transform of the reflected level at an independent exp(lam) time,
    started from zero: `wx_joint_lst` at x = 0, that is
    (1 - alpha/root) / (1 - phi(alpha)/lam)."""
    return wx_joint_lst(model, lam, 0.0, alpha)


def wx_joint_lst(model: LevyModel, lam: float, x: float, alpha: float,
                 beta: float = 0.0) -> float:
    """Joint transform of (level, pushed-up reflector amount) at an
    independent exp(lam) time when the reflection starts from level x >= 0.

    Equals (exp(-alpha x) - ((alpha+beta)/(root+beta)) exp(-root x)) / (1 - phi(alpha)/lam),
    0/0 at the root; within the cut lam (x e^(-root x) expm1(u)/u + e^(-root x)/(root+beta))
    / D(alpha), u = (root-alpha) x, D the slope of phi (`_chord`), the first term overflow-free.
    """
    if not all(0 <= v < math.inf for v in (x, alpha, beta)):
        raise DomainError("x, alpha and beta must be finite and >= 0")
    root = _alpha_root(model, lam)
    if abs(alpha - root) > _CUT * root:
        num = math.exp(-alpha * x) - (alpha + beta) / (root + beta) * math.exp(-root * x)
        return num / (1.0 - model.phi(alpha) / lam)
    w = abs(root - alpha) * x
    rise = x * math.exp(-min(alpha, root) * x) * (-math.expm1(-w) / w if w else 1.0)
    nodes, _, W = _chord(root, alpha)
    return lam * (rise + math.exp(-root * x) / (root + beta)) / float(model.phi_dn(nodes, 1) @ W)


@lru_cache(maxsize=256)
def _alpha_root(model: LevyModel, lam: float) -> float:
    return find_alpha_lambda(model, lam)


def _chord(root: float, y):
    """Points y + t (root-y), a row per y, at the 12 Gauss-Legendre nodes t of [0, 1] (6
    reach rounding on the cut, but are no faster), t and weights: means over [y, root]."""
    T, W = _legendre_rule(12)
    yc = np.expand_dims(y, -1)
    return yc + (root - yc) * T, T, W


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, expo: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes/weights so that int_0^1 s^expo u(s) ds = sum W u(S).

    Golub-Welsch: the nodes x = 1 - 2S are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight (1 - x)^expo on [-1, 1]; each
    weight is 1 / ((expo + 1) sum_k p_k(x)^2) over the orthonormal
    polynomials, run through their three-term recurrence. A sum that
    overflows (n = 1536 from expo = 140, 768 from 151, 384 from 275) belongs
    to a weight below the smallest double, which is 0; so does a sum that
    the recurrence then drives into inf - inf = nan (768 nodes from expo
    = 540, 384 from 7700).
    """
    a = float(expo)
    k = np.arange(1.0, n)
    t = 2.0 * k + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (t * (t + 2.0))))
    off = 2.0 * k * (k + a) / (t * np.sqrt((t + 1.0) * (t - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))  # reads the lower triangle
    p0, p1, tot = np.zeros(n), np.ones(n), np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 1):
            p0, p1 = p1, ((x - diag[j]) * p1 - (off[j - 1] if j else 0.0) * p0) / off[j]
            tot += p1 * p1
    return (1.0 - x) / 2.0, 1.0 / (a + 1.0) / np.where(np.isnan(tot), np.inf, tot)


@lru_cache(maxsize=16)
def _legendre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _clenshaw(coef: np.ndarray, u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Chebyshev series coef at the points u (mapped to [-1, 1]), in place:
    numpy's `chebval` recurrence in its operation order, bit-identical to
    it, writing only into the rows of `work` (at least 4 x len(u)) and u."""
    n = len(coef)
    if n < 3:
        np.multiply(u, coef[1] if n == 2 else 0.0, out=work[0])
        return np.add(work[0], coef[0], out=u)
    x2, c0, c1, tmp = work[0], work[1], work[2], work[3]
    np.multiply(u, 2.0, out=x2)
    c0.fill(coef[-3] - coef[-1])
    np.multiply(x2, coef[-1], out=c1)
    np.add(c1, coef[-2], out=c1)
    for ck in coef[-4::-1].tolist():
        np.subtract(ck, c1, out=tmp)
        np.multiply(c1, x2, out=c1)
        np.add(c1, c0, out=c1)
        c0, tmp = tmp, c0
    np.multiply(c1, u, out=c1)
    return np.add(c0, c1, out=u)


def _eval_pieces(pieces: tuple, xs: np.ndarray) -> np.ndarray:
    """Piecewise antiderivative at xs from the (edges, antiderivatives,
    offsets) lists that `StationarySolution._build_pieces` fills; offsets[j]
    is the integral up to edges[j], offsets[-1] the one up to the right end.
    An antiderivative is a Chebyshev series (coef, off, scl) on the map
    u = off + scl*x, read by `_clenshaw`, or the callable `_R_inner`."""
    edges, antis, offsets = pieces
    idx = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, len(antis) - 1)
    counts = np.bincount(idx, minlength=len(antis))
    out = np.empty_like(xs)
    work = np.empty((5, xs.size))
    for j, anti in enumerate(antis):
        k = int(counts[j])
        if k == 0:
            continue
        sel = None if k == xs.size else idx == j
        if callable(anti):
            vals = anti(xs if sel is None else xs[sel])
        else:
            coef, off, scl = anti
            u = work[4, :k]
            if sel is None:
                np.multiply(xs, scl, out=u)
            else:
                np.multiply(np.compress(sel, xs, out=u), scl, out=u)
            np.add(u, off, out=u)
            vals = _clenshaw(coef, u, work[:4, :k])
        if sel is None:
            np.add(vals, offsets[j], out=out)
        else:
            out[sel] = offsets[j] + vals
    return out


def _dct1(v: np.ndarray) -> np.ndarray:
    """sum_k v_k cos(pi j k/n) (the ends' terms halved) for j = 0..n, twice
    over: the real FFT of the even extension of v, n = len(v) - 1."""
    return np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real


_EPS = 2.2e-16
# distance to the root (relative to it) within which the remainders take the
# divided-difference form: beyond it the direct formulas' noise K*dA/u^2 at
# distance u stays under the gate the pieces are built to
_CUT = 0.1

# split-on-failure remainder pieces: the least factor by which a rung must
# cut the measured error of the previous one, the deepest cut, and the width
# (relative to the root) below which a piece [0, b] is left to the sliver
# integral
_RUNG_GAIN = 100.0
_SPLIT_DEPTH = 12
_SLIVER = 2.0 ** -16

# (alpha x node) products per block of a batched transform evaluation;
# bounds the temporaries whatever the number of alphas
_CHUNK = 1 << 15

# E f(scale U): Gauss nodes per piece tried in turn (every composite rule's
# rungs, `_settle`), the error budget of the average, shared among its
# pieces by weight, and the two bounds on the grading depth. The halvings
# stop above the sliver edge, below which every alpha costs a heavy-tailed
# model a 64-point remainder integral. The span stops them once the weight
# t^theta has fallen by 2^30 from min(scale, root), where the innermost
# Gauss-Jacobi piece, exact for the weight, needs no grading: so theta > 30
# has no cut, a decade below theta = 300, where Legendre pieces start to lose
# digits (2e-13 at 1.5 root against 2e-14 from one piece)
_COLLAPSE_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128)
_COLLAPSE_TOL = 1e-12
_COLLAPSE_HALVINGS = 10
_COLLAPSE_SPAN = 30.0
# bound on the memo of collapse-average pieces of one solution
_PIECES_CAP = 1 << 14
# the transform integrals' graded rules (`_settle_tail_rule`): the deepest
# grading, four halvings short of the sliver, where each node would cost a
# 64-point remainder integral, and the error budget of a transform
_TAIL_DEPTH = 12
_TAIL_TOL = 1e-12


# ---------------------------------------------------------------------------
# stationary solution
# ---------------------------------------------------------------------------


class StationarySolution:
    """Everything the stationary law exposes for one (model, lam, theta).

    Construction does all expensive work (root, Chebyshev antiderivatives of
    the exponent remainders, Gauss rules, normalizer b, atom). Afterwards an
    instance only writes to `_pieces`, a bounded write-once memo of collapse
    averages (`_collapse_ladder`), so a thread that races another at worst
    recomputes an entry and instances can be shared across threads;
    `stationary_solution` caches them per parameter triple.
    """

    def __init__(self, model: LevyModel, lam: float, theta: float = 1.0):
        if not (theta > 0 and math.isfinite(theta)):
            raise ModelError("collapse exponent theta must be positive"
                             + _naming(model, lam, theta))
        if math.isinf(model.cumulant(1)):
            raise ModelError("the driving process must have a finite mean"
                             + _naming(model, lam, theta))
        self.model = model
        self.lam = float(lam)
        self.theta = float(theta)
        self.alpha_lambda = find_alpha_lambda(model, lam)
        A = self.alpha_lambda
        p = model.phi_dn(A, 1)
        if not p > 0:
            raise self._failure("phi'(alpha_lambda) must be positive")
        self.phi_prime_root = p
        self.K = lam / (A * p)
        self._tK = self.theta * self.K
        # lim phi(alpha)/alpha at infinity, read by the outer remainder's end
        # value and the atom: the drain rate, or inf with a Brownian part
        self._d_eff = math.inf if model.sigma2_total() > 0 else -model.drift_rate()

        # noise floor of the direct formulas: transform-level error shifts
        # the apparent root by dA, which the remainder feels as K*dA/u^2 at
        # distance u from the root
        noise = 4.0 * _EPS * (lam + A * p)
        for g_rate, jumps in model.jump_parts():
            noise += g_rate * jumps.lst_abs_tol()
        self._dA_est = noise / p

        # small negative margin so central differences at zero stay inside;
        # only for models whose transforms extend analytically below zero.
        # The remainder has a pole at the negative root of phi = lam; phi is
        # convex with phi(0) = 0, so phi(lo) <= lam/2 keeps the margin clear
        lo = 0.0
        if model.min_alpha() < 0:
            lo = max(0.25 * model.min_alpha(), -(2.5e-4 + 2e-3 * A))
            while model.phi(lo) > 0.5 * lam:
                lo *= 0.5
        self._lo = lo

        rtol_direct = max(2.5e-11, 4.0 * self.K * self._dA_est / (_CUT * A) ** 2)
        self._inner, self._outer = ([], [], [0.0]), ([], [], [0.0])
        mid = self._build_pieces(self._left_integrand, lo, 0.5 * A,
                                 "inner remainder, left piece", (32, 64, 128, 256, 512),
                                 1e-11, self._inner)
        self._build_pieces(self._left_integrand, 0.5 * A, A,
                           "inner remainder, middle piece", (64, 128, 256, 512),
                           rtol_direct, self._inner, ends=(mid, None))
        self._build_pieces(self._rho_above, 0.0, 1.0, "outer remainder",
                           (64, 128, 256, 512), rtol_direct, self._outer)
        self._pieces = {}
        # where phi >= 0 the log of the transform integrand has a slope of at
        # most 2 theta in s in [1/2, 1]: end pieces of width <= 4/theta
        self._depth0 = min(_TAIL_DEPTH, max(3, math.ceil(math.log2(self.theta)) - 2))

        self._rule, gA = self._settle_tail_rule()
        if not (gA > 0 and math.isfinite(gA)):
            raise self._failure("normalizing integral did not evaluate")
        self._gA = gA
        self.b = 1.0 / gA

        self.atom = (0.0 if math.isinf(self._d_eff)
                     else lam * self.b / ((1.0 + theta) * self._d_eff))

    def _failure(self, what: str) -> QuadratureFailure:
        return QuadratureFailure(what + _naming(self.model, self.lam, self.theta))

    # -- exponent remainders -------------------------------------------------

    def _left_integrand(self, y):
        """r(y) = h(y) - K/(A-y) for y <= A: the direct form, removable at 0,
        beyond the cut, and `_near_root` within it."""
        lam, A, K = self.lam, self.alpha_lambda, self.K

        def direct(y):
            poa = self.model.phi_over_alpha(y)
            return poa / (lam - y * poa) - K / (A - y)
        return _regions(y, (lambda y: A - y <= _CUT * A, self._near_root), (None, direct))

    def _near_root(self, y):
        """r(y) next to the root, on either side, without its 0/0: with the means
        D = int_0^1 phi'(x_t) dt and J = int_0^1 t phi''(x_t) dt over x_t = y + t (A-y)
        (`_chord`; Hermite-Genocchi), lam - phi(y) = (A-y) D and A phi'(A) - y D =
        (A-y) (phi'(A) + y J), so r(y) = (lam (phi'(A) + y J) - A phi'(A) D) / (y D A phi'(A))."""
        A, p = self.alpha_lambda, self.phi_prime_root
        x, T, W = _chord(A, y)
        D, J = self.model.phi_dn(x, 1) @ W, self.model.phi_dn(x, 2) @ (T * W)
        return (self.lam * (p + y * J) - A * p * D) / (y * D * A * p)

    def _R_inner(self, xs: np.ndarray) -> np.ndarray:
        """int_0^x of the remainder for each x in the sliver next to zero:
        the integrand is bounded with a weak y^(delta-1) kink, and a 64-point
        Gauss rule leaves an error far below the piece tolerance there."""
        T, W = _legendre_rule(64)
        return xs * (self._left_integrand(xs[:, None] * T) @ W)

    def _rho_above(self, v):
        """Regular outer remainder mapped via y = A/(1-v), for v in [0, 1]:
        rho(y) = lam/(y(phi-lam)) - K*A/(y(y-A)) = (K-1)/y - r(y) decays like
        1/y^2, so rho(y) A/(1-v)^2 = lam/(A phi(y)/y - lam (1-v)) - K/v stays
        bounded up to v = 1, where phi(y)/y is _d_eff, and serves every alpha
        above the root; within the cut, y - A <= _CUT A, r is `_near_root`."""
        lam, A, K = self.lam, self.alpha_lambda, self.K

        def direct(v, poa):
            return lam / (A * poa - lam * (1.0 - v)) - K / v

        def near(v):
            y = A / (1.0 - v)
            return ((K - 1.0) / y - self._near_root(y)) * y * y / A
        return _regions(v, (lambda v: v <= _CUT / (1.0 + _CUT), near),
                        (lambda v: v >= 1.0, lambda v: direct(v, self._d_eff)),
                        (None, lambda v: direct(v, self.model.phi_over_alpha(A / (1.0 - v)))))

    def _build_pieces(self, fun: Callable, a: float, b: float, what: str,
                      degrees: Sequence[int], rtol: float, pieces: tuple, depth: int = 0,
                      ends: tuple = (None, None)) -> Optional[float]:
        """Append Chebyshev antiderivatives of fun on [a, b] to the (edges,
        antiderivatives, offsets) lists `pieces`, splitting where the ladder
        fails (Chebfun's "splitting on"); return fun(b) if sampled. Rung n of
        the doubling ladder `degrees` samples, in one call, the points
        cos(pi j/n) of [a, b] the rung below lacks, and a DCT-I gives its
        coefficients; its error is its largest miss at the points rung 2n
        adds. Gaining less than _RUNG_GAIN over the rung below means several
        scales or a noise plateau: the interval is cut 1/8 of its width from
        the end whose outer eighth holds the worst miss, else at its middle.
        An accepted rung drops the trailing coefficients whose absolute sum is
        at most min(err, rtol*scale - err) (Aurentz & Trefethen). `ends` holds
        fun at a and b where a neighbour sampled it. _R_inner takes an inner
        piece [0, b <= _SLIVER * root], the kink of a branch point at zero."""
        if pieces is self._inner and a == 0.0 and b <= _SLIVER * self.alpha_lambda:
            anti, fb = self._R_inner, ends[1]
        else:
            def at(n, j):  # the points cos(pi j/n) of [a, b], symmetric in j
                return 0.5 * (a + b) + 0.5 * (b - a) * np.sin(np.pi * (n - 2 * j) / (2 * n))

            n = degrees[0]
            xs = np.concatenate(([b], at(n, np.arange(1.0, n)), [a]))
            vals = np.array([ends[1]] + [None] * (n - 1) + [ends[0]], dtype=float)
            vals[np.isnan(vals)] = fun(xs[np.isnan(vals)])
            prev = math.inf
            for n in degrees:
                coef = _dct1(vals) / n
                coef[[0, n]] *= 0.5
                new_x = at(2 * n, np.arange(1.0, 2 * n, 2.0))
                new = fun(new_x)
                miss = np.abs(0.5 * (_dct1(np.append(coef, np.zeros(n)))[1::2] + coef[0]) - new)
                vals = np.insert(vals, np.arange(1, n + 1), new)
                err, scale = float(np.max(miss)), max(1.0, float(np.max(np.abs(vals))))
                if err <= rtol * scale or not err * _RUNG_GAIN <= prev:
                    break
                prev = err
            fb = float(vals[0])
            if not err <= rtol * scale:
                if depth == _SPLIT_DEPTH:
                    raise self._failure(f"{what} did not converge on a Chebyshev grid on "
                                        f"[{a:.6g}, {b:.6g}] after {depth} splits")
                worst, eighth = new_x[np.argmax(miss)], (b - a) / 8.0
                cut = (a + eighth if worst < a + eighth else
                       b - eighth if worst > b - eighth else 0.5 * (a + b))
                fcut = self._build_pieces(fun, a, cut, what, degrees, rtol, pieces, depth + 1,
                                          (vals[-1], vals[n] if cut == 0.5 * (a + b) else None))
                return self._build_pieces(fun, cut, b, what, degrees, rtol, pieces, depth + 1,
                                          (fcut, fb))
            # |T_k| <= 1, so the dropped tail moves the series by at most the
            # budget anywhere on [a, b]: the measured error stays within the gate
            budget = min(err, rtol * scale - err)
            tail = np.cumsum(np.abs(coef[::-1]))[::-1]
            off, scl = pu.mapparms((a, b), (-1.0, 1.0))
            anti = (chebint(coef[:max(1, int(np.count_nonzero(tail > budget)))],
                            lbnd=off + scl * a, scl=1.0 / scl), off, scl)
        edges, antis, offsets = pieces
        edges.append(a)
        antis.append(anti)
        offsets.append(offsets[-1] + float(_eval_pieces(([a], [anti], [0.0]), np.array([b]))[0]))
        return fb

    def _R(self, xs: np.ndarray) -> np.ndarray:
        """Antiderivative of the inner remainder r, continuous on [lo, A]."""
        return _eval_pieces(self._inner, xs)

    def _Q(self, xs: np.ndarray) -> np.ndarray:
        """int_A^x of the outer remainder for x >= A."""
        return _eval_pieces(self._outer, 1.0 - self.alpha_lambda / xs)

    # -- graded-rule transform evaluation ------------------------------------

    def _settle_tail_rule(self) -> Tuple[tuple, float]:
        """The graded rules of the transform integrals and A times their value
        at alpha = 0, 1/b. The rule of depth D has the pieces [0, 1/2],
        [1 - 2^-k, 1 - 2^-k-1] for 0 < k < D and [1 - 2^-D, 1]. Each piece
        settles (`_settle`) where it is hardest: the capped rule's at alpha = 0,
        the other end pieces at A 2^(2-D), the least alpha of their depth, the
        above-root piece at 2 and at 64 root. Its rungs must agree to a share
        of _TAIL_TOL (or 4 theta eps, the rounding of the exponent) relative to
        the integral there: at 0 the capped rule's sum, else the piece itself."""
        A, top, d0 = self.alpha_lambda, _TAIL_DEPTH, self._depth0
        cuts = (1.0 - 0.5 ** np.arange(top + 1)).tolist()  # 0, 1/2, 3/4, ...
        pieces = [(cuts[k], cuts[k + 1], 0.0) for k in range(top)] + [
            (cuts[d], 1.0, A * 2.0 ** (2 - d) if d < top else 0.0)
            for d in range(d0, top + 1)] + [(0.0, 1.0, 2.0 * A), (0.0, 1.0, 64.0 * A)]
        up = len(pieces) - 2
        # the pieces of each key's rule: 0 above the root, d0.. the depths
        rules = [[up]] + [[]] * (d0 - 1) + [list(range(d)) + [top + d - d0]
                                            for d in range(d0, top + 1)]
        at, weights, raw = np.array([a for *_, a in pieces]), np.empty(len(pieces)), {}

        def sums_at(live, n):  # and the weights, from the sums of the same rung
            for side in ([i for i in live if i < up], [i for i in live if i >= up]):
                if side:
                    S, logW = map(np.concatenate, zip(*(self._piece_rule(*pieces[i][:2], n)
                                                        for i in side)))
                    sums = self._integrals(at[side], S, logW, np.full(len(side), n))
                    raw.update(zip(side, sums.tolist()))
            total = sum(raw[i] for i in rules[top])
            refs = [raw[i] if a else total for i, a in enumerate(at)]
            weights[:] = [1.0 / r if 0.0 < r < math.inf else math.nan for r in refs]
            return [raw[i] for i in live]

        done = self._settle(sums_at, weights, max(_TAIL_TOL / (top + 1), 4.0 * self.theta * _EPS),
                            "endpoint-weighted quadrature did not stabilize")
        rules[0] = [max(up, up + 1, key=lambda i: done[i][0])]
        parts = [self._piece_rule(lo, hi, n) for (lo, hi, _), (n, _) in zip(pieces, done)]
        lens = np.array([sum(len(parts[i][0]) for i in rule) for rule in rules])
        S, logW = (np.concatenate([parts[i][j] for rule in rules for i in rule]) for j in (0, 1))
        return (S, logW, np.cumsum(lens) - lens, lens), A * float(sum(raw[i] for i in rules[top]))

    def _piece_rule(self, lo: float, hi: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Nodes and log weights of the n-node Gauss rule for int_lo^hi
        s^(theta K) u(s) ds: Jacobi for the weight on [0, hi], else Legendre."""
        if lo == 0.0:
            S, W = _jacobi_rule(n, self._tK)
            with np.errstate(divide="ignore"):  # a weight below the smallest double
                return hi * S, np.log(W) + (self._tK + 1.0) * math.log(hi)
        T, W = _legendre_rule(n)
        s = lo + (hi - lo) * T
        return s, np.log((hi - lo) * W) + self._tK * np.log(s)

    def _rule_keys(self, alphas: np.ndarray) -> np.ndarray:
        """Key of each alpha's rule: 0 above the root, else the depth
        ceil(log2(A/|alpha|)) + 2 = 3 - (binary exponent of alpha/A) within
        [_depth0, _TAIL_DEPTH], so the end piece is at most a quarter as wide
        as its distance to x = 0; alpha = 0 takes the cap."""
        A = self.alpha_lambda
        depth = np.minimum(np.maximum(3 - np.frexp(alphas / A)[1], self._depth0), _TAIL_DEPTH)
        return np.where(alphas > A, 0, np.where(alphas == 0.0, _TAIL_DEPTH, depth))

    def _rule_rows(self, alphas: np.ndarray, keys: np.ndarray) -> tuple:
        """(alphas, nodes, log weights, lengths) of the keys' rules end to end."""
        S, logW, start, lens = self._rule
        n = lens[keys]
        idx = np.arange(n.sum()) + np.repeat(start[keys] - np.cumsum(n) + n, n)
        return alphas, S[idx], logW[idx], n

    def _integrals(self, alphas: np.ndarray, S: np.ndarray, logW: np.ndarray,
                   lens: np.ndarray) -> np.ndarray:
        """Integral of each alpha's branch on its row of `_rule_rows`, all
        alphas on one side of the root: below it int_0^1 s^(theta K)
        exp(-theta (R(x)-R(alpha))) ds at x = A - (A-alpha) s, which a
        remainder that dips below zero at large theta can push past the float
        range; above it int_A^alpha ((x-A)/(alpha-A))^(theta K)
        (x/alpha)^(theta(1-K)) exp(-theta (Q(alpha)-Q(x))) dx/(alpha-A) at
        x = A + (alpha-A) s, or, where theta K < 4 leaves the weight too weak
        to hide the branch point x = 0 of far alphas, x = A (alpha/A)^s."""
        A = self.alpha_lambda
        a = np.repeat(alphas, lens)
        if np.all(alphas <= A):
            xs = A + (a - A) * S
            R = self._R(np.concatenate([xs, alphas]))
            logv = self.theta * (np.repeat(R[xs.size:], lens) - R[:xs.size])
        else:
            c, geo = np.log1p((a - A) / A), self._tK < 4.0
            xs = A * np.exp(c * S) if geo else A + (a - A) * S
            Q = self._Q(np.concatenate([xs, alphas]))
            logv = self.theta * ((1.0 - self.K) * np.log(xs / a) - np.repeat(Q[xs.size:], lens)
                                 + Q[:xs.size])
            if geo:  # ((x-A)/(alpha-A)/s)^(theta K) and dx/ds/(alpha-A)
                logv += (self._tK * np.log(np.expm1(c * S) / (S * np.expm1(c)))
                         + np.log(c * xs / (a - A)))
        with np.errstate(over="ignore"):  # past the float range: inf, which never settles
            return np.add.reduceat(np.exp(logW + logv), np.cumsum(lens) - lens)

    def _lst_many(self, alphas: np.ndarray) -> np.ndarray:
        """Stationary transform at every alpha of a 1-d array (alpha at or above the
        margin): b (A-alpha)/(1 - phi(alpha)/lam) `_integrals`, within the cut b lam/D(alpha),
        D the slope of phi to A (`_chord`); a branch's rows flat, in blocks of ~_CHUNK nodes."""
        A, lam = self.alpha_lambda, self.lam
        out, front = np.empty_like(alphas), np.empty_like(alphas)
        near = np.abs(alphas - A) <= _CUT * A
        x, _, W = _chord(A, alphas[near])  # row sums: a row's bits do not depend on the others
        front[near] = self.b * lam / (self.model.phi_dn(x, 1) * W).sum(-1)
        sides = ((alphas <= A) & (alphas != 0.0), alphas > A)
        for idx in (i for i in map(np.flatnonzero, sides) if i.size):
            keys = self._rule_keys(alphas[idx])
            n = self._rule[3][keys]
            cuts = (np.flatnonzero(np.diff((np.cumsum(n) - n) // _CHUNK)) + 1).tolist()
            for i, j in zip([0] + cuts, cuts + [idx.size]):
                sel, k, a = idx[i:j], keys[i:j], alphas[idx[i:j]]
                far = ~near[sel]  # phi of the whole block: a series takes its length per call
                front[sel[far]] = self.b * (A - a[far]) / (1.0 - self.model.phi(a)[far] / lam)
                out[sel] = front[sel] * self._integrals(*self._rule_rows(a, k))
        out[alphas == 0.0] = 1.0
        if not np.isfinite(out).all():
            raise self._failure("transform integral did not evaluate")
        return out

    # -- public surface -------------------------------------------------------

    def branch(self, alpha: float) -> str:
        A = self.alpha_lambda
        if abs(alpha - A) <= _AT_ROOT_RTOL * A:
            return "at"
        return "below" if alpha < A else "above"

    def lst(self, alpha: float) -> float:
        """Stationary transform E exp(-alpha Z*); continuous across the root.

        Slightly negative alpha (within the analytic margin of the model) is
        accepted so derivative diagnostics can difference across zero.
        """
        if not self._lo <= alpha < math.inf:
            raise DomainError(f"alpha = {alpha} not finite or below the margin {self._lo}")
        return float(self._lst_many(np.array([alpha], dtype=float))[0])

    def g(self, alpha: float) -> float:
        """Normalizing primitive g on [0, root]; g(root) = 1/b."""
        A = self.alpha_lambda
        if not 0 <= alpha <= A * (1.0 + 1e-12):
            raise DomainError("g is defined on [0, alpha_lambda]")
        alpha = min(alpha, A)
        R0, Ra = self._R(np.array([0.0, alpha]))
        if alpha <= 0.6 * A:
            T, W = _legendre_rule(256)
            xs = alpha * T
            vals = ((A - xs) / A) ** self._tK * np.exp(-self.theta * (self._R(xs) - R0))
            return alpha * float(W @ vals)
        scale = ((A - alpha) / A) ** self._tK * (A - alpha) * math.exp(
            -self.theta * (Ra - R0))
        a = np.array([alpha])
        tail = self._integrals(*self._rule_rows(a, self._rule_keys(a)))
        return self._gA - scale * float(tail[0])

    def mean_lst_collapsed(self, scale: float) -> float:
        """E f(scale * U) for the Beta(theta, 1) multiplier U, on the composite
        rule of `_collapse_ladder`, graded by theta; above _COLLAPSE_SPAN one
        Gauss-Jacobi sum over [0, scale], exact for the t^(theta-1) weight."""
        if scale == 0.0:
            return 1.0
        if not self._lo <= scale < math.inf:
            raise DomainError(f"scale = {scale} not finite or below the margin {self._lo}")
        return self._collapse_ladder(float(scale))

    def _collapse_ladder(self, scale: float) -> float:
        """Composite rule for int_0^scale theta (x/scale)^(theta-1) f(x) dx/scale.

        A piece [a, b] of N gets _COLLAPSE_TOL / N of the weighted sum, so its
        rungs (`_settle`, one `_lst_many` call per rung) must agree to
        _COLLAPSE_TOL / N / (b/scale)^theta. The cuts are the binary multiples
        of the root in [min(|scale|, root) 2^-h, |scale|), then scale, at the
        depth h = min(_COLLAPSE_HALVINGS, floor(_COLLAPSE_SPAN / theta)): no
        piece straddles the root, the pieces grade toward zero, where
        heavy-tailed transforms have their kink and nearby negative poles
        limit a single piece, and below the root they do not move with the
        scale. A piece [a, b] is summed as int_a^b theta (x/b)^(theta-1) f(x)
        dx/b, memoized under (a, b, n) and weighted by (b/scale)^theta. The
        innermost piece [0, c] takes a Gauss-Jacobi rule for s^(theta-1) when
        theta >= 1, else the substitution v = s^theta (Jacobi rules lose
        digits as their exponent nears -1). At h = 0 [0, scale] is that
        innermost piece, and the transform is smooth where its weight lies.
        """
        A, th, mag = self.alpha_lambda, self.theta, abs(scale)
        depth = int(min(_COLLAPSE_HALVINGS, _COLLAPSE_SPAN // th))
        edges = [0.0]
        if depth:
            # the first cut is the least A 2^k at or above min(|scale|, A) 2^-depth
            (mA, eA), (mlo, elo) = math.frexp(A), math.frexp(min(mag, A) / 2**depth)
            cut = math.ldexp(A, elo - eA + (mA < mlo))
            while cut < mag:
                edges.append(cut)
                cut *= 2.0
        edges = np.copysign(edges + [mag], scale)
        weights = (edges[1:] / scale) ** th
        spans = list(zip(edges[:-1].tolist(), edges[1:].tolist()))

        def sums_at(live, n):
            keys = [spans[i] + (n,) for i in live]
            sums = {k: self._pieces[k] for k in keys if k in self._pieces}
            todo = [k for k in keys if k not in sums]
            if todo:
                T, W = _legendre_rule(n)
                a, b = (np.array([k[i] for k in todo])[:, None] for i in (0, 1))
                x = a + (b - a) * T
                w = (b - a) / b * W * th * (x / b) ** (th - 1.0)
                if a[0, 0] == 0.0:  # the innermost piece, always first
                    s0, w0 = (_jacobi_rule(n, th - 1.0) if th >= 1.0
                              else (T ** (1.0 / th), W / th))
                    x[0], w[0] = b[0] * s0, th * w0
                vals = (w * self._lst_many(x.ravel()).reshape(x.shape)).sum(axis=1)
                sums.update(zip(todo, vals.tolist()))
                if len(self._pieces) < _PIECES_CAP:
                    self._pieces.update((k, sums[k]) for k in todo)
            return [sums[k] for k in keys]

        done = self._settle(sums_at, weights, _COLLAPSE_TOL / len(weights),
                            f"E f({scale:.6g} U) did not converge")
        return float(weights @ np.array([v for _, v in done]))

    def _settle(self, sums_at: Callable[[list, int], Sequence[float]],
                weights: np.ndarray, share: float, what: str) -> list:
        """(nodes, sum) of every piece of a composite rule, each on its own
        rung: it climbs _COLLAPSE_LADDER until two consecutive sums agree to
        share / its weight. sums_at(live, n) sums the listed pieces on n nodes
        in one batch (and may update the weights), so a settled piece leaves
        the batch, and one that needs a high rung drags no other up."""
        prev, done = [None] * len(weights), [None] * len(weights)
        for n in _COLLAPSE_LADDER:
            live = [i for i, v in enumerate(done) if v is None]
            for i, v in zip(live, sums_at(live, n)):
                if prev[i] is not None and weights[i] * abs(v - prev[i]) <= share:
                    done[i] = (n, v)
                prev[i] = v
            if None not in done:
                return done
        raise self._failure(what)

    def moments(self, n_max: int) -> list:
        """Stationary moments m_0..m_n. m_1 = b + (theta + 1) c_1 / lam comes
        from the root identity E f(root U) = b root / (theta + 1); higher
        orders recurse through binomial sums of the cumulants and are
        +infinity where a jump moment is."""
        if n_max < 0:
            raise DomainError("moment order must be >= 0")
        m_list = [1.0]
        if n_max == 0:
            return m_list
        lam, th = self.lam, self.theta
        m_list.append(self.b + (th + 1.0) * self.model.cumulant(1) / lam)
        for n in range(2, n_max + 1):
            terms = [math.comb(n, k) * m_list[k] * self.model.cumulant(n - k)
                     for k in range(n) if m_list[k] != 0.0]
            inf = any(map(math.isinf, m_list + terms))
            m_list.append(math.inf if inf else (th + n) / n * sum(terms) / lam)
        return m_list

    def grid(self, alphas: Sequence[float]) -> "TransformGrid":
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) == 0:
            raise DomainError("alpha grid must be non-empty")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        if not all(0 <= a < math.inf for a in alphas):
            raise DomainError("alpha grid must be finite and nonnegative")
        values = tuple(float(v) for v in self._lst_many(np.array(alphas)))
        tags = tuple(self.branch(a) for a in alphas)
        for a, v in zip(alphas, values):
            if not (-1e-9 <= v <= 1.0 + 1e-9):
                raise self._failure(f"transform value {v} at alpha={a} out of [0, 1]")
        return TransformGrid(alphas, values, tags)


@dataclass(frozen=True)
class TransformGrid:
    """Transform values on a sorted alpha grid with branch labels."""

    alphas: tuple
    values: tuple
    branch_tags: tuple


@lru_cache(maxsize=32)
def stationary_solution(model: LevyModel, lam: float, theta: float, /) -> StationarySolution:
    return StationarySolution(model, lam, theta)


def fixed_point_residual(model: LevyModel, lam: float, theta: float, alpha: float) -> float:
    """|f(alpha)(1 - phi(alpha)/lam) - E f(alpha U) + (alpha/root) E f(root U)|:
    the transform is the unique bounded solution of this fixed point, so
    the residual is a route-independent correctness probe."""
    if not 0 <= alpha < math.inf:
        raise DomainError("alpha must be finite and >= 0")
    sol = stationary_solution(model, lam, theta)
    A = sol.alpha_lambda
    lhs = sol.lst(alpha) * (1.0 - model.phi(alpha) / lam)
    rhs = sol.mean_lst_collapsed(alpha) - (alpha / A) * sol.mean_lst_collapsed(A)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def incomplete_beta(z: float, a1: float, a2: float) -> float:
    """Lower incomplete beta B(z; a1, a2) = int_0^z t^(a1-1)(1-t)^(a2-1) dt."""
    if not (0.0 <= z <= 1.0):
        raise DomainError("z must lie in [0, 1]")
    if a1 <= 0 or a2 <= 0:
        raise DomainError("a1 and a2 must be positive")
    # the continued fraction converges fast below the switch; above it
    # B(z; a1, a2) = B(a1, a2) - B(1 - z; a2, a1)
    flip = z >= (a1 + 1.0) / (a1 + a2 + 2.0)
    x, p, q = (1.0 - z, a2, a1) if flip else (z, a1, a2)
    part = 0.0
    if x > 0.0:
        # modified Lentz on DLMF 8.17.22:
        # B(x; p, q) = x^p (1-x)^q / (p (1 + d1/(1 + d2/(1 + ...))))
        f, c, d = 1.0, 1.0, 0.0
        for i in range(1, 1000):
            m = i // 2
            num = x / ((p + i - 1.0) * (p + i)) * (
                m * (q - m) if i % 2 == 0 else -(p + m) * (p + q + m))
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            f *= c * d
            if abs(c * d - 1.0) < 3e-16:
                break
        part = x**p * math.exp(q * math.log1p(-x)) / (p * f)
    if not flip:
        return part
    return math.exp(math.lgamma(a1) + math.lgamma(a2) - math.lgamma(a1 + a2)) - part


def _root_pair(h: float, e: float, num: float, den: float) -> Tuple[float, float]:
    """r1 > 0 > r2, the roots h +- sqrt(h^2 + e): the one without
    cancellation first, the other from the product r1*r2 = num/den."""
    disc = math.sqrt(h * h + e)
    if h >= 0:
        r1 = h + disc
        return r1, num / (den * r1)
    r2 = h - disc
    return num / (den * r2), r2


def bm_roots(c: float, sigma2: float, lam: float) -> Tuple[float, float, float, float]:
    """(y1, y2, D1, D2) for the Brownian-input closed form: y1 > 0 > y2
    solve lam - phi(alpha) = 0, with product y1*y2 = -2*lam/sigma2."""
    if sigma2 <= 0 or lam <= 0:
        raise DomainError("need sigma2 > 0 and lam > 0")
    y1, y2 = _root_pair(c / sigma2, 2.0 * lam / sigma2, -2.0 * lam, sigma2)
    d1 = -y2 / (y1 - y2)
    return y1, y2, d1, 1.0 - d1


def _two_root_lst(roots: Tuple[float, float, float, float], alpha: float,
                  num: float = 1.0, den: float = 1.0) -> float:
    """Stationary transform with Uniform multipliers, f = (1 - g/g(r1)) / (g'(alpha)
    (1 - phi(alpha)/lam)), g = int_0^alpha (r1-x)^e1 (x-r2)^e2 dx; 1 - g/g(r1) is the upper
    ratio B(z; 1+e1, 1+e2) / B(z0; 1+e1, 1+e2), z = (r1-alpha)/(r1-r2), z0 = z(0), free of
    cancellation. 1 - phi/lam is a multiple of (r1-alpha)(alpha-r2) over a linear factor
    (1 without one), and num/den is that factor at alpha over its value at 0."""
    r1, r2, e1, e2 = roots
    if not 0.0 <= alpha < r1:
        raise DomainError("closed form needs 0 <= alpha < the positive root")
    upper = (incomplete_beta((r1 - alpha) / (r1 - r2), 1.0 + e1, 1.0 + e2)
             / incomplete_beta(r1 / (r1 - r2), 1.0 + e1, 1.0 + e2))
    return ((r1 / (r1 - alpha)) ** (1.0 + e1)
            * ((-r2) / (alpha - r2)) ** (1.0 + e2) * num / den * upper)


def bm_closed_form_lst(c: float, sigma2: float, lam: float, alpha: float) -> float:
    """Stationary transform for Brownian input and Uniform multipliers."""
    return _two_root_lst(bm_roots(c, sigma2, lam), alpha)


def mm1_roots(d: float, gamma: float, mu: float, lam: float) -> Tuple[float, float, float, float]:
    """(z1, z2, F1, F2) for the exponential-jump closed form: z1 > 0 > z2
    solve the quadratic with sum s = (lam + gamma)/d - mu and product
    -lam*mu/d."""
    if d <= 0 or gamma < 0 or mu <= 0 or lam <= 0:
        raise DomainError("need d > 0, gamma >= 0, mu > 0, lam > 0")
    s = (lam + gamma) / d - mu
    z1, z2 = _root_pair(0.5 * s, lam * mu / d, -lam * mu, d)
    f1 = (lam / d - z2) / (z1 - z2)
    return z1, z2, f1, 1.0 - f1


def mm1_closed_form_lst(d: float, gamma: float, mu: float, lam: float,
                        alpha: float) -> float:
    """Stationary transform for exponential jumps minus drift, Uniform
    multipliers. Here 1 - phi(alpha)/lam = d (z1-alpha)(alpha-z2) /
    (lam (mu+alpha)), so the form carries a factor (mu + alpha)/mu beyond
    the Brownian one."""
    return _two_root_lst(mm1_roots(d, gamma, mu, lam), alpha, mu + alpha, mu)


def level_crossing_p0(d: float, lam: float, b: float) -> float:
    """Atom at zero from rate balance across level zero: lam*b/(2d)."""
    if d <= 0 or lam <= 0 or b <= 0:
        raise DomainError("need d > 0, lam > 0, b > 0")
    return lam * b / (2.0 * d)


# ---------------------------------------------------------------------------
# heavy tails and modulated variants
# ---------------------------------------------------------------------------


def tail_constant(gamma: float, lam: float, delta: float) -> float:
    """Multiplier in P(Z* > t) ~ const * P(B > t) for regularly varying
    jumps with index delta in (1, 2): (gamma/lam) * (delta+1)/delta."""
    if not 1.0 < delta < 2.0:
        raise DomainError("tail index delta must lie in (1, 2)")
    if gamma <= 0 or lam <= 0:
        raise DomainError("gamma and lam must be positive")
    return gamma / lam * (delta + 1.0) / delta


def small_alpha_expansion_check(model: LevyModel, lam: float,
                                alphas: Sequence[float]) -> list:
    """[f(alpha) - 1 + E[Z*] alpha] / alpha^delta on a small-alpha grid: for
    Pareto jumps the ratios flatten toward tail_constant(gamma, lam, delta)
    * (-Gamma(1-delta)) * xm^delta. E[Z*] is `moments`' m_1, the root
    identity b + 2 c_1 / lam at theta = 1."""
    if not isinstance(model, CppMinusDrift) or not isinstance(model.jumps, Pareto):
        raise ModelError("expansion check requires drift-drained Pareto jumps"
                         + _naming(model, lam))
    sol = stationary_solution(model, lam, 1.0)
    delta = model.jumps.delta
    mean_z = sol.moments(1)[1]
    out = []
    for a in alphas:
        if a <= 0:
            raise DomainError("expansion grid must be positive" + _naming(model, lam))
        out.append((sol.lst(a) - 1.0 + mean_z * a) / a**delta)
    return out


def onoff_mixture_lst(model: LevyModel, lam: float, eta: float, r: float,
                      alpha: float) -> float:
    """Time-stationary transform of an on/off variant: reflected motion
    during exp(lam) on-periods, decay at rate r per unit level during
    exp(eta) off-periods. The decay over one off-period is a Beta(eta/r, 1)
    multiplier, so on-period ends follow the collapsed process with
    theta = eta/r; off samples add one multiplier (memorylessness)."""
    if eta <= 0 or r <= 0:
        raise DomainError("eta and r must be positive")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    sol = stationary_solution(model, lam, eta / r)
    on_weight = eta / (lam + eta)
    return on_weight * sol.lst(alpha) + (1.0 - on_weight) * sol.mean_lst_collapsed(alpha)
