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
and only the regular remainder r(y) is handled numerically. Away from the
root r is sampled into Chebyshev antiderivatives, piecewise where one
piece does not converge (the interval is split), and each stored series is
chopped to the error its piece was accepted at; inside a narrow band
around the root, where the direct formula turns into 0/0 and loses two
digits per decade, r is replaced by its Taylor expansion (coefficients from
a convolution recurrence on the derivatives of phi) and integrated in
closed form. The closed-form factors become endpoint weights
(root - x)^(theta*K), so each transform value reduces to a fixed
Gauss-Jacobi sum. That keeps every evaluation smooth in alpha, which the
finite-difference moment diagnostics rely on.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import (DomainError, ModelError, QuadratureFailure,
                     SubordinatorInput)
from .models import CppMinusDrift, LevyModel, Pareto

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

# relative half-width of the band around alpha_lambda where the limiting
# branch value replaces the 0/0 expressions
_AT_ROOT_RTOL = 1e-9


def _naming(model: LevyModel, lam: float, theta: Optional[float] = None) -> str:
    """The end of every error message about one solution."""
    tail = f": {model!r}, lambda={lam:.6g}"
    return tail if theta is None else f"{tail}, theta={theta:.6g}"


def find_alpha_lambda(model: LevyModel, lam: float) -> float:
    """Positive root of phi(alpha) = lam.

    phi is convex with phi(0) = 0, so the root is unique whenever phi grows
    past lam. The bracket expands by doubling, then a Newton iteration with
    bisection safeguard refines it down to the evaluation noise of phi
    itself: everything downstream divides by distances to this root, so
    stopping early would be the dominant error of the whole solution.
    """
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
        dfx = model.phi_deriv(x)
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
    started from zero: (1 - alpha/root) / (1 - phi(alpha)/lam), with the
    l'Hopital value lam / (root * phi'(root)) at the root itself."""
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    root = _alpha_root(model, lam)
    if abs(alpha - root) <= _AT_ROOT_RTOL * root:
        return lam / (root * model.phi_deriv(root))
    return (1.0 - alpha / root) / (1.0 - model.phi(alpha) / lam)


def wx_joint_lst(model: LevyModel, lam: float, x: float, alpha: float,
                 beta: float = 0.0) -> float:
    """Joint transform of (level, pushed-up reflector amount) at an
    independent exp(lam) time when the reflection starts from level x >= 0.

    Equals (exp(-alpha x) - ((alpha+beta)/(root+beta)) exp(-root x))
    / (1 - phi(alpha)/lam); both factors vanish at alpha = root, where the
    limit (x + 1/(root+beta)) * lam * exp(-root x) / phi'(root) applies.
    """
    if alpha < 0 or beta < 0 or x < 0:
        raise DomainError("x, alpha and beta must be >= 0")
    root = _alpha_root(model, lam)
    if abs(alpha - root) <= _AT_ROOT_RTOL * root:
        return (x + 1.0 / (root + beta)) * lam * math.exp(-root * x) / model.phi_deriv(root)
    num = math.exp(-alpha * x) - (alpha + beta) / (root + beta) * math.exp(-root * x)
    return num / (1.0 - model.phi(alpha) / lam)


@lru_cache(maxsize=256)
def _alpha_root(model: LevyModel, lam: float) -> float:
    return find_alpha_lambda(model, lam)


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
    overflows (n = 1536 at expo = 140; 768 at expo = 150 comes within a
    factor 4) belongs to a weight below the smallest double, which is 0.
    """
    a = float(expo)
    k = np.arange(1.0, n)
    t = 2.0 * k + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (t * (t + 2.0))))
    off = 2.0 * k * (k + a) / (t * np.sqrt((t + 1.0) * (t - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))  # reads the lower triangle
    p0, p1, tot = np.zeros(n), np.ones(n), np.ones(n)
    with np.errstate(over="ignore"):
        for j in range(n - 1):
            p0, p1 = p1, ((x - diag[j]) * p1 - (off[j - 1] if j else 0.0) * p0) / off[j]
            tot += p1 * p1
    return (1.0 - x) / 2.0, 1.0 / (a + 1.0) / tot


@lru_cache(maxsize=16)
def _legendre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=4)
def _laguerre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return laggauss(n)


def _clenshaw(coef: np.ndarray, u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Chebyshev series coef at the points u (mapped to [-1, 1]), in place.

    Runs numpy's `chebval` recurrence in its operation order, so the values
    are bit-identical to it, but writes only into the rows of `work` (at
    least 4 x len(u)); the result is u's buffer, overwritten.
    """
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


def _poly_no_constant(u: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """sum_k coef[k-1] * u^k for k = 1..len(coef), by Horner's rule."""
    poly = np.zeros_like(u)
    for c in reversed(coef):
        poly = u * (c + poly)
    return poly


# beyond this power the endpoint weight is better handled by the exponential
# substitution (Gauss-Laguerre) than by a Gauss-Jacobi rule
_POWER_GAUSS_MAX = 150.0

_EPS = 2.2e-16
# order of the root expansion of the remainders (half-width 0.03 * root
# keeps its truncation below the direct formulas' cancellation noise)
_SERIES_MAX = 8

# split-on-failure remainder pieces: the least factor by which a degree rung
# must cut the probe error of the previous one, the deepest cut, and the
# width (relative to the root) below which a failing piece [0, b] is left to
# the sliver integral
_RUNG_GAIN = 100.0
_SPLIT_DEPTH = 12
_SLIVER = 2.0 ** -16

# (alpha x node) products per block of a batched transform evaluation;
# bounds the temporaries whatever the number of alphas
_CHUNK = 1 << 15

# E f(scale U): Gauss nodes per piece tried in turn, the agreement two
# consecutive rungs must reach, and the number of dyadic halvings below
# min(scale, root). The grading stops there because every alpha below the
# sliver edge of a heavy-tailed model costs a 64-point remainder
# integral of its own
_COLLAPSE_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128)
_COLLAPSE_TOL = 1e-12
_COLLAPSE_HALVINGS = 10
# bound on the memo of collapse-average pieces of one solution
_PIECES_CAP = 1 << 14


# ---------------------------------------------------------------------------
# stationary solution
# ---------------------------------------------------------------------------


class StationarySolution:
    """Everything the stationary law exposes for one (model, lam, theta).

    Construction performs all expensive work (root, Chebyshev antiderivatives
    of the regular exponent remainders, Gauss rules, normalizer b, atom).
    Afterwards an instance only writes to one memo, `_pieces` (the scale-
    free piece sums of collapse averages, see `_collapse_ladder`). It is a
    bounded, write-once map of deterministic values, so a thread that races
    another at worst recomputes an entry and sharing instances across
    threads is safe; `stationary_solution` caches them per parameter
    triple.
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
        p = model.phi_deriv(A)
        if not p > 0:
            raise self._failure("phi'(alpha_lambda) must be positive")
        self.phi_prime_root = p
        self.K = lam / (A * p)
        self._tK = self.theta * self.K

        # expansion of the remainders around the root: writing
        # lam - phi(A-u) = p*u*(1 - x(u)), the Taylor coefficients of
        # 1/(1-x) follow from a convolution recurrence, and
        #     r(A-u) = K * sum_k e_k u^(k-1) - 1/(A-u)
        # with the mirrored expansion above the root carrying alternating
        # signs. Two spare orders feed the truncation estimate; transforms
        # that refuse the highest derivatives just run the expansion shorter.
        ders = []
        for j in range(2, _SERIES_MAX + 4):
            try:
                ders.append(model.phi_dn(A, j))
            except ModelError:
                break
        if len(ders) < 5:
            raise self._failure("too few phi derivatives at the root for the "
                                "remainder expansion")
        xser = [0.0] * (len(ders) + 1)
        for k in range(1, len(ders) + 1):
            xser[k] = (-1.0) ** (k + 1) * ders[k - 1] / (math.factorial(k + 1) * p)
        aser = [1.0] + [0.0] * len(ders)
        for m in range(1, len(ders) + 1):
            aser[m] = sum(xser[k] * aser[m - k] for k in range(1, m + 1))
        ecoef = [0.0] * (len(ders) + 1)
        for m in range(1, len(ders) + 1):
            ecoef[m] = sum(aser[i] * A ** (i - m) for i in range(m + 1))
        self._M = len(ders) - 2
        self._e = ecoef
        self._w = 0.03 * A
        self._band_cw = sum(ecoef[k] * self._w**k / k for k in range(1, self._M + 1))
        self._band_coef = [ecoef[k] / k for k in range(1, self._M + 1)]
        self._qband_coef = [(-1.0) ** k * ecoef[k] / k for k in range(1, self._M + 1)]

        # noise floor of the direct formulas: transform-level error shifts
        # the apparent root by dA, which the remainder feels as K*dA/u^2 at
        # distance u from the root
        noise = 4.0 * _EPS * (lam + A * p)
        for g_rate, jumps in model.jump_parts():
            noise += g_rate * jumps.lst_abs_tol()
        self._dA_est = noise / p
        self._check_root_series()

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
        self._band_lo_x = A - self._w
        self._vw = self._w / (A + self._w)

        rtol_direct = max(2.5e-11, 4.0 * self.K * self._dA_est / self._w**2)
        self._inner, self._outer = ([], [], [0.0]), ([], [], [0.0])
        self._build_pieces(self._left_integrand, lo, 0.5 * A, "inner remainder, left piece",
                           (32, 64, 128, 256, 512), 1e-11, self._inner)
        self._build_pieces(self._left_integrand, 0.5 * A, self._band_lo_x,
                           "inner remainder, middle piece", (64, 128, 256, 512),
                           rtol_direct, self._inner)
        self._build_pieces(self._rho_above, self._vw, 1.0, "outer remainder",
                           (64, 128, 256, 512), rtol_direct, self._outer)
        self._Q_bandhi = float(self._Q(np.array([A + self._w]))[0])
        self._tail_s, self._tail_w = self._pick_tail_rule()
        self._pieces = {}

        gA = A * float(self._below_integral(np.array([0.0]), self._tail_s,
                                            self._tail_w)[0])
        if not (gA > 0 and math.isfinite(gA)):
            raise self._failure("normalizing integral did not evaluate")
        self._gA = gA
        self.b = 1.0 / gA

        d_eff = model.phi_over_alpha_limit()
        self.atom = 0.0 if math.isinf(d_eff) else lam * self.b / ((1.0 + theta) * d_eff)

    def _failure(self, what: str) -> QuadratureFailure:
        return QuadratureFailure(what + _naming(self.model, self.lam, self.theta))

    # -- exponent remainders -------------------------------------------------

    def _left_integrand(self, y: float) -> float:
        """h(y) - K/(A-y), direct form, used left of the band; removable at 0."""
        lam, A, K = self.lam, self.alpha_lambda, self.K
        poa = self.model.phi_over_alpha(y)
        return poa / (lam - y * poa) - K / (A - y)

    def _R_inner(self, xs: np.ndarray) -> np.ndarray:
        """int_0^x of the remainder for each x in the sliver next to zero.

        The integrand is bounded with a weak y^(delta-1) kink; a fixed
        64-point Gauss rule leaves an error far below the piece tolerance at
        these widths (x <= 2^-16 * root).
        """
        T, W = _legendre_rule(64)
        return np.array([x * float(W @ np.array([self._left_integrand(x * t) for t in T]))
                         for x in xs.tolist()])

    def _r_series(self, u: float) -> float:
        """Remainder below the root from the expansion, u = A - y."""
        acc = 0.0
        for k in range(self._M, 0, -1):
            acc = u * acc + self._e[k]
        return self.K * acc - 1.0 / (self.alpha_lambda - u)

    def _check_root_series(self) -> None:
        """Cross-check expansion vs direct remainder where both are accurate.

        Just outside the band the direct formula carries at most the
        root-shift noise K*dA/u^2 and the expansion at most its truncation
        tail, so a mismatch beyond both budgets means one of them is wrong
        (bad derivative, underestimated transform noise) and the whole
        solution would be silently off; better to refuse loudly.
        """
        A, K = self.alpha_lambda, self.K
        e, M = self._e, self._M
        scale = K * (abs(e[1]) + 1.0 / A)
        for fac in (1.0, 1.25, 1.6, 2.0):
            u = fac * self._w
            trunc = K * (abs(e[M + 1]) * u**M + abs(e[M + 2]) * u ** (M + 1))
            gate = 6.0 * (K * self._dA_est / u**2 + trunc) + 5e-11 * scale
            diff = abs(self._r_series(u) - self._left_integrand(A - u))
            if diff > gate:
                raise self._failure(
                    "root expansion of the remainder disagrees with the "
                    f"direct formula at distance {u:.3e} from the root "
                    f"({diff:.3e} > {gate:.3e})")

    def _rho_above(self, v: float) -> float:
        """Regular outer remainder mapped via y = A/(1-v), for v in [vw, 1].

        rho(y) = lam/(y(phi-lam)) - K*A/(y(y-A)) decays like 1/y^2, so the
        transformed integrand stays bounded up to v = 1 and Chebyshev
        antiderivatives serve every alpha beyond the band.
        """
        m, lam, A, K = self.model, self.lam, self.alpha_lambda, self.K
        if v >= 1.0:
            d_eff = m.phi_over_alpha_limit()
            lim = 0.0 if math.isinf(d_eff) else lam / d_eff
            return (lim - K * A) / A
        y = A / (1.0 - v)
        rho = lam / (y * (m.phi(y) - lam)) - K * A / (y * (y - A))
        return rho * A / (1.0 - v) ** 2

    def _build_pieces(self, fun: Callable[[float], float], a: float, b: float,
                      what: str, degrees: Sequence[int], rtol: float,
                      pieces: tuple, depth: int = 0) -> None:
        """Append Chebyshev antiderivatives of fun on [a, b] to the (edges,
        antiderivatives, offsets) lists `pieces`, splitting where the ladder
        fails (Chebfun's "splitting on").

        Each degree is checked at 29 probes clustered like the Chebyshev
        points. A rung that gains less than _RUNG_GAIN over the previous one
        means this width holds more than one scale or sits on a noise
        plateau, so the interval is cut: 1/8 of its width from an endpoint
        that is the worst probe, else at its midpoint. An accepted rung is
        chopped to its measured error before it is integrated: trailing
        coefficients whose absolute sum is at most min(err, rtol*scale - err)
        are dropped (Aurentz & Trefethen, "Chopping a Chebyshev series"). A
        piece [0, b] with b <= _SLIVER * root holds the kink of a jump
        transform with a branch point at zero and goes to _R_inner at once.
        """
        if a == 0.0 and b <= _SLIVER * self.alpha_lambda:
            anti = self._R_inner
        else:
            def batch(xs):
                return np.array([fun(float(t)) for t in np.atleast_1d(xs)])

            probes = a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 29)))
            direct = batch(probes)
            scale = max(1.0, float(np.max(np.abs(direct))))
            prev = math.inf
            for deg in degrees:
                interp = Chebyshev.interpolate(batch, deg, domain=[a, b])
                miss = np.abs(interp(probes) - direct)
                err = float(np.max(miss))
                if err <= rtol * scale or not err * _RUNG_GAIN <= prev:
                    break
                prev = err
            if not err <= rtol * scale:
                if depth == _SPLIT_DEPTH:
                    raise self._failure(f"{what} did not converge on a Chebyshev grid on "
                                        f"[{a:.6g}, {b:.6g}] after {depth} splits")
                worst = int(np.argmax(miss))
                cut = (a + (b - a) / 8.0 if worst == 0 else
                       b - (b - a) / 8.0 if worst == len(probes) - 1 else 0.5 * (a + b))
                self._build_pieces(fun, a, cut, what, degrees, rtol, pieces, depth + 1)
                return self._build_pieces(fun, cut, b, what, degrees, rtol, pieces, depth + 1)
            # |T_k| <= 1, so the dropped tail moves the series by at most the
            # budget anywhere on [a, b]: the probe error stays within the gate
            budget = min(err, rtol * scale - err)
            tail = np.cumsum(np.abs(interp.coef[::-1]))[::-1]
            integ = interp.truncate(max(1, int(np.count_nonzero(tail > budget)))).integ(lbnd=a)
            anti = (integ.coef, *(float(v) for v in integ.mapparms()))
        edges, antis, offsets = pieces
        edges.append(a)
        antis.append(anti)
        offsets.append(offsets[-1] + float(_eval_pieces(([a], [anti], [0.0]), np.array([b]))[0]))

    def _R(self, xs: np.ndarray) -> np.ndarray:
        """Antiderivative of the inner remainder r, continuous on [lo, A]."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        band = xs > self._band_lo_x
        out[~band] = _eval_pieces(self._inner, xs[~band])
        if band.any():
            # closed-form integral of the root expansion on (A-w, A]
            A, xb = self.alpha_lambda, xs[band]
            out[band] = (self._inner[2][-1] + np.log((A - self._w) / xb) + self.K * (
                self._band_cw - _poly_no_constant(A - xb, self._band_coef)))
        return out

    def _Q(self, xs: np.ndarray) -> np.ndarray:
        """int_A^x of the outer remainder for x >= A: closed-form integral of
        the root expansion in [A, A+w], Chebyshev antiderivatives beyond."""
        A = self.alpha_lambda
        out = np.empty_like(xs)
        band = xs <= A + self._w
        if band.any():
            xb = xs[band]
            out[band] = self.K * (np.log(xb / A)
                                  + _poly_no_constant(xb - A, self._qband_coef))
        if not band.all():
            out[~band] = self._Q_bandhi + _eval_pieces(self._outer, 1.0 - A / xs[~band])
        return out

    # -- fixed-rule transform evaluation --------------------------------------

    def _tail_rule(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """n-point rule for int_0^1 s^(theta K) u(s) ds; beyond
        _POWER_GAUSS_MAX the weight is too stiff for a Jacobi rule and
        s = exp(-v/(1+theta K)) turns it into a Gauss-Laguerre one."""
        if self._tK > _POWER_GAUSS_MAX:
            T, W = _laguerre_rule(n)
            r = 1.0 + self._tK
            return np.exp(-T / r), W / r
        return _jacobi_rule(n, self._tK)

    def _pick_tail_rule(self) -> Tuple[np.ndarray, np.ndarray]:
        # the 0.004*A probe exposes the weak endpoint kink that heavy-tailed
        # jump transforms put at zero, the 2*A probe the integral above the
        # root; analytic models settle two rungs early
        A = self.alpha_lambda
        below = np.array([0.004, 0.11, 0.52, 0.9]) * A
        above = np.array([2.0 * A])
        ladder = (64, 96, 128) if self._tK > _POWER_GAUSS_MAX else (96, 192, 384, 768)
        prev = None
        for n in ladder:
            S, W = self._tail_rule(n)
            vals = np.concatenate([self._below_integral(below, S, W),
                                   self._above_integral(above, S, W)])
            if prev is not None and np.all(np.abs(vals - prev) <= 4e-12 * (np.abs(vals) + 1.0)):
                return S, W
            prev = vals
        raise self._failure("endpoint-weighted quadrature did not stabilize")

    def _below_integral(self, alphas: np.ndarray, S: np.ndarray,
                        W: np.ndarray) -> np.ndarray:
        """int_0^1 s^(theta K) exp(-theta (R(x)-R(alpha))) ds at
        x = A - (A-alpha) s for each alpha below the root; at most
        1/(1+theta K) where R increases on [alpha, A], but a remainder that
        dips below zero at large theta can push it past the float range."""
        A = self.alpha_lambda
        xs = A - (A - alphas)[:, None] * S
        R = self._R(np.concatenate([xs.ravel(), alphas]))
        expo = R[:xs.size].reshape(xs.shape) - R[xs.size:, None]
        return (np.exp(-self.theta * expo) * W).sum(axis=1)

    def _above_integral(self, alphas: np.ndarray, S: np.ndarray,
                        W: np.ndarray) -> np.ndarray:
        """int_0^1 s^(theta K) (x/alpha)^(theta(1-K))
        exp(-theta (Q(alpha)-Q(x))) ds at x = A + (alpha-A) s for each alpha
        above the root; rescaled to s so the weight never overflows."""
        A, th = self.alpha_lambda, self.theta
        xs = A + (alphas - A)[:, None] * S
        Q = self._Q(np.concatenate([xs.ravel(), alphas]))
        dq = Q[xs.size:, None] - Q[:xs.size].reshape(xs.shape)
        vals = (xs / alphas[:, None]) ** (th * (1.0 - self.K)) * np.exp(-th * dq)
        return (vals * W).sum(axis=1)

    def _lst_many(self, alphas: np.ndarray) -> np.ndarray:
        """Stationary transform at every alpha of a 1-d array (alpha at or
        above the margin): b (A-alpha) / (1 - phi(alpha)/lam) times the
        endpoint-weighted integral of its branch, in (alpha x node) blocks of
        about _CHUNK products."""
        m, lam, A = self.model, self.lam, self.alpha_lambda
        S, W = self._tail_s, self._tail_w
        out = np.empty_like(alphas)
        at = np.abs(alphas - A) <= _AT_ROOT_RTOL * A
        out[at] = self.b / (self.theta / A + self.phi_prime_root / lam)
        rows = max(1, _CHUNK // len(S))
        for mask, integral in ((~at & (alphas < A) & (alphas != 0.0), self._below_integral),
                               (~at & (alphas > A), self._above_integral)):
            idx = np.flatnonzero(mask)
            for i in range(0, len(idx), rows):
                sel = idx[i:i + rows]
                a = alphas[sel]
                one_minus = 1.0 - np.array([m.phi(float(x)) for x in a]) / lam
                out[sel] = self.b * (A - a) / one_minus * integral(a, S, W)
        out[alphas == 0.0] = 1.0
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
        if alpha < self._lo:
            raise DomainError(f"alpha = {alpha} below the analytic margin {self._lo}")
        return float(self._lst_many(np.array([alpha], dtype=float))[0])

    def g(self, alpha: float) -> float:
        """Normalizing primitive g on [0, root]; g(root) = 1/b."""
        A = self.alpha_lambda
        if alpha < 0 or alpha > A * (1.0 + 1e-12):
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
        tail = self._below_integral(np.array([alpha]), self._tail_s, self._tail_w)
        return self._gA - scale * float(tail[0])

    def mean_lst_collapsed(self, scale: float) -> float:
        """E f(scale * U) for the Beta(theta, 1) multiplier U."""
        if scale == 0.0:
            return 1.0
        if scale < self._lo:
            raise DomainError(f"scale = {scale} below the analytic margin {self._lo}")
        scale, th = float(scale), self.theta
        if th <= _POWER_GAUSS_MAX:
            return self._collapse_ladder(scale)
        # t^(theta-1) mass sits within O(1/theta) of 1; substituting
        # t = exp(-u/theta) gives a plain exp(-u) weight
        hit = self._pieces.get(scale)
        if hit is None:
            T, W = _laguerre_rule(96)
            hit = float(W @ self._lst_many(scale * np.exp(-T / th)))
            if len(self._pieces) < _PIECES_CAP:
                self._pieces[scale] = hit
        return hit

    def _collapse_ladder(self, scale: float) -> float:
        """Composite rule for int_0^scale theta (x/scale)^(theta-1) f(x) dx/scale
        at growing node counts until two consecutive sums agree to
        _COLLAPSE_TOL; the finer one is returned.

        The cuts are the binary multiples of the root in
        [min(|scale|, root) 2^-10, |scale|), then scale itself: no piece
        straddles the branch switch at the root, the pieces grade down toward
        zero, where heavy-tailed transforms have their alpha^delta kink and
        nearby negative poles limit the convergence of a single piece, and
        below the root they do not move with the scale. A piece [a, b] is
        summed as int_a^b theta (x/b)^(theta-1) f(x) dx/b, which does not
        depend on the scale, memoized under (a, b, n) and weighted by
        (b/scale)^theta. The innermost piece [0, c] carries the weight's
        singularity: a Gauss-Jacobi rule for s^(theta-1) when theta >= 1, the
        substitution v = s^theta below that (Jacobi rules lose digits as
        their exponent approaches -1).
        """
        A, th, mag = self.alpha_lambda, self.theta, abs(scale)
        # the first cut is the least A 2^k at or above min(|scale|, A) 2^-10
        (mA, eA), (mlo, elo) = math.frexp(A), math.frexp(min(mag, A) / 2**_COLLAPSE_HALVINGS)
        cut, edges = math.ldexp(A, elo - eA + (mA < mlo)), [0.0]
        while cut < mag:
            edges.append(cut)
            cut *= 2.0
        edges = np.copysign(edges + [mag], scale)
        weights = (edges[1:] / scale) ** th
        prev = None
        for n in _COLLAPSE_LADDER:
            keys = [(float(a), float(b), n) for a, b in zip(edges[:-1], edges[1:])]
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
            val = float(weights @ np.array([sums[k] for k in keys]))
            if prev is not None and abs(val - prev) <= _COLLAPSE_TOL:
                return val
            prev = val
        raise self._failure(f"E f({scale:.6g} U) did not converge")

    def moments(self, n_max: int) -> list:
        """Stationary moments m_0..m_n from the cumulant recursion.

        m_1 balances drift against collapse loss; higher orders recurse
        through binomial sums and may be +infinity when a jump moment is.
        """
        if n_max < 0:
            raise DomainError("moment order must be >= 0")
        m_list = [1.0]
        if n_max == 0:
            return m_list
        lam, th, A = self.lam, self.theta, self.alpha_lambda
        c1 = self.model.cumulant(1)
        m1 = (th + 1.0) * (c1 / lam + self.mean_lst_collapsed(A) / A)
        m_list.append(m1)
        for n in range(2, n_max + 1):
            if any(math.isinf(mk) for mk in m_list):
                m_list.append(math.inf)
                continue
            total = 0.0
            hit_inf = False
            for k in range(n):
                c = self.model.cumulant(n - k)
                if math.isinf(c):
                    if m_list[k] != 0.0:
                        hit_inf = True
                        break
                    continue
                total += math.comb(n, k) * m_list[k] * c
            m_list.append(math.inf if hit_inf else (th + n) / n * total / lam)
        return m_list

    def grid(self, alphas: Sequence[float]) -> "TransformGrid":
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) == 0:
            raise DomainError("alpha grid must be non-empty")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        if alphas[0] < 0:
            raise DomainError("alpha grid must be nonnegative")
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
    """|f(alpha)(1 - phi(alpha)/lam) - E f(alpha U) + (alpha/root) E f(root U)|.

    The stationary transform is the unique bounded solution of this
    distributional fixed point, so the residual is a route-independent
    correctness probe for any alpha >= 0.
    """
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
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


def bm_roots(c: float, sigma2: float, lam: float) -> Tuple[float, float, float, float]:
    """(y1, y2, D1, D2) for the Brownian-input closed form.

    y1 > 0 > y2 solve lam - phi(alpha) = 0 as a quadratic; the better
    conditioned root is computed first and the other recovered from the
    product y1*y2 = -2*lam/sigma2.
    """
    if sigma2 <= 0 or lam <= 0:
        raise DomainError("need sigma2 > 0 and lam > 0")
    half_sum = c / sigma2
    disc = math.sqrt(half_sum * half_sum + 2.0 * lam / sigma2)
    if half_sum >= 0:
        y1 = half_sum + disc
        y2 = -2.0 * lam / (sigma2 * y1)
    else:
        y2 = half_sum - disc
        y1 = -2.0 * lam / (sigma2 * y2)
    d1 = -y2 / (y1 - y2)
    return y1, y2, d1, 1.0 - d1


def _power_primitive(alpha: float, r_pos: float, r_neg: float, e_pos: float,
                     e_neg: float) -> float:
    """int_0^alpha (r_pos - x)^e_pos (x - r_neg)^e_neg dx via incomplete beta."""
    span = r_pos - r_neg
    t0 = -r_neg / span
    t1 = (alpha - r_neg) / span
    width = span ** (e_pos + e_neg + 1.0)
    return width * (incomplete_beta(t1, 1.0 + e_neg, 1.0 + e_pos)
                    - incomplete_beta(t0, 1.0 + e_neg, 1.0 + e_pos))


def bm_closed_form_lst(c: float, sigma2: float, lam: float, alpha: float) -> float:
    """Stationary transform for Brownian input and Uniform multipliers,
    entirely in terms of incomplete beta functions."""
    y1, y2, d1, d2 = bm_roots(c, sigma2, lam)
    if not 0.0 <= alpha < y1:
        raise DomainError("closed form needs 0 <= alpha < y1")
    ratio = (_power_primitive(alpha, y1, y2, d1, d2)
             / _power_primitive(y1, y1, y2, d1, d2))
    return ((y1 / (y1 - alpha)) ** (1.0 + d1)
            * ((-y2) / (alpha - y2)) ** (1.0 + d2) * (1.0 - ratio))


def mm1_roots(d: float, gamma: float, mu: float, lam: float) -> Tuple[float, float, float, float]:
    """(z1, z2, F1, F2) for the exponential-jump closed form.

    z1 > 0 > z2 solve the quadratic with sum s = (lam + gamma)/d - mu and
    product -lam*mu/d; as in `bm_roots` the root without cancellation is
    computed first and the other recovered from the product.
    """
    if d <= 0 or gamma < 0 or mu <= 0 or lam <= 0:
        raise DomainError("need d > 0, gamma >= 0, mu > 0, lam > 0")
    s = (lam + gamma) / d - mu
    disc = math.sqrt(s * s + 4.0 * lam * mu / d)
    if s >= 0:
        z1 = 0.5 * (s + disc)
        z2 = -lam * mu / (d * z1)
    else:
        z2 = 0.5 * (s - disc)
        z1 = -lam * mu / (d * z2)
    f1 = (lam / d - z2) / (z1 - z2)
    return z1, z2, f1, 1.0 - f1


def mm1_closed_form_lst(d: float, gamma: float, mu: float, lam: float,
                        alpha: float) -> float:
    """Stationary transform for exponential jumps minus drift, Uniform
    multipliers.

    Follows f = (1 - g/g(z1)) / (g'(alpha) (1 - phi(alpha)/lam)) with the
    partial-fraction primitive g; since here 1 - phi(alpha)/lam =
    d (z1-alpha)(alpha-z2) / (lam (mu+alpha)), the compact power-product
    form carries an extra factor (mu + alpha)/mu relative to the Brownian
    pattern.
    """
    z1, z2, f1, f2 = mm1_roots(d, gamma, mu, lam)
    if not 0.0 <= alpha < z1:
        raise DomainError("closed form needs 0 <= alpha < z1")
    ratio = (_power_primitive(alpha, z1, z2, f1, f2)
             / _power_primitive(z1, z1, z2, f1, f2))
    return ((z1 / (z1 - alpha)) ** (1.0 + f1)
            * ((-z2) / (alpha - z2)) ** (1.0 + f2)
            * (mu + alpha) / mu * (1.0 - ratio))


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
    """[f(alpha) - 1 + E[Z*] alpha] / alpha^delta on a small-alpha grid.

    For Pareto jumps the returned ratios should flatten toward
    tail_constant(gamma, lam, delta) * (-Gamma(1-delta)) * xm^delta as
    alpha decreases; E[Z*] is taken from the transform-side identity
    b - 2 (d - gamma E B)/lam rather than the moment recursion so the two
    routes stay independent.
    """
    if not isinstance(model, CppMinusDrift) or not isinstance(model.jumps, Pareto):
        raise ModelError("expansion check requires drift-drained Pareto jumps"
                         + _naming(model, lam))
    sol = stationary_solution(model, lam, 1.0)
    delta = model.jumps.delta
    mean_z = sol.b - 2.0 * (model.d - model.gamma * model.jumps.mean()) / lam
    out = []
    for a in alphas:
        if a <= 0:
            raise DomainError("expansion grid must be positive" + _naming(model, lam))
        out.append((sol.lst(a) - 1.0 + mean_z * a) / a**delta)
    return out


def onoff_mixture_lst(model: LevyModel, lam: float, eta: float, r: float,
                      alpha: float) -> float:
    """Time-stationary transform of an on/off variant: reflected motion
    during exp(lam) on-periods, exponential decay at rate r per unit level
    during exp(eta) off-periods.

    The decay factor over one off-period is exp(-r T) with T ~ exp(eta),
    i.e. a Beta(eta/r, 1) multiplier, so on-period ends follow the collapsed
    process with theta = eta/r. Off samples add one extra multiplier by
    memorylessness of the elapsed off time.
    """
    if eta <= 0 or r <= 0:
        raise DomainError("eta and r must be positive")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    sol = stationary_solution(model, lam, eta / r)
    on_weight = eta / (lam + eta)
    return on_weight * sol.lst(alpha) + (1.0 - on_weight) * sol.mean_lst_collapsed(alpha)
