"""Input catalog: spectrally positive Levy processes and collapse multiplier laws.

Every driving process X is parametrized through its Laplace exponent
phi(alpha) = log E exp(-alpha * X_1), which is finite and convex on
[0, infinity) for the whole catalog. Jump sizes are strictly positive, so
X has no negative jumps and the reflected process can be analyzed through
phi alone.

Each object has one representation: a Brownian part with drift
(BrownianDrift), compound Poisson jumps at a positive rate minus a linear
drain (CppMinusDrift), and independent sums of these (Sum). A drain without
jumps is BrownianDrift(-d, 0). The collapse multipliers are Beta(theta, 1)
(Beta1); the uniform law is Beta(1, 1) (Uniform01).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ModelError

__all__ = [
    "Exponential",
    "Erlang",
    "Pareto",
    "Deterministic",
    "JumpDist",
    "BrownianDrift",
    "CppMinusDrift",
    "Sum",
    "LevyModel",
    "Uniform01",
    "Beta1",
    "CollapseLaw",
]

# Regions of s = alpha*xm: beyond 700 exp(-alpha*B) underflows anyway, and up
# to 2 the Pareto transforms take their power series
_is_zero, _small, _underflows = (lambda s: s == 0.0), (lambda s: s <= 2.0), (lambda s: s > 700.0)

# Gamma(c) z^-c and the k = m term of the incomplete-gamma series both have a
# pole at c = -m; within this distance of it they are summed as one pole-free
# term (_gamma_series)
_NEAR_INT_DELTA = 1e-3

# zeta(2), ..., zeta(6): lgamma(1+e)/e = -euler_gamma + sum_k (-1)^k zeta(k) e^(k-1)/k
# to double precision for |e| <= _NEAR_INT_DELTA
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
         1.03692775514337, 1.0173430619844492)


def _require(cond: bool, msg: str, obj) -> None:
    if not cond:
        raise ModelError(f"{msg}: {obj!r}")


# Transforms and exponents take a float, giving a Python float, or an array,
# giving one of its shape; _xp names the module of the argument's exp and log.
def _xp(x):
    return np if isinstance(x, np.ndarray) else math


def _least(x) -> float:
    return x.min(initial=math.inf) if isinstance(x, np.ndarray) else x


def _regions(x, *branches):
    """fun(x) of the first branch (test, fun) whose test holds (the last
    one's is None). A float takes one branch and returns a float; an array
    is split by masks, and each branch function is called once, on its part."""
    if not isinstance(x, np.ndarray):
        return next(float(fun(x)) for test, fun in branches if test is None or test(x))
    out, left = np.empty(x.shape), np.ones(x.shape, dtype=bool)
    for test, fun in branches:
        hit = left if test is None else left & test(x)
        if hit.any():
            out[hit] = fun(x[hit])
            left &= ~hit
    return out


def _horner(coefs: tuple, lims: list, x):
    """sum_j coefs[j] x^j by Horner's rule, to the last term that matters."""
    n = bisect_left(lims, -_least(-abs(x)))
    acc = coefs[n - 1]
    for c in reversed(coefs[:n - 1]):
        acc = acc * x + c
    return acc


def _truncation(coefs: tuple) -> list:
    """lims[n]: the largest |x| at which every term j >= n of the series is
    below 1e-19 of its first nonzero term (-1 up to that term)."""
    c = np.abs(np.array(coefs))
    j0 = int(np.flatnonzero(c)[0])
    with np.errstate(divide="ignore"):  # a zero coefficient limits nothing
        xj = (1e-19 * c[j0] / c[j0 + 1:]) ** (1.0 / np.arange(1, len(c) - j0))
    return [-1.0] * (j0 + 1) + np.minimum.accumulate(xj[::-1])[::-1].tolist() + [math.inf]


def _upper_gamma(a: float, z):
    """Upper incomplete gamma Gamma(a, z) for z > 2 and real a <= z + 1.

    Legendre's continued fraction (DLMF 8.9.2), run backward from a depth
    set by the least z of the call (forward Lentz needs at most 70 steps at
    z = 2.0001, 6 at z = 700, for |a| <= 12): no pole at the non-positive
    integers, and relative accuracy where Gamma(a, z) is as small as e^-z.
    Above z + 1 it would lose digits (9e-9 at a = 12, z = 2), so it refuses:
    the package asks for a = n - delta < 1 only, n <= 2 the order of the
    Pareto transform, and higher orders are served for z >= a - 1."""
    zmin = _least(z)
    if a > zmin + 1.0:
        raise ModelError(f"upper incomplete gamma of order {a:g} is not served "
                         f"below z = {a - 1.0:g} (a Pareto transform derivative of high order)")
    depth = 12 + math.ceil(120.0 / zmin)
    h = z + (2 * depth + 1 - a)
    for i in range(depth, 0, -1):
        h = (z + (2 * i - 1 - a)) - i * (i - a) / h
    return z**a * _xp(z).exp(-z) / h


@lru_cache(maxsize=256)
def _series_terms(c: float, kmin: int) -> tuple:
    """`_gamma_series` at (c, kmin): its lead term, a function of z, and the
    coefficients (-1)^k / (k! (k+c)), k >= kmin, with their truncation limits."""
    m = round(-c)
    e = c + m
    merged = m >= kmin and abs(e) <= _NEAR_INT_DELTA
    coefs = tuple(0.0 if merged and k == m else (-1.0) ** k / (math.factorial(k) * (k + c))
                  for k in range(kmin, kmin + 34))
    if not merged:
        gam = math.gamma(c)
        return (lambda z: gam * z ** -c), coefs, _truncation(coefs)
    # lgamma(1+e)/e by its Taylor series: the quotient itself would lose
    # log10(1/|e|) digits
    r0 = sum((-1) ** k * zeta * e ** (k - 1) / k for k, zeta in enumerate(_ZETA, 2))
    r0 -= np.euler_gamma + sum(math.log1p(-e / j) / e if e else -1.0 / j
                               for j in range(1, m + 1))

    def lead(z):
        r = r0 - _xp(z).log(z)
        return (-z) ** m / math.factorial(m) * (_xp(z).expm1(e * r) / e if e else r)
    return lead, coefs, _truncation(coefs)


def _gamma_series(c: float, z, kmin: int = 0):
    """Gamma(c) z^-c - sum_{k>=kmin} (-z)^k / (k! (k+c)); z^-c Gamma(c, z) at kmin = 0.

    For z <= 2, where 34 terms reach double precision, by Horner's rule
    (`_series_terms`). Near c = -m + e with m >= kmin, Gamma(c) z^-c and the
    k = m term share the pole 1/e; their sum is the pole-free (-z)^m/m! * expm1(e r)/e with
        r = lgamma(1+e)/e - log z - sum_{j=1..m} log1p(-e/j)/e.
    """
    lead, coefs, lims = _series_terms(c, kmin)
    return lead(z) - z**kmin * _horner(coefs, lims, z)


@lru_cache(maxsize=16)
def _excess_terms(shape: int) -> tuple:
    """Coefficients of u^j, j >= 2, of (1+u)^-shape, the Erlang excess at
    u = alpha/rate (shape 0: of exp(-u), the deterministic excess), and
    their truncation limits (`_horner` sums them where k|u| <= 1/2)."""
    coefs = [0.5 * shape * (shape + 1) if shape else 0.5]
    for j in range(2, 70):
        coefs.append(coefs[-1] * (-(shape + j) / (j + 1) if shape else -1.0 / (j + 1)))
    return tuple(coefs), _truncation(coefs)


# ---------------------------------------------------------------------------
# jump size distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential jump sizes with rate mu (mean 1/mu)."""

    mu: float

    def __post_init__(self):
        _require(0 < self.mu < math.inf, "Exponential jumps need a finite rate mu > 0", self)

    def lst(self, alpha):
        return self.mu / (self.mu + alpha)

    def lst_deriv(self, alpha, order: int = 1):
        # d^n/da^n mu/(mu+a) = (-1)^n n! mu / (mu+a)^{n+1}
        return (-1.0) ** order * math.factorial(order) * self.mu / (self.mu + alpha) ** (order + 1)

    def moment(self, n: int) -> float:
        return math.factorial(n) / self.mu**n

    def excess_lst(self, alpha):
        """lst(alpha) - 1 + mean*alpha, computed without cancellation."""
        return alpha * alpha / (self.mu * (self.mu + alpha))

    def lst_abs_tol(self) -> float:
        return 0.0  # closed form, rounding level only

    def min_alpha(self) -> float:
        return -0.5 * self.mu

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.mu, size)


@dataclass(frozen=True)
class Erlang:
    """Erlang(shape, rate) jump sizes: sum of `shape` exponentials."""

    shape: int
    rate: float

    def __post_init__(self):
        _require(isinstance(self.shape, int) and self.shape >= 1,
                 "Erlang shape must be an integer >= 1", self)
        _require(0 < self.rate < math.inf, "Erlang rate must be finite and > 0", self)

    def lst(self, alpha):
        return _xp(alpha).exp(-self.shape * _xp(alpha).log1p(alpha / self.rate))

    def lst_deriv(self, alpha, order: int = 1):
        # (r/(r+a))^k picks up a rising factorial per derivative order.
        k, r = self.shape, self.rate
        rising = math.prod(range(k, k + order))
        return (-1.0) ** order * rising / r**order * self.lst(alpha) / (1.0 + alpha / r) ** order

    def moment(self, n: int) -> float:
        return math.prod(range(self.shape, self.shape + n)) / self.rate**n

    def excess_lst(self, alpha):
        """lst(alpha) - 1 + mean*alpha; the binomial series of (1+u)^-shape,
        u = alpha/rate, from its u^2 term while shape*|u| <= 1/2."""
        k, (coefs, lims) = self.shape, _excess_terms(self.shape)
        return _regions(alpha / self.rate,
                        (lambda u: k * abs(u) > 0.5,
                         lambda u: _xp(u).exp(-k * _xp(u).log1p(u)) - 1.0 + k * u),
                        (None, lambda u: u * u * _horner(coefs, lims, u)))

    def lst_abs_tol(self) -> float:
        return 0.0

    def min_alpha(self) -> float:
        return -0.5 * self.rate

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(float(self.shape), 1.0 / self.rate, size)


@dataclass(frozen=True)
class Pareto:
    """Pareto jump sizes: P(B > t) = (xm/t)^delta for t >= xm, tail index delta.

    delta must exceed 1 so the jumps have finite mean. The transform is the
    incomplete-gamma identity lst = delta*(alpha*xm)^delta * Gamma(-delta, alpha*xm),
    evaluated by a power series for small arguments and Legendre's continued
    fraction otherwise. Neither has a pole at integer tail indices (see
    _NEAR_INT_DELTA), so every delta takes the same path.
    """

    delta: float
    xm: float

    def __post_init__(self):
        _require(1 < self.delta < math.inf,
                 "Pareto tail index delta must be finite and > 1 (finite mean)", self)
        _require(0 < self.xm < math.inf, "Pareto scale xm must be finite and > 0", self)

    def _scaled(self, alpha):
        if _least(alpha) < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        return alpha * self.xm  # 0 also when a subnormal alpha underflows

    def lst(self, alpha):
        return self.lst_deriv(alpha, 0)

    def lst_deriv(self, alpha, order: int = 1):
        d, xm, n, s0 = self.delta, self.xm, order, self._scaled(alpha)
        if n >= d and _least(s0) == 0.0:
            raise ModelError(f"Pareto transform derivative of order {n} diverges at 0")
        # (-1)^n E B^n exp(-alpha B) = (-1)^n d xm^n s0^(d-n) Gamma(n-d, s0)
        return (-1.0) ** n * _regions(
            s0, (_is_zero, lambda s: self.moment(n)), (_underflows, lambda s: 0.0),
            (_small, lambda s: d * xm**n * _gamma_series(n - d, s)),
            (None, lambda s: d * xm**n * s ** (d - n) * _upper_gamma(n - d, s)))

    def moment(self, n: int) -> float:
        if n >= self.delta:
            return math.inf
        return self.delta * self.xm**n / (self.delta - n)

    def excess_lst(self, alpha):
        """lst(alpha) - 1 + mean*alpha without subtractive cancellation.

        In the series form the k=0 and k=1 terms cancel the -1 and mean*alpha
        exactly, so the sum starts at k=2 and every retained digit is real.
        That is what makes small-alpha regular-variation checks meaningful.
        Beyond s = 2 lst is tiny and mean*alpha = d/(d-1) s > 2: direct form.
        """
        d = self.delta
        return _regions(self._scaled(alpha), (_is_zero, lambda s: 0.0),
                        (_underflows, lambda s: d / (d - 1.0) * s - 1.0),
                        (_small, lambda s: d * _gamma_series(-d, s, 2)),
                        (None, lambda s: d * s**d * _upper_gamma(-d, s) - 1.0
                         + d / (d - 1.0) * s))

    def lst_abs_tol(self) -> float:
        # gamma-form roundoff grows like 1/distance-to-pole until the
        # pole-free forms take over
        dist = abs(self.delta - round(self.delta))
        return 4e-16 / min(1.0, max(dist, _NEAR_INT_DELTA))

    def min_alpha(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # inverse CDF; 1-U lies in (0, 1] so the power never overflows
        return self.xm * (1.0 - rng.random(size)) ** (-1.0 / self.delta)


@dataclass(frozen=True)
class Deterministic:
    """Jumps of a fixed positive size."""

    size: float

    def __post_init__(self):
        _require(0 < self.size < math.inf, "Deterministic jump size must be finite and > 0", self)

    def lst(self, alpha):
        return _xp(alpha).exp(-alpha * self.size)

    def lst_deriv(self, alpha, order: int = 1):
        return (-self.size) ** order * _xp(alpha).exp(-alpha * self.size)

    def moment(self, n: int) -> float:
        return self.size**n

    def excess_lst(self, alpha):
        """exp(-x) - 1 + x at x = alpha*size; the exponential series from
        its x^2 term while |x| <= 1/2."""
        coefs, lims = _excess_terms(0)
        return _regions(alpha * self.size,
                        (lambda x: abs(x) > 0.5, lambda x: _xp(x).exp(-x) - 1.0 + x),
                        (None, lambda x: x * x * _horner(coefs, lims, x)))

    def lst_abs_tol(self) -> float:
        return 0.0

    def min_alpha(self) -> float:
        return -math.inf

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.size)


JumpDist = Union[Exponential, Erlang, Pareto, Deterministic]


# ---------------------------------------------------------------------------
# driving processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrownianDrift:
    """X_t = c*t + sigma*B_t with phi(alpha) = -c*alpha + sigma2*alpha^2/2.

    sigma2 = 0 leaves a pure drift: a drain at rate d without jumps is
    BrownianDrift(-d, 0).
    """

    c: float
    sigma2: float

    def __post_init__(self):
        _require(math.isfinite(self.c), "drift c must be finite", self)
        _require(0 <= self.sigma2 < math.inf, "sigma2 must be finite and >= 0", self)

    def phi(self, alpha):
        return alpha * (-self.c + 0.5 * self.sigma2 * alpha)

    def phi_dn(self, alpha, n: int):
        """The n-th derivative of phi, n >= 1 (the package asks for n <= 2)."""
        if n == 1:
            return -self.c + self.sigma2 * alpha
        return (self.sigma2 if n == 2 else 0.0) + 0.0 * alpha

    def phi_over_alpha(self, alpha):
        return -self.c + 0.5 * self.sigma2 * alpha

    def cumulant(self, n: int) -> float:
        """c_n = (-1)^n phi^(n)(0), n >= 0."""
        _require(n >= 0, "cumulant order must be >= 0", n)
        if n == 1:
            return self.c
        return self.sigma2 if n == 2 else 0.0

    def sigma2_total(self) -> float:
        return self.sigma2

    def drift_rate(self) -> float:
        return self.c

    def jump_parts(self) -> tuple:
        return ()

    def min_alpha(self) -> float:
        return -math.inf


@dataclass(frozen=True)
class CppMinusDrift:
    """Compound Poisson jumps at rate gamma > 0 minus a linear drain at rate d.

    phi(alpha) = d*alpha - gamma*(1 - beta(alpha)) with beta the jump size
    transform. A drain without jumps is BrownianDrift(-d, 0). d = 0 (pure
    subordinator) is representable so the root finder can reject it with a
    precise error; the CLI refuses it outright.
    """

    d: float
    gamma: float
    jumps: JumpDist

    def __post_init__(self):
        _require(0 <= self.d < math.inf, "drain rate d must be finite and >= 0", self)
        _require(0 < self.gamma < math.inf, "jump rate gamma must be finite and > 0 (a "
                 "drain without jumps is BrownianDrift(-d, 0))", self)
        _require(self.jumps is not None, "gamma > 0 requires a jump distribution", self)

    def phi(self, alpha):
        return alpha * self.phi_over_alpha(alpha)

    def phi_dn(self, alpha, n: int):
        """The n-th derivative of phi, n >= 1 (the package asks for n <= 2)."""
        return (self.d if n == 1 else 0.0) + self.gamma * self.jumps.lst_deriv(alpha, n)

    def phi_over_alpha(self, alpha):
        """phi(alpha)/alpha without cancellation, finite at alpha = 0.

        Writing 1 - beta(alpha) = mean*alpha - excess(alpha) turns the ratio
        into (d - gamma*mean) + gamma*excess(alpha)/alpha, which stays
        accurate however small alpha gets. Beyond mean*alpha = 1, where its
        terms cancel if gamma*mean >> d, it is d - gamma*(1 - beta(alpha))/alpha.
        """
        d, g, jumps = self.d, self.gamma, self.jumps
        mean = jumps.moment(1)
        return _regions(alpha, (_is_zero, lambda a: d - g * mean),
                        (lambda a: mean * a > 1.0, lambda a: d - g * (1.0 - jumps.lst(a)) / a),
                        (None, lambda a: d - g * mean + g * jumps.excess_lst(a) / a))

    def cumulant(self, n: int) -> float:
        """c_n = (-1)^n phi^(n)(0), n >= 0; +infinity when the jump moment diverges."""
        _require(n >= 0, "cumulant order must be >= 0", n)
        if n == 0:
            return 0.0
        return self.gamma * self.jumps.moment(n) - (self.d if n == 1 else 0.0)

    def sigma2_total(self) -> float:
        return 0.0

    def drift_rate(self) -> float:
        return -self.d

    def jump_parts(self) -> tuple:
        return ((self.gamma, self.jumps),)

    def min_alpha(self) -> float:
        return self.jumps.min_alpha()


@dataclass(frozen=True)
class Sum:
    """Independent sum of catalog processes; Laplace exponents add."""

    parts: tuple

    def __post_init__(self):
        _require(len(self.parts) >= 1, "Sum needs at least one part", self)
        for p in self.parts:
            _require(isinstance(p, (BrownianDrift, CppMinusDrift)),
                     "Sum parts must be BrownianDrift or CppMinusDrift", self)

    def phi(self, alpha):
        return sum(p.phi(alpha) for p in self.parts)

    def phi_dn(self, alpha, n: int):
        return sum(p.phi_dn(alpha, n) for p in self.parts)

    def phi_over_alpha(self, alpha):
        return sum(p.phi_over_alpha(alpha) for p in self.parts)

    def cumulant(self, n: int) -> float:
        return sum(p.cumulant(n) for p in self.parts)

    def sigma2_total(self) -> float:
        return sum(p.sigma2_total() for p in self.parts)

    def drift_rate(self) -> float:
        return sum(p.drift_rate() for p in self.parts)

    def jump_parts(self) -> tuple:
        return sum((p.jump_parts() for p in self.parts), ())

    def min_alpha(self) -> float:
        return max(p.min_alpha() for p in self.parts)


LevyModel = Union[BrownianDrift, CppMinusDrift, Sum]


# ---------------------------------------------------------------------------
# collapse multiplier laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Beta1:
    """Beta(theta, 1) collapse multipliers: CDF u^theta on (0, 1)."""

    theta: float

    def __post_init__(self):
        _require(0 < self.theta < math.inf, "Beta(theta, 1) needs a finite theta > 0", self)

    def moment(self, n: int) -> float:
        return self.theta / (self.theta + n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size) ** (1.0 / self.theta)


@dataclass(frozen=True)
class Uniform01(Beta1):
    """Uniform(0, 1) collapse multipliers: Beta(1, 1), theta fixed at 1."""

    theta: float = field(default=1.0, init=False)


CollapseLaw = Beta1
