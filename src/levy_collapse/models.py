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
from dataclasses import dataclass, field
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

# Arguments with alpha*scale above this make exp(-alpha*x) underflow anyway.
_EXP_UNDERFLOW = 700.0

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


def _upper_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) for z > 2 and real a.

    Legendre's continued fraction (DLMF 8.9.2), by modified Lentz. It has
    no pole at the non-positive integers and keeps its relative accuracy
    where Gamma(a, z) is as small as e^-z; for z > 2 and |a| <= ~12 it
    converges in at most ~66 steps, and in 4-9 for z >= 50. Orders above
    z + 1 would cost it digits (9e-9 relative at a = 12, z = 2); there
    Gamma(a, z) = Gamma(a) - gamma(a, z) with the lower function from its
    series of positive terms (DLMF 8.7.1), and gamma(a, z) is at most about
    half of Gamma(a), so the difference does not cancel. Only the highest
    derivatives of the root series ask for such orders.
    """
    if a > z + 1.0:
        term = total = 1.0 / a
        k = 1
        while term > 1e-17 * total:
            term *= z / (a + k)
            total += term
            k += 1
        return math.gamma(a) - z**a * math.exp(-z) * total
    b = z + 1.0 - a
    d = 1.0 / (b or 1e-300)
    c, h = 1e300, d
    for i in range(1, 200):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / ((an * d + b) or 1e-300)
        c = (b + an / c) or 1e-300
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return z**a * math.exp(-z) * h


def _gamma_series(c: float, z: float, kmin: int = 0) -> float:
    """Gamma(c) z^-c - sum_{k>=kmin} (-z)^k / (k! (k+c)); z^-c Gamma(c, z) at kmin = 0.

    Converges like the exponential series; intended for z <= ~2 where fewer
    than 30 terms reach double precision. Near c = -m + e with m >= kmin,
    Gamma(c) z^-c and the k = m term share the pole 1/e, and their sum is
    the pole-free (-z)^m/m! * expm1(e r)/e with
        r = lgamma(1+e)/e - log z - sum_{j=1..m} log1p(-e/j)/e.
    """
    m = round(-c)
    e = c + m
    merged = m >= kmin and abs(e) <= _NEAR_INT_DELTA
    if merged:
        # lgamma(1+e)/e by its Taylor series: the quotient itself would lose
        # log10(1/|e|) digits
        r = sum((-1) ** k * zeta * e ** (k - 1) / k for k, zeta in enumerate(_ZETA, 2))
        r -= np.euler_gamma + math.log(z)
        for j in range(1, m + 1):
            r -= math.log1p(-e / j) / e if e else -1.0 / j
        total = (-z) ** m / math.factorial(m) * (math.expm1(e * r) / e if e else r)
    else:
        total = math.gamma(c) * z ** -c
    term = 1.0  # (-z)^k / k!
    for k in range(60):
        if k >= kmin and not (merged and k == m):
            total -= term / (k + c)
        term *= -z / (k + 1)
        if k + 1 >= kmin and abs(term) < 1e-25 * (abs(total) + 1e-300):
            break
    return total


def _series_from_square(term: float, ratio) -> float:
    """sum_{j>=2} t_j with t_2 = term and t_(j+1) = t_j * ratio(j).

    The excess transforms lst - 1 + mean*alpha of closed-form jump laws
    start at their alpha^2 term, so summing from there keeps every digit
    the direct form cancels away at small alpha; callers keep |ratio| <= 1/2.
    """
    total, j = 0.0, 2
    while abs(term) > 1e-17 * abs(total):
        total += term
        term *= ratio(j)
        j += 1
    return total


# ---------------------------------------------------------------------------
# jump size distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential jump sizes with rate mu (mean 1/mu)."""

    mu: float

    def __post_init__(self):
        _require(self.mu > 0, "Exponential jumps need rate mu > 0", self)

    def lst(self, alpha: float) -> float:
        return self.mu / (self.mu + alpha)

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        # d^n/da^n mu/(mu+a) = (-1)^n n! mu / (mu+a)^{n+1}
        n = order
        return (-1.0) ** n * math.factorial(n) * self.mu / (self.mu + alpha) ** (n + 1)

    def one_minus_lst(self, alpha: float) -> float:
        return alpha / (self.mu + alpha)

    def moment(self, n: int) -> float:
        return math.factorial(n) / self.mu**n

    def excess_lst(self, alpha: float) -> float:
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
        _require(self.rate > 0, "Erlang rate must be > 0", self)

    def lst(self, alpha: float) -> float:
        return math.exp(-self.shape * math.log1p(alpha / self.rate))

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        # (r/(r+a))^k picks up a rising factorial per derivative order.
        k, r = self.shape, self.rate
        rising = 1.0
        for j in range(order):
            rising *= k + j
        return (-1.0) ** order * rising / r**order * self.lst(alpha) / (1.0 + alpha / r) ** order

    def one_minus_lst(self, alpha: float) -> float:
        return -math.expm1(-self.shape * math.log1p(alpha / self.rate))

    def moment(self, n: int) -> float:
        rising = 1.0
        for j in range(n):
            rising *= self.shape + j
        return rising / self.rate**n

    def excess_lst(self, alpha: float) -> float:
        """lst(alpha) - 1 + mean*alpha; the binomial series of (1+u)^-shape,
        u = alpha/rate, from its u^2 term while shape*|u| <= 1/2."""
        k, u = self.shape, alpha / self.rate
        if k * abs(u) > 0.5:
            return self.lst(alpha) - 1.0 + self.moment(1) * alpha
        return _series_from_square(0.5 * k * (k + 1) * u * u,
                                   lambda j: -(k + j) / (j + 1) * u)

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
        _require(self.delta > 1, "Pareto tail index delta must be > 1 (finite mean)", self)
        _require(self.xm > 0, "Pareto scale xm must be > 0", self)

    def lst(self, alpha: float) -> float:
        if alpha < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        s0 = alpha * self.xm  # 0 also when a subnormal alpha underflows
        if s0 == 0.0:
            return 1.0
        if s0 > _EXP_UNDERFLOW:
            return 0.0
        d = self.delta
        if s0 <= 2.0:
            return d * _gamma_series(-d, s0)
        return d * s0**d * _upper_gamma(-d, s0)

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        if alpha < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        s0 = alpha * self.xm
        if s0 == 0.0:
            if order < self.delta:
                return (-1.0) ** order * self.moment(order)
            raise ModelError(f"Pareto transform derivative of order {order} diverges at 0")
        if s0 > _EXP_UNDERFLOW:
            return 0.0
        d, xm, n = self.delta, self.xm, order
        # (-1)^n E B^n exp(-alpha B) = (-1)^n d xm^n s0^(d-n) Gamma(n-d, s0)
        if s0 <= 2.0:
            return (-1.0) ** n * d * xm**n * _gamma_series(n - d, s0)
        return (-1.0) ** n * d * xm**d * alpha ** (d - n) * _upper_gamma(n - d, s0)

    def one_minus_lst(self, alpha: float) -> float:
        if alpha == 0.0:
            return 0.0
        return self.moment(1) * alpha - self.excess_lst(alpha)

    def moment(self, n: int) -> float:
        if n >= self.delta:
            return math.inf
        return self.delta * self.xm**n / (self.delta - n)

    def excess_lst(self, alpha: float) -> float:
        """lst(alpha) - 1 + mean*alpha without subtractive cancellation.

        In the series form the k=0 and k=1 terms cancel the -1 and mean*alpha
        exactly, so the sum starts at k=2 and every retained digit is real.
        That is what makes small-alpha regular-variation checks meaningful.
        """
        if alpha < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        s0 = alpha * self.xm
        if s0 == 0.0:
            return 0.0
        if s0 > _EXP_UNDERFLOW:
            return self.moment(1) * alpha - 1.0
        if s0 <= 2.0:
            return self.delta * _gamma_series(-self.delta, s0, kmin=2)
        # lst is tiny and mean*alpha > 2 here, so the direct form is safe
        return self.lst(alpha) - 1.0 + self.moment(1) * alpha

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
        _require(self.size > 0, "Deterministic jump size must be > 0", self)

    def lst(self, alpha: float) -> float:
        return math.exp(-alpha * self.size)

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        return (-self.size) ** order * math.exp(-alpha * self.size)

    def one_minus_lst(self, alpha: float) -> float:
        return -math.expm1(-alpha * self.size)

    def moment(self, n: int) -> float:
        return self.size**n

    def excess_lst(self, alpha: float) -> float:
        """exp(-x) - 1 + x at x = alpha*size; the exponential series from
        its x^2 term while |x| <= 1/2."""
        x = alpha * self.size
        if abs(x) > 0.5:
            return self.lst(alpha) - 1.0 + x
        return _series_from_square(0.5 * x * x, lambda j: -x / (j + 1))

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
        _require(self.sigma2 >= 0, "sigma2 must be >= 0", self)

    def phi(self, alpha: float) -> float:
        return alpha * (-self.c + 0.5 * self.sigma2 * alpha)

    def phi_dn(self, alpha: float, n: int) -> float:
        """The n-th derivative of phi, n >= 1."""
        if n == 1:
            return -self.c + self.sigma2 * alpha
        return self.sigma2 if n == 2 else 0.0

    def phi_over_alpha(self, alpha: float) -> float:
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
        _require(self.d >= 0, "drain rate d must be >= 0", self)
        _require(self.gamma > 0, "jump rate gamma must be > 0 (a drain without "
                 "jumps is BrownianDrift(-d, 0))", self)
        _require(self.jumps is not None, "gamma > 0 requires a jump distribution", self)

    def phi(self, alpha: float) -> float:
        return self.d * alpha - self.gamma * self.jumps.one_minus_lst(alpha)

    def phi_dn(self, alpha: float, n: int) -> float:
        """The n-th derivative of phi, n >= 1."""
        return (self.d if n == 1 else 0.0) + self.gamma * self.jumps.lst_deriv(alpha, n)

    def phi_over_alpha(self, alpha: float) -> float:
        """phi(alpha)/alpha without cancellation, finite at alpha = 0.

        Writing 1 - beta(alpha) = mean*alpha - excess(alpha) turns the ratio
        into (d - gamma*mean) + gamma*excess(alpha)/alpha, which stays
        accurate however small alpha gets.
        """
        base = self.d - self.gamma * self.jumps.moment(1)
        if alpha == 0.0:
            return base
        return base + self.gamma * self.jumps.excess_lst(alpha) / alpha

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

    def phi(self, alpha: float) -> float:
        return sum(p.phi(alpha) for p in self.parts)

    def phi_dn(self, alpha: float, n: int) -> float:
        return sum(p.phi_dn(alpha, n) for p in self.parts)

    def phi_over_alpha(self, alpha: float) -> float:
        return sum(p.phi_over_alpha(alpha) for p in self.parts)

    def cumulant(self, n: int) -> float:
        return sum(p.cumulant(n) for p in self.parts)

    def sigma2_total(self) -> float:
        return sum(p.sigma2_total() for p in self.parts)

    def drift_rate(self) -> float:
        return sum(p.drift_rate() for p in self.parts)

    def jump_parts(self) -> tuple:
        out = ()
        for p in self.parts:
            out = out + p.jump_parts()
        return out

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
        _require(self.theta > 0, "Beta(theta, 1) needs theta > 0", self)

    def moment(self, n: int) -> float:
        return self.theta / (self.theta + n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size) ** (1.0 / self.theta)


@dataclass(frozen=True)
class Uniform01(Beta1):
    """Uniform(0, 1) collapse multipliers: Beta(1, 1), theta fixed at 1."""

    theta: float = field(default=1.0, init=False)


CollapseLaw = Beta1
