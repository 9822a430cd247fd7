"""Input catalog: spectrally positive Levy processes and collapse multiplier laws.

Every driving process X is parametrized through its Laplace exponent
phi(alpha) = log E exp(-alpha * X_1), which is finite and convex on
[0, infinity) for the whole catalog. Jump sizes are strictly positive, so
X has no negative jumps and the reflected process can be analyzed through
phi alone.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ModelError, QuadratureFailure

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
    "collapse_from_theta",
    "cumulant",
]

# Arguments with alpha*scale above this make exp(-alpha*x) underflow anyway.
_EXP_UNDERFLOW = 700.0

# tail indices closer to an integer than this fall back to quadrature: the
# incomplete-gamma forms divide by (k - delta) and lose one digit per decade
_NEAR_INT_DELTA = 1e-3


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelError(msg)


def _quad(fun, a, b, *, epsabs=1e-13, epsrel=1e-12, limit=200, points=None):
    """scipy.integrate.quad with failure promotion to QuadratureFailure.

    Only near-integer Pareto tails need it, so scipy.integrate (most of the
    package's import time) is imported on first use.
    """
    from scipy import integrate

    out = integrate.quad(fun, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                         points=points, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3 and abserr > max(1e3 * epsabs, 1e-7 * (abs(val) + 1.0)):
        raise QuadratureFailure(f"integral on [{a}, {b}] did not converge: {out[3]}")
    return val


def _upper_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) for z > 0 and real non-integer a.

    scipy's regularized gammaincc only accepts a > 0; negative orders follow
    from the downward recurrence Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z) / a.
    Each step cancels at most ~z/|a| of the leading digits, which for the
    z <= _EXP_UNDERFLOW, |a| <= ~12 range used here stays well inside double
    precision of the tiny values involved.
    """
    # imported here so that simulation never loads scipy.special; once it is
    # loaded, this form costs no more per call than a module-level import
    import scipy.special

    if a > 0.0:
        return math.gamma(a) * scipy.special.gammaincc(a, z)
    m = int(math.floor(-a)) + 1  # smallest shift with a + m > 0
    val = math.gamma(a + m) * scipy.special.gammaincc(a + m, z)
    ez = math.exp(-z)
    for j in range(m - 1, -1, -1):
        b = a + j
        val = (val - z**b * ez) / b
    return val


def _expint_series(c: float, z: float, kmin: int = 0) -> float:
    """sum_{k>=kmin} (-z)^k / (k! (k+c)), the entire part of z^-c Gamma(c, z).

    Converges like the exponential series; intended for z <= ~2 where fewer
    than 30 terms reach double precision.
    """
    total = 0.0
    term = 1.0  # (-z)^k / k!
    for k in range(60):
        if k >= kmin:
            total += term / (k + c)
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
        _require(self.mu > 0, "Exponential jumps need rate mu > 0")

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

    def mean(self) -> float:
        return 1.0 / self.mu

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
                 "Erlang shape must be an integer >= 1")
        _require(self.rate > 0, "Erlang rate must be > 0")

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

    def mean(self) -> float:
        return self.shape / self.rate

    def excess_lst(self, alpha: float) -> float:
        """lst(alpha) - 1 + mean*alpha; the binomial series of (1+u)^-shape,
        u = alpha/rate, from its u^2 term while shape*|u| <= 1/2."""
        k, u = self.shape, alpha / self.rate
        if k * abs(u) > 0.5:
            return self.lst(alpha) - 1.0 + self.mean() * alpha
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
    evaluated by a power series for small arguments and a downward gamma
    recurrence otherwise. Tail indices within _NEAR_INT_DELTA of an integer
    sit too close to the poles of those formulas and fall back to adaptive
    quadrature after the substitution x = xm/(1-t).
    """

    delta: float
    xm: float

    def __post_init__(self):
        _require(self.delta > 1, "Pareto tail index delta must be > 1 (finite mean)")
        _require(self.xm > 0, "Pareto scale xm must be > 0")

    def _near_integer(self) -> bool:
        return abs(self.delta - round(self.delta)) <= _NEAR_INT_DELTA

    def lst(self, alpha: float) -> float:
        if alpha == 0.0:
            return 1.0
        if alpha < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        s0 = alpha * self.xm
        if s0 > _EXP_UNDERFLOW:
            return 0.0
        d = self.delta
        if self._near_integer():
            return _quad(lambda t: d * (1.0 - t) ** (d - 1.0) * math.exp(-s0 / (1.0 - t)),
                         0.0, 1.0)
        if s0 <= 2.0:
            return -math.gamma(1.0 - d) * s0**d - d * _expint_series(-d, s0)
        return d * s0**d * _upper_gamma(-d, s0)

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        if alpha <= 0.0:
            if alpha < 0.0:
                raise ModelError("Pareto transform diverges for alpha < 0")
            if order < self.delta:
                return (-1.0) ** order * self.moment(order)
            raise ModelError(f"Pareto transform derivative of order {order} diverges at 0")
        s0 = alpha * self.xm
        if s0 > _EXP_UNDERFLOW:
            return 0.0
        d, xm, n = self.delta, self.xm, order
        if self._near_integer():
            val = _quad(lambda t: d * (1.0 - t) ** (d - 1.0 - n) * math.exp(-s0 / (1.0 - t)),
                        0.0, 1.0)
            return (-1.0) ** n * xm**n * val
        c = n - d
        if c > 0.0:
            import scipy.special

            g = math.gamma(c) * scipy.special.gammaincc(c, s0)
            return (-1.0) ** n * d * xm**d * alpha ** (d - n) * g
        # order below delta: finite limit (-1)^n moment(n) as alpha -> 0
        if s0 < 1e-250:
            return (-1.0) ** n * self.moment(n)
        if s0 <= 2.0:
            val = d * xm**d * alpha ** (d - n) * math.gamma(c) - d * xm**n * _expint_series(c, s0)
            return (-1.0) ** n * val
        return (-1.0) ** n * d * xm**d * alpha ** (d - n) * _upper_gamma(c, s0)

    def one_minus_lst(self, alpha: float) -> float:
        if alpha == 0.0:
            return 0.0
        return self.mean() * alpha - self.excess_lst(alpha)

    def moment(self, n: int) -> float:
        if n >= self.delta:
            return math.inf
        return self.delta * self.xm**n / (self.delta - n)

    def mean(self) -> float:
        return self.delta * self.xm / (self.delta - 1.0)

    def excess_lst(self, alpha: float) -> float:
        """lst(alpha) - 1 + mean*alpha without subtractive cancellation.

        In the series form the k=0 and k=1 terms cancel the -1 and mean*alpha
        exactly, so the sum starts at k=2 and every retained digit is real.
        That is what makes small-alpha regular-variation checks meaningful.
        """
        if alpha == 0.0:
            return 0.0
        if alpha < 0.0:
            raise ModelError("Pareto transform diverges for alpha < 0")
        s0 = alpha * self.xm
        d = self.delta
        if self._near_integer():
            return self._excess_quad(s0)
        if s0 > _EXP_UNDERFLOW:
            return self.mean() * alpha - 1.0
        if s0 <= 2.0:
            return -math.gamma(1.0 - d) * s0**d - d * _expint_series(-d, s0, kmin=2)
        # lst is tiny and mean*alpha > 2 here, so the direct form is safe
        return self.lst(alpha) - 1.0 + self.mean() * alpha

    def _excess_quad(self, s0: float) -> float:
        d = self.delta

        def body(s):
            if s < 1e-4:
                return (0.5 * s * s - s**3 / 6.0 + s**4 / 24.0) * s ** (-d - 1.0)
            return (math.exp(-s) - 1.0 + s) * s ** (-d - 1.0)

        cut = max(1.0, s0)
        val = _quad(body, cut, math.inf)
        if s0 < cut:
            # s = s0*exp(v) spreads the s^(1-delta) spike at the lower end
            # into a bounded integrand; without it the integral is slowly
            # convergent for delta > 2
            val += _quad(lambda v: body(s0 * math.exp(v)) * s0 * math.exp(v),
                         0.0, math.log(cut / s0))
        return d * s0**d * val

    def lst_abs_tol(self) -> float:
        dist = abs(self.delta - round(self.delta))
        if dist <= _NEAR_INT_DELTA:
            return 5e-13  # adaptive quadrature floor
        # gamma-form roundoff grows like 1/distance-to-pole
        return 4e-16 / min(1.0, dist)

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
        _require(self.size > 0, "Deterministic jump size must be > 0")

    def lst(self, alpha: float) -> float:
        return math.exp(-alpha * self.size)

    def lst_deriv(self, alpha: float, order: int = 1) -> float:
        return (-self.size) ** order * math.exp(-alpha * self.size)

    def one_minus_lst(self, alpha: float) -> float:
        return -math.expm1(-alpha * self.size)

    def moment(self, n: int) -> float:
        return self.size**n

    def mean(self) -> float:
        return self.size

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
    """X_t = c*t + sigma*B_t with phi(alpha) = -c*alpha + sigma2*alpha^2/2."""

    c: float
    sigma2: float

    def __post_init__(self):
        _require(self.sigma2 >= 0, "sigma2 must be >= 0")

    def phi(self, alpha: float) -> float:
        return alpha * (-self.c + 0.5 * self.sigma2 * alpha)

    def phi_deriv(self, alpha: float) -> float:
        return -self.c + self.sigma2 * alpha

    def phi_dn(self, alpha: float, n: int) -> float:
        if n == 1:
            return self.phi_deriv(alpha)
        return self.sigma2 if n == 2 else 0.0

    def phi_over_alpha(self, alpha: float) -> float:
        return -self.c + 0.5 * self.sigma2 * alpha

    def cumulant(self, n: int) -> float:
        if n == 1:
            return self.c
        if n == 2:
            return self.sigma2
        return 0.0

    def phi_over_alpha_limit(self) -> float:
        return math.inf if self.sigma2 > 0 else -self.c

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
    """Compound Poisson jumps at rate gamma minus deterministic drain at rate d.

    phi(alpha) = d*alpha - gamma*(1 - beta(alpha)) with beta the jump size
    transform. d = 0 (pure subordinator) is representable so the root finder
    can reject it with a precise error; the CLI refuses it outright.
    """

    d: float
    gamma: float
    jumps: Union[JumpDist, None] = None

    def __post_init__(self):
        _require(self.d >= 0, "drain rate d must be >= 0")
        _require(self.gamma >= 0, "jump rate gamma must be >= 0")
        if self.gamma > 0:
            _require(self.jumps is not None, "gamma > 0 requires a jump distribution")

    def phi(self, alpha: float) -> float:
        if self.gamma == 0.0:
            return self.d * alpha
        return self.d * alpha - self.gamma * self.jumps.one_minus_lst(alpha)

    def phi_deriv(self, alpha: float) -> float:
        if self.gamma == 0.0:
            return self.d
        return self.d + self.gamma * self.jumps.lst_deriv(alpha, 1)

    def phi_dn(self, alpha: float, n: int) -> float:
        if n == 1:
            return self.phi_deriv(alpha)
        if self.gamma == 0.0:
            return 0.0
        return self.gamma * self.jumps.lst_deriv(alpha, n)

    def phi_over_alpha(self, alpha: float) -> float:
        """phi(alpha)/alpha without cancellation, finite at alpha = 0.

        Writing 1 - beta(alpha) = mean*alpha - excess(alpha) turns the ratio
        into (d - gamma*mean) + gamma*excess(alpha)/alpha, which stays
        accurate however small alpha gets.
        """
        if self.gamma == 0.0:
            return self.d
        base = self.d - self.gamma * self.jumps.mean()
        if alpha == 0.0:
            return base
        return base + self.gamma * self.jumps.excess_lst(alpha) / alpha

    def cumulant(self, n: int) -> float:
        if n == 1:
            mean_jump = self.jumps.mean() if self.gamma > 0 else 0.0
            return self.gamma * mean_jump - self.d
        if self.gamma == 0.0:
            return 0.0
        return self.gamma * self.jumps.moment(n)

    def phi_over_alpha_limit(self) -> float:
        return self.d

    def sigma2_total(self) -> float:
        return 0.0

    def drift_rate(self) -> float:
        return -self.d

    def jump_parts(self) -> tuple:
        if self.gamma == 0.0:
            return ()
        return ((self.gamma, self.jumps),)

    def min_alpha(self) -> float:
        return self.jumps.min_alpha() if self.gamma > 0 else -math.inf


@dataclass(frozen=True)
class Sum:
    """Independent sum of catalog processes; Laplace exponents add."""

    parts: tuple

    def __post_init__(self):
        _require(len(self.parts) >= 1, "Sum needs at least one part")
        for p in self.parts:
            _require(isinstance(p, (BrownianDrift, CppMinusDrift)),
                     "Sum parts must be BrownianDrift or CppMinusDrift")

    def phi(self, alpha: float) -> float:
        return sum(p.phi(alpha) for p in self.parts)

    def phi_deriv(self, alpha: float) -> float:
        return sum(p.phi_deriv(alpha) for p in self.parts)

    def phi_dn(self, alpha: float, n: int) -> float:
        return sum(p.phi_dn(alpha, n) for p in self.parts)

    def phi_over_alpha(self, alpha: float) -> float:
        return sum(p.phi_over_alpha(alpha) for p in self.parts)

    def cumulant(self, n: int) -> float:
        return sum(p.cumulant(n) for p in self.parts)

    def phi_over_alpha_limit(self) -> float:
        return sum(p.phi_over_alpha_limit() for p in self.parts)

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


def cumulant(model: LevyModel, n: int) -> float:
    """c_n = (-1)^n phi^(n)(0); +infinity when the jump moment diverges."""
    if n < 0:
        raise ModelError("cumulant order must be >= 0")
    if n == 0:
        return 0.0
    return model.cumulant(n)


# ---------------------------------------------------------------------------
# collapse multiplier laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform01:
    """Uniform(0, 1) collapse multipliers."""

    @property
    def theta(self) -> float:
        return 1.0

    def moment(self, n: int) -> float:
        return 1.0 / (1.0 + n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)


@dataclass(frozen=True)
class Beta1:
    """Beta(theta, 1) collapse multipliers: CDF u^theta on (0, 1)."""

    theta_: float

    def __post_init__(self):
        _require(self.theta_ > 0, "Beta(theta, 1) needs theta > 0")

    @property
    def theta(self) -> float:
        return self.theta_

    def moment(self, n: int) -> float:
        return self.theta_ / (self.theta_ + n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size) ** (1.0 / self.theta_)


CollapseLaw = Union[Uniform01, Beta1]


def collapse_from_theta(theta: float) -> CollapseLaw:
    return Uniform01() if theta == 1.0 else Beta1(theta)

