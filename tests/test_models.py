"""Model layer: Laplace exponents, cumulants, jump transforms, collapse laws."""

import math

import numpy as np
import pytest

from levy_collapse import (
    Beta1,
    BrownianDrift,
    CppMinusDrift,
    Deterministic,
    Erlang,
    Exponential,
    ModelError,
    Pareto,
    Sum,
    Uniform01,
    cumulant,
    sample_unit_increment,
)
from levy_collapse import models

import reference_values as ref

BM = BrownianDrift(0.0, 2.0)
MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
MIX = Sum((BrownianDrift(0.3, 1.5), CppMinusDrift(0.2, 0.7, Exponential(1.1))))
CATALOG = (
    BM,
    BrownianDrift(-0.7, 3.0),
    MM1,
    CppMinusDrift(1.3, 0.9, Erlang(2, 3.0)),
    CppMinusDrift(1.0, 0.7, Deterministic(1.2)),
    CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0)),
    MIX,
)


# ---------------------------------------------------------------------------
# phi / phi_deriv
# ---------------------------------------------------------------------------


def test_exponent_is_zero_at_zero_for_every_model():
    for model in CATALOG:
        assert model.phi(0.0) == 0.0


def test_exponent_matches_hand_values():
    assert BM.phi(2.0) == pytest.approx(4.0, abs=1e-14)
    # d*alpha - gamma*(1 - mu/(mu+alpha)) at alpha = 2
    assert MM1.phi(2.0) == pytest.approx(1.5, abs=1e-14)


def test_exponent_derivative_matches_hand_values():
    assert BM.phi_deriv(1.0) == pytest.approx(2.0, abs=1e-14)
    assert BrownianDrift(0.8, 1.0).phi_deriv(0.0) == pytest.approx(
        -0.8, abs=1e-15)
    assert MM1.phi_deriv(0.0) == pytest.approx(0.5, abs=1e-14)


def test_exponent_derivative_agrees_with_differences():
    h = 1e-6
    for model in CATALOG[:5]:
        for alpha in (0.3, 1.0, 2.4):
            fd = (model.phi(alpha + h)
                  - model.phi(alpha - h)) / (2.0 * h)
            assert model.phi_deriv(alpha) == pytest.approx(
                fd, rel=1e-7, abs=1e-7)


def test_exponent_is_convex_on_random_grids():
    rng = np.random.default_rng(42)
    for model in CATALOG:
        for _ in range(5):
            grid = np.sort(rng.uniform(0.0, 6.0, 30))
            vals = np.array([model.phi(a) for a in grid])
            d1 = np.diff(vals) / np.diff(grid)
            mids = (grid[1:] + grid[:-1]) / 2.0
            d2 = np.diff(d1) / np.diff(mids)
            assert d2.min() >= -1e-10


def test_sum_exponent_is_exact_sum_of_parts():
    for alpha in (0.0, 0.37, 1.0, 4.2):
        parts = sum(p.phi(alpha) for p in MIX.parts)
        assert MIX.phi(alpha) == parts


def test_exponent_matches_simulated_increments():
    # log E e^{-alpha X_1} from 1e6 draws, within 4 standard errors
    rng = np.random.default_rng(2718)
    for model in (BM, MM1, MIX):
        x = sample_unit_increment(model, rng, 1_000_000)
        for alpha in (0.3, 1.0):
            e = np.exp(-alpha * x)
            m = e.mean()
            se = e.std(ddof=1) / math.sqrt(e.size)
            est = math.log(m)
            tol = 4.0 * se / m  # delta method for log
            assert abs(est - model.phi(alpha)) <= tol


# ---------------------------------------------------------------------------
# cumulant
# ---------------------------------------------------------------------------


def test_cumulants_of_brownian_input():
    assert cumulant(BM, 2) == 2.0
    assert cumulant(BM, 3) == 0.0
    assert cumulant(BrownianDrift(0.4, 2.0), 1) == 0.4


def test_cumulants_of_compound_input():
    # c1 = gamma*EB - d; c_n = gamma*E B^n for n >= 2
    assert cumulant(MM1, 1) == pytest.approx(-0.5, abs=1e-14)
    assert cumulant(MM1, 2) == pytest.approx(0.5, abs=1e-14)
    assert cumulant(MM1, 3) == pytest.approx(6.0 / 8.0, abs=1e-14)


def test_heavy_tail_cumulants_are_infinite():
    par = CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0))
    assert math.isfinite(cumulant(par, 1))
    assert cumulant(par, 2) == math.inf
    assert cumulant(par, 3) == math.inf


def test_cumulants_match_differenced_exponent():
    # (-1)^n phi^(n)(0) by central differences, step 1e-3, one Richardson pass
    def fd(model, n, h):
        pts = [model.phi(k * h) for k in range(-3, 4)]
        if n == 1:
            return (pts[4] - pts[2]) / (2.0 * h)
        if n == 2:
            return (pts[4] - 2.0 * pts[3] + pts[2]) / (h * h)
        return (pts[5] - 2.0 * pts[4] + 2.0 * pts[2] - pts[1]) / (2.0 * h ** 3)

    for model in (BM, MM1, CppMinusDrift(1.3, 0.9, Erlang(2, 3.0)), MIX):
        for n in (1, 2, 3):
            c = cumulant(model, n)
            a, b = fd(model, n, 1e-3), fd(model, n, 5e-4)
            rich = (4.0 * b - a) / 3.0
            est = (-1.0) ** n * rich
            assert est == pytest.approx(c, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# jump transforms
# ---------------------------------------------------------------------------


def test_jump_transform_hand_values():
    assert Exponential(3.0).lst(0.0) == 1.0
    assert Exponential(2.0).lst(2.0) == pytest.approx(0.5, abs=1e-15)
    assert Deterministic(1.0).lst(1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-15)
    assert Erlang(2, 3.0).lst(1.0) == pytest.approx((3.0 / 4.0) ** 2, abs=1e-14)


def test_pareto_transform_matches_reference():
    jumps = Pareto(1.5, 1.0 / 3.0)
    for alpha, expected in ref.PARETO_LST.items():
        assert jumps.lst(alpha) == pytest.approx(expected, abs=1e-13)


def test_jump_transform_bounds_and_decay():
    rng = np.random.default_rng(5)
    for jumps in (Exponential(2.0), Erlang(3, 1.5), Pareto(1.7, 0.4),
                  Deterministic(0.9)):
        grid = np.sort(rng.uniform(0.0, 8.0, 20))
        vals = [jumps.lst(a) for a in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_jump_means():
    assert Exponential(2.0).mean() == 0.5
    assert Erlang(2, 3.0).mean() == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert Pareto(1.5, 1.0 / 3.0).mean() == pytest.approx(1.0, abs=1e-15)
    assert Deterministic(1.2).mean() == 1.2


def test_jump_samples_match_mean_and_transform():
    rng = np.random.default_rng(99)
    for jumps in (Exponential(2.0), Erlang(2, 3.0), Deterministic(1.2),
                  Pareto(2.5, 0.5)):
        x = jumps.sample(rng, 200_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - jumps.mean()) <= 4.0 * se + 1e-12
        e = np.exp(-0.7 * x)
        se = e.std(ddof=1) / math.sqrt(e.size)
        assert abs(e.mean() - jumps.lst(0.7)) <= 4.0 * se + 1e-12


@pytest.mark.parametrize("jumps", (Deterministic(1.2), Deterministic(0.15),
                                   Erlang(2, 3.0), Erlang(6, 0.3)))
@pytest.mark.parametrize("x", (1e-8, 1e-5, 1e-3, 0.3))
def test_excess_transform_matches_high_precision(jumps, x):
    # lst - 1 + mean*alpha at alpha*scale = x, the scale being the jump size
    # or the reciprocal Erlang rate; the direct form cancels to 1e-2 relative
    # at x = 1e-8
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    if isinstance(jumps, Deterministic):
        alpha = x / jumps.size
        y = mpmath.mpf(alpha) * jumps.size
        expected = mpmath.exp(-y) - 1 + y
    else:
        alpha = x * jumps.rate
        u = mpmath.mpf(alpha) / jumps.rate
        expected = (1 + u) ** -jumps.shape - 1 + jumps.shape * u
    assert jumps.excess_lst(alpha) == pytest.approx(float(expected), rel=1e-14, abs=0.0)


def test_pareto_needs_finite_mean():
    with pytest.raises(ModelError):
        Pareto(1.0, 0.5)
    with pytest.raises(ModelError):
        Pareto(0.9, 0.5)


@pytest.mark.parametrize("delta", (1.0005, 1.9995, 2.0, 2.0007, 3.0))
def test_pareto_transform_matches_high_precision_near_integer_tails(delta):
    # at and near integer tail indices Gamma(n - delta) z^(delta-n) and one
    # series term share a pole; the reference is
    # E B^n exp(-alpha B) = delta xm^n s^(delta-n) Gamma(n - delta, s), s = alpha xm
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    jumps = Pareto(delta, 0.4)
    d, xm = mpmath.mpf(delta), mpmath.mpf(jumps.xm)
    for x in (1e-8, 1e-3, 0.5, 2.0, 2.5, 30.0, 300.0):
        alpha = x / jumps.xm
        s = mpmath.mpf(alpha) * xm

        def moment(n):
            return d * xm**n * s ** (d - n) * mpmath.gammainc(n - d, s)

        lst = moment(0)
        assert jumps.lst(alpha) == pytest.approx(float(lst), rel=0.0, abs=1e-14)
        excess = lst - 1 + d * xm / (d - 1) * mpmath.mpf(alpha)
        assert jumps.excess_lst(alpha) == pytest.approx(float(excess), rel=1e-14, abs=0.0)
        for n in (1, 2, 3):
            assert jumps.lst_deriv(alpha, n) == pytest.approx(
                float((-1) ** n * moment(n)), rel=1e-12, abs=0.0), (x, n)


@pytest.mark.parametrize("a", (-2.8, -2.0011, -1.5, 0.3, 1.5))
def test_upper_gamma_matches_high_precision(a):
    # the Pareto transforms call Gamma(a, z) only for z > 2, where it can be
    # as small as e^-650 and must keep its relative accuracy
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for z in (2.5, 10.0, 50.0, 300.0, 650.0):
        expected = float(mpmath.gammainc(a, z))
        assert models._upper_gamma(a, z) == pytest.approx(expected, rel=1e-13, abs=0.0), z


def test_pareto_transform_at_an_alpha_whose_scale_product_underflows():
    # alpha * xm rounds to 0 for a subnormal alpha; every transform then
    # takes its alpha = 0 value instead of dividing by or taking log of 0
    for delta in (1.5, 2.0):
        jumps = Pareto(delta, 0.5)
        assert jumps.lst(5e-324) == 1.0
        assert jumps.excess_lst(5e-324) == 0.0
        assert jumps.lst_deriv(5e-324, 1) == -jumps.mean()
        with pytest.raises(ModelError):
            jumps.lst_deriv(5e-324, 2)


# invalid constructions and the repr each error message must end with
INVALID = {
    "Exponential(mu=0)": lambda: Exponential(0),
    "Erlang(shape=0, rate=1.0)": lambda: Erlang(0, 1.0),
    "Pareto(delta=0.9, xm=0.5)": lambda: Pareto(0.9, 0.5),
    "Deterministic(size=-1.0)": lambda: Deterministic(-1.0),
    "BrownianDrift(c=0.0, sigma2=-1.0)": lambda: BrownianDrift(0.0, -1.0),
    "CppMinusDrift(d=1.0, gamma=1.0, jumps=None)": lambda: CppMinusDrift(1.0, 1.0, None),
    "Sum(parts=())": lambda: Sum(()),
    "Beta1(theta_=0.0)": lambda: Beta1(0.0),
}


@pytest.mark.parametrize("named", INVALID)
def test_invalid_model_errors_name_the_model(named):
    with pytest.raises(ModelError) as err:
        INVALID[named]()
    assert str(err.value).endswith(": " + named)


# ---------------------------------------------------------------------------
# collapse laws
# ---------------------------------------------------------------------------


def test_collapse_law_moments():
    assert Uniform01().theta == 1.0
    for theta in (0.5, 1.0, 2.0, 5.0):
        law = Beta1(theta) if theta != 1.0 else Uniform01()
        for n in (1, 2, 3):
            assert law.moment(n) == pytest.approx(theta / (theta + n), abs=1e-15)


def test_collapse_samples_match_moments():
    rng = np.random.default_rng(17)
    for law in (Uniform01(), Beta1(2.0), Beta1(0.5)):
        u = law.sample(rng, 500_000)
        assert u.min() >= 0.0 and u.max() <= 1.0
        for n in (1, 2):
            p = u ** n
            se = p.std(ddof=1) / math.sqrt(p.size)
            assert abs(p.mean() - law.moment(n)) <= 4.0 * se
