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
    StationarySolution,
    Sum,
    Uniform01,
    fixed_point_residual,
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
# phi / phi_dn
# ---------------------------------------------------------------------------


def test_exponent_is_zero_at_zero_for_every_model():
    for model in CATALOG:
        assert model.phi(0.0) == 0.0


def test_exponent_matches_hand_values():
    assert BM.phi(2.0) == pytest.approx(4.0, abs=1e-14)
    # d*alpha - gamma*(1 - mu/(mu+alpha)) at alpha = 2
    assert MM1.phi(2.0) == pytest.approx(1.5, abs=1e-14)


def test_exponent_derivative_matches_hand_values():
    assert BM.phi_dn(1.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert BrownianDrift(0.8, 1.0).phi_dn(0.0, 1) == pytest.approx(
        -0.8, abs=1e-15)
    assert MM1.phi_dn(0.0, 1) == pytest.approx(0.5, abs=1e-14)


def test_exponent_derivative_agrees_with_differences():
    h = 1e-6
    for model in CATALOG[:5]:
        for alpha in (0.3, 1.0, 2.4):
            fd = (model.phi(alpha + h)
                  - model.phi(alpha - h)) / (2.0 * h)
            assert model.phi_dn(alpha, 1) == pytest.approx(
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


def sample_unit_increment(model, rng, size):
    """Draws of X_1, for Monte Carlo checks of the exponent.

    The Brownian part is normal with mean c; a compound part adds a
    Poisson(gamma) number of jumps and subtracts the drain d.
    """
    if isinstance(model, Sum):
        return sum(sample_unit_increment(part, rng, size) for part in model.parts)
    if isinstance(model, BrownianDrift):
        return rng.normal(model.c, math.sqrt(model.sigma2), size)
    counts = rng.poisson(model.gamma, size)
    out = np.full(size, -model.d, dtype=float)
    total = int(counts.sum())
    if total:
        jumps = model.jumps.sample(rng, total)
        idx = np.repeat(np.arange(size), counts)
        out += np.bincount(idx, weights=jumps, minlength=size)
    return out


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
    assert BM.cumulant(2) == 2.0
    assert BM.cumulant(3) == 0.0
    assert BrownianDrift(0.4, 2.0).cumulant(1) == 0.4


def test_cumulants_of_compound_input():
    # c1 = gamma*EB - d; c_n = gamma*E B^n for n >= 2
    assert MM1.cumulant(1) == pytest.approx(-0.5, abs=1e-14)
    assert MM1.cumulant(2) == pytest.approx(0.5, abs=1e-14)
    assert MM1.cumulant(3) == pytest.approx(6.0 / 8.0, abs=1e-14)


def test_heavy_tail_cumulants_are_infinite():
    par = CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0))
    assert math.isfinite(par.cumulant(1))
    assert par.cumulant(2) == math.inf
    assert par.cumulant(3) == math.inf


def test_cumulant_orders_start_at_zero():
    for model in CATALOG:
        assert model.cumulant(0) == 0.0
        with pytest.raises(ModelError, match="cumulant order"):
            model.cumulant(-1)


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
            c = model.cumulant(n)
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
    assert Exponential(2.0).moment(1) == 0.5
    assert Erlang(2, 3.0).moment(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert Pareto(1.5, 1.0 / 3.0).moment(1) == pytest.approx(1.0, abs=1e-15)
    assert Deterministic(1.2).moment(1) == 1.2


def test_jump_samples_match_mean_and_transform():
    rng = np.random.default_rng(99)
    for jumps in (Exponential(2.0), Erlang(2, 3.0), Deterministic(1.2),
                  Pareto(2.5, 0.5)):
        x = jumps.sample(rng, 200_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - jumps.moment(1)) <= 4.0 * se + 1e-12
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


def test_upper_gamma_keeps_its_digits_at_orders_up_to_the_argument_plus_one():
    # the continued fraction serves every order a <= z + 1 (the transforms
    # ask for a < 1 at z > 2); above it, where it would lose up to 9e-9
    # relative, it refuses. Values below 1e-290 are skipped: double
    # precision underflows on them
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a in np.arange(-12.0, 12.125, 0.25):
        for z in (2.0001, 2.5, 3.0, 5.0, 10.0, 50.0, 699.0):
            if a > z + 1.0:
                with pytest.raises(ModelError):
                    models._upper_gamma(float(a), np.array([z, 700.0]))
                continue
            expected = mpmath.gammainc(float(a), z)
            if expected < 1e-290:
                continue
            assert models._upper_gamma(float(a), z) == pytest.approx(
                float(expected), rel=1e-13, abs=0.0), (a, z)


def test_pareto_derivative_of_high_order_refuses_where_it_would_lose_digits():
    # order 6 of delta 1.5 needs Gamma(4.5, s), served for s >= 3.5 only
    jumps = Pareto(1.5, 1.0)
    with pytest.raises(ModelError, match="not served"):
        jumps.lst_deriv(np.array([1.0, 2.1, 10.0]), 6)
    assert jumps.lst_deriv(1.0, 6) == pytest.approx(17.2987228714517, rel=1e-12)


def test_pareto_transform_at_an_alpha_whose_scale_product_underflows():
    # alpha * xm rounds to 0 for a subnormal alpha; every transform then
    # takes its alpha = 0 value instead of dividing by or taking log of 0
    for delta in (1.5, 2.0):
        jumps = Pareto(delta, 0.5)
        assert jumps.lst(5e-324) == 1.0
        assert jumps.excess_lst(5e-324) == 0.0
        assert jumps.lst_deriv(5e-324, 1) == -jumps.moment(1)
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
    "CppMinusDrift(d=1.0, gamma=0.0, jumps=Exponential(mu=2.0))":
        lambda: CppMinusDrift(1.0, 0.0, Exponential(2.0)),
    "Beta1(theta=0.0)": lambda: Beta1(0.0),
}


@pytest.mark.parametrize("named", INVALID)
def test_invalid_model_errors_name_the_model(named):
    with pytest.raises(ModelError) as err:
        INVALID[named]()
    assert str(err.value).endswith(": " + named)


# ---------------------------------------------------------------------------
# float/array contract of the model layer
# ---------------------------------------------------------------------------

LAWS = (Exponential(2.0), Erlang(3, 1.5), Erlang(1, 0.7), Deterministic(1.2),
        Pareto(1.5, 1.0 / 3.0), Pareto(2.0004, 0.4), Pareto(3.0, 0.5))
DET_SUM = Sum((BrownianDrift(0.3, 1.5), CppMinusDrift(0.6, 0.4, Deterministic(0.5))))
PROCESSES = (BM, BrownianDrift(-0.7, 3.0), MIX, DET_SUM) + tuple(
    CppMinusDrift(1.3, 0.9, jumps) for jumps in LAWS)


def _contract_inputs(obj):
    """0, the negative margin, 1e-300, 1e-8, 1e3, and each edge where a
    transform or exponent changes form (Pareto's s = 2 and s = 700, the
    series limits of Erlang and deterministic jumps, mean*alpha = 1 of a
    compound part), each with its neighbours 1 ulp away."""
    edges = []
    for part in getattr(obj, "parts", (obj,)):
        jumps = getattr(part, "jumps", part)
        if isinstance(jumps, Pareto):
            edges += [2.0 / jumps.xm, 700.0 / jumps.xm]
        elif isinstance(jumps, Erlang):
            edges.append(0.5 * jumps.rate / jumps.shape)
        elif isinstance(jumps, Deterministic):
            edges.append(0.5 / jumps.size)
        if jumps is not part:
            edges.append(1.0 / jumps.moment(1))
    lo = obj.min_alpha()
    xs = [0.0, 1e-300, 1e-8, 1e3] + ([max(0.25 * lo, -1e-3)] if lo < 0.0 else [])
    for x in edges:
        xs += [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]
    return xs


@pytest.mark.parametrize("obj", LAWS + PROCESSES, ids=repr)
def test_model_layer_takes_a_float_or_an_array(obj):
    # a float gives a Python float, an array one of its shape, and the two
    # agree element by element; the first two derivatives too, and an array
    # holding a point where a derivative diverges raises as that float does
    names = ("phi", "phi_over_alpha") if hasattr(obj, "phi") else ("lst", "excess_lst")
    funs = [(name, getattr(obj, name), False) for name in names]
    deriv = obj.phi_dn if hasattr(obj, "phi") else obj.lst_deriv
    funs += [(f"{deriv.__name__}(., {n})", lambda x, n=n: deriv(x, n), True) for n in (1, 2)]
    for name, fun, may_diverge in funs:
        xs = []
        for x in _contract_inputs(obj):
            try:
                fun(x)
            except ModelError:
                if not may_diverge:
                    raise
                with pytest.raises(ModelError):
                    fun(np.array([1.0, x]))
            else:
                xs.append(x)
        scalar = np.array([fun(x) for x in xs])
        assert all(type(fun(x)) is float for x in xs), name
        got = fun(np.array(xs).reshape(1, -1))
        assert isinstance(got, np.ndarray) and got.shape == (1, len(xs)), name
        assert np.all(np.abs(got[0] - scalar) <= 1e-15 * np.abs(scalar)), (
            name, np.array(xs)[np.abs(got[0] - scalar) > 1e-15 * np.abs(scalar)])
    if isinstance(obj, Pareto):
        with pytest.raises(ModelError, match="alpha < 0"):
            obj.lst(np.array([1.0, -1e-3]))


@pytest.mark.parametrize("model", (BM, MM1, DET_SUM, CATALOG[5]), ids=repr)
def test_solution_results_are_python_floats(model):
    # a numpy scalar would leak into CSV writers and JSON dumps
    sol = StationarySolution(model, 1.0, 1.3)
    A = sol.alpha_lambda
    values = [A, sol.b, sol.atom, sol.mean_lst_collapsed(A),
              fixed_point_residual(model, 1.0, 1.3, 1.5 * A)]
    values += [sol.lst(a * A) for a in (0.0, 0.5, 1.0, 2.0)] + sol.moments(2)
    assert all(type(v) is float for v in values), [type(v) for v in values]


@pytest.mark.parametrize("model", (BM, MM1, CATALOG[5]), ids=repr)
def test_builder_samples_each_rung_once_and_no_point_twice(monkeypatch, model):
    # every remainder piece samples its first rung in one call and then,
    # per rung n, only the n points rung 2n adds; pieces next to each other
    # pass on their shared end
    build = StationarySolution._build_pieces
    integrand = StationarySolution._left_integrand
    frames, calls = [], []

    def traced_build(self, fun, a, b, what, degrees, *args, **kwargs):
        frames.append((a, b, degrees[0], len(calls)))
        try:
            return build(self, fun, a, b, what, degrees, *args, **kwargs)
        finally:
            frames.pop()

    def traced_integrand(self, y):
        if frames and np.ndim(y) == 1:
            calls.append((frames[-1], np.array(y)))
        return integrand(self, y)

    monkeypatch.setattr(StationarySolution, "_build_pieces", traced_build)
    monkeypatch.setattr(StationarySolution, "_left_integrand", traced_integrand)
    StationarySolution(model, 1.0, 1.0)
    pieces = {}
    for frame, y in calls:
        pieces.setdefault(frame, []).append(y)
    assert len(pieces) >= 2
    for (a, b, n0, _), ys in pieces.items():
        sizes = [y.size for y in ys]
        assert n0 - 1 <= sizes[0] <= n0 + 1, sizes
        assert sizes[1:] == [n0 * 2**k for k in range(len(ys) - 1)], sizes
        assert all(np.all((a <= y) & (y <= b)) for y in ys)
    points = np.concatenate([y for _, y in calls])
    assert np.unique(points).size == points.size


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
