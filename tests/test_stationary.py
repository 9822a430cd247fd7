"""Analytic layer: root, normalizer, transform branches, moments, closed forms.

Frozen constants in reference_values.py come from an independent 30-digit
implementation; hand values are worked inline. Above-root pins are guarded
by the fixed-point residual asserted at the same points.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from levy_collapse import (
    Beta1,
    BrownianDrift,
    CppMinusDrift,
    Deterministic,
    DomainError,
    Erlang,
    Exponential,
    ModelError,
    Pareto,
    QuadratureFailure,
    SubordinatorInput,
    Sum,
    atom_at_zero,
    bm_closed_form_lst,
    bm_roots,
    find_alpha_lambda,
    fixed_point_residual,
    g_function,
    incomplete_beta,
    laplace_exponent,
    level_crossing_p0,
    mm1_closed_form_lst,
    mm1_roots,
    moments,
    normalizer_b,
    onoff_mixture_lst,
    small_alpha_expansion_check,
    stationary_lst,
    stationary_solution,
    tail_constant,
    transform_grid,
    w_tau_lst,
    wx_joint_lst,
)
from levy_collapse import stationary

import reference_values as ref

BM = BrownianDrift(0.0, 2.0)
MM1 = CppMinusDrift(1.0, 1.0, Exponential(2.0))
ERLANG = CppMinusDrift(1.3, 0.9, Erlang(2, 3.0))
DETERM = CppMinusDrift(1.0, 0.7, Deterministic(1.2))
MIXTURE = Sum((BrownianDrift(0.3, 1.5), CppMinusDrift(0.2, 0.7, Exponential(1.1))))
PARETO15 = CppMinusDrift(1.0, 0.8, Pareto(1.5, 1.0 / 3.0))
PARETO20 = CppMinusDrift(1.0, 0.8, Pareto(2.0, 1.0 / 3.0))

# (model, lam, theta) triples exercised by the cross-cutting invariants
CASES = (
    (BM, 1.0, 1.0),
    (MM1, 1.0, 1.0),
    (ERLANG, 0.8, 2.0),
    (DETERM, 0.9, 1.0),
    (MIXTURE, 1.2, 1.0),
    (PARETO15, 1.0, 1.0),
    (BM, 1.0, 5.0),
    (BM, 1.0, 0.3),
)


# ---------------------------------------------------------------------------
# positive root of phi = lam
# ---------------------------------------------------------------------------


def test_root_hand_values():
    assert find_alpha_lambda(BM, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert find_alpha_lambda(MM1, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_root_frozen_values():
    assert find_alpha_lambda(ERLANG, 0.8) == pytest.approx(ref.ERLANG_A, abs=1e-12)
    assert find_alpha_lambda(DETERM, 0.9) == pytest.approx(ref.DETERM_A, abs=1e-12)
    assert find_alpha_lambda(MIXTURE, 1.2) == pytest.approx(ref.MIXTURE_A, abs=1e-12)
    assert find_alpha_lambda(PARETO15, 1.0) == pytest.approx(ref.PARETO15_A, abs=1e-12)


def test_root_solves_the_equation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.uniform(-1.0, 1.0)
        s2 = rng.uniform(0.3, 4.0)
        lam = rng.uniform(0.3, 3.0)
        a = find_alpha_lambda(BrownianDrift(c, s2), lam)
        assert a > 0
        assert abs(laplace_exponent(BrownianDrift(c, s2), a) - lam) <= 1e-11 * lam


def test_nonincreasing_input_is_rejected():
    with pytest.raises(SubordinatorInput):
        find_alpha_lambda(CppMinusDrift(0.0, 1.0, Exponential(2.0)), 1.0)


# ---------------------------------------------------------------------------
# transforms at an independent exponential time (no collapse yet)
# ---------------------------------------------------------------------------


def test_uncollapsed_transform_hand_values():
    # Brownian case reduces to 1/(1+alpha)
    assert w_tau_lst(BM, 1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert w_tau_lst(BM, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)  # at the root
    phi1 = 1.0 - 1.0 / 3.0
    assert w_tau_lst(MM1, 1.0, 1.0) == pytest.approx(
        (1.0 - 1.0 / math.sqrt(2.0)) / (1.0 - phi1), abs=1e-12)
    with pytest.raises(DomainError):
        w_tau_lst(BM, 1.0, -0.3)


def test_started_transform_reduces_to_unstarted_at_zero():
    for alpha in (0.0, 0.4, 1.7):
        assert wx_joint_lst(MM1, 1.0, 0.0, alpha) == pytest.approx(
            w_tau_lst(MM1, 1.0, alpha), abs=1e-12)


def test_started_transform_hand_values():
    # x = 1, alpha = 1/2: (e^{-1/2} - e^{-1}/2) / (1 - 1/4)
    want = (math.exp(-0.5) - 0.5 * math.exp(-1.0)) / 0.75
    assert wx_joint_lst(BM, 1.0, 1.0, 0.5) == pytest.approx(want, abs=1e-12)
    # at the root with x = 1: (1 + 1/root) lam e^{-root}/phi'(root) = e^{-1}
    assert wx_joint_lst(BM, 1.0, 1.0, 1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-12)


def test_started_transform_total_mass_and_monotonicity():
    for x in (0.0, 0.5, 2.0):
        root = find_alpha_lambda(BM, 1.0)
        beta = 0.7
        want = 1.0 - beta / (root + beta) * math.exp(-root * x)
        assert wx_joint_lst(BM, 1.0, x, 0.0, beta) == pytest.approx(want, abs=1e-12)
    # higher start pushes the level up, so the transform falls in x
    vals = [wx_joint_lst(BM, 1.0, x, 0.5) for x in (0.0, 0.3, 0.8, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        wx_joint_lst(BM, 1.0, -1.0, 0.5)


# ---------------------------------------------------------------------------
# normalizing primitive g and the weight b
# ---------------------------------------------------------------------------


def test_g_endpoints_and_shape():
    assert g_function(BM, 1.0, 1.0, 0.0) == 0.0
    assert g_function(BM, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 4.0, abs=1e-11)
    assert g_function(BM, 1.0, 1.0, 1.0) == pytest.approx(ref.BM_G_1, abs=1e-11)
    assert g_function(MM1, 1.0, 1.0, 1.0) == pytest.approx(ref.MM1_G_1, abs=1e-11)
    grid = np.linspace(0.0, 1.0, 17)
    vals = [g_function(BM, 1.0, 1.0, a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        g_function(BM, 1.0, 1.0, 1.0 + 1e-6)


def test_g_slope_at_zero_is_one():
    # g'(0) = exp(-theta * 0) = 1; Richardson on central differences
    for model, lam, theta in ((BM, 1.0, 1.0), (ERLANG, 0.8, 2.0)):
        def slope(h):
            return (g_function(model, lam, theta, h)
                    - g_function(model, lam, theta, 0.0)) / h
        a, b = slope(1e-4), slope(5e-5)
        assert 2.0 * b - a == pytest.approx(1.0, abs=1e-6)


def test_g_at_root_is_reciprocal_weight():
    for model, lam, theta in CASES[:6]:
        a = find_alpha_lambda(model, lam)
        assert g_function(model, lam, theta, a) * normalizer_b(model, lam, theta) \
            == pytest.approx(1.0, abs=1e-12)


def test_weight_frozen_values():
    assert normalizer_b(BM, 1.0) == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert normalizer_b(BM, 1.0) == pytest.approx(ref.BM_B, rel=1e-11)
    assert normalizer_b(MM1, 1.0) == pytest.approx(ref.MM1_B, rel=1e-11)
    assert normalizer_b(ERLANG, 0.8, 2.0) == pytest.approx(ref.ERLANG_B, rel=1e-11)
    assert normalizer_b(DETERM, 0.9) == pytest.approx(ref.DETERM_B, rel=1e-11)
    assert normalizer_b(MIXTURE, 1.2) == pytest.approx(ref.MIXTURE_B, rel=1e-11)
    assert normalizer_b(PARETO15, 1.0) == pytest.approx(ref.PARETO15_B, rel=1e-11)
    assert normalizer_b(BM, 1.0, 5.0) == pytest.approx(ref.BM_TH5_B, rel=1e-11)
    assert normalizer_b(BM, 1.0, 0.3) == pytest.approx(ref.BM_TH03_B, rel=1e-11)


def test_space_rescaling_invariance():
    # scaling the level by kappa maps f(alpha) to f(kappa alpha)
    kappa = 7.3
    bm_scaled = BrownianDrift(0.0, kappa**2 * 2.0)
    mm1_scaled = CppMinusDrift(kappa * 1.0, 1.0, Exponential(2.0 / kappa))
    for orig, scaled in ((BM, bm_scaled), (MM1, mm1_scaled)):
        a_orig = find_alpha_lambda(orig, 1.0)
        assert find_alpha_lambda(scaled, 1.0) == pytest.approx(
            a_orig / kappa, rel=1e-12)
        for frac in (0.25, 0.8, 1.6, 2.5):
            alpha = frac * a_orig
            assert stationary_lst(scaled, 1.0, 1.0, alpha / kappa) == pytest.approx(
                stationary_lst(orig, 1.0, 1.0, alpha), abs=1e-10)
        m_orig = moments(orig, 1.0, 1.0, 2)
        m_scaled = moments(scaled, 1.0, 1.0, 2)
        assert m_scaled[1] == pytest.approx(kappa * m_orig[1], rel=1e-9)
        assert m_scaled[2] == pytest.approx(kappa**2 * m_orig[2], rel=1e-9)


# ---------------------------------------------------------------------------
# stationary transform: values on all three branches
# ---------------------------------------------------------------------------


def test_transform_is_one_at_zero():
    for model, lam, theta in CASES:
        assert stationary_lst(model, lam, theta, 0.0) == 1.0


def test_transform_brownian_hand_values():
    # at the root: b/(theta/A + phi'(A)/lam) = (4/pi)/(1 + 2) = 4/(3 pi)
    assert stationary_lst(BM, 1.0, 1.0, 1.0) == pytest.approx(
        4.0 / (3.0 * math.pi), abs=1e-12)
    # below the root the closed reduction at alpha = 1/2
    want = 4.0 / math.pi * 0.75 ** (-1.5) * (math.pi / 6.0 - math.sqrt(3.0) / 8.0)
    assert stationary_lst(BM, 1.0, 1.0, 0.5) == pytest.approx(want, abs=1e-12)
    assert stationary_lst(BM, 1.0, 1.0, 0.5) == pytest.approx(
        ref.BM_F_HALF, abs=1e-11)


def test_transform_frozen_below_root_values():
    assert stationary_lst(MM1, 1.0, 1.0, 1.0) == pytest.approx(
        ref.MM1_F_1, rel=1e-11)
    assert stationary_lst(ERLANG, 0.8, 2.0, 0.5) == pytest.approx(
        ref.ERLANG_F_HALF, rel=1e-11)
    assert stationary_lst(DETERM, 0.9, 1.0, 0.7) == pytest.approx(
        ref.DETERM_F_07, rel=1e-11)
    assert stationary_lst(MIXTURE, 1.2, 1.0, 0.8) == pytest.approx(
        ref.MIXTURE_F_08, rel=1e-11)
    assert stationary_lst(PARETO15, 1.0, 1.0, 0.5) == pytest.approx(
        ref.PARETO15_F_HALF, rel=1e-11)


def test_transform_at_root_frozen_value():
    assert stationary_lst(MM1, 1.0, 1.0, math.sqrt(2.0)) == pytest.approx(
        ref.MM1_F_AT_ROOT, rel=1e-11)


def test_transform_above_root_pins_with_residual_guard():
    # pinned values are certified through the fixed-point identity: the
    # identity determines the transform above the root uniquely given the
    # independently verified values below it
    for name, model, lam in (("bm", BM, 1.0), ("mm1", MM1, 1.0)):
        for alpha, pinned in ref.REGRESSION_PINS[name]:
            assert stationary_lst(model, lam, 1.0, alpha) == pytest.approx(
                pinned, rel=1e-10)
            assert fixed_point_residual(model, lam, 1.0, alpha) <= 1e-12


def test_branch_tags():
    sol = stationary_solution(BM, 1.0)
    a = sol.alpha_lambda
    assert sol.branch(0.5 * a) == "below"
    assert sol.branch(a) == "at"
    assert sol.branch(2.0 * a) == "above"


def test_branch_seam_is_flat():
    # symmetric second difference across the root stays at curvature level
    for model, lam, theta in CASES:
        sol = stationary_solution(model, lam, theta)
        a, eps = sol.alpha_lambda, 1e-4 * sol.alpha_lambda
        seam = abs(sol.lst(a - eps) + sol.lst(a + eps) - 2.0 * sol.lst(a))
        assert seam <= 1e-5
    # one-sided continuity right outside the at-root snap band
    for model, lam in ((BM, 1.0), (MM1, 1.0)):
        sol = stationary_solution(model, lam)
        a, eps = sol.alpha_lambda, 2e-9 * sol.alpha_lambda
        mid = sol.lst(a)
        assert abs(sol.lst(a - eps) - mid) <= 1e-5
        assert abs(sol.lst(a + eps) - mid) <= 1e-5


def test_transform_shape_across_branches():
    for model, lam in ((BM, 1.0), (MM1, 1.0)):
        sol = stationary_solution(model, lam)
        grid = np.linspace(0.0, 3.0 * sol.alpha_lambda, 40)
        vals = np.array([sol.lst(a) for a in grid])
        assert vals[0] == 1.0
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        d1 = np.diff(vals) / np.diff(grid)
        assert d1.max() <= 1e-8  # nonincreasing
        d2 = np.diff(d1)
        assert d2.min() >= -1e-8  # convex


def test_transform_rejects_far_negative_alpha():
    sol = stationary_solution(BM, 1.0)
    with pytest.raises(DomainError):
        sol.lst(-1.0)
    with pytest.raises(DomainError):
        stationary_lst(BM, 1.0, 1.0, -1e-9)


# ---------------------------------------------------------------------------
# fixed-point identity
# ---------------------------------------------------------------------------


def test_fixed_point_residual_vanishes_at_zero():
    assert fixed_point_residual(BM, 1.0, 1.0, 0.0) == 0.0


def test_fixed_point_residual_small_on_grids():
    for model, lam, theta in ((BM, 1.0, 1.0), (MM1, 1.0, 1.0),
                              (ERLANG, 0.8, 2.0), (MIXTURE, 1.2, 1.0),
                              (BM, 1.0, 5.0)):
        a = find_alpha_lambda(model, lam)
        grid = [x * a for x in (0.1, 0.4, 0.7, 0.9, 0.999, 1.001, 1.1, 1.5, 2.0, 3.0)]
        for alpha in grid:
            if abs(alpha - a) < 1e-3 * a:
                continue
            assert fixed_point_residual(model, lam, theta, alpha) <= 1e-7


# ---------------------------------------------------------------------------
# atom at zero
# ---------------------------------------------------------------------------


def test_atom_values():
    assert atom_at_zero(BM, 1.0) == 0.0
    assert atom_at_zero(MIXTURE, 1.2) == 0.0
    atom = atom_at_zero(MM1, 1.0)
    assert atom == pytest.approx(ref.MM1_ATOM, rel=1e-11)
    assert atom == pytest.approx(level_crossing_p0(1.0, 1.0, normalizer_b(MM1, 1.0)),
                                 rel=1e-13)
    # general multiplier: lam * b_theta / ((1 + theta) d)
    b3 = normalizer_b(MM1, 1.0, 3.0)
    assert atom_at_zero(MM1, 1.0, 3.0) == pytest.approx(b3 / 4.0, rel=1e-13)


def test_atom_matches_far_transform_limit():
    for model, lam, theta, cap in ((MM1, 1.0, 1.0, 1e-4), (ERLANG, 0.8, 2.0, 1e-4),
                                   (DETERM, 0.9, 1.0, 1e-4), (PARETO15, 1.0, 1.0, 1e-4),
                                   (BM, 1.0, 1.0, 1e-3), (MIXTURE, 1.2, 1.0, 1e-3)):
        sol = stationary_solution(model, lam, theta)
        far = sol.lst(1e4 * sol.alpha_lambda)
        assert abs(far - sol.atom) <= cap


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_recursion_hand_and_frozen_values():
    m = moments(BM, 1.0, 1.0, 2)
    assert m[0] == 1.0
    # zero drift: E Z* = b; second order: (3/2) sigma2 / lam
    assert m[1] == pytest.approx(4.0 / math.pi, abs=1e-8)
    assert m[2] == pytest.approx(3.0, abs=1e-8)
    m = moments(MM1, 1.0, 1.0, 2)
    assert m[1] == pytest.approx(ref.MM1_M1, abs=5e-10)
    assert m[2] == pytest.approx(ref.MM1_M2, abs=5e-10)
    m = moments(ERLANG, 0.8, 2.0, 2)
    assert m[1] == pytest.approx(ref.ERLANG_M1, abs=5e-10)
    assert m[2] == pytest.approx(ref.ERLANG_M2, abs=5e-10)


def test_heavy_tail_moments():
    m = moments(PARETO15, 1.0, 1.0, 3)
    assert m[1] == pytest.approx(ref.PARETO15_MEAN, abs=1e-9)
    assert m[2] == math.inf
    assert m[3] == math.inf


def test_moments_match_transform_derivatives():
    # (-1)^n f^(n)(0) by central differences, step 1e-4, one Richardson pass
    for model, lam, theta in ((BM, 1.0, 1.0), (MM1, 1.0, 1.0), (ERLANG, 0.8, 2.0),
                              (DETERM, 0.9, 1.0), (MIXTURE, 1.2, 1.0)):
        sol = stationary_solution(model, lam, theta)
        m = sol.moments(2)

        def d1(h):
            return (sol.lst(h) - sol.lst(-h)) / (2.0 * h)

        def d2(h):
            return (sol.lst(h) - 2.0 + sol.lst(-h)) / (h * h)

        h = 1e-4
        m1 = -(4.0 * d1(h / 2.0) - d1(h)) / 3.0
        m2 = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
        assert m1 == pytest.approx(m[1], rel=1e-5)
        assert m2 == pytest.approx(m[2], rel=1e-5)


def test_moment_order_validation():
    with pytest.raises(DomainError):
        moments(BM, 1.0, 1.0, -1)
    assert moments(BM, 1.0, 1.0, 0) == [1.0]


# ---------------------------------------------------------------------------
# closed forms and dual-route agreement
# ---------------------------------------------------------------------------


def test_incomplete_beta_hand_values():
    assert incomplete_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-14)
    assert incomplete_beta(1.0, 2.0, 3.0) == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert incomplete_beta(0.5, 2.0, 1.0) == pytest.approx(0.125, abs=1e-14)
    assert incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(math.pi / 2.0, abs=1e-12)
    for bad in ((1.2, 1.0, 1.0), (-0.1, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, -2.0)):
        with pytest.raises(DomainError):
            incomplete_beta(*bad)


def test_root_pair_decompositions():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        c = rng.uniform(-1.0, 1.0)
        s2 = rng.uniform(0.3, 4.0)
        lam = rng.uniform(0.3, 3.0)
        y1, y2, d1, d2 = bm_roots(c, s2, lam)
        assert y1 > 0.0 > y2
        assert d1 + d2 == pytest.approx(1.0, abs=5e-16)
        assert abs(lam - laplace_exponent(BrownianDrift(c, s2), y1)) <= 1e-10 * lam

        d = rng.uniform(0.5, 2.5)
        gam = rng.uniform(0.2, 2.0)
        mu = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.3, 3.0)
        z1, z2, f1, f2 = mm1_roots(d, gam, mu, lam)
        assert z1 > 0.0 > z2
        assert f1 + f2 == pytest.approx(1.0, abs=5e-16)
        assert 0.0 < -z2 < mu  # the negative root stays inside the jump pole
        model = CppMinusDrift(d, gam, Exponential(mu))
        assert abs(lam - laplace_exponent(model, z1)) <= 1e-10 * lam


def test_dual_route_agreement_brownian():
    a = find_alpha_lambda(BM, 1.0)
    for alpha in np.linspace(0.0, 0.95 * a, 50):
        direct = stationary_lst(BM, 1.0, 1.0, float(alpha))
        closed = bm_closed_form_lst(0.0, 2.0, 1.0, float(alpha))
        assert abs(direct - closed) <= 1e-8


def test_dual_route_agreement_exponential_jumps():
    a = find_alpha_lambda(MM1, 1.0)
    for alpha in np.linspace(0.0, 0.95 * a, 50):
        direct = stationary_lst(MM1, 1.0, 1.0, float(alpha))
        closed = mm1_closed_form_lst(1.0, 1.0, 2.0, 1.0, float(alpha))
        assert abs(direct - closed) <= 1e-8


def test_closed_forms_reject_the_pole():
    y1 = bm_roots(0.0, 2.0, 1.0)[0]
    with pytest.raises(DomainError):
        bm_closed_form_lst(0.0, 2.0, 1.0, y1 * 1.01)
    z1 = mm1_roots(1.0, 1.0, 2.0, 1.0)[0]
    with pytest.raises(DomainError):
        mm1_closed_form_lst(1.0, 1.0, 2.0, 1.0, z1)


def test_level_crossing_validation():
    with pytest.raises(DomainError):
        level_crossing_p0(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        level_crossing_p0(1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# heavy tails and the modulated variant
# ---------------------------------------------------------------------------


def test_tail_constant_values_and_domain():
    assert tail_constant(0.8, 1.0, 1.5) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert tail_constant(1.0, 1.0, 1.999) == pytest.approx(2.999 / 1.999, abs=1e-14)
    assert tail_constant(0.9, 1.5, 1.5) == pytest.approx(1.0, abs=1e-14)
    for bad_delta in (1.0, 2.0, 2.5, 0.8):
        with pytest.raises(DomainError):
            tail_constant(1.0, 1.0, bad_delta)
    with pytest.raises(DomainError):
        tail_constant(0.0, 1.0, 1.5)


def test_small_alpha_expansion():
    ratios = small_alpha_expansion_check(PARETO15, 1.0, (1e-3, 1e-4))
    assert ratios[0] == pytest.approx(0.8961492139198577, rel=1e-6)
    assert ratios[1] == pytest.approx(0.9054210282233585, rel=1e-6)
    # flat on the decade and near the regular-variation limit
    assert abs(ratios[1] - ratios[0]) <= 0.10 * abs(ratios[1])
    limit = -math.gamma(-0.5) * (1.0 / 3.0) ** 1.5 * tail_constant(0.8, 1.0, 1.5)
    assert limit == pytest.approx(0.9096237403968785, rel=1e-13)
    assert abs(ratios[1] - limit) <= 0.05 * limit
    with pytest.raises(ModelError):
        small_alpha_expansion_check(MM1, 1.0, (1e-3,))
    with pytest.raises(DomainError):
        small_alpha_expansion_check(PARETO15, 1.0, (0.0,))


def test_onoff_mixture():
    for alpha in (0.0, 0.5, 2.0):
        assert onoff_mixture_lst(MM1, 1.0, 2.0, 3.0, 0.0) == 1.0
    # direct recombination of the two stationary pieces
    eta, r, alpha = 2.0, 3.0, 0.7
    sol = stationary_solution(MM1, 1.0, eta / r)
    want = (eta * sol.lst(alpha) + 1.0 * sol.mean_lst_collapsed(alpha)) / (1.0 + eta)
    assert onoff_mixture_lst(MM1, 1.0, eta, r, alpha) == pytest.approx(
        want, abs=1e-12)
    # fast regime switching washes the off periods out
    for alpha in (0.4, 1.0):
        plain = stationary_lst(MM1, 1.0, 1.0, alpha)
        assert abs(onoff_mixture_lst(MM1, 1.0, 1e6, 1e6, alpha) - plain) <= 1e-3
    for bad in ((0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, -0.5)):
        with pytest.raises(DomainError):
            onoff_mixture_lst(MM1, 1.0, *bad)


# ---------------------------------------------------------------------------
# grid wrapper
# ---------------------------------------------------------------------------


def test_transform_grid_contents():
    grid = transform_grid(BM, 1.0, 1.0, (0.0, 0.5, 1.0, 2.0))
    sol = stationary_solution(BM, 1.0)
    assert grid.alphas == (0.0, 0.5, 1.0, 2.0)
    assert grid.branch_tags == ("below", "below", "at", "above")
    for a, v in zip(grid.alphas, grid.values):
        assert v == sol.lst(a)


def test_transform_grid_validation():
    for bad in ((), (0.5, 0.5), (1.0, 0.5), (-0.1, 0.5)):
        with pytest.raises(DomainError):
            transform_grid(BM, 1.0, 1.0, bad)


def test_solution_cache_returns_same_object():
    assert stationary_solution(BM, 1.0) is stationary_solution(BM, 1.0)


# ---------------------------------------------------------------------------
# fixed-rule quadrature: batched evaluator and collapse averages
# ---------------------------------------------------------------------------


def test_batched_transform_equals_scalar_on_every_branch():
    for model, lam, theta in CASES + ((MM1, 1.0, 300.0),):
        sol = stationary_solution(model, lam, theta)
        a = sol.alpha_lambda
        alphas = [0.0, 1e-7 * a, 0.3 * a, 0.97 * a, a, a * (1.0 + 1e-10),
                  1.02 * a, 1.7 * a, 40.0 * a]
        if sol._lo < 0.0:  # negative margin of analytic models
            alphas = [sol._lo, 0.5 * sol._lo] + alphas
        batch = sol._lst_many(np.array(alphas))
        assert [sol.branch(x) for x in alphas[-6:]] == [
            "below", "at", "at", "above", "above", "above"]
        for x, v in zip(alphas, batch):
            assert v == sol.lst(x)
    # more rows than one block of (alpha x node) products holds
    sol = stationary_solution(MM1, 1.0)
    rows = stationary._CHUNK // len(sol._tail_s)
    alphas = np.linspace(sol._lo, 3.0 * sol.alpha_lambda, 2 * rows + 7)
    batch = sol._lst_many(alphas)
    assert all(v == sol.lst(x) for x, v in zip(alphas, batch))


def _collapse_average_reference(sol, scale):
    """E f(scale U) by adaptive quadrature over scalar transform calls,
    split at the root; the substitution t = exp(-u/theta) for theta > 150."""
    th = sol.theta

    def f(t):
        return sol.lst(scale * t)

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=500)
    if th > 150.0:
        return integrate.quad(lambda u: f(math.exp(-u / th)) * math.exp(-u),
                              0.0, math.inf, **opts)[0]
    cut = min(1.0, sol.alpha_lambda / scale)
    val = integrate.quad(f, 0.0, cut, weight="alg", wvar=(th - 1.0, 0.0), **opts)[0]
    if cut < 1.0:
        val += integrate.quad(lambda t: f(t) * t ** (th - 1.0), cut, 1.0, **opts)[0]
    return th * val


@pytest.mark.parametrize("theta", (0.03, 0.3, 1.0, 5.0, 140.0, 300.0))
def test_collapse_average_matches_adaptive_reference(theta):
    for model in (BM, MM1, PARETO15, PARETO20):
        sol = stationary_solution(model, 1.0, theta)
        scale = 1.5 * sol.alpha_lambda  # integrates across the root
        assert sol.mean_lst_collapsed(scale) == pytest.approx(
            _collapse_average_reference(sol, scale), abs=1e-11)


def test_collapse_ladder_failure_names_the_model(monkeypatch):
    monkeypatch.setattr(stationary, "_COLLAPSE_TOL", -1.0)  # never settles
    sol = stationary.StationarySolution(MM1, 0.7, 1.3)
    with pytest.raises(QuadratureFailure) as err:
        sol.mean_lst_collapsed(sol.alpha_lambda)
    msg = str(err.value)
    assert repr(MM1) in msg and "lambda=0.7" in msg and "theta=1.3" in msg


def test_negative_margin_stays_clear_of_the_pole():
    # strong upward drift and small lam: the default margin reached past the
    # negative root of phi = lam, where the remainder has a pole
    model = BrownianDrift(1.6465189714504895, 0.23146317365805935)
    lam, theta = 0.03596, 4.745
    sol = stationary_solution(model, lam, theta)
    assert sol._lo < 0.0
    assert laplace_exponent(model, sol._lo) <= 0.5 * lam
    alpha = 1.5 * sol.alpha_lambda
    assert fixed_point_residual(model, lam, theta, alpha) <= 1e-12


def test_import_leaves_scipy_integrate_unloaded():
    # only the near-integer Pareto fallback needs scipy.integrate, on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(stationary.__file__)))
    code = "import sys, levy_collapse; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
