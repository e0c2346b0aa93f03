import math

import numpy as np
import pytest

from thermoflow.core import ValidationError
from thermoflow.qudit import path_preset
from thermoflow.tth import (
    CosineSqAlpha,
    DissipationQuery,
    ExponentialAlpha,
    TabulatedAlpha,
    alpha_of,
    g_function,
    minimize_g,
    validate_against_simulation,
    w_dis_of_tth,
)

from conftest import FIG_TEMP


def constant_alpha_model(value: float) -> TabulatedAlpha:
    return TabulatedAlpha(np.array([0.0, 1e9]), np.array([value, value]))


# ---------------------------------------------------------------------------
# Models and G(t)
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValidationError):
        CosineSqAlpha(0.0)
    with pytest.raises(ValidationError):
        ExponentialAlpha(-1.0)
    with pytest.raises(ValidationError):
        TabulatedAlpha(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValidationError):
        TabulatedAlpha(np.array([0.0, 1.0]), np.array([0.1, 1.2]))


def test_alpha_models_stay_in_unit_interval():
    models = [CosineSqAlpha(1.3), ExponentialAlpha(0.7), constant_alpha_model(0.4)]
    for model in models:
        for t in np.linspace(1e-6, 8.0, 200):
            assert 0.0 <= alpha_of(model, float(t)) <= 1.0


def test_g_without_relaxation_penalty_is_half_t():
    model = constant_alpha_model(0.0)
    for t in (0.3, 1.0, 3.0):
        assert abs(g_function(model, t) - 0.5 * t) < 1e-15


def test_g_exponential_limit_is_relaxation_time():
    # series: e^{-t/tau}/(1 - e^{-t/tau}) = tau/t - 1/2 + O(t), so G -> tau
    for tau in (0.5, 2.0):
        model = ExponentialAlpha(tau)
        assert abs(g_function(model, 1e-6 * tau) - tau) <= 0.01 * tau


def test_g_cosine_full_rotation_point():
    model = CosineSqAlpha(1.0)
    assert abs(g_function(model, math.pi / 2) - math.pi / 4) < 1e-14


def test_g_requires_positive_t_and_returns_inf_sentinel():
    model = CosineSqAlpha(1.0)
    with pytest.raises(ValidationError):
        g_function(model, 0.0)
    assert g_function(model, 1e-300) == math.inf  # alpha = 1 in floats


def test_g_positive_everywhere():
    for model in (CosineSqAlpha(2.0), ExponentialAlpha(1.0), constant_alpha_model(0.6)):
        for t in np.linspace(1e-4, 3.0, 300):
            assert g_function(model, float(t)) > 0.0


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------

def bisect_stationary_point(model: CosineSqAlpha) -> float:
    # independent oracle: bisection on a central-difference derivative of G
    f = lambda t: g_function(model, t)
    h = 1e-7
    df = lambda t: (f(t + h) - f(t - h)) / (2.0 * h)
    a, b = 1.0 / model.g, 1.6 / model.g
    assert df(a) < 0 < df(b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if df(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def test_cosine_optimum_matches_bisection_oracle():
    model = CosineSqAlpha(1.0)
    result = minimize_g(model, (1e-6, math.pi - 1e-9), tol=1e-10)
    assert not result.monotone
    assert abs(result.t_opt - bisect_stationary_point(model)) < 1e-6
    assert abs(result.t_opt - 1.39) <= 0.01
    assert abs(result.alpha_opt - 0.034) <= 0.005
    assert 1.35 <= result.t_opt <= 1.45
    assert 0.02 <= result.alpha_opt <= 0.04


def test_cosine_optimum_rescales_with_coupling():
    result = minimize_g(CosineSqAlpha(2.0), (1e-6, math.pi / 2 - 1e-9), tol=1e-10)
    assert abs(result.t_opt - 0.6933) < 1e-3


def test_cosine_optimum_scale_covariance():
    products = []
    for g in (0.5, 1.0, 2.0, 5.0):
        result = minimize_g(CosineSqAlpha(g), (1e-9, math.pi / g * (1 - 1e-9)), tol=1e-12)
        products.append(g * result.t_opt)
    assert max(products) - min(products) < 1e-6


def test_cosine_has_single_interior_minimum():
    # derivative changes sign exactly once across the first branch
    model = CosineSqAlpha(1.0)
    ts = np.linspace(1e-3, math.pi - 1e-3, 10_000)
    values = np.array([g_function(model, float(t)) for t in ts])
    signs = np.sign(np.diff(values))
    flips = np.sum(np.abs(np.diff(signs)) > 0)
    assert flips == 1


def test_exponential_is_monotone_and_flagged():
    model = ExponentialAlpha(1.5)
    ts = np.linspace(1e-4, 8.0, 2000)
    values = np.array([g_function(model, float(t)) for t in ts])
    assert np.all(np.diff(values) > 0)
    result = minimize_g(model, (1e-6 * 1.5, 8.0))
    assert result.monotone
    assert result.t_opt == pytest.approx(1e-6 * 1.5, rel=1e-6)
    assert abs(result.G_opt - 1.5) <= 0.015


def test_minimize_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        minimize_g(CosineSqAlpha(1.0), (2.0, 1.0))
    with pytest.raises(ValidationError):
        minimize_g(CosineSqAlpha(1.0), (math.pi + 1.0, math.pi + 2.0))  # misses first branch


# ---------------------------------------------------------------------------
# Dissipation vs contact time
# ---------------------------------------------------------------------------

def test_w_dis_linear_when_alpha_zero():
    query = DissipationQuery(model=constant_alpha_model(0.0), Gamma=0.7, total_time=100.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(w_dis_of_tth(query, t) - 0.7 * t / 100.0) < 1e-15
        assert query.is_asymptotic(t)
    assert not query.is_asymptotic(10.0)


def test_w_dis_exponential_short_time_floor():
    # G -> tau_th, so the dissipation floor is 2 Gamma tau_th / total_time
    tau, gamma, total = 0.8, 0.5, 200.0
    query = DissipationQuery(model=ExponentialAlpha(tau), Gamma=gamma, total_time=total)
    floor = 2.0 * gamma * tau / total
    assert abs(w_dis_of_tth(query, 1e-5 * tau) - floor) <= 0.01 * floor


def test_w_dis_at_cosine_optimum_composes():
    model = CosineSqAlpha(1.0)
    result = minimize_g(model, (1e-6, math.pi - 1e-9))
    query = DissipationQuery(model=model, Gamma=1.3, total_time=500.0)
    assert abs(w_dis_of_tth(query, result.t_opt) - 2.0 * 1.3 * result.G_opt / 500.0) < 1e-12


def test_w_dis_rejects_t_beyond_total_time():
    query = DissipationQuery(model=constant_alpha_model(0.0), Gamma=1.0, total_time=10.0)
    with pytest.raises(ValidationError):
        w_dis_of_tth(query, 10.0)


def test_query_validation():
    with pytest.raises(ValidationError):
        DissipationQuery(model=constant_alpha_model(0.0), Gamma=-1.0, total_time=10.0)


# ---------------------------------------------------------------------------
# Cross-module validation against exact protocol runs
# ---------------------------------------------------------------------------

def test_formula_matches_simulation_constant_alpha():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    rows = validate_against_simulation(constant_alpha_model(0.5), path, 50.0, [0.05, 0.1, 0.5, 2.5, 5.0])
    gated = [r for r in rows if r.gated]
    assert len(gated) == 3  # N = 1000, 500, 100
    for row in gated:
        assert row.relative_deviation < 0.10
    flagged = [r for r in rows if not r.asymptotic]
    assert [r.contacts for r in flagged] == [10]


def test_formula_matches_simulation_perfect_thermalization():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    rows = validate_against_simulation(constant_alpha_model(0.0), path, 50.0, [0.1, 0.5])
    for row in rows:
        assert row.gated and row.relative_deviation < 0.10
