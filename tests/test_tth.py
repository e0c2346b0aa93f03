import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from thermoflow.core import ValidationError, free_energy
from thermoflow.experiments import _tth_rows
from thermoflow.maps import _execute
from thermoflow.qudit import gamma_coefficient, path_preset
from thermoflow.tth import (
    CosineSqAlpha,
    ExponentialAlpha,
    alpha_of,
    g_function,
    minimize_g,
)

from conftest import FIG_TEMP


@dataclass(frozen=True)
class ConstantAlpha:
    """A contact whose relaxation profile is the same alpha at every duration."""

    value: float

    def alpha(self, t: float) -> float:
        return self.value


def w_dis_of_tth(model, gamma: float, total_time: float, t: float) -> float:
    """W_dis(t) = 2 Gamma G(t) / total_time as the fig5/6 tables write it."""
    return _tth_rows(model, [t], gamma, total_time)[0][3]


# ---------------------------------------------------------------------------
# Models and G(t)
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValidationError):
        CosineSqAlpha(0.0)
    with pytest.raises(ValidationError):
        ExponentialAlpha(-1.0)


def test_alpha_models_stay_in_unit_interval():
    models = [CosineSqAlpha(1.3), ExponentialAlpha(0.7), ConstantAlpha(0.4)]
    for model in models:
        for t in np.linspace(1e-6, 8.0, 200):
            assert 0.0 <= alpha_of(model, float(t)) <= 1.0


def test_g_without_relaxation_penalty_is_half_t():
    model = ConstantAlpha(0.0)
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
    for model in (CosineSqAlpha(2.0), ExponentialAlpha(1.0), ConstantAlpha(0.6)):
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
    for t in (0.5, 1.0, 2.0):
        assert abs(w_dis_of_tth(ConstantAlpha(0.0), 0.7, 100.0, t) - 0.7 * t / 100.0) < 1e-15


def test_w_dis_exponential_short_time_floor():
    # G -> tau_th, so the dissipation floor is 2 Gamma tau_th / total_time
    tau, gamma, total = 0.8, 0.5, 200.0
    floor = 2.0 * gamma * tau / total
    assert abs(w_dis_of_tth(ExponentialAlpha(tau), gamma, total, 1e-5 * tau) - floor) <= 0.01 * floor


def test_w_dis_at_cosine_optimum_composes():
    model = CosineSqAlpha(1.0)
    result = minimize_g(model, (1e-6, math.pi - 1e-9))
    assert abs(w_dis_of_tth(model, 1.3, 500.0, result.t_opt) - 2.0 * 1.3 * result.G_opt / 500.0) < 1e-12


# ---------------------------------------------------------------------------
# Cross-module validation against exact protocol runs
# ---------------------------------------------------------------------------

class SimulationComparison(NamedTuple):
    contacts: int
    relative_deviation: float
    asymptotic: bool  # N >= 20: the formula is meaningful at all
    gated: bool  # N >= 100: the 10% agreement gate applies


def validate_against_simulation(model, path, total_time, t_grid) -> list[SimulationComparison]:
    """Closed-form W_dis(t) against an exact quench-mode run with N = round(total_time / t) contacts."""
    gamma = gamma_coefficient(path)
    rho0 = path.gibbs(0.0)
    delta_f_iso = free_energy(rho0, path.hamiltonian(0.0), path.temp) - free_energy(
        path.gibbs_matrix(1.0), path.hamiltonian(1.0), path.temp
    )
    rows = []
    for t in t_grid:
        alpha = alpha_of(model, t)
        N = max(int(round(total_time / t)), 1)
        formula = w_dis_of_tth(model, gamma, total_time, t)
        exact = delta_f_iso - _execute(path, N, rho0, "partial", alpha, "quench", 16).work
        deviation = abs(exact - formula) / formula
        rows.append(SimulationComparison(N, deviation, N >= 20, N >= 100))
    return rows


def test_formula_matches_simulation_constant_alpha():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    rows = validate_against_simulation(ConstantAlpha(0.5), path, 50.0, [0.05, 0.1, 0.5, 2.5, 5.0])
    gated = [r for r in rows if r.gated]
    assert len(gated) == 3  # N = 1000, 500, 100
    for row in gated:
        assert row.relative_deviation < 0.10
    flagged = [r for r in rows if not r.asymptotic]
    assert [r.contacts for r in flagged] == [10]


def test_formula_matches_simulation_perfect_thermalization():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    rows = validate_against_simulation(ConstantAlpha(0.0), path, 50.0, [0.1, 0.5])
    for row in rows:
        assert row.gated and row.relative_deviation < 0.10
