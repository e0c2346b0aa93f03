import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

import thermoflow.qudit
from thermoflow.core import (
    DensityOperator,
    HamiltonianMatrix,
    ValidationError,
    _trace_norm,
    gibbs_matrices,
    gibbs_state,
    relative_entropy,
)
from thermoflow.collision import FixedAlpha, QubitProtocolConfig, average_work, make_schedule
from thermoflow.maps import cyclic_qubit_gap_path, cyclic_qubit_zx_path, evolve_unitary
from thermoflow.qudit import (
    HamiltonianPath,
    QuditProtocolConfig,
    _dissipation_density,
    _fdot,
    asymptotic_dissipation,
    exact_dissipation,
    gamma_coefficient,
    linear_endpoint_path,
    make_rank_deficient_erasure,
    path_preset,
    qubit_excitation_path,
    rank_deficient_scaling,
    run_qudit_protocol,
    smoothstep,
)

from conftest import FIG_TEMP, lambda_over_gamma

PRESETS = ("qubit-linear-q", "qubit-gap-ramp", "random-diagonal-d4")


def preset_config(name: str, N: int, alpha: float) -> QuditProtocolConfig:
    path = path_preset(name, FIG_TEMP)
    return QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=N, alpha=alpha)


def linear_excitation_path(q_start: float, q_end: float, temp) -> HamiltonianPath:
    """qubit_excitation_path with q(s) ramped linearly rather than by smoothstep: sloped at both ends."""

    def sampler(s):
        return _qubit_stack([temp.T * math.log((1.0 - x) / x) for x in (q_start + (q_end - q_start) * s).tolist()])

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


def linear_gap_ramp_path(gap_start: float, gap_end: float, temp) -> HamiltonianPath:
    """qubit_gap_ramp_path with the gap ramped linearly rather than by smoothstep."""
    return HamiltonianPath(dim=2, sampler=lambda s: _qubit_stack(gap_start + (gap_end - gap_start) * s), temp=temp)


def f_lambda(path: HamiltonianPath, lam: float) -> float:
    """Local dissipation rate f(lambda) = -Tr(taudot(lambda) Hdot(lambda)): twice Gamma's integrand."""
    return float(2.0 * _dissipation_density(path, np.array([lam]))[0])


def relative_entropy_curvature(path: HamiltonianPath, lam: float, x: float = 1e-3) -> float:
    """T * d^2/dx^2 S(tau(lambda+x) || tau(lambda)) at x = 0, by central differences."""
    base = path.gibbs_matrix(lam)
    plus = relative_entropy(path.gibbs_matrix(lam + x), base)
    minus = relative_entropy(path.gibbs_matrix(lam - x), base)
    return path.temp.T * (plus + minus) / (x * x)


# ---------------------------------------------------------------------------
# Paths and configuration
# ---------------------------------------------------------------------------

def _qubit_stack(gaps):
    """diag(0, gap) for each gap, stacked as the sampler contract asks."""
    H = np.zeros((len(gaps), 2, 2), dtype=complex)
    H[:, 1, 1] = gaps
    return H


def test_path_rejects_non_hermitian_sampler():
    path = HamiltonianPath(dim=2, sampler=lambda s: np.tile([[0.0, 1.0], [0.0, 0.0]], (len(s), 1, 1)), temp=FIG_TEMP)
    with pytest.raises(ValidationError, match="non-Hermitian"):
        path.hamiltonian(0.5)


def test_path_rejects_wrong_shape():
    path = HamiltonianPath(dim=3, sampler=lambda s: np.eye(2), temp=FIG_TEMP)
    with pytest.raises(ValidationError):
        path.hamiltonian(0.0)


def test_path_rejects_a_per_point_sampler():
    # a sampler that returns one (d, d) matrix for the whole array s
    path = HamiltonianPath(dim=2, sampler=lambda s: np.eye(2), temp=FIG_TEMP)
    with pytest.raises(ValidationError, match=r"sampler returned shape \(2, 2\), expected \(3, 2, 2\)"):
        path.hamiltonians(np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_path_rejects_non_finite_sampler(bad):
    def sampler(s):
        H = _qubit_stack(np.ones(len(s)))
        H[s == 0.5, 1, 1] = bad
        return H

    path = HamiltonianPath(dim=2, sampler=sampler, temp=FIG_TEMP)
    with pytest.raises(ValidationError, match=r"sampler returned a non-finite matrix at s = 0\.5"):
        path.hamiltonians(np.array([0.25, 0.5, 0.75]))


def test_smoothness_probe_flags_jumps():
    def jumpy(s):
        return _qubit_stack(np.where(s < 0.5, 0.0, 5.0))

    path = HamiltonianPath(dim=2, sampler=jumpy, temp=FIG_TEMP)
    smooth = path_preset("qubit-gap-ramp", FIG_TEMP)
    assert path.probe_smoothness() > 1e6 * smooth.probe_smoothness()
    with pytest.raises(ValidationError):
        gamma_coefficient(path)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        path_preset("no-such-path", FIG_TEMP)


def test_config_rejects_nan_system_hamiltonian():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    with pytest.raises(ValidationError, match="H_system must be Hermitian"):
        QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=4, alpha=0.5, H_system=np.full((2, 2), np.nan))


def test_config_rejects_nan_initial_mismatch(monkeypatch):
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    monkeypatch.setattr(thermoflow.qudit, "trace_distance", lambda rho, sigma: math.nan)
    with pytest.raises(ValidationError, match="mismatch nan"):
        QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=4, alpha=0.5)


def test_full_rank_config_requires_matching_start():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    with pytest.raises(ValidationError):
        QuditProtocolConfig(path=path, rho0=DensityOperator.maximally_mixed(2), N=10, alpha=0.3)


def test_rank_deficient_config_records_mismatch():
    cfg = make_rank_deficient_erasure(alpha=0.5, temp=FIG_TEMP, delta=1e-2)
    assert not cfg.is_full_rank
    assert abs(cfg.delta - 1e-2) < 1e-12


# ---------------------------------------------------------------------------
# Protocol runs
# ---------------------------------------------------------------------------

def test_qudit_reproduces_qubit_staircase():
    # dim-2 diagonal trajectory against the collision-model ledger
    N, q0, q1, alpha = 200, 0.2, 0.5, 0.37
    path = linear_excitation_path(q0, q1, FIG_TEMP)
    qs = q0 + (q1 - q0) * np.arange(N + 1) / N
    sched = make_schedule(qs, FIG_TEMP)
    collision_cfg = QubitProtocolConfig(
        p0=q0, eps_S=float(sched.E[-1]), schedule=sched, noise=FixedAlpha(alpha)
    )
    qudit_cfg = QuditProtocolConfig(
        path=path, rho0=DensityOperator.diagonal([1 - q0, q0]), N=N, alpha=alpha
    )
    _, ledger = run_qudit_protocol(qudit_cfg)
    assert abs(ledger.cumulative_work - average_work(collision_cfg).cumulative_work) < 1e-10


def test_perfect_thermalization_follows_the_staircase():
    cfg = preset_config("qubit-gap-ramp", 25, 0.0)
    states, _ = run_qudit_protocol(cfg)
    for k in (1, 10, 25):
        assert np.abs(states[k] - cfg.path.gibbs_matrix(k / 25)).max() < 1e-12


def test_single_step_work_formula():
    path = path_preset("qubit-gap-ramp", FIG_TEMP)
    H_S = np.diag([0.0, 0.9]).astype(complex)
    cfg = QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=1, alpha=0.3, H_system=H_S)
    _, ledger = run_qudit_protocol(cfg)
    expected = 0.7 * np.trace(
        (path.hamiltonian(1.0) - H_S) @ (path.gibbs_matrix(1.0) - path.gibbs_matrix(0.0))
    ).real
    assert abs(ledger.cumulative_work - expected) < 1e-12


# ---------------------------------------------------------------------------
# Lag expansion
# ---------------------------------------------------------------------------

def lag_deviation(config: QuditProtocolConfig, k: int) -> float:
    """Residual || rho_k - tau(k/N) + (alpha/((1-alpha) N)) taudot(k/N) ||_1 of the first-order lag expansion.

    It vanishes one order faster than the lag itself, for k >= sqrt(N).
    """
    alpha, N, s = config.alpha, config.N, k / config.N
    correction = (alpha / (N * (1.0 - alpha))) * config.path._fd(config.path.gibbs_matrices, (s,))[0]
    residual = run_qudit_protocol(config)[0][k] - config.path.gibbs_matrix(s) + correction
    return float(_trace_norm(0.5 * (residual + residual.conj().T)))


def test_lag_residual_vanishes_at_alpha0():
    cfg = preset_config("qubit-linear-q", 100, 0.0)
    assert lag_deviation(cfg, 50) < 1e-12


@pytest.mark.parametrize(
    "name,frac",
    [("qubit-gap-ramp", 0.5), ("random-diagonal-d4", 0.5), ("qubit-linear-q", 0.375)],
)
def test_lag_residual_is_second_order(name, frac):
    # second-order residual: each N doubling shrinks it ~4x (the probe point
    # avoids spots where the second path derivative vanishes)
    residuals = []
    for N in (250, 500, 1000):
        cfg = preset_config(name, N, 0.5)
        residuals.append(lag_deviation(cfg, int(frac * N)))
    for a, b in zip(residuals, residuals[1:]):
        assert 3.2 <= a / b <= 4.8


def test_lag_first_order_coefficient():
    # the lag itself equals (alpha/((1-alpha)N)) ||taudot||_1 at leading order
    N, alpha = 2000, 0.5
    cfg = preset_config("qubit-gap-ramp", N, alpha)
    states, _ = run_qudit_protocol(cfg)
    k = N // 2
    gap = states[k] - cfg.path.gibbs_matrix(k / N)
    lag_norm = np.abs(np.linalg.eigvalsh(gap)).sum() * N * (1 - alpha) / alpha
    taudot = cfg.path._fd(cfg.path.gibbs_matrices, (k / N,))[0]
    taudot_norm = np.abs(np.linalg.eigvalsh(taudot)).sum()
    assert abs(lag_norm - taudot_norm) / taudot_norm < 0.05


# ---------------------------------------------------------------------------
# Trajectory coefficients
# ---------------------------------------------------------------------------

def test_gamma_constant_path_is_zero():
    path = linear_endpoint_path(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), FIG_TEMP)
    assert abs(gamma_coefficient(path)) < 1e-12


def test_gamma_against_scalar_quadrature():
    # commuting qubit path: Tr(taudot Hdot) = qdot * Edot with analytic factors
    q0, q1 = 0.2, 0.5
    path = qubit_excitation_path(q0, q1, FIG_TEMP)
    T = FIG_TEMP.T

    def q_of(s):
        return q0 + (q1 - q0) * smoothstep(s)

    def qdot(s):
        return (q1 - q0) * 6.0 * s * (1.0 - s)

    def integrand(s):
        # Edot = -T qdot / (q(1-q)); Gamma density = -(1/2) qdot Edot
        q = q_of(s)
        return 0.5 * T * qdot(s) ** 2 / (q * (1.0 - q))

    expected, _ = quad(integrand, 0.0, 1.0, limit=200)
    assert abs(gamma_coefficient(path) - expected) < 1e-6 * max(1.0, expected)


@pytest.mark.parametrize("name", PRESETS)
def test_gamma_positive_for_nonconstant_paths(name):
    assert gamma_coefficient(path_preset(name, FIG_TEMP)) > 1e-4


def test_f_lambda_constant_path_is_zero():
    path = linear_endpoint_path(np.diag([0.0, 0.7]), np.diag([0.0, 0.7]), FIG_TEMP)
    assert abs(f_lambda(path, 0.5)) < 1e-10


@pytest.mark.parametrize("name", PRESETS)
def test_f_lambda_matches_relative_entropy_curvature(name):
    path = path_preset(name, FIG_TEMP)
    for lam in (0.2, 0.5, 0.8):
        f = f_lambda(path, lam)
        oracle = relative_entropy_curvature(path, lam)
        assert abs(f - oracle) <= max(1e-4, 1e-3 * abs(f))
        assert f >= -1e-10


# ---------------------------------------------------------------------------
# Asymptotic dissipation law
# ---------------------------------------------------------------------------

def preset_law(name: str):
    path = path_preset(name, FIG_TEMP)
    return asymptotic_dissipation(path, path.hamiltonian(1.0))


def test_asymptotic_alpha0_reduces_to_gamma_over_n():
    law = preset_law("qubit-gap-ramp")
    assert abs(law.prediction(0.0, 500) - law.gamma / 500) < 1e-12
    assert math.isnan(lambda_over_gamma(preset_config("qubit-gap-ramp", 500, 0.0)))


@pytest.mark.parametrize("name", PRESETS)
def test_asymptotic_matches_exact_at_n2000(name):
    exact = exact_dissipation(preset_config(name, 2000, 0.5))
    assert abs(exact - preset_law(name).prediction(0.5, 2000)) / abs(exact) < 0.05


@pytest.mark.parametrize("name", PRESETS)
def test_asymptotic_richardson_ratio(name):
    law = preset_law(name)
    r1, r2 = (abs(exact_dissipation(preset_config(name, N, 0.5)) - law.prediction(0.5, N)) for N in (1000, 2000))
    assert r1 / r2 >= 1.8


@pytest.mark.parametrize("name", PRESETS)
def test_lambda_over_gamma_is_two(name):
    assert abs(lambda_over_gamma(preset_config(name, 2000, 0.5)) - 2.0) <= 0.04


def test_dissipation_law_without_endpoint_smoothing():
    # plain linear ramp: nonzero starting slope of F(tau(s), H_S); the exact
    # dissipation still converges to the bulk term alone, because the
    # starting-slope contributions cancel exactly in the staircase
    path = linear_gap_ramp_path(1.6, 0.3, FIG_TEMP)
    H_S = path.hamiltonian(1.0)
    gamma = gamma_coefficient(path)
    law = asymptotic_dissipation(path, H_S)
    alpha = 0.5
    bulk = (1.0 + 2.0 * alpha / (1.0 - alpha)) * gamma
    assert abs(_fdot(path, H_S, path.derivative_step)) > 0.1  # the ramp really has a sloped start
    for N in (2000, 4000):
        exact = exact_dissipation(QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=N, alpha=alpha))
        assert abs(N * exact - bulk) / bulk < 0.01
        assert abs(exact - law.prediction(alpha, N)) / exact < 0.01


def test_dissipation_law_final_slope_coefficient():
    # ramp with zero starting slope but sloped finish against H_S != H(1):
    # N * W_dis -> bulk - (alpha/(1-alpha)) Fdot(1)
    def sampler(s):
        w = s * s
        return _qubit_stack(1.6 + (0.3 - 1.6) * w)

    path = HamiltonianPath(dim=2, sampler=sampler, temp=FIG_TEMP)
    H_S = np.diag([0.0, 0.9]).astype(complex)
    alpha = 0.5
    cfg = QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=4000, alpha=alpha, H_system=H_S)
    law = asymptotic_dissipation(path, H_S)
    exact = exact_dissipation(cfg)
    assert abs(law.fdot_end) > 0.1
    assert abs(exact - law.prediction(alpha, 4000)) / abs(exact) < 0.01


# ---------------------------------------------------------------------------
# Rank-deficient scaling
# ---------------------------------------------------------------------------

def test_rank_deficient_scaling_exponent():
    base = make_rank_deficient_erasure(alpha=0.5, temp=FIG_TEMP, delta=1e-2)
    ladder = [100, 215, 464, 1000, 2150, 4640, 10000]
    rows = rank_deficient_scaling(base, [1.0 / n for n in ladder])
    scaled = [r.N * r.w_dis for r in rows]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))  # grows like log N
    slope = np.polyfit([math.log(math.log(r.N)) for r in rows], np.log(scaled), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_rank_deficient_guards():
    base = make_rank_deficient_erasure(alpha=0.5, temp=FIG_TEMP, delta=1e-2)
    with pytest.raises(ValidationError):
        rank_deficient_scaling(base, [0.0])
    full_rank = preset_config("qubit-gap-ramp", 10, 0.5)
    with pytest.raises(ValidationError):
        rank_deficient_scaling(full_rank, [1e-2])


def initial_mismatch_work(config: QuditProtocolConfig) -> tuple[float, float]:
    """First-contact work term from rho0 != tau(0), and its norm bound.

    W0 = (1-alpha) sum_k alpha^(k-1) Tr[(H(k/N) - H_S)(tau(0) - rho0)]
    obeys |W0| <= delta * max_s ||H(s) - H_S||_inf with delta the initial
    trace-norm mismatch.
    """
    N, alpha, path = config.N, config.alpha, config.path
    mismatch = path.gibbs_matrix(0.0) - config.rho0.matrix
    k = np.arange(1, N + 1)
    overlap = ((path.hamiltonians(k / N) - config.H_system) @ mismatch).trace(axis1=1, axis2=2).real
    w0 = float(((1.0 - alpha) * alpha ** (k - 1) * overlap).sum())
    grid = np.linspace(0.0, 1.0, 201)
    bound = config.delta * float(np.linalg.norm(path.hamiltonians(grid) - config.H_system, 2, axis=(1, 2)).max())
    return w0, bound


def test_initial_mismatch_work_bound():
    for delta in (1e-2, 1e-3):
        cfg = make_rank_deficient_erasure(alpha=0.5, temp=FIG_TEMP, delta=delta)
        w0, bound = initial_mismatch_work(cfg)
        assert abs(w0) <= bound + 1e-10
        assert bound > 0.0


# ---------------------------------------------------------------------------
# Cross-cutting invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PRESETS)
def test_dissipation_never_negative(name):
    for N, alpha in [(50, 0.0), (50, 0.6), (200, 0.9)]:
        assert exact_dissipation(preset_config(name, N, alpha)) >= -1e-10


def test_dissipation_monotone_in_alpha():
    values = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
        values.append(exact_dissipation(preset_config("qubit-gap-ramp", 400, alpha)))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_alpha_prefactor_collapse_across_paths():
    # N * W_dis / (1 + 2a/(1-a)) is constant in alpha for each trajectory
    N = 2000
    for name in PRESETS:
        ratios = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
            exact = exact_dissipation(preset_config(name, N, alpha))
            ratios.append(N * exact / (1.0 + 2.0 * alpha / (1.0 - alpha)))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 0.03


# ---------------------------------------------------------------------------
# Bit-identity oracles: the per-step loop and the scalar Simpson rule
# ---------------------------------------------------------------------------

def _dense_ends():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    return g[0] + g[0].conj().T, g[1] + g[1].conj().T


def _random_diagonal_ends():
    rng = np.random.default_rng(11)
    return np.sort(rng.uniform(-1.0, 1.0, size=4)), np.sort(rng.uniform(-1.0, 1.0, size=4))


RANK_DEFICIENT_POPULATIONS = (np.array([1.0 - 5e-3, 2.5e-3, 2.5e-3]), np.full(3, 1.0 / 3.0))

ORACLE_PATHS = {name: lambda name=name: path_preset(name, FIG_TEMP) for name in PRESETS}
ORACLE_PATHS["dense-complex-d3"] = lambda: linear_endpoint_path(*_dense_ends(), FIG_TEMP)
ORACLE_PATHS["qubit-cyclic-gap"] = lambda: cyclic_qubit_gap_path(FIG_TEMP)
ORACLE_PATHS["qubit-cyclic-zx"] = lambda: cyclic_qubit_zx_path(FIG_TEMP)
ORACLE_PATHS["rank-deficient-d3"] = lambda: thermoflow.qudit._diagonal_population_path(
    *RANK_DEFICIENT_POPULATIONS, FIG_TEMP
)


def _scalar_hamiltonians():
    """H(s) at one float s by the per-point formulas of each oracle path: np.diag, math.log, math.sin ** 2."""
    T = FIG_TEMP.T
    m0, m1 = _dense_ends()
    d0, d1 = _random_diagonal_ends()
    start, end = RANK_DEFICIENT_POPULATIONS
    Z = np.diag([1.0, -1.0]).astype(complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def smoothstep(s):
        return s * s * (3.0 - 2.0 * s)

    def linear_q(s):
        q = 0.2 + (0.5 - 0.2) * smoothstep(s)
        return np.diag([0.0, T * math.log((1.0 - q) / q)]).astype(complex)

    def gap_ramp(s):
        return np.diag([0.0, 1.6 + (0.3 - 1.6) * smoothstep(s)]).astype(complex)

    def random_diagonal(s):
        w = smoothstep(s)
        return np.diag((1.0 - w) * d0 + w * d1).astype(complex)

    def cyclic_zx(s):
        return (1.0 + 0.5 * math.sin(math.pi * s) ** 2) * Z + 0.7 * math.sin(math.pi * s) * X

    def rank_deficient(s):
        pops = (1.0 - s) * start + s * end
        return np.diag(T * (np.log(pops[0]) - np.log(pops))).astype(complex)

    return {
        "qubit-linear-q": linear_q,
        "qubit-gap-ramp": gap_ramp,
        "random-diagonal-d4": random_diagonal,
        "dense-complex-d3": lambda s: (1.0 - s) * m0 + s * m1,
        "qubit-cyclic-gap": lambda s: (1.0 + 0.8 * math.sin(math.pi * s) ** 2) * Z,
        "qubit-cyclic-zx": cyclic_zx,
        "rank-deficient-d3": rank_deficient,
    }


SCALAR_HAMILTONIANS = _scalar_hamiltonians()


def _reference_hamiltonian(name, s):
    return SCALAR_HAMILTONIANS[name](float(s))


def _reference_gibbs(name, s):
    H = _reference_hamiltonian(name, s)
    return gibbs_state(HamiltonianMatrix(H), FIG_TEMP).matrix


def _reference_fd(path, fun, s):
    h = path.derivative_step
    if s - h < 0.0:
        return (-3.0 * fun(s) + 4.0 * fun(s + h) - fun(s + 2 * h)) / (2 * h)
    if s + h > 1.0:
        return (-3.0 * fun(s) + 4.0 * fun(s - h) - fun(s - 2 * h)) / (-2 * h)
    return (fun(s + h) - fun(s - h)) / (2 * h)


def _reference_staircase(config, name):
    """One Gibbs target, one work term and one DensityOperator per contact."""
    N, alpha, H_S = config.N, config.alpha, config.H_system
    rho = config.rho0.matrix
    states, steps = [rho], np.empty(N)
    for k in range(1, N + 1):
        tau = _reference_gibbs(name, k / N)
        H = _reference_hamiltonian(name, k / N)
        steps[k - 1] = (1.0 - alpha) * np.trace((H - H_S) @ (tau - rho)).real
        rho = alpha * rho + (1.0 - alpha) * tau
        states.append(DensityOperator(rho).matrix)
    return np.array(states), steps


def _reference_gamma(path, name, M=256, tol=1e-9):
    def density(s):
        taudot = _reference_fd(path, lambda u: _reference_gibbs(name, u), s)
        Hdot = _reference_fd(path, lambda u: _reference_hamiltonian(name, u), s)
        return -0.5 * np.trace(taudot @ Hdot).real

    def simpson(panels):
        ys = np.array([density(x) for x in np.linspace(0.0, 1.0, panels + 1)])
        return float((ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()) / (3.0 * panels))

    coarse = simpson(M)
    while True:
        M *= 2
        fine = simpson(M)
        if abs(fine - coarse) < tol or M >= 4096:
            return fine + (fine - coarse) / 15.0
        coarse = fine


def _unitary_midpoints(N, substeps=16):
    """The substep midpoints evolve_unitary samples on every step of an N-contact protocol."""
    mids = []
    for i in range(1, N + 1):
        t0, t1 = (i - 1) / N, i / N
        dt = (t1 - t0) / substeps
        mids.append(t0 + (np.arange(substeps) + 0.5) * dt)
    return np.concatenate(mids)


@pytest.mark.parametrize("name", sorted(ORACLE_PATHS))
def test_stacked_path_evaluation_is_bit_identical(name):
    path = ORACLE_PATHS[name]()
    h = path.derivative_step
    s = np.concatenate([[0.0, 0.5 * h, h, 1.0 - 0.5 * h, 1.0], np.random.default_rng(1).random(150)])
    H, taus = path.hamiltonians(s), path.gibbs_matrices(s)
    for i, x in enumerate(s):
        assert H[i].tobytes() == _reference_hamiltonian(name, x).tobytes()
        assert np.array_equal(taus[i], _reference_gibbs(name, x))
    for x in s[:8]:
        assert np.array_equal(
            path._fd(path.gibbs_matrices, (x,))[0], _reference_fd(path, lambda u: _reference_gibbs(name, u), x)
        )
        assert np.array_equal(
            path._fd(path.hamiltonians, (x,))[0], _reference_fd(path, lambda u: _reference_hamiltonian(name, u), x)
        )
    for s in (np.arange(65) / 64, np.arange(513) / 512, _unitary_midpoints(64), np.random.default_rng(2).random(2000)):
        stack = path.hamiltonians(s)
        assert stack.shape == (len(s), path.dim, path.dim)
        for i, x in enumerate(s):
            assert stack[i].tobytes() == _reference_hamiltonian(name, x).tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_PATHS))
def test_blocked_staircase_is_bit_identical_to_the_per_step_loop(name):
    path = ORACLE_PATHS[name]()
    for N, alpha in [(1, 0.3), (63, 0.0), (65, 0.37), (200, 0.9)]:
        cfg = QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=N, alpha=alpha)
        states, ledger = run_qudit_protocol(cfg)
        ref_states, ref_steps = _reference_staircase(cfg, name)
        assert states.shape == (N + 1, path.dim, path.dim)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(ledger.per_step_work, ref_steps)
        assert ledger.cumulative_work == float(ref_steps.sum())


@pytest.mark.parametrize("name", sorted(ORACLE_PATHS))
def test_gamma_is_bit_identical_to_the_scalar_simpson(name):
    path = ORACLE_PATHS[name]()
    assert gamma_coefficient(path) == _reference_gamma(path, name)


def test_staircase_work_is_stacked(monkeypatch):
    # one stacked eigh (targets) and one eigvalsh (validation) for all
    # contacts, and no DensityOperator per step
    cfg = preset_config("random-diagonal-d4", 1000, 0.5)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(DensityOperator, "__post_init__", counted("density", DensityOperator.__post_init__))
    states, _ = run_qudit_protocol(cfg)
    assert calls["eigh"] == 1
    assert calls["eigvalsh"] == 1
    assert calls["density"] == 0
    assert states.shape == (1001, 4, 4)


def test_paths_are_sampled_once_per_stacked_call():
    # one sampler call for all contacts of a staircase, and one for all midpoints of a propagator or a stack of them
    calls = []

    def counted(path):
        return dataclasses.replace(path, sampler=lambda s: calls.append(np.size(s)) or path.sampler(s))

    ramp = counted(path_preset("qubit-gap-ramp", FIG_TEMP))
    cfg = QuditProtocolConfig(path=ramp, rho0=ramp.gibbs(0.0), N=1000, alpha=0.5)
    calls.clear()
    run_qudit_protocol(cfg)
    assert calls == [1000]
    calls.clear()
    evolve_unitary(counted(cyclic_qubit_zx_path(FIG_TEMP)), 0.0, 1.0, 64)
    assert calls == [64]
    calls.clear()
    evolve_unitary(counted(cyclic_qubit_zx_path(FIG_TEMP)), np.arange(100) / 100, np.arange(1, 101) / 100, 16)
    assert calls == [1600]


@pytest.mark.parametrize("contact", [1, 200])
def test_staircase_checks_every_contact(monkeypatch, contact):
    # all 200 targets come from one stacked call; a target off trace by 1e-9
    # at the first or the last contact must stop the run
    cfg = preset_config("qubit-gap-ramp", 200, 0.5)
    calls = []

    def skewed(H, temp):
        taus = gibbs_matrices(H, temp)
        taus[contact - 1, 0, 0] += 1e-9
        calls.append(len(H))
        return taus

    monkeypatch.setattr(thermoflow.qudit, "gibbs_matrices", skewed)
    with pytest.raises(ValidationError, match="trace must be 1"):
        run_qudit_protocol(cfg)
    assert calls == [200]
