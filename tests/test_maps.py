import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from thermoflow import maps
from thermoflow.core import (
    DensityOperator,
    HamiltonianMatrix,
    ValidationError,
    free_energy,
    gibbs_matrices,
    gibbs_state,
    trace_distance,
)
from thermoflow.maps import (
    CYCLIC_PATH_PRESETS,
    CyclicProtocol,
    DissipationBreakdown,
    ThermalizingChannel,
    custom_channel,
    cyclic_qubit_gap_path,
    cyclic_qubit_zx_path,
    dissipation_breakdown,
    estimate_contraction,
    evolve_unitary,
    make_channel,
    protocol_state_lag,
    run_cyclic_protocol,
    run_protocol_segment,
    unitary_approx_error,
)
from thermoflow.qudit import (
    HamiltonianPath,
    QuditProtocolConfig,
    linear_endpoint_path,
    qubit_excitation_path,
    run_qudit_protocol,
)

from conftest import FIG_TEMP, random_density


def counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def qubit_h(gap: float) -> HamiltonianMatrix:
    return HamiltonianMatrix.qubit(gap)


def test_partial_channel_contraction_is_exact():
    ch = make_channel("partial", 0.5, qubit_h(1.2), FIG_TEMP)
    assert abs(estimate_contraction(ch, probes=200, seed=3) - 0.5) < 1e-12


def test_full_thermalization_channel_contracts_to_zero():
    for kind in ("partial", "pinch"):
        ch = make_channel(kind, 0.0, qubit_h(0.8), FIG_TEMP)
        assert estimate_contraction(ch, probes=50, seed=5) < 1e-12


def test_pinch_channel_contracts_at_most_lambda():
    for dim_h in (qubit_h(1.0), HamiltonianMatrix.from_matrix(np.diag([0.0, 0.4, 1.1, 1.9]))):
        ch = make_channel("pinch", 0.5, dim_h, FIG_TEMP)
        assert estimate_contraction(ch, probes=200, seed=11) <= 0.5 + 1e-9


def test_channels_fix_their_target():
    for kind in ("partial", "pinch"):
        ch = make_channel(kind, 0.7, qubit_h(1.5), FIG_TEMP)
        assert trace_distance(ch.apply(ch.target), ch.target) < 1e-12


def test_channel_monotonicity_on_probes():
    rng = np.random.default_rng(21)
    for kind in ("partial", "pinch"):
        ch = make_channel(kind, 0.6, qubit_h(0.9), FIG_TEMP)
        for _ in range(40):
            rho = random_density(rng, 2)
            assert trace_distance(ch.apply(rho), ch.target) <= trace_distance(rho, ch.target) + 1e-12


def test_custom_channel_and_validation():
    tau = gibbs_state(qubit_h(1.0), FIG_TEMP)
    ch = custom_channel(lambda m: 0.3 * m + 0.7 * tau.matrix, declared_alpha=0.3, target=tau)
    assert estimate_contraction(ch, probes=60, seed=2) <= 0.3 + 1e-9
    with pytest.raises(ValidationError):  # does not fix the target
        custom_channel(lambda m: np.eye(2, dtype=complex) / 2.0, declared_alpha=0.5, target=tau)
    with pytest.raises(ValidationError):
        make_channel("bogus", 0.5, qubit_h(1.0), FIG_TEMP)


def test_contraction_probe_count_validation():
    ch = make_channel("partial", 0.5, qubit_h(1.0), FIG_TEMP)
    with pytest.raises(ValidationError):
        estimate_contraction(ch, probes=0)


def test_nan_channel_output_fails_fixed_point_check():
    tau = gibbs_state(qubit_h(1.0), FIG_TEMP)
    with pytest.raises(ValidationError, match="does not fix"):
        custom_channel(lambda m: np.full_like(m, np.nan), declared_alpha=0.5, target=tau)


# ---------------------------------------------------------------------------
# Unitary propagation
# ---------------------------------------------------------------------------

def test_constant_hamiltonian_propagator_is_exact():
    H = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]], dtype=complex)
    path = HamiltonianPath(dim=2, sampler=lambda t: np.tile(H, (len(t), 1, 1)), temp=FIG_TEMP)
    lam, vecs = np.linalg.eigh(H)
    exact = (vecs * np.exp(-1j * lam * 0.37)) @ vecs.conj().T
    for substeps in (1, 7, 16):
        U = evolve_unitary(path, 0.13, 0.50, substeps)
        assert np.linalg.norm(U - exact, 2) < 1e-12


def test_commuting_family_matches_scalar_integral():
    H0 = np.diag([0.4, -0.4]).astype(complex)
    path = HamiltonianPath(
        dim=2, sampler=lambda t: (1.0 + 0.5 * np.sin(np.pi * t) ** 2)[:, None, None] * H0, temp=FIG_TEMP
    )
    U = evolve_unitary(path, 0.0, 1.0, 256)
    integral = 1.25  # int_0^1 (1 + 0.5 sin^2(pi t)) dt
    lam, vecs = np.linalg.eigh(integral * H0)
    exact = (vecs * np.exp(-1j * lam)) @ vecs.conj().T
    assert np.linalg.norm(U - exact, 2) < 1e-10


def test_propagator_second_order_convergence():
    path = cyclic_qubit_zx_path(FIG_TEMP)
    ref = evolve_unitary(path, 0.3, 0.45, 8 * 64)
    e16 = np.linalg.norm(evolve_unitary(path, 0.3, 0.45, 16) - ref, 2)
    e32 = np.linalg.norm(evolve_unitary(path, 0.3, 0.45, 32) - ref, 2)
    assert 3.0 <= e16 / e32 <= 5.0


def test_propagator_is_unitary():
    path = cyclic_qubit_zx_path(FIG_TEMP)
    U = evolve_unitary(path, 0.0, 1.0, 32)
    assert np.linalg.norm(U.conj().T @ U - np.eye(2), 2) < 1e-10


def test_evolve_unitary_guards():
    path = cyclic_qubit_zx_path(FIG_TEMP)
    with pytest.raises(ValidationError):
        evolve_unitary(path, 0.5, 0.5, 4)
    with pytest.raises(ValidationError):
        evolve_unitary(path, 0.0, 0.5, 0)


def test_nan_propagator_fails_unitarity_check(monkeypatch):
    # the path rejects a NaN Hamiltonian, so the NaN enters at the slice exponentials
    monkeypatch.setattr(maps, "_slice_exponential", lambda H, dt: np.full(H.shape, np.nan, dtype=complex))
    with pytest.raises(ValidationError, match="lost unitarity"):
        evolve_unitary(cyclic_qubit_zx_path(FIG_TEMP), 0.0, 1.0, 2)


def test_propagator_takes_one_stacked_eigh(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(np.linalg, "eigh", counting(calls, "eigh", np.linalg.eigh))
    evolve_unitary(cyclic_qubit_zx_path(FIG_TEMP), 0.0, 1.0, 64)
    assert calls["eigh"] == 1


def test_frozen_hamiltonian_error_constant_path():
    H = np.diag([0.2, -0.2]).astype(complex)
    path = HamiltonianPath(dim=2, sampler=lambda t: np.tile(H, (len(t), 1, 1)), temp=FIG_TEMP)
    assert unitary_approx_error(path, 3, 10, substeps=32) < 1e-12


def test_frozen_hamiltonian_error_scales_as_n_squared():
    path = cyclic_qubit_zx_path(FIG_TEMP)
    worst = {}
    for N in (50, 100, 200):
        worst[N] = max(unitary_approx_error(path, i, N, substeps=64) for i in range(1, N + 1))
    assert 3.2 <= worst[50] / worst[100] <= 4.8
    assert 3.2 <= worst[100] / worst[200] <= 4.8


def test_frozen_hamiltonian_error_bound():
    # measured error <= exp(||H|| dt) dt ||dH_i|| with the drift read off a fine grid
    path = cyclic_qubit_zx_path(FIG_TEMP)
    N, i = 100, 25
    err = unitary_approx_error(path, i, N, substeps=64)
    grid = np.linspace((i - 1) / N, i / N, 101)
    drift = max(np.linalg.norm(path.hamiltonian(t) - path.hamiltonian(i / N), 2) for t in grid)
    h_max = max(np.linalg.norm(path.hamiltonian(t), 2) for t in np.linspace(0, 1, 101))
    assert err <= math.exp(h_max / N) * (1.0 / N) * drift + 1e-10


# ---------------------------------------------------------------------------
# Protocol runs
# ---------------------------------------------------------------------------

def test_cyclic_protocol_validation():
    open_path = qubit_excitation_path(0.2, 0.4, FIG_TEMP)
    with pytest.raises(ValidationError):
        CyclicProtocol(path=open_path, N=4, channel_alpha=0.5)
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    with pytest.raises(ValidationError):
        CyclicProtocol(path=loop, N=0, channel_alpha=0.5)
    with pytest.raises(ValidationError):
        CyclicProtocol(path=loop, N=4, channel_alpha=0.5, evolution_mode="warp")
    proto = CyclicProtocol(path=loop, N=4, channel_alpha=0.5, contact_duration=0.25)
    assert proto.total_time == 1.0


def test_nan_endpoint_fails_loop_check(monkeypatch):
    # the path rejects a NaN Hamiltonian, so the NaN enters at the endpoint evaluation
    endpoint = HamiltonianPath.hamiltonian
    nan_at_one = lambda path, t: np.full((2, 2), np.nan) if t == 1.0 else endpoint(path, t)
    monkeypatch.setattr(HamiltonianPath, "hamiltonian", nan_at_one)
    with pytest.raises(ValidationError, match="not cyclic"):
        CyclicProtocol(path=cyclic_qubit_gap_path(FIG_TEMP), N=4, channel_alpha=0.5)


def test_unknown_channel_kind_is_rejected():
    segment = qubit_excitation_path(0.2, 0.45, FIG_TEMP)
    with pytest.raises(ValidationError, match="unknown channel kind"):
        run_protocol_segment(segment, 4, segment.gibbs(0.0), channel_alpha=0.5, channel_kind="bogus")


def test_misspelled_evolution_mode_is_rejected():
    # "unitry" used to run silently as a quench
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    message = "evolution_mode must be 'unitary' or 'quench', got 'unitry'"
    with pytest.raises(ValidationError, match=message):
        run_protocol_segment(loop, 8, loop.gibbs(0.0), 0.5, evolution_mode="unitry")
    with pytest.raises(ValidationError, match=message):
        CyclicProtocol(path=loop, N=8, channel_alpha=0.5, evolution_mode="unitry")


def test_single_step_identity_channel_work():
    # N = 1 with a non-contracting channel: only the step work remains
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    rho0 = loop.gibbs(0.0)
    proto = CyclicProtocol(path=loop, N=1, channel_alpha=1.0, evolution_mode="quench")
    ledger, final = run_cyclic_protocol(proto, rho0)
    expected = np.trace((loop.hamiltonian(0.0) - loop.hamiltonian(1.0)) @ rho0.matrix).real
    assert abs(ledger.cumulative_work - expected) < 1e-12
    assert trace_distance(final, rho0) < 1e-12  # H(0) = H(1) and no contraction


def test_quench_partial_matches_scalar_recursion():
    # independent float-only two-level recursion as oracle
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    N, lam = 37, 0.45
    rho0 = loop.gibbs(0.0)
    proto = CyclicProtocol(path=loop, N=N, channel_alpha=lam, evolution_mode="quench")
    ledger, final = run_cyclic_protocol(proto, rho0)

    def gap(t):
        return 2.0 * (1.0 + 0.8 * math.sin(math.pi * t) ** 2)  # splitting of base*Z

    def exc(t):
        # population of the upper level (+a, index 0 of diag(+a, -a))
        return 1.0 / (1.0 + math.exp(FIG_TEMP.beta * gap(t)))

    # Tr(H sigma) = g * (e - 1/2) for H = diag(+g/2, -g/2), e the upper weight
    e = exc(0.0)
    work = 0.0
    for i in range(1, N + 1):
        t_prev, t_i = (i - 1) / N, i / N
        work += (gap(t_prev) - gap(t_i)) * (e - 0.5)
        e = lam * e + (1.0 - lam) * exc(t_i)
    assert abs(ledger.cumulative_work - work) < 1e-10
    assert abs(final.populations[0] - e) < 1e-12


def test_work_bounded_by_free_energy_gap():
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    H0 = HamiltonianMatrix(dim=2, matrix=loop.hamiltonian(0.0))
    for pops in ([1.0, 0.0], [0.5, 0.5], [0.9, 0.1]):
        rho0 = DensityOperator.diagonal(pops)
        proto = CyclicProtocol(path=loop, N=64, channel_alpha=0.3, substeps=16)
        ledger, _ = run_cyclic_protocol(proto, rho0)
        bound = free_energy(rho0, H0, FIG_TEMP) - free_energy(loop.gibbs(0.0), H0, FIG_TEMP)
        assert ledger.cumulative_work <= bound + 1e-9


def test_optimal_protocol_reaches_free_energy_gap():
    # quench to the Hamiltonian whose Gibbs state is rho0, then a perfect
    # isothermal ramp back: total work approaches the free-energy gap as 1/N
    H_initial = HamiltonianMatrix.qubit(0.4)
    H_tilde = HamiltonianMatrix.qubit(1.3)
    rho0 = gibbs_state(H_tilde, FIG_TEMP)
    segment = linear_endpoint_path(H_tilde, H_initial, FIG_TEMP)
    w_quench = np.trace(rho0.matrix @ (H_initial.matrix - H_tilde.matrix)).real
    delta_f = free_energy(rho0, H_initial, FIG_TEMP) - free_energy(
        gibbs_state(H_initial, FIG_TEMP), H_initial, FIG_TEMP
    )
    gaps = []
    for N in (500, 2000):
        ledger, _ = run_protocol_segment(segment, N, rho0, channel_alpha=0.0, evolution_mode="quench")
        gaps.append(delta_f - (w_quench + ledger.cumulative_work))
    assert 0.0 < gaps[1] < 1e-4
    assert gaps[0] / gaps[1] > 3.0  # vanishes at first order in 1/N


def test_nan_bound_fails_second_law_check(monkeypatch):
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    proto = CyclicProtocol(path=loop, N=4, channel_alpha=0.5, evolution_mode="quench")
    monkeypatch.setattr(maps, "free_energy", lambda rho, H, temp: math.nan)
    with pytest.raises(ValidationError, match="second-law"):
        run_cyclic_protocol(proto, loop.gibbs(0.0))


def test_state_lag_shrinks_as_one_over_n():
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    lags = {}
    for N in (32, 64, 128, 256):
        proto = CyclicProtocol(path=loop, N=N, channel_alpha=0.5, substeps=16)
        lags[N] = protocol_state_lag(proto, loop.gibbs(0.0))
    for a, b in ((32, 64), (64, 128), (128, 256)):
        assert 1.7 <= lags[a] / lags[b] <= 2.4


# ---------------------------------------------------------------------------
# Dissipation breakdown
# ---------------------------------------------------------------------------

def breakdown_at(N: int, alpha: float, mode: str = "unitary", kind: str = "partial"):
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    proto = CyclicProtocol(
        path=loop, N=N, channel_alpha=alpha, channel_kind=kind, evolution_mode=mode, substeps=16
    )
    return dissipation_breakdown(proto, loop.gibbs(0.0))


@pytest.mark.parametrize("mode", ["unitary", "quench"])
@pytest.mark.parametrize("kind", ["partial", "pinch"])
def test_breakdown_identity_closes(mode, kind):
    b = breakdown_at(48, 0.45, mode=mode, kind=kind)
    assert abs(b.gamma + b.epsilon + b.kappa - b.total) < 1e-9
    assert abs(b.total - (b.delta_f_iso - b.w_iso)) < 1e-12


def test_nan_split_fails_closure_check():
    with pytest.raises(ValidationError, match="does not close"):
        DissipationBreakdown(gamma=math.nan, epsilon=0.0, kappa=0.0, total=0.0, w_iso=0.0, delta_f_iso=0.0)


def test_breakdown_epsilon_vanishes_at_full_thermalization():
    assert abs(breakdown_at(32, 0.0).epsilon) <= 1e-10


def test_breakdown_kappa_vanishes_for_quenches():
    assert breakdown_at(32, 0.5, mode="quench").kappa == 0.0


def test_breakdown_gamma_epsilon_scale_as_one_over_n():
    rows = {N: breakdown_at(N, 0.5) for N in (32, 64, 128, 256)}
    for a, b in ((32, 64), (64, 128), (128, 256)):
        assert 1.7 <= rows[a].gamma / rows[b].gamma <= 2.4
        assert 1.7 <= rows[a].epsilon / rows[b].epsilon <= 2.4
        # kappa is bounded by a 1/N envelope but decays faster on this loop
        # (the leading commutator term cancels against the thermal state)
        assert abs(rows[a].kappa) / abs(rows[b].kappa) >= 1.7


def test_breakdown_gamma_tracks_trajectory_coefficient():
    from thermoflow.qudit import gamma_coefficient

    loop = cyclic_qubit_zx_path(FIG_TEMP)
    gamma = gamma_coefficient(loop)
    b = breakdown_at(256, 0.5)
    assert abs(b.gamma * 256 - gamma) / gamma < 0.02


# ---------------------------------------------------------------------------
# Cross-framework consistency
# ---------------------------------------------------------------------------

def test_quench_segment_reproduces_collision_staircase_dissipation():
    alpha, N = 0.5, 400
    segment = qubit_excitation_path(0.2, 0.45, FIG_TEMP, smooth=True)
    rho0 = segment.gibbs(0.0)
    ledger, _ = run_protocol_segment(segment, N, rho0, channel_alpha=alpha, evolution_mode="quench")
    H0 = HamiltonianMatrix(dim=2, matrix=segment.hamiltonian(0.0))
    H1 = HamiltonianMatrix(dim=2, matrix=segment.hamiltonian(1.0))
    delta_f_iso = free_energy(segment.gibbs(0.0), H0, FIG_TEMP) - free_energy(
        segment.gibbs(1.0), H1, FIG_TEMP
    )
    w_dis_maps = delta_f_iso - ledger.cumulative_work

    qudit_cfg = QuditProtocolConfig(path=segment, rho0=rho0, N=N, alpha=alpha)
    _, qudit_ledger = run_qudit_protocol(qudit_cfg)
    delta_f = free_energy(rho0, H1, FIG_TEMP) - free_energy(segment.gibbs(1.0), H1, FIG_TEMP)
    w_dis_qudit = delta_f - qudit_ledger.cumulative_work
    assert abs(w_dis_maps - w_dis_qudit) < 1e-10
    # the raw work ledgers differ by the fixed initial-Hamiltonian offset
    offset = np.trace((segment.hamiltonian(1.0) - segment.hamiltonian(0.0)) @ rho0.matrix).real
    assert abs(qudit_ledger.cumulative_work - ledger.cumulative_work - offset) < 1e-10


# ---------------------------------------------------------------------------
# Stacked engine against the per-step reference
# ---------------------------------------------------------------------------

def _reference_propagator(path, t_start, t_end, substeps):
    """One Hamiltonian and one eigh per substep, later slices on the left."""
    dt = (t_end - t_start) / substeps
    U = np.eye(path.dim, dtype=complex)
    for j in range(substeps):
        lam, vecs = np.linalg.eigh(path.hamiltonian(t_start + (j + 0.5) * dt))
        U = ((vecs * np.exp(-1j * lam * dt)) @ vecs.conj().T) @ U
    return U


def _reference_run(path, N, rho0, kind, lam, mode, substeps):
    """One HamiltonianMatrix, channel and DensityOperator per contact."""
    hams = [path.hamiltonian(i / N) for i in range(N + 1)]
    channels = [make_channel(kind, lam, HamiltonianMatrix(dim=path.dim, matrix=H), path.temp) for H in hams[1:]]
    tau0 = gibbs_state(HamiltonianMatrix(dim=path.dim, matrix=hams[0]), path.temp)
    taus = [tau0.matrix] + [c.target.matrix for c in channels]
    identity = np.eye(path.dim, dtype=complex)
    sigma, sigmas, unitaries, work = rho0.matrix, [rho0.matrix], [identity], np.empty(N)
    for i in range(1, N + 1):
        U = _reference_propagator(path, (i - 1) / N, i / N, substeps) if mode == "unitary" else identity
        rho_i = U @ sigma @ U.conj().T if mode == "unitary" else sigma
        work[i - 1] = np.trace(hams[i - 1] @ sigma).real - np.trace(hams[i] @ rho_i).real
        sigma = channels[i - 1].apply_matrix(rho_i)
        unitaries.append(U)
        sigmas.append(DensityOperator(dim=path.dim, matrix=0.5 * (sigma + sigma.conj().T)).matrix)
    return [np.array(x) for x in (hams, taus, sigmas, unitaries)] + [work]


def _reference_breakdown(path, hams, taus, sigmas, unitaries, work):
    def F(rho, H):
        return free_energy(DensityOperator.from_matrix(rho), HamiltonianMatrix.from_matrix(H), path.temp)

    delta_f_iso = F(taus[0], hams[0]) - F(taus[-1], hams[-1])
    gamma, epsilon, kappa = delta_f_iso, 0.0, 0.0
    for i in range(1, len(hams)):
        dH = hams[i - 1] - hams[i]
        gamma -= np.trace(dH @ taus[i - 1]).real
        epsilon -= np.trace(dH @ (sigmas[i - 1] - taus[i - 1])).real
        evolved = unitaries[i] @ sigmas[i - 1] @ unitaries[i].conj().T
        kappa -= np.trace(hams[i] @ (sigmas[i - 1] - evolved)).real
    w = float(work.sum())
    return dict(
        gamma=float(gamma), epsilon=float(epsilon), kappa=float(kappa),
        total=float(delta_f_iso - w), w_iso=w, delta_f_iso=float(delta_f_iso),
    )


@pytest.mark.parametrize("N", [1, 5, 64])
@pytest.mark.parametrize("mode", ["unitary", "quench"])
@pytest.mark.parametrize("kind", ["partial", "pinch"])
@pytest.mark.parametrize("preset", sorted(CYCLIC_PATH_PRESETS))
def test_stacked_engine_is_bit_identical_to_the_per_step_loop(preset, kind, mode, N):
    path = CYCLIC_PATH_PRESETS[preset](FIG_TEMP)
    rho0 = random_density(np.random.default_rng(N), 2)
    proto = CyclicProtocol(path=path, N=N, channel_alpha=0.45, channel_kind=kind, evolution_mode=mode, substeps=16)
    run = maps._run(proto, rho0)
    ref = _reference_run(path, N, rho0, kind, 0.45, mode, 16)
    for name, expected in zip(("hamiltonians", "taus", "sigmas", "unitaries", "work_steps"), ref):
        assert np.array_equal(getattr(run, name), expected), name
    assert dataclasses.asdict(dissipation_breakdown(proto, rho0)) == _reference_breakdown(path, *ref)


@pytest.mark.parametrize("kind", ["partial", "pinch"])
def test_quench_breakdown_does_no_per_step_linear_algebra(monkeypatch, kind):
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    rho0 = loop.gibbs(0.0)
    counts = {}
    for N in (64, 512):
        proto = CyclicProtocol(path=loop, N=N, channel_alpha=0.5, channel_kind=kind, evolution_mode="quench")
        calls = Counter()
        with monkeypatch.context() as m:
            for name in ("eigh", "eigvalsh"):
                m.setattr(np.linalg, name, counting(calls, name, getattr(np.linalg, name)))
            for cls in (DensityOperator, HamiltonianMatrix, ThermalizingChannel):
                m.setattr(cls, "__post_init__", counting(calls, cls.__name__, cls.__post_init__))
            m.setattr(maps, "gibbs_state", counting(calls, "gibbs_state", gibbs_state))
            m.setattr(np, "trace", counting(calls, "trace", np.trace))
            dissipation_breakdown(proto, rho0)
        counts[N] = calls
    assert counts[64] == counts[512]
    assert counts[64]["ThermalizingChannel"] == counts[64]["gibbs_state"] == 0


@pytest.mark.parametrize("contact", [1, 16])
@pytest.mark.parametrize("what", ["target", "state"])
def test_off_trace_contact_is_rejected(monkeypatch, what, contact):
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    proto = CyclicProtocol(path=loop, N=16, channel_alpha=0.5, substeps=4)
    if what == "target":
        def skewed(H, temp):
            taus = gibbs_matrices(H, temp)
            taus[contact, 0, 0] += 1e-9
            return taus

        monkeypatch.setattr(maps, "gibbs_matrices", skewed)
    else:
        def skewed(path, t_start, t_end, substeps):
            U = evolve_unitary(path, t_start, t_end, substeps)
            return U * math.sqrt(1.0 + 2e-9) if t_end == contact / 16 else U

        monkeypatch.setattr(maps, "evolve_unitary", skewed)
    with pytest.raises(ValidationError, match=r"trace must be 1, got .*1\.00000000"):
        dissipation_breakdown(proto, loop.gibbs(0.0))
