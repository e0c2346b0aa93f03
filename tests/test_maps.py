import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from thermoflow import maps
from thermoflow.core import (
    DensityOperator,
    HamiltonianMatrix,
    ThermalizingChannel,
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
    cyclic_qubit_gap_path,
    cyclic_qubit_zx_path,
    dissipation_breakdown,
    estimate_contraction,
    evolve_unitary,
    make_channel,
    unitary_approx_error,
)
from thermoflow.qudit import (
    HamiltonianPath,
    QuditProtocolConfig,
    linear_endpoint_path,
    qubit_excitation_path,
    run_qudit_protocol,
)

from conftest import FIG_TEMP, random_density, random_hermitian


def run_protocol_segment(path, N, rho0, channel_alpha, channel_kind="partial", evolution_mode="quench", substeps=16):
    """An open (not necessarily cyclic) protocol segment run by the presets' engine: its total work and final state."""
    run = maps._execute(path, N, rho0, channel_kind, channel_alpha, evolution_mode, substeps)
    return float(run.work_steps.sum()), DensityOperator(run.sigmas[-1])


def execute(protocol, rho0):
    """maps._execute with the protocol's own settings, as dissipation_breakdown runs it."""
    p = protocol
    return maps._execute(p.path, p.N, rho0, p.channel_kind, p.channel_alpha, p.evolution_mode, p.substeps)


def run_cyclic_protocol(protocol, rho0):
    """A cyclic protocol's total work and final state, with the free-energy work bound enforced."""
    run = execute(protocol, rho0)
    H0, temp, work = run.hamiltonians[0], protocol.path.temp, float(run.work_steps.sum())
    bound = free_energy(rho0, H0, temp) - free_energy(run.taus[0], H0, temp)
    assert work <= bound + 1e-9, f"second-law violation: W = {work!r} exceeds DeltaF = {bound!r}"
    return work, DensityOperator(run.sigmas[-1])


def protocol_state_lag(protocol, rho0):
    """Max over contacts of ||sigma_i - tau_i||_1; shrinks as 1/N."""
    run = execute(protocol, rho0)
    return float(trace_distance(run.sigmas[1:], run.taus[1:]).max())


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
    for dim_h in (qubit_h(1.0), HamiltonianMatrix(np.diag([0.0, 0.4, 1.1, 1.9]))):
        ch = make_channel("pinch", 0.5, dim_h, FIG_TEMP)
        assert estimate_contraction(ch, probes=200, seed=11) <= 0.5 + 1e-9


def trace_norms(m: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def test_channels_fix_their_target():
    for kind in ("partial", "pinch"):
        ch = make_channel(kind, 0.7, qubit_h(1.5), FIG_TEMP)
        assert trace_norms(ch.apply(ch.targets) - ch.targets) < 1e-12


def test_channel_monotonicity_on_probes():
    rng = np.random.default_rng(21)
    for kind in ("partial", "pinch"):
        ch = make_channel(kind, 0.6, qubit_h(0.9), FIG_TEMP)
        for _ in range(40):
            rho = random_density(rng, 2).matrix
            assert trace_norms(ch.apply(rho) - ch.targets) <= trace_norms(rho - ch.targets) + 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_pinch_channel_is_the_projector_sum(dim):
    # independent of core._pinch: lam * sum_k P_k rho P_k + (1 - lam) tau over the eigenprojectors of H
    rng = np.random.default_rng(dim)
    lam, n = 0.35, 5
    hams = np.array([random_hermitian(rng, dim) for _ in range(n)])
    taus = gibbs_matrices(hams, FIG_TEMP)
    rhos = np.array([random_density(rng, dim).matrix for _ in range(n)])
    expected = np.empty_like(rhos)
    for i in range(n):
        vecs = np.linalg.eigh(hams[i])[1]
        projectors = [np.outer(v, v.conj()) for v in vecs.T]
        expected[i] = lam * sum(P @ rhos[i] @ P for P in projectors) + (1.0 - lam) * taus[i]
    channel = maps._channel("pinch", lam, hams, taus)
    assert np.abs(channel.apply(rhos) - expected).max() < 1e-12
    for i in range(n):
        assert np.abs(channel.apply(rhos[i], i) - expected[i]).max() < 1e-12
    single = make_channel("pinch", lam, HamiltonianMatrix(hams[0]), FIG_TEMP)
    assert np.abs(single.apply(rhos[0]) - expected[0]).max() < 1e-12


def test_channel_factory_rejects_a_channel_that_moves_its_target():
    H = qubit_h(1.0)
    tau = gibbs_state(H, FIG_TEMP).matrix
    with pytest.raises(ValidationError, match="does not fix"):  # a basis that does not diagonalize tau
        maps._channel("pinch", 0.5, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)[None], tau[None])
    with pytest.raises(ValidationError, match="unknown channel kind"):
        make_channel("bogus", 0.5, H, FIG_TEMP)
    with pytest.raises(ValidationError, match="contraction factor"):
        make_channel("partial", 1.5, H, FIG_TEMP)


def test_contraction_probe_count_validation():
    ch = make_channel("partial", 0.5, qubit_h(1.0), FIG_TEMP)
    with pytest.raises(ValidationError):
        estimate_contraction(ch, probes=0)
    with pytest.raises(ValidationError, match="one-contact"):
        estimate_contraction(ThermalizingChannel(0.5, np.concatenate([ch.targets, ch.targets])))


def test_nan_target_fails_fixed_point_check():
    with pytest.raises(ValidationError, match="does not fix"):
        maps._channel("partial", 0.5, qubit_h(1.0).matrix[None], np.full((2, 2), np.nan, dtype=complex)[None])


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
    t_start = np.arange(5) / 5
    for bad in (t_start[2], t_start[2] - 0.1, math.nan):  # one stacked row with t_start >= t_end, or NaN
        t_end = np.arange(1, 6) / 5
        t_end[2] = bad
        with pytest.raises(ValidationError, match="t_start < t_end"):
            evolve_unitary(path, t_start, t_end, 4)
    for t_end in (np.arange(1, 5) / 5, np.arange(1, 6)[None] / 5, 1.0):
        with pytest.raises(ValidationError, match="equal-length"):
            evolve_unitary(path, t_start, t_end, 4)


def test_nan_propagator_fails_unitarity_check(monkeypatch):
    # the path rejects a NaN Hamiltonian, so the NaN enters at the slice exponentials
    monkeypatch.setattr(maps, "_slice_exponential", lambda H, dt: np.full(H.shape, np.nan, dtype=complex))
    with pytest.raises(ValidationError, match="lost unitarity"):
        evolve_unitary(cyclic_qubit_zx_path(FIG_TEMP), 0.0, 1.0, 2)


def test_nan_slice_in_a_middle_row_fails_unitarity_check(monkeypatch):
    exponential = maps._slice_exponential

    def nan_slice(H, dt):
        E = exponential(H, dt)
        E[3, 2] = math.nan  # row 3 of 7, substep 2 of 4
        return E

    monkeypatch.setattr(maps, "_slice_exponential", nan_slice)
    with pytest.raises(ValidationError, match="lost unitarity .deviation nan"):
        evolve_unitary(cyclic_qubit_zx_path(FIG_TEMP), np.arange(7) / 7, np.arange(1, 8) / 7, 4)


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


def test_cyclic_protocol_rejects_a_bad_channel_with_the_engine_messages():
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    with pytest.raises(ValidationError, match="unknown channel kind"):
        CyclicProtocol(path=loop, N=4, channel_alpha=0.5, channel_kind="bogus")
    with pytest.raises(ValidationError, match="contraction factor"):
        CyclicProtocol(path=loop, N=4, channel_alpha=1.5)


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
    work, final = run_cyclic_protocol(proto, rho0)
    expected = np.trace((loop.hamiltonian(0.0) - loop.hamiltonian(1.0)) @ rho0.matrix).real
    assert abs(work - expected) < 1e-12
    assert trace_distance(final, rho0) < 1e-12  # H(0) = H(1) and no contraction


def test_quench_partial_matches_scalar_recursion():
    # independent float-only two-level recursion as oracle
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    N, lam = 37, 0.45
    rho0 = loop.gibbs(0.0)
    proto = CyclicProtocol(path=loop, N=N, channel_alpha=lam, evolution_mode="quench")
    engine_work, final = run_cyclic_protocol(proto, rho0)

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
    assert abs(engine_work - work) < 1e-10
    assert abs(final.populations[0] - e) < 1e-12


def test_work_bounded_by_free_energy_gap():
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    H0 = HamiltonianMatrix(loop.hamiltonian(0.0))
    for pops in ([1.0, 0.0], [0.5, 0.5], [0.9, 0.1]):
        rho0 = DensityOperator.diagonal(pops)
        proto = CyclicProtocol(path=loop, N=64, channel_alpha=0.3, substeps=16)
        work, _ = run_cyclic_protocol(proto, rho0)
        bound = free_energy(rho0, H0, FIG_TEMP) - free_energy(loop.gibbs(0.0), H0, FIG_TEMP)
        assert work <= bound + 1e-9


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
        work, _ = run_protocol_segment(segment, N, rho0, channel_alpha=0.0, evolution_mode="quench")
        gaps.append(delta_f - (w_quench + work))
    assert 0.0 < gaps[1] < 1e-4
    assert gaps[0] / gaps[1] > 3.0  # vanishes at first order in 1/N


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


@pytest.mark.parametrize("kind", ["partial", "pinch"])
def test_breakdown_kappa_vanishes_for_quenches(kind):
    kappa = breakdown_at(32, 0.5, mode="quench", kind=kind).kappa
    assert kappa == 0.0 and math.copysign(1.0, kappa) == 1.0  # +0.0, written as 0


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

@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("channel_kind", ["partial", "pinch"])
def test_quench_segment_reproduces_collision_staircase_dissipation(channel_kind, alpha):
    # on this commuting path the states stay diagonal, so the pinch changes nothing
    N = 400
    segment = qubit_excitation_path(0.2, 0.45, FIG_TEMP)
    rho0 = segment.gibbs(0.0)
    work, _ = run_protocol_segment(
        segment, N, rho0, channel_alpha=alpha, channel_kind=channel_kind, evolution_mode="quench"
    )
    H0 = HamiltonianMatrix(segment.hamiltonian(0.0))
    H1 = HamiltonianMatrix(segment.hamiltonian(1.0))
    delta_f_iso = free_energy(segment.gibbs(0.0), H0, FIG_TEMP) - free_energy(
        segment.gibbs(1.0), H1, FIG_TEMP
    )
    w_dis_maps = delta_f_iso - work

    qudit_cfg = QuditProtocolConfig(path=segment, rho0=rho0, N=N, alpha=alpha)
    qudit_work = float(run_qudit_protocol(qudit_cfg)[1].sum())
    delta_f = free_energy(rho0, H1, FIG_TEMP) - free_energy(segment.gibbs(1.0), H1, FIG_TEMP)
    w_dis_qudit = delta_f - qudit_work
    assert abs(w_dis_maps - w_dis_qudit) < 1e-10
    # the raw total works differ by the fixed initial-Hamiltonian offset
    offset = np.trace((segment.hamiltonian(1.0) - segment.hamiltonian(0.0)) @ rho0.matrix).real
    assert abs(qudit_work - work - offset) < 1e-10


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


def _reference_channel(kind, lam, H, tau):
    """lam * P(rho) + (1 - lam) * tau with its own pinch, in the engine's operation order."""
    vecs = np.linalg.eigh(H)[1]

    def apply(m):
        if kind == "pinch":
            m = vecs @ np.diag(np.diag(vecs.conj().T @ m @ vecs)) @ vecs.conj().T
        return lam * m + (1.0 - lam) * tau

    return apply


def _reference_run(path, N, rho0, kind, lam, mode, substeps):
    """One HamiltonianMatrix, Gibbs state, channel and DensityOperator per contact."""
    hams = [path.hamiltonian(i / N) for i in range(N + 1)]
    taus = [gibbs_state(HamiltonianMatrix(H), path.temp).matrix for H in hams]
    channels = [_reference_channel(kind, lam, H, tau) for H, tau in zip(hams[1:], taus[1:])]
    identity = np.eye(path.dim, dtype=complex)
    sigma, sigmas, unitaries, work = rho0.matrix, [rho0.matrix], [identity], np.empty(N)
    for i in range(1, N + 1):
        U = _reference_propagator(path, (i - 1) / N, i / N, substeps) if mode == "unitary" else identity
        rho_i = U @ sigma @ U.conj().T if mode == "unitary" else sigma
        work[i - 1] = np.trace(hams[i - 1] @ sigma).real - np.trace(hams[i] @ rho_i).real
        sigma = channels[i - 1](rho_i)
        unitaries.append(U)
        sigmas.append(DensityOperator(0.5 * (sigma + sigma.conj().T)).matrix)
    return [np.array(x) for x in (hams, taus, sigmas, unitaries)] + [work]


def _reference_breakdown(path, hams, taus, sigmas, unitaries, work):
    def F(rho, H):
        return free_energy(DensityOperator(rho), HamiltonianMatrix(H), path.temp)

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
    run = execute(proto, rho0)
    ref = _reference_run(path, N, rho0, kind, 0.45, mode, 16)
    for name, expected in zip(("hamiltonians", "taus", "sigmas", "work_steps"), ref[:3] + ref[4:]):
        assert np.array_equal(getattr(run, name), expected), name
    # the propagators of steps 1..N, or none at all in quench mode (the reference's identities are not applied)
    assert run.unitaries is None if mode == "quench" else np.array_equal(run.unitaries, ref[3][1:])
    assert dataclasses.asdict(dissipation_breakdown(proto, rho0)) == _reference_breakdown(path, *ref)


@pytest.mark.parametrize("substeps", [1, 5, 16])
@pytest.mark.parametrize("N", [1, 7, 128, 257])
@pytest.mark.parametrize("preset", sorted(CYCLIC_PATH_PRESETS))
def test_stacked_propagators_equal_the_per_step_reference(preset, N, substeps):
    path = CYCLIC_PATH_PRESETS[preset](FIG_TEMP)
    stack = evolve_unitary(path, np.arange(N) / N, np.arange(1, N + 1) / N, substeps)
    assert stack.shape == (N, 2, 2)
    for i, U in enumerate(stack):
        assert np.array_equal(U, _reference_propagator(path, i / N, (i + 1) / N, substeps)), i


def _breakdown_calls(monkeypatch, loop, N, kind, mode):
    """Linear-algebra, validation, Gibbs-state and sampler calls of one dissipation_breakdown."""
    calls = Counter()
    path = dataclasses.replace(loop, sampler=counting(calls, "sampler", loop.sampler))
    proto = CyclicProtocol(path=path, N=N, channel_alpha=0.5, channel_kind=kind, evolution_mode=mode)
    rho0 = loop.gibbs(0.0)
    calls.clear()
    with monkeypatch.context() as m:
        for name in ("eigh", "eigvalsh"):
            m.setattr(np.linalg, name, counting(calls, name, getattr(np.linalg, name)))
        for cls in (DensityOperator, HamiltonianMatrix, ThermalizingChannel):
            m.setattr(cls, "__post_init__", counting(calls, cls.__name__, cls.__post_init__))
        m.setattr(maps, "gibbs_state", counting(calls, "gibbs_state", gibbs_state))
        m.setattr(np, "trace", counting(calls, "trace", np.trace))
        dissipation_breakdown(proto, rho0)
    return calls


@pytest.mark.parametrize("kind", ["partial", "pinch"])
def test_quench_breakdown_does_no_per_step_linear_algebra(monkeypatch, kind):
    loop = cyclic_qubit_gap_path(FIG_TEMP)
    counts = {N: _breakdown_calls(monkeypatch, loop, N, kind, "quench") for N in (64, 512)}
    assert counts[64] == counts[512]
    assert counts[64]["ThermalizingChannel"] == 1
    assert counts[64]["gibbs_state"] == 0


@pytest.mark.parametrize("kind", ["partial", "pinch"])
def test_unitary_breakdown_does_no_per_step_linear_algebra(monkeypatch, kind):
    # the propagators of all N steps take one sampler call, one eigh and one unitarity eigvalsh
    loop = cyclic_qubit_zx_path(FIG_TEMP)
    counts = {N: _breakdown_calls(monkeypatch, loop, N, kind, "unitary") for N in (64, 512)}
    assert counts[64] == counts[512]
    assert counts[64]["sampler"] == 2
    assert counts[64]["ThermalizingChannel"] == 1
    assert counts[64]["gibbs_state"] == 0


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
            # all 16 propagators come from one stacked call; skew the contact's row
            U = evolve_unitary(path, t_start, t_end, substeps)
            U[contact - 1] *= math.sqrt(1.0 + 2e-9)
            return U

        monkeypatch.setattr(maps, "evolve_unitary", skewed)
    with pytest.raises(ValidationError, match=r"trace must be 1, got .*1\.00000000"):
        dissipation_breakdown(proto, loop.gibbs(0.0))
