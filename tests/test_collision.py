import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermoflow.core import HamiltonianMatrix, Temperature, ValidationError, free_energy, gibbs_state
from thermoflow.collision import (
    CHUNK_ELEMENTS,
    ENUMERATION_CHUNK,
    PREFIX_STEPS,
    TRIAL_TAG,
    BathSchedule,
    FixedAlpha,
    QubitProtocolConfig,
    SEED_BLOCK,
    TwoPointAlpha,
    UniformAlpha,
    WorkLedger,
    WorkSummary,
    average_work,
    default_bin_edges,
    enumerate_work_paths,
    epsilon_upper_bound,
    loss_epsilon,
    make_linear_schedule,
    moment_bin_edges,
    random_energy_preserving_unitary,
    reduce_thermal_operation,
    sample_work,
    sample_work_values,
    thermal_op_reduction_check,
    work_moments,
)

from thermoflow.seeding import rng_for

from conftest import FIG_TEMP, trial_uniforms

LN2 = math.log(2.0)


def canonical(N: int, alpha: float) -> QubitProtocolConfig:
    return QubitProtocolConfig.canonical_erasure(N, FIG_TEMP, FixedAlpha(alpha))


# ---------------------------------------------------------------------------
# Bath schedules
# ---------------------------------------------------------------------------

def test_linear_schedule_small():
    sched = make_linear_schedule(2, FIG_TEMP)
    np.testing.assert_allclose(sched.q, [0.0, 0.25, 0.5], atol=1e-15)
    assert math.isinf(sched.E[0])
    assert abs(sched.E[1] - FIG_TEMP.T * math.log(3.0)) < 1e-14
    assert abs(sched.E[2]) < 1e-14


def test_linear_schedule_first_gap_at_n1000():
    sched = make_linear_schedule(1000, FIG_TEMP)
    assert abs(sched.E[1] - math.log(1999.0) / LN2) < 1e-12


@pytest.mark.parametrize("N", [1, 3, 10, 1000])
def test_linear_schedule_endpoint(N):
    assert make_linear_schedule(N, FIG_TEMP).q[-1] == 0.5


def test_linear_schedule_rejects_n0():
    with pytest.raises(ValidationError):
        make_linear_schedule(0, FIG_TEMP)


def test_schedule_validation():
    with pytest.raises(ValidationError):  # not strictly increasing
        BathSchedule([0.0, 0.2, 0.2], FIG_TEMP)
    with pytest.raises(ValidationError):  # interior out of (0, 1)
        BathSchedule([0.0, 0.5, 1.0], FIG_TEMP)


def test_work_ledger_invariants():
    with pytest.raises(ValidationError):  # negative variance
        WorkLedger(per_step_work=np.array([1.0]), mean=1.0, variance=-1e-3)
    with pytest.raises(ValidationError):  # infinity sentinel dereferenced
        WorkLedger(per_step_work=np.array([math.inf]), mean=0.0, variance=0.0)


def test_ledger_rejects_nan_variance():
    with pytest.raises(ValidationError, match="variance"):
        WorkLedger(per_step_work=np.array([1.0]), mean=1.0, variance=math.nan)


def test_moments_reject_a_nan_variance():
    # omega ~ 1e200 overflows w * w: the second moment becomes NaN while every
    # per-step mean stays finite, and max(nan, 0.0) would pass the NaN on
    cfg = QubitProtocolConfig(p0=0.0, eps_S=-1e200, schedule=make_linear_schedule(3, FIG_TEMP), noise=FixedAlpha(0.5))
    with pytest.raises(ValidationError, match="variance"):
        work_moments(cfg)


@pytest.mark.parametrize("q", [[0.0, 0.2, math.nan], [0.0, math.nan], [math.nan, 0.2], [0.0, math.inf]])
def test_schedule_rejects_nan_energy(q):
    # q is the only input: a NaN in it was accepted with E = [inf, 2, inf], or failed on an empty max
    with pytest.raises(ValidationError, match="finite"):
        BathSchedule(q, FIG_TEMP)


def test_schedule_rejects_a_subnormal_q():
    # (1 - q)/q overflows for q = 1e-320, and the round trip maps E = inf back to 0, within 1e-12 of q
    with pytest.raises(ValidationError, match="finite"):
        BathSchedule([0.0, 1e-320], Temperature(1.0))


def test_schedule_leaves_the_callers_q_writable():
    q = np.array([0.0, 0.25, 0.5])
    sched = BathSchedule(q, FIG_TEMP)
    q[1] = 0.3
    assert sched.q[1] == 0.25
    assert not sched.q.flags.writeable


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        FixedAlpha(1.0)
    assert TwoPointAlpha(0.0, 1.0, 0.5).mean_alpha == 0.5
    assert UniformAlpha(0.3, 0.7).mean_alpha == 0.5


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: UniformAlpha(0.5, 0.2),  # a > b
        lambda: UniformAlpha(-0.1, 0.5),
        lambda: UniformAlpha(0.2, 1.5),
        lambda: UniformAlpha(1.0, 1.0),  # mean = 1
        lambda: UniformAlpha(NAN, 0.5),
        lambda: UniformAlpha(0.2, NAN),
        lambda: TwoPointAlpha(0.0, 1.0, 0.0),  # mean = 1
        lambda: TwoPointAlpha(0.8, 0.1, 0.5),  # lo > hi
        lambda: TwoPointAlpha(-0.1, 0.5, 0.5),
        lambda: TwoPointAlpha(0.1, 1.5, 0.5),
        lambda: TwoPointAlpha(0.1, 0.5, 1.5),
        lambda: TwoPointAlpha(0.1, 0.5, -0.5),
        lambda: TwoPointAlpha(NAN, 0.5, 0.5),
        lambda: TwoPointAlpha(0.1, NAN, 0.5),
        lambda: TwoPointAlpha(0.1, 0.5, NAN),
    ],
)
def test_random_noise_models_refuse_bad_parameters(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("noise", [0.5, None, "uniform"])
def test_config_refuses_a_noise_that_is_no_noise_model(noise):
    with pytest.raises(ValidationError, match="noise must be"):
        QubitProtocolConfig(0.0, 0.0, make_linear_schedule(4, FIG_TEMP), noise)


@pytest.mark.parametrize("eps_S", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_system_energy(eps_S):
    # a NaN eps_S made every sampled work NaN and average_work nan
    with pytest.raises(ValidationError, match="eps_S must be finite"):
        QubitProtocolConfig(0.0, eps_S, make_linear_schedule(4, FIG_TEMP), FixedAlpha(0.5))


# ---------------------------------------------------------------------------
# Excitation probabilities
# ---------------------------------------------------------------------------

def excitation_probabilities(config: QubitProtocolConfig) -> np.ndarray:
    """System excitation p_0..p_N under fixed alpha, in the shared moment recursion's operation order.

    Step recursion p_k = alpha*p_{k-1} + (1-alpha)*q_k, equivalent to the
    closed form p_k = (1-alpha) * sum_i alpha^(k-i) q_i + alpha^k p_0.
    """
    alpha = config._fixed_alpha("excitation_probabilities")
    p = [float(config.p0)]
    for qm in config.schedule.q[1:].tolist():
        p.append(alpha * p[-1] + (1.0 - alpha) * qm)
    return np.array(p)


def test_excitation_alpha0_tracks_bath():
    cfg = canonical(50, 0.0)
    np.testing.assert_allclose(excitation_probabilities(cfg)[1:], cfg.schedule.q[1:], atol=1e-15)


def test_excitation_alpha_to_one_freezes_initial_state():
    sched = BathSchedule(np.linspace(0.2, 0.4, 21), FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.2, eps_S=0.0, schedule=sched, noise=FixedAlpha(1.0 - 1e-9))
    p = excitation_probabilities(cfg)
    assert np.abs(p - 0.2).max() < 1e-6


def test_excitation_hand_unrolled_example():
    # N = 4, alpha = 1/2, linear ladder: p_2 = (1-a)(a q_1 + q_2) = 5/32
    cfg = canonical(4, 0.5)
    assert abs(excitation_probabilities(cfg)[2] - 0.15625) < 1e-15


def test_excitation_matches_direct_closed_form():
    # oracle: p_k = (1-a) sum_i a^(k-i) q_i + a^k p_0 summed explicitly
    rng = np.random.default_rng(2)
    q = np.sort(rng.uniform(0.05, 0.6, size=301))
    sched = BathSchedule(q, FIG_TEMP)
    for alpha in (0.1, 0.5, 0.9):
        cfg = QubitProtocolConfig(p0=q[0], eps_S=0.0, schedule=sched, noise=FixedAlpha(alpha))
        p = excitation_probabilities(cfg)
        for k in (1, 7, 150, 300):
            direct = alpha**k * q[0] + (1 - alpha) * sum(
                alpha ** (k - i) * q[i] for i in range(1, k + 1)
            )
            assert abs(p[k] - direct) < 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
def test_excitation_matches_linear_closed_form_at_1e6(alpha):
    # oracle for q_k = k/2N: p_k = q_k - a(1-a^k)/(1-a) * dq
    N = 1_000_000
    cfg = canonical(N, alpha)
    p = excitation_probabilities(cfg)
    k = np.arange(1, N + 1)
    closed = k / (2.0 * N) - alpha * (1.0 - alpha**k) / (1.0 - alpha) / (2.0 * N)
    assert np.abs(p[1:] - closed).max() < 1e-12


def test_excitation_rejects_random_noise():
    sched = make_linear_schedule(10, FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=UniformAlpha(0.2, 0.4))
    with pytest.raises(ValidationError):
        excitation_probabilities(cfg)


# ---------------------------------------------------------------------------
# Average work and loss
# ---------------------------------------------------------------------------

def test_average_work_vanishes_in_no_interaction_limit():
    cfg = canonical(100, 1.0 - 1e-12)
    assert abs(average_work(cfg)) < 1e-9


def test_average_work_canonical_identity():
    # alternate route: W = sum_k E_k dq_k (1 - a^k)
    for N, alpha in [(50, 0.3), (400, 0.7)]:
        cfg = canonical(N, alpha)
        E = cfg.schedule.E[1:]
        k = np.arange(1, N + 1)
        expected = float(np.sum(E / (2.0 * N) * (1.0 - alpha**k)))
        assert abs(average_work(cfg) - expected) < 1e-12


def test_average_work_fig4_value():
    # N = 1000 deterministic mean in k_BT ln2 units
    W = average_work(canonical(1000, 0.5))
    assert abs(W - 0.993) <= 0.002
    assert abs(W - 0.9914797) < 1e-6


def test_average_work_converges_to_free_energy_gap():
    W = average_work(canonical(100_000, 0.5))
    assert abs(1.0 - W) < 1.5e-4  # exact sum leaves 1.35e-4 in these units


def test_average_work_decreases_with_alpha():
    works = [average_work(canonical(200, a)) for a in (0.0, 0.2, 0.4, 0.6, 0.8)]
    assert all(a > b for a, b in zip(works, works[1:]))


def test_loss_alpha0_is_zero():
    assert loss_epsilon(canonical(100, 0.0)) == 0.0


def test_loss_and_bound_fig3_point():
    eps = loss_epsilon(canonical(1000, 0.5))
    bound = epsilon_upper_bound(1000, 0.5, FIG_TEMP)
    assert abs(bound - math.log(2000.0) / (LN2 * 2000.0)) < 1e-15
    assert 0.0 < eps < bound
    assert eps / bound > 0.5  # near-tight


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_loss_decreases_with_n(alpha):
    grid = [10, 32, 100, 316, 1000, 3162, 10000]
    losses = [loss_epsilon(canonical(N, alpha)) for N in grid]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    for N, eps in zip(grid, losses):
        assert eps < epsilon_upper_bound(N, alpha, FIG_TEMP)


def test_loss_requires_canonical_scenario():
    sched = BathSchedule(np.linspace(0.1, 0.4, 11), FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.1, eps_S=0.0, schedule=sched, noise=FixedAlpha(0.5))
    with pytest.raises(ValidationError):
        loss_epsilon(cfg)


def test_bound_rejects_alpha_one():
    with pytest.raises(ValidationError):
        epsilon_upper_bound(100, 1.0, FIG_TEMP)


# ---------------------------------------------------------------------------
# Moments and enumeration
# ---------------------------------------------------------------------------

def test_moments_single_step_two_outcome_formula():
    for alpha in (0.0, 0.3, 0.7):
        cfg = canonical(1, alpha)
        E1 = cfg.schedule.E[1]
        q1 = cfg.schedule.q[1]
        hit = (1.0 - alpha) * q1
        m = work_moments(cfg)
        assert abs(m.mean - hit * E1) < 1e-14
        assert abs(m.variance - hit * (1.0 - hit) * E1**2) < 1e-14


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("N", [4, 8, 12])
def test_moments_match_enumeration(N, alpha):
    cfg = canonical(N, alpha)
    dist = enumerate_work_paths(cfg)
    m = work_moments(cfg)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12
    assert abs(dist.mean - m.mean) < 1e-10
    assert abs(dist.variance - m.variance) < 1e-10


def _reference_recursions(config, alpha):
    """The three separate loops the shared recursion replaced, in their own operation order."""
    q, omega, one = config.schedule.q, config.swap_energies, 1.0 - alpha
    p = np.empty_like(q)
    p[0] = config.p0
    for k in range(1, len(q)):
        p[k] = alpha * p[k - 1] + (1.0 - alpha) * q[k]
    average_steps = (1.0 - alpha) * omega * (q[1:] - p[:-1])
    pm, mean, second, corr, steps = config.p0, 0.0, 0.0, 0.0, np.empty(len(omega))
    for m in range(1, len(q)):
        w, qm = omega[m - 1], q[m]
        inc = one * w * (qm - pm)
        second = second + 2.0 * w * one * (qm * mean - corr) + w * w * one * (qm + pm - 2.0 * qm * pm)
        corr = qm * one * (mean + (1.0 - pm) * w) + alpha * corr
        mean += inc
        pm = one * qm + alpha * pm
        steps[m - 1] = inc
    return p, average_steps, steps, mean, max(second - mean * mean, 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.93])
@pytest.mark.parametrize("N", [1, 7, 2000])
def test_shared_recursion_is_bit_identical_to_the_separate_loops(N, alpha):
    q = np.linspace(0.05, 0.47, N + 1) ** 1.3
    ladders = [canonical(N, alpha), QubitProtocolConfig(0.3, 0.2, BathSchedule(q, FIG_TEMP), FixedAlpha(alpha))]
    for cfg in ladders:
        p, average_steps, steps, mean, variance = _reference_recursions(cfg, alpha)
        assert np.array_equal(excitation_probabilities(cfg), p)
        assert average_work(cfg) == float(average_steps.sum())
        m = work_moments(cfg)
        assert np.array_equal(m.per_step_work, steps)
        assert np.array_equal(m.per_step_work, average_steps)
        assert (m.mean, m.variance) == (mean, variance)


def test_moments_fig4_sigmas():
    # recursion sigma vs the sampled figure values: 3 MC standard errors at
    # 10000 runs plus the half-ulp rounding of the two-decimal figures
    for N, sigma_fig in [(100, 0.34), (200, 0.27), (500, 0.18), (1000, 0.14)]:
        sigma = math.sqrt(work_moments(canonical(N, 0.5)).variance)
        se = sigma / math.sqrt(2.0 * 10000)
        assert abs(sigma - sigma_fig) <= 3.0 * se + 0.005


def test_enumeration_cap():
    with pytest.raises(ValidationError, match="20"):
        enumerate_work_paths(canonical(21, 0.5))


def test_enumeration_single_full_swap():
    # generic one-step ladder (the linear N = 1 ladder has E_1 = 0)
    sched = BathSchedule([0.0, 0.2], FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=FixedAlpha(0.0))
    dist = enumerate_work_paths(cfg)
    q1, E1 = sched.q[1], sched.E[1]
    np.testing.assert_allclose(np.sort(dist.values), [0.0, E1], atol=1e-14)
    probs = dist.probabilities[np.argsort(dist.values)]
    np.testing.assert_allclose(probs, [1.0 - q1, q1], atol=1e-14)


def test_enumeration_hand_unrolled_two_steps():
    # independent hand recursion of the four swap/no-swap paths on a generic
    # two-step ladder (distinct, nonzero gaps)
    alpha = 0.5
    sched = BathSchedule([0.0, 0.15, 0.35], FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=FixedAlpha(alpha))
    q1, q2 = sched.q[1], sched.q[2]
    E1, E2 = sched.E[1], sched.E[2]
    # state after step 1: stayed 0 with weight (1-q1)+a*q1, moved up with (1-a)q1
    stay0, move1 = (1 - q1) + alpha * q1, (1 - alpha) * q1
    expected = {}

    def add(w, p):
        expected[round(w, 12)] = expected.get(round(w, 12), 0.0) + p

    add(0.0, stay0 * ((1 - q2) + alpha * q2))  # 0 -> 0
    add(E2, stay0 * (1 - alpha) * q2)  # 0 -> 1 at step 2
    add(E1, move1 * (q2 + alpha * (1 - q2)))  # 1 stays 1
    add(E1 - E2, move1 * (1 - alpha) * (1 - q2))  # 1 -> 0 at step 2
    dist = enumerate_work_paths(cfg)
    got = dict(zip(np.round(dist.values, 12), dist.probabilities))
    assert set(got) == set(expected)
    for w, p in expected.items():
        assert abs(got[w] - p) < 1e-14


def _reference_enumeration(config):
    """The enumerator before the in-place fill: concatenated doublings and an np.add.at merge."""
    alpha, N = config.noise.alpha, config.schedule.N
    q, omega = config.schedule.q, config.swap_energies
    p_end0, w_end0 = np.array([1.0 - config.p0]), np.array([0.0])
    p_end1, w_end1 = np.array([config.p0]), np.array([0.0])
    for k in range(1, N + 1):
        qk, w = q[k], omega[k - 1]
        stay0 = (1.0 - qk) + alpha * qk
        stay1 = qk + alpha * (1.0 - qk)
        p_end0, p_end1, w_end0, w_end1 = (
            np.concatenate([p_end0 * stay0, p_end1 * (1.0 - alpha) * (1.0 - qk)]),
            np.concatenate([p_end1 * stay1, p_end0 * (1.0 - alpha) * qk]),
            np.concatenate([w_end0, w_end1 - w]),
            np.concatenate([w_end1, w_end0 + w]),
        )
    values, probs = np.concatenate([w_end0, w_end1]), np.concatenate([p_end0, p_end1])
    order = np.argsort(values)
    v, p = values[order], probs[order]
    group = np.concatenate([[0], np.cumsum(np.diff(v) > 1e-11)])
    merged_p, merged_v = np.zeros(group[-1] + 1), np.zeros(group[-1] + 1)
    np.add.at(merged_p, group, p)
    np.add.at(merged_v, group, v * p)
    with np.errstate(invalid="ignore"):
        merged_v = np.where(merged_p > 0, merged_v / np.where(merged_p > 0, merged_p, 1.0), 0.0)
    keep = merged_p > 0
    return merged_v[keep], merged_p[keep]


def _ladder(q, eps_S):
    return QubitProtocolConfig(p0=0.4, eps_S=eps_S, schedule=BathSchedule(q, FIG_TEMP), noise=FixedAlpha(0.3))


def _even_gap_ladder():
    # gaps E_k evenly spaced, so many paths share a work up to rounding: large merged groups, no zero-probability path
    E = np.linspace(2.0, 0.5, 16) * FIG_TEMP.T
    return _ladder(np.concatenate([[0.0], 1.0 / (1.0 + np.exp(E / FIG_TEMP.T))]), eps_S=0.25)


def _one_group_ladder(N):
    # gaps of about 1e-13: every path work lies within 1e-11 of the next, so one support group spans every chunk
    return _ladder(np.concatenate([[0.0], 0.5 - 1e-13 * np.arange(N, 0, -1)]), eps_S=0.0)


def _enumeration_cases():
    # PREFIX_STEPS and one more put N on both sides of the tabulated prefix
    for N in sorted({1, 2, 7, 12, PREFIX_STEPS, PREFIX_STEPS + 1, 16, 20}):
        for alpha in (0.0, 0.3, 0.93):
            yield pytest.param(canonical(N, alpha), id=f"canonical-N{N}-a{alpha}")
    q = np.linspace(0.05, 0.47, 13)
    for eps_S in (0.8, -0.3):  # eps_S = 0.8 makes the late omega_k negative
        yield pytest.param(_ladder(q, eps_S), id=f"ladder-eps{eps_S}")
    two_steps = BathSchedule([0.0, 0.15, 0.35], FIG_TEMP)
    yield pytest.param(QubitProtocolConfig(0.0, 0.0, two_steps, FixedAlpha(0.5)), id="two-steps")
    yield pytest.param(_even_gap_ladder(), id="even-gaps-N16")
    yield pytest.param(_one_group_ladder(16), id="one-group-N16")


@pytest.mark.parametrize("config", list(_enumeration_cases()))
def test_enumeration_is_bit_identical_to_the_concatenated_doublings(config):
    dist = enumerate_work_paths(config)
    values, probabilities = _reference_enumeration(config)
    assert np.array_equal(dist.values, values)
    assert np.array_equal(dist.probabilities, probabilities)


def test_even_gap_ladder_ends_a_chunk_inside_a_support_group():
    # without a support group that spans a chunk's end, the even-gaps case would not test the carried group sums
    w0, w1 = np.zeros(1), np.zeros(1)
    for w in _even_gap_ladder().swap_energies:
        w0, w1 = np.concatenate([w0, w1 - w]), np.concatenate([w1, w0 + w])
    works = np.sort(np.concatenate([w0, w1]))
    cuts = np.arange(ENUMERATION_CHUNK, works.size, ENUMERATION_CHUNK)
    assert np.any(np.diff(works)[cuts - 1] <= 1e-11)


@pytest.mark.parametrize(
    "config, bound",
    [
        # one 2^21-entry path array is 16 MiB: the works and their order take 2; merging full-size works and
        # probabilities in one pass held 4.1
        pytest.param(canonical(20, 0.5), 2.75 * 2**24, id="canonical-N20"),
        # 2^21 - 1 support points: the outputs take another 2 arrays by the end
        pytest.param(_ladder(np.linspace(0.05, 0.47, 21), 0.8), 72 * 2**20, id="all-distinct-N20"),
        # one group of all 2^21 paths: the merge still works through chunks of ENUMERATION_CHUNK paths
        pytest.param(_one_group_ladder(20), 2.75 * 2**24, id="one-group-N20"),
    ],
)
def test_enumeration_memory_stays_near_the_works_and_their_order(config, bound):
    enumerate_work_paths(config)  # warm-up: caches and first-call allocations
    tracemalloc.start()
    try:
        enumerate_work_paths(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_enumeration_jarzynski_telescoped_identity():
    # full-swap chains from a sharp start: <e^{beta W}> = Z(eps_S)/Z(E_1),
    # i.e. the exponential average reproduces the free-energy drop between
    # the first realized thermal state (at its own gap) and the final one
    for N in (2, 5, 12):
        cfg = canonical(N, 0.0)
        dist = enumerate_work_paths(cfg)
        lhs = dist.exponential_average(FIG_TEMP.beta)
        z_ratio = (1.0 + math.exp(-FIG_TEMP.beta * cfg.eps_S)) / (
            1.0 + math.exp(-FIG_TEMP.beta * cfg.schedule.E[1])
        )
        assert abs(lhs - z_ratio) < 1e-12
        # same statement through the free-energy module
        H_first = HamiltonianMatrix.qubit(cfg.schedule.E[1])
        H_sys = HamiltonianMatrix.qubit(cfg.eps_S)
        delta_f = free_energy(gibbs_state(H_first, FIG_TEMP), H_first, FIG_TEMP) - free_energy(
            gibbs_state(H_sys, FIG_TEMP), H_sys, FIG_TEMP
        )
        assert abs(lhs - math.exp(FIG_TEMP.beta * delta_f)) < 1e-12


def test_enumeration_jarzynski_general_schedule():
    qs = np.concatenate([[0.0], np.linspace(0.12, 0.38, 9)])
    sched = BathSchedule(qs, FIG_TEMP)
    eps_S = 0.3
    cfg = QubitProtocolConfig(p0=0.0, eps_S=eps_S, schedule=sched, noise=FixedAlpha(0.0))
    dist = enumerate_work_paths(cfg)
    lhs = dist.exponential_average(FIG_TEMP.beta)
    rhs = (1.0 + math.exp(-FIG_TEMP.beta * eps_S)) / (1.0 + math.exp(-FIG_TEMP.beta * sched.E[1]))
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_no_interaction_yields_zero():
    cfg = QubitProtocolConfig(
        p0=0.0, eps_S=0.0, schedule=make_linear_schedule(50, FIG_TEMP), noise=FixedAlpha(1.0 - 1e-15)
    )
    works = sample_work_values(cfg, 2000, seed=1)
    assert np.all(works == 0.0)


def test_sampling_is_deterministic_given_seed():
    cfg = canonical(30, 0.5)
    a = sample_work_values(cfg, 500, seed=99)
    b = sample_work_values(cfg, 500, seed=99)
    np.testing.assert_array_equal(a, b)
    c = sample_work_values(cfg, 500, seed=100)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("noise", [FixedAlpha(0.4), TwoPointAlpha(0.1, 0.8, 0.3)], ids=["fixed", "two-point"])
def test_sampling_block_partition_is_invariant(noise):
    # trial streams depend only on (seed, global index): any split reproduces
    cfg = QubitProtocolConfig.canonical_erasure(25, FIG_TEMP, noise)
    whole = sample_work_values(cfg, 120, seed=5)
    first = sample_work_values(cfg, 50, seed=5)
    rest = sample_work_values(cfg, 70, seed=5, trial_offset=50)
    np.testing.assert_array_equal(whole, np.concatenate([first, rest]))


def _reference_sample_work_values(config, runs, seed, trial_offset=0):
    """The sampler before packed swap codes: an index scan, a gather and a float chain.

    Each trial draws one stream: 2N + 1 uniforms, then N for the per-step alphas under a random noise model.
    """
    N = config.schedule.N
    q_steps, omega, noise = config.schedule.q[1:], config.swap_energies, config.noise
    works, step_sums, state_sums = np.empty(runs), np.zeros(N), np.zeros(N)
    block = max(1, min(8192, (1 << 22) // N))
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        idx = np.arange(trial_offset + start, trial_offset + stop)
        fixed = isinstance(noise, FixedAlpha)
        uniforms = trial_uniforms(seed, TRIAL_TAG, idx, (2 if fixed else 3) * N + 1)
        alphas = noise.alpha if fixed else noise.alphas(uniforms[:, 2 * N + 1 :])
        s0 = uniforms[:, 0] < config.p0
        swap = uniforms[:, 1 : N + 1] < (1.0 - alphas)
        bath = uniforms[:, N + 1 : 2 * N + 1] < q_steps
        last_swap = np.maximum.accumulate(np.where(swap, np.arange(1, N + 1), 0), axis=1)
        states = np.take_along_axis(np.concatenate([s0[:, None], bath], axis=1), last_swap, axis=1)
        prev = np.concatenate([s0[:, None], states[:, :-1]], axis=1)
        increments = swap * omega * (bath.astype(float) - prev.astype(float))
        step_sums += increments.sum(axis=0)
        state_sums += states.sum(axis=0)
        works[start:stop] = increments.sum(axis=1)
    return works, step_sums / runs, state_sums / runs


def _oracle_cases():
    for N in (1, 2, 5, 20, 2000):
        for alpha in (0.0, 0.3, 0.9):
            yield pytest.param(canonical(N, alpha), 300, 0, id=f"canonical-N{N}-a{alpha}")
    q = np.linspace(0.05, 0.47, 41)
    for eps_S in (0.8, -0.3):  # eps_S = 0.8 makes the late omega_k negative
        cfg = QubitProtocolConfig(p0=0.4, eps_S=eps_S, schedule=BathSchedule(q, FIG_TEMP), noise=FixedAlpha(0.3))
        yield pytest.param(cfg, 300, 0, id=f"ladder-eps{eps_S}")
    # random alphas take N more uniforms per trial: N = 21 draws 64 (LANE_DRAWS) in lanes, N = 22 draws 67 and N = 30
    # 91 natively; N = 500 draws 1501 per row in chunks of 87 trials, so 300 trials end on a part chunk, and each
    # chunk reads its own per-step alphas
    for N in (21, 22, 30, 500):
        for kind, noise in (("uniform", UniformAlpha(0.2, 0.7)), ("two-point", TwoPointAlpha(0.1, 0.8, 0.3))):
            cfg = QubitProtocolConfig(p0=0.4, eps_S=0.0, schedule=make_linear_schedule(N, FIG_TEMP), noise=noise)
            yield pytest.param(cfg, 300, 0, id=f"random-{kind}" + ("" if N == 30 else f"-N{N}"))
    yield pytest.param(canonical(50, 0.5), 300, 1234, id="trial-offset")
    yield pytest.param(canonical(2000, 0.5), 300, 1234, id="trial-offset-N2000")
    # the reference's two blocks of 1024 trials; the sampler's one seeding block in chunks of 15
    yield pytest.param(canonical(4096, 0.5), 1100, 77, id="two-blocks-N4096")
    # past one seeding block, from an offset, each block ending on a part chunk: N = 12 draws 25 uniforms per trial in
    # lanes, 5242 trials a chunk (37 and 3542 under random alphas); N = 100 draws 201 per row natively, 652 trials a
    # chunk, 12 whole chunks per block (301, 435 and 18)
    for N in (12, 100):
        for noise in (FixedAlpha(0.3), TwoPointAlpha(0.1, 0.8, 0.3)):
            cfg = QubitProtocolConfig(p0=0.4, eps_S=0.0, schedule=make_linear_schedule(N, FIG_TEMP), noise=noise)
            yield pytest.param(cfg, SEED_BLOCK + 808, 13, id=f"seed-blocks-N{N}-{type(noise).__name__}")
    for N in (16383, 16384):  # the widest int16 codes, then the int32 path; omega_N != 0
        ladder = BathSchedule(np.linspace(0.05, 0.47, N + 1), FIG_TEMP)
        yield pytest.param(QubitProtocolConfig(0.4, -0.3, ladder, FixedAlpha(0.3)), 16, 0, id=f"wide-N{N}")


@pytest.mark.parametrize("config, runs, offset", list(_oracle_cases()))
def test_sampler_is_bit_identical_to_the_gather_scan(config, runs, offset):
    got = sample_work_values(config, runs, seed=20260809, trial_offset=offset)
    expected = _reference_sample_work_values(config, runs, seed=20260809, trial_offset=offset)
    assert np.array_equal(got, expected[0])


def test_sampler_memory_stays_near_one_chunk():
    # the block's 512 x 4001 uniforms (16.4 MB) are drawn and scanned CHUNK_ELEMENTS at a time; the peak was 19.6 MB
    cfg, runs = canonical(2000, 0.5), 512
    sample_work_values(cfg, runs, seed=1)  # warm-up: caches and first-call allocations
    tracemalloc.start()
    try:
        sample_work_values(cfg, runs, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * CHUNK_ELEMENTS * 8 + 100 * runs * 8


def test_sampling_mean_agrees_with_moments():
    cfg = canonical(100, 0.5)
    summary = sample_work(cfg, 4000, seed=20260809)
    exact = work_moments(cfg)
    se = math.sqrt(exact.variance / summary.count)
    assert abs(summary.moments()[0] - exact.mean) <= 4.0 * se
    assert summary.hist.sum() <= summary.count
    assert len(default_bin_edges(cfg)) == len(summary.hist) + 1


def test_sampling_fig4_n100_mean():
    summary = sample_work(canonical(100, 0.5), 10_000, seed=20260809)
    mean, variance = summary.moments()
    assert abs(mean - 0.939) <= 4.0 * math.sqrt(variance / summary.count)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    loc=st.floats(-10.0, 10.0),
    scale=st.floats(1e-3, 1e3),
    cuts=st.lists(st.integers(1, 399), max_size=8),
)
@example(n=2, seed=276, loc=7.0, scale=1.0, cuts=[])  # works 6.5 and 6.4: sum w^2 - n m^2 cancels all but 1/8000
def test_merged_block_summaries_reduce_like_the_whole_array(n, seed, loc, scale, cuts):
    # rounded normal draws: ties, works on the edges and works outside them, as in a sampled histogram
    works = scale * (loc + np.round(np.random.default_rng(seed).standard_normal(n), 1))
    edges = scale * (loc + np.linspace(-3.0, 3.0, 13))
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    merged = WorkSummary.merge([WorkSummary.of(works[a:b], edges) for a, b in zip(bounds, bounds[1:])])
    assert merged.count == n
    np.testing.assert_array_equal(merged.hist, np.histogram(works, bins=edges)[0])
    mean, variance = merged.moments()
    assert abs(mean - np.mean(works)) <= 1e-12 * np.abs(works).max()
    if n == 1:
        assert variance == 0.0
    elif np.ptp(works) == 0.0:  # all tied: the variance is 0, and both formulas leave only rounding
        assert variance <= 1e-14 * works[0] ** 2
    else:
        assert abs(variance - np.var(works, ddof=1)) <= 1e-12 * np.var(works, ddof=1)


def test_a_single_sample_has_zero_variance():
    summary = WorkSummary.of(np.array([0.7]), np.linspace(0.0, 1.0, 5))
    assert summary.moments() == (0.7, 0.0)
    assert WorkSummary.merge([summary]).moments() == (0.7, 0.0)


@pytest.mark.parametrize(
    "noise", [FixedAlpha(0.5), UniformAlpha(0.2, 0.7)], ids=["fixed", "uniform"]
)
def test_sample_work_is_the_summary_of_its_works(noise):
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=make_linear_schedule(40, FIG_TEMP), noise=noise)
    got = sample_work(cfg, 1500, seed=3)
    works = sample_work_values(cfg, 1500, seed=3)
    expected = WorkSummary.of(works, default_bin_edges(cfg))
    assert got[:3] == expected[:3] == (1500, float(works.sum()), float(np.dot(works, works)))
    np.testing.assert_array_equal(got.hist, expected.hist)


def _reference_bin_edges(config):
    """default_bin_edges through a FixedAlpha clone of the config at the noise model's mean alpha."""
    fixed = (
        config
        if isinstance(config.noise, FixedAlpha)
        else QubitProtocolConfig(
            p0=config.p0,
            eps_S=config.eps_S,
            schedule=config.schedule,
            noise=FixedAlpha(config.noise.mean_alpha),
        )
    )
    return moment_bin_edges(work_moments(fixed))


@pytest.mark.parametrize(
    "noise",
    [FixedAlpha(0.35), UniformAlpha(0.2, 0.6), TwoPointAlpha(0.1, 0.8, 0.3)],
    ids=["fixed", "uniform", "two-point"],
)
@pytest.mark.parametrize("N", [1, 12, 300])
@pytest.mark.parametrize("p0,eps_S", [(0.0, 0.0), (0.2, 0.1), (0.5, 0.7)])
def test_default_bin_edges_match_the_fixed_alpha_clone(noise, N, p0, eps_S):
    cfg = QubitProtocolConfig(p0=p0, eps_S=eps_S, schedule=make_linear_schedule(N, FIG_TEMP), noise=noise)
    assert np.array_equal(default_bin_edges(cfg), _reference_bin_edges(cfg))


def test_sampling_total_variation_against_enumeration():
    N, alpha, runs = 6, 0.3, 200_000
    cfg = canonical(N, alpha)
    dist = enumerate_work_paths(cfg)
    works = sample_work_values(cfg, runs, seed=20260809)
    values, counts = np.unique(np.round(works, 10), return_counts=True)
    empirical = dict(zip(values, counts / runs))
    exact = dict(zip(np.round(dist.values, 10), dist.probabilities))
    support = set(empirical) | set(exact)
    tv = 0.5 * sum(abs(empirical.get(v, 0.0) - exact.get(v, 0.0)) for v in support)
    assert tv < 0.03


def test_limiting_two_peak_distribution():
    # mixed start against a matched ladder: work mass concentrates on the two
    # log-likelihood-ratio values with weights (1 - p0, p0)
    p0, p_eq, N, runs = 0.3, 0.45, 2000, 2000
    eps_S = FIG_TEMP.T * math.log((1.0 - p_eq) / p_eq)
    q = p0 + (p_eq - p0) * np.arange(N + 1) / N
    cfg = QubitProtocolConfig(p0=p0, eps_S=eps_S, schedule=BathSchedule(q, FIG_TEMP), noise=FixedAlpha(0.5))
    sigma = math.sqrt(work_moments(cfg).variance)
    w_lo = FIG_TEMP.T * math.log(p0 / p_eq)  # weight p0
    w_hi = FIG_TEMP.T * math.log((1.0 - p0) / (1.0 - p_eq))  # weight 1 - p0
    works = sample_work_values(cfg, runs, seed=20260809)
    near = (np.abs(works - w_lo) <= 5 * sigma) | (np.abs(works - w_hi) <= 5 * sigma)
    assert near.mean() >= 0.95
    weight_hi = float(np.mean(works > 0.5 * (w_lo + w_hi)))
    se = math.sqrt(p0 * (1.0 - p0) / runs)
    assert abs(weight_hi - (1.0 - p0)) <= 4.0 * se
    assert abs((1.0 - weight_hi) - p0) <= 4.0 * se


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_limiting_distribution_is_alpha_independent(alpha):
    # the two peak positions and weights do not depend on the noise level
    p0, p_eq, N, runs = 0.3, 0.45, 1500, 1500
    eps_S = FIG_TEMP.T * math.log((1.0 - p_eq) / p_eq)
    q = p0 + (p_eq - p0) * np.arange(N + 1) / N
    cfg = QubitProtocolConfig(p0=p0, eps_S=eps_S, schedule=BathSchedule(q, FIG_TEMP), noise=FixedAlpha(alpha))
    w_lo = FIG_TEMP.T * math.log(p0 / p_eq)
    w_hi = FIG_TEMP.T * math.log((1.0 - p0) / (1.0 - p_eq))
    works = sample_work_values(cfg, runs, seed=20260809)
    mid = 0.5 * (w_lo + w_hi)
    hi, lo = works[works > mid], works[works <= mid]
    se = math.sqrt(p0 * (1.0 - p0) / runs)
    assert abs(len(hi) / runs - (1.0 - p0)) <= 4.0 * se
    assert abs(hi.mean() - w_hi) < 0.02
    assert abs(lo.mean() - w_lo) < 0.02


# ---------------------------------------------------------------------------
# Random per-step alpha
# ---------------------------------------------------------------------------

def test_random_alpha_degenerate_matches_fixed_trialwise():
    N, runs, alpha = 40, 300, 0.45
    noise = UniformAlpha(alpha, alpha)
    sched = make_linear_schedule(N, FIG_TEMP)
    cfg_rand = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=noise)
    cfg_fixed = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=FixedAlpha(alpha))
    works_fixed = sample_work_values(cfg_fixed, runs, seed=77)
    works_rand = sample_work_values(cfg_rand, runs, seed=77)
    np.testing.assert_array_equal(works_rand, works_fixed)
    assert abs(sample_work(cfg_rand, runs, 77).moments()[0] - works_fixed.mean()) < 1e-12


@pytest.mark.parametrize(
    "noise, seed", [(TwoPointAlpha(0.0, 1.0, 0.5), 123), (UniformAlpha(0.3, 0.7), 124)], ids=["two-point", "uniform"]
)
def test_random_alpha_mean_work_matches_average_alpha(noise, seed):
    N, runs = 60, 6000
    sched = make_linear_schedule(N, FIG_TEMP)
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=noise)
    mean = sample_work(cfg, runs, seed).moments()[0]
    fixed = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=sched, noise=FixedAlpha(noise.mean_alpha))
    exact = work_moments(fixed)
    se = math.sqrt(exact.variance / runs)
    assert abs(mean - exact.mean) <= 4.0 * se
    # ensemble-averaged excitation trajectory follows the fixed-alpha one; the bit-identity test pins the
    # reference sampler's works to sample_work_values, so its trajectory is the trials' own
    p_traj = _reference_sample_work_values(cfg, runs, seed)[2]
    p_fixed = excitation_probabilities(fixed)[1:]
    step_se = np.sqrt(np.maximum(p_fixed * (1 - p_fixed), 1e-4) / runs)
    assert float(np.max(np.abs(p_traj - p_fixed) - 5.0 * step_se)) <= 0.0


def _per_trial_random_alpha_works(cfg, runs, seed):
    """Reference sampler: one rng_for stream of 3N + 1 uniforms per trial, the last N for alphas, and a scalar loop."""
    N = cfg.schedule.N
    q, omega, noise = cfg.schedule.q[1:], cfg.swap_energies, cfg.noise
    works = np.empty(runs)
    for t in range(runs):
        u = rng_for(seed, TRIAL_TAG, t).random(3 * N + 1)
        a = u[2 * N + 1 :]
        if isinstance(noise, UniformAlpha):
            alphas = noise.a + (noise.b - noise.a) * a
        else:
            alphas = np.where(a < noise.p_lo, noise.lo, noise.hi)
        state = u[0] < cfg.p0
        increments = np.zeros(N)
        for k in range(N):
            if u[1 + k] < 1.0 - alphas[k]:
                bath = u[1 + N + k] < q[k]
                increments[k] = omega[k] * (float(bath) - float(state))
                state = bath
        works[t] = increments.sum()
    return works


@pytest.mark.parametrize(
    "noise",
    [TwoPointAlpha(0.1, 0.8, 0.3), UniformAlpha(0.2, 0.6)],
    ids=["two-point", "uniform"],
)
def test_random_alpha_matches_per_trial_streams(noise):
    N, runs, seed = 12, 400, 5
    cfg = QubitProtocolConfig(p0=0.0, eps_S=0.0, schedule=make_linear_schedule(N, FIG_TEMP), noise=noise)
    expected = _per_trial_random_alpha_works(cfg, runs, seed)
    np.testing.assert_array_equal(sample_work_values(cfg, runs, seed), expected)
    summary = sample_work(cfg, runs, seed)
    np.testing.assert_array_equal(summary.hist, np.histogram(expected, bins=default_bin_edges(cfg))[0])
    assert summary.count == runs


# ---------------------------------------------------------------------------
# Thermal-operation reduction on the degenerate doublet
# ---------------------------------------------------------------------------

def test_reduction_identity_and_swap():
    r, s = 0.42, 0.12  # p = 0.3, q = 0.6
    tau_A = np.array([0.5, 0.3, 0.2])
    V_id = np.eye(6, dtype=complex)
    alpha, residual = reduce_thermal_operation(V_id, tau_A, r, s)
    assert abs(alpha - 1.0) < 1e-12 and residual < 1e-12
    swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(3)).astype(complex)
    alpha, residual = reduce_thermal_operation(swap, tau_A, r, s)
    assert abs(alpha) < 1e-12 and residual < 1e-12


def test_reduction_random_thermal_operations():
    worst = thermal_op_reduction_check(0.42, 0.12, ancilla_dim=3, trials=200, seed=20260809)
    assert worst < 1e-10


def test_reduction_alpha_stays_in_unit_interval():
    rng = np.random.default_rng(55)
    tau_A = np.array([0.6, 0.25, 0.15])
    for _ in range(50):
        V = random_energy_preserving_unitary(3, rng)
        alpha, residual = reduce_thermal_operation(V, tau_A, 0.42, 0.12)
        assert -1e-12 <= alpha <= 1.0 + 1e-12
        assert residual < 1e-10


def test_reduction_rejects_inconsistent_weights():
    with pytest.raises(ValidationError):
        reduce_thermal_operation(np.eye(4, dtype=complex), np.array([0.5, 0.5]), 0.1, 0.4)
