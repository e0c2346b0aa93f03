"""Qubit collision-model work extraction with partial thermalizations.

The system qubit meets one fresh bath qubit per step.  A perfect step swaps
system and bath populations; an imperfect step applies the swap only with
probability (1 - alpha), which at the level of reduced states is the partial
thermalization  rho -> alpha*rho + (1-alpha)*tau.  Work is tracked as a
scalar ledger with the extraction-positive sign convention.

Deterministic quantities (excitation probabilities, average work, loss,
moments) are exact O(N) recursions; the exact work distribution is available
by brute-force path enumeration for small N, and a per-trial stochastic
sampler covers the fluctuation statistics at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Temperature, ValidationError, gibbs_populations
from .seeding import rng_for, trial_uniforms

__all__ = [
    "BathSchedule",
    "FixedAlpha",
    "RandomAlpha",
    "NoiseModel",
    "QubitProtocolConfig",
    "WorkLedger",
    "WorkDistribution",
    "make_linear_schedule",
    "make_schedule",
    "excitation_probabilities",
    "average_work",
    "loss_epsilon",
    "epsilon_upper_bound",
    "work_moments",
    "enumerate_work_paths",
    "sample_work_values",
    "sample_work",
    "simulate_random_alpha",
    "reduce_thermal_operation",
    "random_energy_preserving_unitary",
    "thermal_op_reduction_check",
]

ENUMERATION_CAP = 20  # 2^N paths; ~1e6 at the cap
TRIAL_TAG = "collision-mc"
ALPHA_TAG = "collision-alpha"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BathSchedule:
    """Excitation probabilities q_0..q_N of the bath qubits and their gaps.

    E_k = T * ln((1-q_k)/q_k); q_0 = 0 yields the +inf sentinel in E[0],
    which is never a work term (all work sums run k = 1..N).
    """

    q: np.ndarray
    E: np.ndarray
    temp: Temperature

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if q.ndim != 1 or len(q) < 2:
            raise ValidationError("schedule needs at least q_0 and q_1")
        if len(E) != len(q):
            raise ValidationError("q and E must have equal length")
        if np.any(np.diff(q) <= 0):
            raise ValidationError("excitation probabilities must increase strictly")
        if not (0.0 <= q[0] < 1.0):
            raise ValidationError(f"q_0 must lie in [0, 1), got {q[0]}")
        if np.any(q[1:] <= 0.0) or np.any(q[1:] >= 1.0):
            raise ValidationError("q_1..q_N must lie strictly inside (0, 1)")
        interior = q > 0.0
        expected = 1.0 / (1.0 + np.exp(self.temp.beta * E[interior]))
        if not np.abs(q[interior] - expected).max() <= 1e-12:
            raise ValidationError("E_k inconsistent with q_k at the bath temperature")
        for arr in (q, E):
            arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "E", E)

    @property
    def N(self) -> int:
        return len(self.q) - 1

    @property
    def delta_q(self) -> np.ndarray:
        return np.diff(self.q)


def _energies_from_probabilities(q: np.ndarray, temp: Temperature) -> np.ndarray:
    E = np.full(len(q), np.inf)
    pos = q > 0.0
    with np.errstate(divide="ignore"):  # q = 1 is rejected downstream
        E[pos] = temp.T * np.log((1.0 - q[pos]) / q[pos])
    return E


def make_schedule(q, temp: Temperature) -> BathSchedule:
    """Schedule from an explicit strictly increasing probability ladder."""
    q = np.asarray(q, dtype=float)
    return BathSchedule(q=q, E=_energies_from_probabilities(q, temp), temp=temp)


def make_linear_schedule(N: int, temp: Temperature) -> BathSchedule:
    """The ladder q_k = k/(2N), ending at q_N = 1/2 (zero final gap)."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    q = np.arange(N + 1) / (2.0 * N)
    return make_schedule(q, temp)


@dataclass(frozen=True)
class FixedAlpha:
    """Every step thermalizes partially with the same weight alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError(f"fixed alpha must lie in [0, 1), got {self.alpha}")

    @property
    def mean_alpha(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class RandomAlpha:
    """Independent per-step alpha_k with an analytically known mean.

    distribution "uniform": params = (a, b), alpha_k ~ U[a, b].
    distribution "two-point": params = (lo, hi, p_lo), alpha_k = lo w.p. p_lo.
    """

    distribution: str
    params: tuple
    seed: int

    def __post_init__(self):
        if self.distribution == "uniform":
            a, b = self.params
            if not (0.0 <= a <= b <= 1.0):
                raise ValidationError(f"uniform support must satisfy 0 <= a <= b <= 1, got {self.params}")
        elif self.distribution == "two-point":
            lo, hi, p_lo = self.params
            if not (0.0 <= lo <= hi <= 1.0 and 0.0 <= p_lo <= 1.0):
                raise ValidationError(f"invalid two-point parameters {self.params}")
        else:
            raise ValidationError(f"unknown alpha distribution {self.distribution!r}")
        if not 0.0 <= self.mean_alpha < 1.0:
            raise ValidationError("mean alpha must lie in [0, 1)")

    @property
    def mean_alpha(self) -> float:
        if self.distribution == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        lo, hi, p_lo = self.params
        return p_lo * lo + (1.0 - p_lo) * hi

    def draw_steps(self, n_steps: int, trial_indices) -> np.ndarray:
        """Per-step alphas of each trial, shape (len(trial_indices), n_steps).

        Row r is drawn from the stream rng_for(seed, ALPHA_TAG, trial_indices[r]).
        """
        u = trial_uniforms(self.seed, ALPHA_TAG, trial_indices, n_steps)
        if self.distribution == "uniform":
            a, b = self.params
            return a + (b - a) * u
        lo, hi, p_lo = self.params
        return np.where(u < p_lo, lo, hi)


NoiseModel = Union[FixedAlpha, RandomAlpha]


@dataclass(frozen=True)
class QubitProtocolConfig:
    """Initial system (p0, eps_S), bath staircase and noise model."""

    p0: float
    eps_S: float
    schedule: BathSchedule
    noise: NoiseModel

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValidationError(f"p0 must lie in [0, 1], got {self.p0}")

    @classmethod
    def canonical_erasure(cls, N: int, temp: Temperature, noise: NoiseModel) -> "QubitProtocolConfig":
        """Bit-to-work conversion preset: p0 = 0, eps_S = 0, q_k = k/2N."""
        return cls(p0=0.0, eps_S=0.0, schedule=make_linear_schedule(N, temp), noise=noise)

    def require_canonical(self) -> None:
        sched = self.schedule
        linear = np.arange(sched.N + 1) / (2.0 * sched.N)
        if (
            self.p0 != 0.0
            or self.eps_S != 0.0
            or np.abs(sched.q - linear).max() > 1e-12
        ):
            raise ValidationError("operation requires the canonical erasure scenario (p0 = 0, eps_S = 0, q_k = k/2N)")

    def _fixed_alpha(self, op_name: str) -> float:
        if not isinstance(self.noise, FixedAlpha):
            raise ValidationError(f"{op_name} requires a fixed-alpha noise model; use simulate_random_alpha")
        return self.noise.alpha

    @property
    def swap_energies(self) -> np.ndarray:
        """omega_k = E_k - eps_S for the work steps k = 1..N."""
        return self.schedule.E[1:] - self.eps_S


@dataclass(frozen=True)
class WorkLedger:
    """Per-step work increments plus summary statistics of the total."""

    per_step_work: np.ndarray
    cumulative_work: float
    mean: float
    variance: float
    histogram: Optional[tuple] = None  # (bin_edges, counts)
    sample_count: Optional[int] = None

    def __post_init__(self):
        steps = np.asarray(self.per_step_work, dtype=float)
        if not np.all(np.isfinite(steps)):
            raise ValidationError("non-finite per-step work: infinity sentinel dereferenced")
        if not abs(steps.sum() - self.cumulative_work) <= 1e-10 * max(len(steps), 1):
            raise ValidationError("cumulative work does not match the per-step sum")
        if not self.variance >= 0.0:
            raise ValidationError(f"variance must be non-negative, got {self.variance}")
        steps.flags.writeable = False
        object.__setattr__(self, "per_step_work", steps)


# ---------------------------------------------------------------------------
# Deterministic recursions
# ---------------------------------------------------------------------------

def _moment_recursion(config: QubitProtocolConfig, alpha: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One pass over the swap steps: p_0..p_N, per-step mean work, <W> and <W^2>.

    Besides the excitation probability p_m and the moments it tracks the
    excited-state work correlator c_m = E[W_m ; state = 1], whose recursion is
        c_m = q_m (1-alpha) (<W_{m-1}> + (1 - p_{m-1}) w_m) + alpha c_{m-1}
    with w_m the swap energy of step m.
    """
    one = 1.0 - alpha
    p = float(config.p0)
    probabilities, steps = [p], []
    mean = second = corr = 0.0
    for qm, w in zip(config.schedule.q[1:].tolist(), config.swap_energies.tolist()):
        inc = one * w * (qm - p)
        second = second + 2.0 * w * one * (qm * mean - corr) + w * w * one * (qm + p - 2.0 * qm * p)
        corr = qm * one * (mean + (1.0 - p) * w) + alpha * corr
        mean += inc
        p = alpha * p + one * qm
        probabilities.append(p)
        steps.append(inc)
    return np.array(probabilities), np.array(steps), mean, second


def excitation_probabilities(config: QubitProtocolConfig) -> np.ndarray:
    """System excitation p_0..p_N under fixed alpha.

    Step recursion p_k = alpha*p_{k-1} + (1-alpha)*q_k, equivalent to the
    closed form p_k = (1-alpha) * sum_i alpha^(k-i) q_i + alpha^k p_0.
    """
    return _moment_recursion(config, config._fixed_alpha("excitation_probabilities"))[0]


def average_work(config: QubitProtocolConfig) -> WorkLedger:
    """Exact average extracted work, (1-alpha) * sum_k omega_k (q_k - p_{k-1})."""
    steps = _moment_recursion(config, config._fixed_alpha("average_work"))[1]
    total = float(steps.sum())
    return WorkLedger(per_step_work=steps, cumulative_work=total, mean=total, variance=0.0)


def loss_epsilon(config: QubitProtocolConfig) -> float:
    """Work lost to noise in the canonical scenario: (1/2N) sum_k E_k alpha^k."""
    alpha = config._fixed_alpha("loss_epsilon")
    if alpha >= 1.0:
        raise ValidationError("loss is defined for alpha < 1")
    config.require_canonical()
    sched = config.schedule
    N = sched.N
    powers = alpha ** np.arange(1, N + 1)
    return float(np.sum(sched.E[1:] * powers) / (2.0 * N))


def epsilon_upper_bound(N: int, alpha: float, temp: Temperature) -> float:
    """Loss bound alpha/(1-alpha) * T ln(2N) / (2N) for the linear ladder."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("bound requires alpha in [0, 1)")
    return alpha / (1.0 - alpha) * temp.T * math.log(2.0 * N) / (2.0 * N)


def work_moments(config: QubitProtocolConfig) -> WorkLedger:
    """Mean and variance of the work distribution by an O(N) recursion (see _moment_recursion)."""
    _, steps, mean, second = _moment_recursion(config, config._fixed_alpha("work_moments"))
    variance = max(second - mean * mean, 0.0)
    return WorkLedger(per_step_work=steps, cumulative_work=float(steps.sum()), mean=mean, variance=variance)


# ---------------------------------------------------------------------------
# Exact distribution by path enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work distribution: sorted support values and probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    @property
    def variance(self) -> float:
        return float(np.dot(self.values**2, self.probabilities) - self.mean**2)

    def exponential_average(self, rate: float) -> float:
        """E[exp(rate * W)] over the distribution."""
        return float(np.dot(np.exp(rate * self.values), self.probabilities))


def _aggregate(values: np.ndarray, probs: np.ndarray, tol: float = 1e-11) -> WorkDistribution:
    order = np.argsort(values)
    v = values[order]
    p = probs[order]
    # Merge support points closer than tol (identical path sums agree bitwise;
    # this also folds coincidences between different paths).
    group = np.concatenate([[0], np.cumsum(np.diff(v) > tol)])
    n_groups = group[-1] + 1
    merged_p = np.zeros(n_groups)
    np.add.at(merged_p, group, p)
    merged_v = np.zeros(n_groups)
    np.add.at(merged_v, group, v * p)
    with np.errstate(invalid="ignore"):
        merged_v = np.where(merged_p > 0, merged_v / np.where(merged_p > 0, merged_p, 1.0), 0.0)
    keep = merged_p > 0
    return WorkDistribution(values=merged_v[keep], probabilities=merged_p[keep])


def enumerate_work_paths(config: QubitProtocolConfig) -> WorkDistribution:
    """Exact work distribution by enumerating all 2^N swap/no-swap paths.

    Maintains path-probability and path-work vectors split by the current
    system bit; each step doubles them (swap branch and identity branch).
    """
    alpha = config._fixed_alpha("enumerate_work_paths")
    N = config.schedule.N
    if N > ENUMERATION_CAP:
        raise ValidationError(
            f"path enumeration is capped at N <= {ENUMERATION_CAP} (2^N paths); got N = {N}"
        )
    q = config.schedule.q
    omega = config.swap_energies

    p_end0 = np.array([1.0 - config.p0])
    w_end0 = np.array([0.0])
    p_end1 = np.array([config.p0])
    w_end1 = np.array([0.0])
    for k in range(1, N + 1):
        qk = q[k]
        w = omega[k - 1]
        stay0 = (1.0 - qk) + alpha * qk
        stay1 = qk + alpha * (1.0 - qk)
        p_end0, p_end1, w_end0, w_end1 = (
            np.concatenate([p_end0 * stay0, p_end1 * (1.0 - alpha) * (1.0 - qk)]),
            np.concatenate([p_end1 * stay1, p_end0 * (1.0 - alpha) * qk]),
            np.concatenate([w_end0, w_end1 - w]),
            np.concatenate([w_end1, w_end0 + w]),
        )
    values = np.concatenate([w_end0, w_end1])
    probs = np.concatenate([p_end0, p_end1])
    return _aggregate(values, probs)


# ---------------------------------------------------------------------------
# Stochastic sampling
# ---------------------------------------------------------------------------

def _simulate_block(config, seed, indices, step_sums, state_sums):
    """Simulate one block of trials; returns the per-trial total works.

    Per trial, stream order is: one uniform for the initial bit, N uniforms
    for the swap decisions, N uniforms for the fresh bath bits.  The state
    scan is one running max over packed codes (s_0, then 2k + b_k at a swap
    and 0 otherwise, in the narrowest signed int holding 2N + 1): its low bit is s_k,
    so the increments omega_k (s_k - s_{k-1}) are exact and are the scan's
    only float array.
    """
    N = config.schedule.N
    noise = config.noise
    alphas = noise.alpha if isinstance(noise, FixedAlpha) else noise.draw_steps(N, indices)
    uniforms = trial_uniforms(seed, TRIAL_TAG, indices, 2 * N + 1)

    codes = np.empty((len(indices), N + 1), dtype=np.min_scalar_type(-(2 * N + 1)))
    np.less(uniforms[:, 0], config.p0, out=codes[:, 0])
    np.less(uniforms[:, N + 1 :], config.schedule.q[1:], out=codes[:, 1:])
    codes[:, 1:] += np.arange(2, 2 * N + 1, 2, dtype=codes.dtype)
    codes[:, 1:] *= uniforms[:, 1 : N + 1] < (1.0 - alphas)
    del uniforms
    np.maximum.accumulate(codes, axis=1, out=codes)
    codes &= 1

    increments = config.swap_energies * np.diff(codes, axis=1)
    step_sums += increments.sum(axis=0)
    state_sums += codes[:, 1:].sum(axis=0)
    return increments.sum(axis=1)


def sample_work_values(
    config: QubitProtocolConfig,
    runs: int,
    seed: int,
    trial_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw per-trial works plus per-step work and excitation averages.

    Returns (works, mean_step_work, mean_excitation) where works has length
    `runs`, and the trailing arrays average over trials.  Trial t uses the
    stream derived from (seed, trial_offset + t), so any block partition of
    the trial range reproduces identical numbers.
    """
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    N = config.schedule.N
    works = np.empty(runs)
    step_sums = np.zeros(N)
    state_sums = np.zeros(N)
    block = max(1, min(8192, (1 << 22) // max(N, 1)))
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        idx = np.arange(trial_offset + start, trial_offset + stop)
        works[start:stop] = _simulate_block(config, seed, idx, step_sums, state_sums)
    return works, step_sums / runs, state_sums / runs


def _ledger_from_samples(works, mean_steps, bin_edges) -> WorkLedger:
    mean = float(works.mean())
    variance = float(works.var(ddof=1)) if len(works) > 1 else 0.0
    counts, edges = np.histogram(works, bins=bin_edges)
    return WorkLedger(
        per_step_work=mean_steps,
        cumulative_work=float(mean_steps.sum()),
        mean=mean,
        variance=variance,
        histogram=(edges, counts),
        sample_count=len(works),
    )


def default_bin_edges(config: QubitProtocolConfig, bins: int = 60) -> np.ndarray:
    """Histogram edges centered on the exact moments (deterministic)."""
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
    moments = work_moments(fixed)
    spread = max(6.0 * math.sqrt(moments.variance), 1e-9)
    return np.linspace(moments.mean - spread, moments.mean + spread, bins + 1)


def sample_work(
    config: QubitProtocolConfig,
    runs: int,
    seed: int,
    trial_offset: int = 0,
    bin_edges: Optional[np.ndarray] = None,
) -> WorkLedger:
    """Monte Carlo work statistics over `runs` independent trials."""
    config._fixed_alpha("sample_work")
    works, mean_steps, _ = sample_work_values(config, runs, seed, trial_offset)
    edges = default_bin_edges(config) if bin_edges is None else np.asarray(bin_edges, dtype=float)
    return _ledger_from_samples(works, mean_steps, edges)


def simulate_random_alpha(
    config: QubitProtocolConfig,
    runs: int,
    bin_edges: Optional[np.ndarray] = None,
) -> tuple[WorkLedger, np.ndarray]:
    """Sampled statistics under per-step random alpha_k.

    The per-step alpha stream is seeded from the noise model's own seed; the
    trajectory stream reuses the same master seed so a degenerate alpha
    distribution reproduces the fixed-alpha trials exactly.  Returns the
    ledger and the ensemble-averaged excitation trajectory p_1..p_N.
    """
    if not isinstance(config.noise, RandomAlpha):
        raise ValidationError("simulate_random_alpha requires a RandomAlpha noise model")
    works, mean_steps, mean_exc = sample_work_values(config, runs, config.noise.seed)
    edges = default_bin_edges(config) if bin_edges is None else np.asarray(bin_edges, dtype=float)
    return _ledger_from_samples(works, mean_steps, edges), mean_exc


# ---------------------------------------------------------------------------
# Reduction of general thermal operations on the degenerate doublet
# ---------------------------------------------------------------------------

def _solve_joint_probabilities(r: float, s: float) -> tuple[float, float]:
    """Recover (p, q) with r = q(1-p), s = (1-q)p; returns the root with q > p."""
    if not (0.0 < r < 1.0 and 0.0 <= s < r):
        raise ValidationError("need 0 <= s < r < 1 from r = q(1-p), s = (1-q)p with q > p")
    b = 1.0 - r - s
    disc = b * b - 4.0 * r * s
    if disc < 0.0:
        raise ValidationError(f"(r, s) = ({r}, {s}) is not realizable by probabilities")
    v = 0.5 * (b - math.sqrt(disc))  # v = p*q, smaller root
    p, q = s + v, r + v
    if not (0.0 <= p < 1.0 and 0.0 < q < 1.0):
        raise ValidationError(f"(r, s) = ({r}, {s}) maps outside the probability square")
    return p, q


def random_energy_preserving_unitary(ancilla_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary commuting with 1 x H_A for nondegenerate H_A.

    Energy conservation on a degenerate doublet tensored with a nondegenerate
    ancilla forces block-diagonal structure: one independent 2x2 unitary per
    ancilla level.
    """
    dim = 2 * ancilla_dim
    V = np.zeros((dim, dim), dtype=complex)
    for a in range(ancilla_dim):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Q, R = np.linalg.qr(g)
        Q = Q * (np.diag(R) / np.abs(np.diag(R)))
        rows = [a, ancilla_dim + a]
        V[np.ix_(rows, rows)] = Q
    return V


def reduce_thermal_operation(
    V: np.ndarray,
    tau_ancilla: np.ndarray,
    r: float,
    s: float,
) -> tuple[float, float]:
    """Apply V to the degenerate doublet (weights r, s) plus thermal ancilla.

    Returns (alpha, residual): alpha solved from the reduced doublet diagonal
    so that populations read ((1-alpha)s + alpha r, (1-alpha)r + alpha s),
    and the worst deviation of the reduced system/bath states from the
    convex-mixture form, including any alpha excursion outside [0, 1].
    """
    d_A = len(tau_ancilla)
    p, q = _solve_joint_probabilities(r, s)
    joint = np.kron(np.diag([r, s]).astype(complex), np.diag(tau_ancilla).astype(complex))
    post = V @ joint @ V.conj().T
    # Partial trace over the ancilla factor.
    doublet = post.reshape(2, d_A, 2, d_A)
    psi = np.einsum("iaja->ij", doublet)

    alpha = float((psi[0, 0].real - s) / (r - s))
    residuals = [
        abs(psi[0, 0].real + psi[1, 1].real - (r + s)),  # no leakage off the block
        abs(psi[1, 1].real - ((1.0 - alpha) * r + alpha * s)),
        max(0.0, -alpha, alpha - 1.0),  # entropy-increase constraint
    ]
    # Reduced system and bath states: doublet block plus untouched sectors.
    p_sys_excited = psi[1, 1].real + p * q
    p_bath_excited = psi[0, 0].real + p * q
    residuals.append(abs(p_sys_excited - ((1.0 - alpha) * q + alpha * p)))
    residuals.append(abs(p_bath_excited - (alpha * q + (1.0 - alpha) * p)))
    return alpha, max(residuals)


def thermal_op_reduction_check(
    r: float,
    s: float,
    ancilla_dim: int,
    trials: int,
    seed: int,
) -> float:
    """Max residual over random thermal operations on the degenerate doublet.

    Each trial draws a random nondegenerate ancilla Hamiltonian, a random
    inverse temperature, and a Haar-random energy-preserving unitary, then
    verifies the reduced dynamics is a partial thermalization with a fitted
    alpha in [0, 1].
    """
    if ancilla_dim < 2:
        raise ValidationError(f"ancilla_dim must be >= 2, got {ancilla_dim}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    for t in range(trials):
        rng = rng_for(seed, "thermal-op", t)
        levels = np.sort(rng.normal(size=ancilla_dim))
        beta_A = math.exp(rng.normal())
        tau_A = gibbs_populations(levels, Temperature(1.0 / beta_A))
        V = random_energy_preserving_unitary(ancilla_dim, rng)
        _, residual = reduce_thermal_operation(V, tau_A, r, s)
        worst = max(worst, residual)
    return worst
