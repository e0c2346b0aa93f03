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
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .core import Temperature, ValidationError, _check_count, gibbs_populations
from .seeding import fill_rows, rng_for, trial_states

__all__ = [
    "BathSchedule",
    "FixedAlpha",
    "UniformAlpha",
    "TwoPointAlpha",
    "NoiseModel",
    "QubitProtocolConfig",
    "WorkLedger",
    "WorkSummary",
    "WorkDistribution",
    "make_linear_schedule",
    "average_work",
    "loss_epsilon",
    "epsilon_upper_bound",
    "work_moments",
    "enumerate_work_paths",
    "sample_work_values",
    "sample_work",
    "reduce_thermal_operation",
    "random_energy_preserving_unitary",
    "thermal_op_reduction_check",
]

ENUMERATION_CAP = 20  # 2^N paths; ~1e6 at the cap, whose works and sort order take 32 MB, ~41 MB at peak
# Steps tabulated (256 KB) rather than rebuilt per path, and paths per merge chunk: at N = 20 on a 2-core host 10/12/
# 14/16 steps ran at 1.03/0.92/0.87/0.82 x a full-size probability array, and 2^14..2^17 paths peaked at 40-45 MiB.
PREFIX_STEPS = 14
ENUMERATION_CHUNK = 1 << 15
TRIAL_TAG = "collision-mc"
# Uniforms per sampler chunk (1 MB, 32 trials at N = 2000); 2^16..2^19 ran within noise of one another on a 2-core
# host, 2^14 was 5-35% slower, and a whole 512-trial block at once 4-13% slower at N = 2000.
CHUNK_ELEMENTS = 1 << 17
# Trials seeded at once: their PCG64 lanes take 256 KB.  A fig4 task is one seeding block: it spans one sampler chunk's
# whole 512-trial blocks (5,120 trials at N = 12), or one such block from N = 64 on.
SEED_BLOCK = 8192


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BathSchedule:
    """Excitation probabilities q_0..q_N of the bath qubits and their gaps.

    E_k = T * ln((1-q_k)/q_k) is computed from q; q_0 = 0 yields the +inf
    sentinel in E[0], which is never a work term (all work sums run k = 1..N).
    """

    q: np.ndarray
    temp: Temperature
    E: np.ndarray = field(init=False)

    def __post_init__(self):
        q = np.array(self.q, dtype=float)  # a copy: the frozen q must not be the caller's array
        if q.ndim != 1 or len(q) < 2:
            raise ValidationError("schedule needs at least q_0 and q_1")
        if not np.isfinite(q).all():
            raise ValidationError("excitation probabilities must be finite")
        if np.any(np.diff(q) <= 0):
            raise ValidationError("excitation probabilities must increase strictly")
        if not (0.0 <= q[0] < 1.0):
            raise ValidationError(f"q_0 must lie in [0, 1), got {q[0]}")
        if np.any(q[1:] <= 0.0) or np.any(q[1:] >= 1.0):
            raise ValidationError("q_1..q_N must lie strictly inside (0, 1)")
        interior = q > 0.0
        E = np.full(len(q), np.inf)
        with np.errstate(over="ignore"):  # an overflow (a subnormal q_k, an extreme T) leaves an inf, refused below
            E[interior] = self.temp.T * np.log((1.0 - q[interior]) / q[interior])
        # E_1..E_N must be finite; the round trip catches an E that lost its digits at an extreme temperature.
        expected = 1.0 / (1.0 + np.exp(self.temp.beta * E[interior]))
        if not (np.isfinite(E[1:]).all() and np.abs(q[interior] - expected).max() <= 1e-12):
            raise ValidationError("E_k not finite, or inconsistent with q_k at the bath temperature")
        for arr in (q, E):
            arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "E", E)

    @property
    def N(self) -> int:
        return len(self.q) - 1


def make_linear_schedule(N: int, temp: Temperature) -> BathSchedule:
    """The ladder q_k = k/(2N), ending at q_N = 1/2 (zero final gap)."""
    _check_count("N", N)
    q = np.arange(N + 1) / (2.0 * N)
    return BathSchedule(q, temp)


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
class UniformAlpha:
    """Independent per-step alpha_k ~ U[a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= self.b <= 1.0 and self.mean_alpha < 1.0):
            raise ValidationError(f"uniform alpha needs 0 <= a <= b <= 1 and mean < 1, got {self}")

    @property
    def mean_alpha(self) -> float:
        return 0.5 * (self.a + self.b)

    def alphas(self, u: np.ndarray) -> np.ndarray:
        """A new array of the per-step alphas of uniforms u."""
        return self.a + (self.b - self.a) * u


@dataclass(frozen=True)
class TwoPointAlpha:
    """Independent per-step alpha_k = lo with probability p_lo, else hi."""

    lo: float
    hi: float
    p_lo: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0 and 0.0 <= self.p_lo <= 1.0 and self.mean_alpha < 1.0):
            raise ValidationError(f"two-point alpha needs 0 <= lo <= hi <= 1, 0 <= p_lo <= 1 and mean < 1, got {self}")

    @property
    def mean_alpha(self) -> float:
        return self.p_lo * self.lo + (1.0 - self.p_lo) * self.hi

    def alphas(self, u: np.ndarray) -> np.ndarray:
        """A new array of the per-step alphas of uniforms u."""
        return np.where(u < self.p_lo, self.lo, self.hi)


NoiseModel = Union[FixedAlpha, UniformAlpha, TwoPointAlpha]


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
        if not math.isfinite(self.eps_S):
            raise ValidationError(f"eps_S must be finite, got {self.eps_S}")
        if not isinstance(self.noise, NoiseModel):
            raise ValidationError(f"noise must be FixedAlpha, UniformAlpha or TwoPointAlpha, got {self.noise!r}")

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
            raise ValidationError(f"{op_name} requires a fixed-alpha noise model")
        return self.noise.alpha

    @property
    def swap_energies(self) -> np.ndarray:
        """omega_k = E_k - eps_S for the work steps k = 1..N."""
        return self.schedule.E[1:] - self.eps_S


@dataclass(frozen=True)
class WorkLedger:
    """work_moments' record: exact per-step mean work increments plus the mean and variance of the total."""

    per_step_work: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        steps = np.asarray(self.per_step_work, dtype=float)
        if not np.all(np.isfinite(steps)):
            raise ValidationError("non-finite per-step work: infinity sentinel dereferenced")
        if not self.variance >= 0.0:
            raise ValidationError(f"variance must be non-negative, got {self.variance}")
        steps.flags.writeable = False
        object.__setattr__(self, "per_step_work", steps)


# ---------------------------------------------------------------------------
# Deterministic recursions
# ---------------------------------------------------------------------------

def _moment_recursion(config: QubitProtocolConfig, alpha: float) -> tuple[np.ndarray, float, float]:
    """One pass over the swap steps: per-step mean work, <W> and Var W.

    Besides the excitation probability p_m and the moments it tracks the
    excited-state work correlator c_m = E[W_m ; state = 1], whose recursion is
        c_m = q_m (1-alpha) (<W_{m-1}> + (1 - p_{m-1}) w_m) + alpha c_{m-1}
    with w_m the swap energy of step m.
    """
    one = 1.0 - alpha
    p = float(config.p0)
    steps = []
    mean = second = corr = 0.0
    for qm, w in zip(config.schedule.q[1:].tolist(), config.swap_energies.tolist()):
        inc = one * w * (qm - p)
        second = second + 2.0 * w * one * (qm * mean - corr) + w * w * one * (qm + p - 2.0 * qm * p)
        corr = qm * one * (mean + (1.0 - p) * w) + alpha * corr
        mean += inc
        p = alpha * p + one * qm
        steps.append(inc)
    return np.array(steps), mean, max(second - mean * mean, 0.0)


def average_work(config: QubitProtocolConfig) -> float:
    """Exact average extracted work, (1-alpha) * sum_k omega_k (q_k - p_{k-1}), summed over the per-step means."""
    return float(_moment_recursion(config, config._fixed_alpha("average_work"))[0].sum())


def loss_epsilon(config: QubitProtocolConfig) -> float:
    """Work lost to noise in the canonical scenario: (1/2N) sum_k E_k alpha^k."""
    alpha = config._fixed_alpha("loss_epsilon")  # FixedAlpha holds alpha < 1
    config.require_canonical()
    sched = config.schedule
    N = sched.N
    powers = alpha ** np.arange(1, N + 1)
    return float(np.sum(sched.E[1:] * powers) / (2.0 * N))


def epsilon_upper_bound(N: int, alpha: float, temp: Temperature) -> float:
    """Loss bound alpha/(1-alpha) * T ln(2N) / (2N) for the linear ladder."""
    _check_count("N", N)
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("bound requires alpha in [0, 1)")
    return alpha / (1.0 - alpha) * temp.T * math.log(2.0 * N) / (2.0 * N)


def work_moments(config: QubitProtocolConfig) -> WorkLedger:
    """Mean and variance of the work distribution by an O(N) recursion (see _moment_recursion)."""
    return WorkLedger(*_moment_recursion(config, config._fixed_alpha("work_moments")))


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


def enumerate_work_paths(config: QubitProtocolConfig) -> WorkDistribution:
    """Exact work distribution by enumerating all 2^N swap/no-swap paths.

    Fills one row of path works per current system bit, in place: step k
    writes the paths that swap into columns [n:2n] from the first n.  Only
    the works and their sort order are held at full size; per chunk of that
    order, each path's probability is rebuilt with the doubling's own
    multiplies, in its order.  Support points closer than 1e-11 are merged
    (identical path sums agree bitwise; this also folds coincidences between
    different paths); a group cut by a chunk's end carries its running sums
    into the next chunk, so every group adds its terms in one sorted pass.
    """
    alpha = config._fixed_alpha("enumerate_work_paths")
    N = config.schedule.N
    if N > ENUMERATION_CAP:
        raise ValidationError(
            f"path enumeration is capped at N <= {ENUMERATION_CAP} (2^N paths); got N = {N}"
        )
    q, omega, h = config.schedule.q, config.swap_energies, min(N, PREFIX_STEPS)

    works = np.empty((2, 1 << N))  # row b: the paths that end with the system bit b
    probs = np.empty((2, 1 << h))  # the same rows for the probabilities of the first h steps
    works[:, 0] = 0.0
    probs[:, 0] = 1.0 - config.p0, config.p0
    for k in range(1, N + 1):
        n, qk, w = 1 << (k - 1), q[k], omega[k - 1]
        np.add(works[::-1, :n], [[-w], [w]], out=works[:, n : 2 * n])  # x + (-w) is x - w bit for bit
        if k <= h:
            np.multiply(probs[::-1, :n], 1.0 - alpha, out=probs[:, n : 2 * n])
            probs[:, n : 2 * n] *= [[1.0 - qk], [qk]]
            probs[:, :n] *= [[(1.0 - qk) + alpha * qk], [qk + alpha * (1.0 - qk)]]
    # Path (b, c) ends in bit b, and bit k-1 of c says whether step k flipped. Its index >> h, the suffix, sets the
    # two factors of each step after h: a stay's (stay_b, an exact 1.0) and a flip's (1 - alpha, q_k or 1 - q_k).
    suffix = np.arange(2 << (N - h))
    bit, factors = suffix >> (N - h), np.empty((N - h, 2, suffix.size))
    for k in range(N, h, -1):  # bit: the system bit after step k
        qk, flip = q[k], (suffix >> (k - 1 - h)) & 1
        stay0, stay1, swap = (1.0 - qk) + alpha * qk, qk + alpha * (1.0 - qk), 1.0 - alpha
        factors[k - 1 - h] = np.array([[stay0, swap, stay1, swap], [1.0, 1.0 - qk, 1.0, qk]])[:, 2 * bit + flip]
        bit ^= flip
    start = bit << h  # the offset of the row of probs, the bit after step h, that each suffix starts from

    order = np.argsort(works, axis=None)  # kind="stable" would order ties, and so each group's sum, differently
    flat, carry, values, probabilities = works.ravel(), np.zeros((2, 1)), [], []
    for lo in range(0, order.size, ENUMERATION_CHUNK):
        paths = order[lo : lo + ENUMERATION_CHUNK]
        suffix = paths >> h
        p = probs.ravel().take(start.take(suffix) | (paths & ((1 << h) - 1)))
        for factor in factors.reshape(-1, factors.shape[-1]):  # both factors of step h+1, then of h+2, ...
            p *= factor.take(suffix)
        v = flat.take(paths)
        # The previous chunk's last group enters as its two running sums (bincount adds in order, so 0 + carry + the
        # terms here is the one-pass sum) and goes on unless v[0] starts a new group.
        group = np.cumsum(np.diff(v, prepend=flat[order[lo - 1]] if lo else -np.inf) > 1e-11)
        v *= p  # the weights of each group's mean work
        sums = np.array([np.bincount(np.append(0, group), weights=np.append(c, x)) for c, x in zip(carry, (p, v))])
        cut = sums.shape[1] - (lo + ENUMERATION_CHUNK < order.size)  # the last group may go on in the next chunk
        done, carry = sums[:, :cut], sums[:, cut:]
        keep = done[0] > 0
        values.append(done[1, keep] / done[0, keep])
        probabilities.append(done[0, keep])
    del works, flat, order, paths  # a slice of order would hold all of it through the concatenation
    return WorkDistribution(values=np.concatenate(values), probabilities=np.concatenate(probabilities))


# ---------------------------------------------------------------------------
# Stochastic sampling
# ---------------------------------------------------------------------------

def sample_work_values(
    config: QubitProtocolConfig,
    runs: int,
    seed: int,
    trial_offset: int = 0,
) -> np.ndarray:
    """The total works of `runs` independent trials, under any noise model.

    Trial t uses the stream derived from (seed, trial_offset + t), so any
    block partition of the trial range reproduces identical numbers.  Each
    block of SEED_BLOCK trials is seeded once, then drawn and scanned in
    chunks of at most CHUNK_ELEMENTS uniforms, each in the same buffer.
    Per trial, stream order is: one uniform for the initial bit, N for the
    swap decisions, N for the fresh bath bits, then, under random alphas, N
    for the per-step alphas, so a FixedAlpha stream is a prefix of a random
    one.  The state scan is one running max over packed codes (s_0, then
    2k + b_k at a swap and 0 otherwise, in the narrowest signed int holding
    2N + 1): its low bit is s_k, so the increments omega_k (s_k - s_{k-1})
    are exact and are the only float array.
    """
    _check_count("runs", runs)
    N = config.schedule.N
    noise, omega, q_steps = config.noise, config.swap_energies, config.schedule.q[1:]
    fixed = isinstance(noise, FixedAlpha)
    width = 2 * N + 1 if fixed else 3 * N + 1
    works = np.empty(runs)
    rows = min(runs, SEED_BLOCK, max(1, CHUNK_ELEMENTS // width))
    uniforms = np.empty((rows, width))
    codes = np.empty((rows, N + 1), dtype=np.min_scalar_type(-(2 * N + 1)))
    swap_codes = np.arange(2, 2 * N + 1, 2, dtype=codes.dtype)
    for start in range(0, runs, SEED_BLOCK):
        indices = np.arange(trial_offset + start, trial_offset + min(start + SEED_BLOCK, runs))
        lanes = trial_states(seed, TRIAL_TAG, indices)
        for first in range(0, len(indices), rows):
            part = slice(first, first + rows)
            m = len(indices[part])
            u, c = fill_rows([lane[part] for lane in lanes], uniforms[:m]), codes[:m]
            alphas = noise.alpha if fixed else noise.alphas(u[:, 2 * N + 1 :])  # a new array: inc reuses u below
            np.less(u[:, 0], config.p0, out=c[:, 0])
            np.less(u[:, N + 1 : 2 * N + 1], q_steps, out=c[:, 1:])
            c[:, 1:] += swap_codes
            c[:, 1:] *= u[:, 1 : N + 1] < (1.0 - alphas)
            np.maximum.accumulate(c, axis=1, out=c)
            c &= 1
            inc = u.reshape(-1)[: m * N].reshape(m, N)  # the increments take the spent uniforms' memory
            np.subtract(c[:, 1:], c[:, :-1], out=inc)
            inc *= omega
            inc.sum(axis=1, out=works[start + first : start + first + m])
    return works


class WorkSummary(NamedTuple):
    """Mergeable summary of sampled works: count, sum, sum of squares, sum of squared deviations from the mean and
    histogram counts over fixed edges."""

    count: int
    total: float
    total_sq: float
    m2: float
    hist: np.ndarray

    @classmethod
    def of(cls, works: np.ndarray, edges) -> "WorkSummary":
        dev = works - works.mean() if len(works) else works
        hist = np.histogram(works, bins=edges)[0]
        return cls(len(works), float(works.sum()), float(np.dot(works, works)), float(np.dot(dev, dev)), hist)

    @classmethod
    def merge(cls, blocks) -> "WorkSummary":
        """The summary of all the blocks' trials, folded in block order: counts, sums and histograms add, and the
        squared deviations add with the between-block term n_a n_b (m_b - m_a)^2 / (n_a + n_b) (Chan, Golub and
        LeVeque)."""
        blocks = iter(blocks)
        n, total, total_sq, m2, hist = next(blocks)
        for b in blocks:
            if n and b.count:
                m2 += (b.total / b.count - total / n) ** 2 * (n * b.count / (n + b.count))
            n, total, total_sq, m2, hist = n + b.count, total + b.total, total_sq + b.total_sq, m2 + b.m2, hist + b.hist
        return cls(n, total, total_sq, m2, hist)

    def moments(self) -> tuple[float, float]:
        """Sample mean and unbiased variance; 0 for a single sample.

        The variance is (sum w^2 - n m^2) / (n - 1) while that difference keeps more than 1/128 of sum w^2, so that
        its rounding costs at most 7 bits, and m2 / (n - 1) below that, where the difference of sums cancels."""
        n, mean = self.count, self.total / self.count
        if n < 2:
            return mean, 0.0
        spread = self.total_sq - n * mean * mean
        return mean, (spread if 128.0 * spread > self.total_sq else self.m2) / (n - 1)


def default_bin_edges(config: QubitProtocolConfig) -> np.ndarray:
    """60 histogram bins centered on the exact moments at the noise model's mean alpha (deterministic)."""
    return moment_bin_edges(WorkLedger(*_moment_recursion(config, config.noise.mean_alpha)))


def moment_bin_edges(moments: WorkLedger, bins: int = 60) -> np.ndarray:
    """Histogram edges over mean +- 6 sigma of the given moments (at least +- 1e-9)."""
    spread = max(6.0 * math.sqrt(moments.variance), 1e-9)
    return np.linspace(moments.mean - spread, moments.mean + spread, bins + 1)


def sample_work(config: QubitProtocolConfig, runs: int, seed: int) -> WorkSummary:
    """Monte Carlo work statistics over `runs` independent trials, binned on default_bin_edges."""
    return WorkSummary.of(sample_work_values(config, runs, seed), default_bin_edges(config))


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
    _check_count("ancilla_dim", ancilla_dim, least=2)
    _check_count("trials", trials)
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
