"""Qudit collision protocols along smooth Hamiltonian trajectories.

A protocol discretizes a continuously differentiable family H(s), s in
[0, 1], into N bath contacts with Gibbs targets tau(k/N).  Partial
thermalization makes the state lag behind the instantaneous thermal state
by O(alpha / ((1-alpha) N)), and the dissipated work obeys an explicit
1/N law whose alpha-dependence is trajectory independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from .core import (
    HERMITICITY_TOL,
    DensityOperator,
    Temperature,
    ThermalizingChannel,
    ValidationError,
    _check_count,
    check_density_matrices,
    contact_chain,
    free_energy,
    gibbs_matrices,
    trace_distance,
)

__all__ = [
    "HamiltonianPath",
    "QuditProtocolConfig",
    "AsymptoticDissipation",
    "RankDeficientPoint",
    "FULL_RANK_THRESHOLD",
    "PATH_PRESETS",
    "smoothstep",
    "linear_endpoint_path",
    "qubit_excitation_path",
    "qubit_gap_ramp_path",
    "random_diagonal_path",
    "path_preset",
    "run_qudit_protocol",
    "gamma_coefficient",
    "asymptotic_dissipation",
    "exact_dissipation",
    "rank_deficient_scaling",
    "make_rank_deficient_erasure",
]

FULL_RANK_THRESHOLD = 1e-8
SMOOTHNESS_CURVATURE_CAP = 1e6
GAMMA_PANELS = 256  # gamma_coefficient's first Simpson panel count, doubled until GAMMA_TOL or 4096 panels
GAMMA_TOL = 1e-9


def smoothstep(s):
    """C^1 ramp 3s^2 - 2s^3: zero slope at both endpoints."""
    return s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class HamiltonianPath:
    """Smooth family s -> H(s) on [0, 1] with its Gibbs family tau(s).

    sampler maps a 1-D float array s to the (len(s), dim, dim) stack H(s). Scalar formulas keep their
    bytes with math.log and Python float ** (libm pow) per value: numpy's log and ** round differently.
    """

    dim: int
    sampler: Callable[[np.ndarray], np.ndarray]
    temp: Temperature
    derivative_step: ClassVar[float] = 1e-5

    def hamiltonians(self, s) -> np.ndarray:
        """H(s) for each entry of the 1-D array s, stacked as (len(s), dim, dim), from one sampler call."""
        s = np.asarray(s, dtype=float)
        H = np.asarray(self.sampler(s), dtype=complex)
        if H.shape != (len(s), self.dim, self.dim):
            raise ValidationError(f"sampler returned shape {H.shape}, expected ({len(s)}, {self.dim}, {self.dim})")
        finite = np.isfinite(H).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(f"sampler returned a non-finite matrix at s = {s[finite.argmin()]}")
        hermitian = (np.abs(H - H.conj().swapaxes(1, 2)) <= HERMITICITY_TOL).all(axis=(1, 2))
        if not hermitian.all():
            raise ValidationError(f"sampler returned a non-Hermitian matrix at s = {s[hermitian.argmin()]}")
        return H

    def gibbs_matrices(self, s) -> np.ndarray:
        """tau(s) for each entry of the 1-D array s, stacked as (len(s), dim, dim)."""
        return gibbs_matrices(self.hamiltonians(s), self.temp)

    def hamiltonian(self, s: float) -> np.ndarray:
        return self.hamiltonians((s,))[0]

    def gibbs_matrix(self, s: float) -> np.ndarray:
        return self.gibbs_matrices((s,))[0]

    def gibbs(self, s: float) -> DensityOperator:
        return DensityOperator(self.gibbs_matrix(s))

    def _fd(self, fun: Callable[[np.ndarray], np.ndarray], s) -> np.ndarray:
        """O(h^2) derivatives of the stacked family fun at each entry of s, stencils inside [0, 1].

        Central differences, or (-3 f(s) + 4 f(s+d) - f(s+2d)) / 2d with d = +h near 0, -h near 1.
        """
        s = np.asarray(s, dtype=float)
        h = self.derivative_step
        d = np.where(s - h < 0.0, h, np.where(s + h > 1.0, -h, 0.0))
        one_sided = d != 0.0
        c, o, d = s[~one_sided], s[one_sided], d[one_sided]
        f = fun(np.concatenate([c - h, c + h, o, o + d, o + 2 * d]))
        n, m = len(c), len(o)
        out = np.empty((len(s),) + f.shape[1:], dtype=f.dtype)
        out[~one_sided] = (f[n : 2 * n] - f[:n]) / (2 * h)
        at, lo, hi = f[2 * n : 2 * n + m], f[2 * n + m : 2 * n + 2 * m], f[2 * n + 2 * m :]
        out[one_sided] = (-3.0 * at + 4.0 * lo - hi) / (2 * d).reshape((-1,) + (1,) * (f.ndim - 1))
        return out

    def probe_smoothness(self) -> float:
        """Max second-difference curvature of H over 17 probe points."""
        h = self.derivative_step
        grid = np.linspace(h, 1.0 - h, 17)
        second = self.hamiltonians(grid + h) - 2.0 * self.hamiltonians(grid) + self.hamiltonians(grid - h)
        return max([0.0, *(np.abs(second).max(axis=(1, 2)) / (h * h)).tolist()])

    def require_smooth(self) -> None:
        scale = 1.0 + float(np.abs(self.hamiltonian(0.5)).max())
        probe = self.probe_smoothness()
        if not np.isfinite(probe) or probe > SMOOTHNESS_CURVATURE_CAP * scale:
            raise ValidationError("path fails the smoothness probe (curvature blow-up)")


# ---------------------------------------------------------------------------
# Path constructors
# ---------------------------------------------------------------------------

def _diagonal_stack(entries: np.ndarray) -> np.ndarray:
    """(n, d) real diagonals as an (n, d, d) complex stack with +0.0 off the diagonal."""
    return np.where(np.eye(entries.shape[1], dtype=bool), entries[:, None, :], 0.0).astype(complex)


def linear_endpoint_path(H0, H1, temp: Temperature) -> HamiltonianPath:
    """Straight-line interpolation H(s) = (1-s) H0 + s H1."""
    m0, m1 = np.asarray(H0, dtype=complex), np.asarray(H1, dtype=complex)
    if m0.shape != m1.shape:
        raise ValidationError("endpoint Hamiltonians must share a dimension")

    def sampler(s: np.ndarray) -> np.ndarray:
        return (1.0 - s)[:, None, None] * m0 + s[:, None, None] * m1

    return HamiltonianPath(dim=m0.shape[0], sampler=sampler, temp=temp)


def qubit_excitation_path(q_start: float, q_end: float, temp: Temperature) -> HamiltonianPath:
    """Qubit path parametrized by its Gibbs excitation probability q(s), smoothstep-ramped.

    The gap is E(s) = T ln((1-q)/q); the smooth ramp makes the endpoint
    free-energy derivatives vanish.
    """
    if not (0.0 < q_start < 1.0 and 0.0 < q_end < 1.0):
        raise ValidationError("excitation endpoints must lie in (0, 1)")

    def sampler(s: np.ndarray) -> np.ndarray:
        q = q_start + (q_end - q_start) * smoothstep(s)
        gaps = [temp.T * math.log((1.0 - x) / x) for x in q.tolist()]  # math.log, as the scalar formula
        return _diagonal_stack(np.stack([np.zeros(len(s)), gaps], axis=1))

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


def qubit_gap_ramp_path(gap_start: float, gap_end: float, temp: Temperature) -> HamiltonianPath:
    """Qubit path smoothstep-ramping the energy gap from gap_start to gap_end."""

    def sampler(s: np.ndarray) -> np.ndarray:
        w = smoothstep(s)
        return _diagonal_stack(np.stack([np.zeros(len(s)), gap_start + (gap_end - gap_start) * w], axis=1))

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


def random_diagonal_path(temp: Temperature) -> HamiltonianPath:
    """Diagonal d = 4 path, smoothstep-ramped between two random spectra drawn at seed 11."""
    rng = np.random.default_rng(11)
    d0 = np.sort(rng.uniform(-1.0, 1.0, size=4))
    d1 = np.sort(rng.uniform(-1.0, 1.0, size=4))

    def sampler(s: np.ndarray) -> np.ndarray:
        w = smoothstep(s)[:, None]
        return _diagonal_stack((1.0 - w) * d0 + w * d1)

    return HamiltonianPath(dim=4, sampler=sampler, temp=temp)


PATH_PRESETS = {
    "qubit-linear-q": lambda temp: qubit_excitation_path(0.2, 0.5, temp),
    "qubit-gap-ramp": lambda temp: qubit_gap_ramp_path(1.6, 0.3, temp),
    "random-diagonal-d4": random_diagonal_path,
}


def path_preset(name: str, temp: Temperature) -> HamiltonianPath:
    if name not in PATH_PRESETS:
        raise ValidationError(f"unknown path preset {name!r}; choose from {sorted(PATH_PRESETS)}")
    return PATH_PRESETS[name](temp)


# ---------------------------------------------------------------------------
# Protocol configuration and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuditProtocolConfig:
    """N-step staircase along a path, with fixed system Hamiltonian H_system.

    H_system defaults to H(1) (the protocol ends at the system Hamiltonian).
    Full-rank initial states must match tau(0) exactly; rank-deficient ones
    record their initial mismatch delta = ||tau(0) - rho0||_1.  free_energy_drop is F(rho0, H_S) - F(tau(1), H_S).
    """

    path: HamiltonianPath
    rho0: DensityOperator
    N: int
    alpha: float
    H_system: Optional[np.ndarray] = None
    delta: float = field(init=False)
    free_energy_drop: float = field(init=False)

    def __post_init__(self):
        _check_count("N", self.N)
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.rho0.dim != self.path.dim:
            raise ValidationError("initial state dimension does not match the path")
        H_S = self.path.hamiltonian(1.0) if self.H_system is None else np.asarray(self.H_system, dtype=complex)
        if not np.abs(H_S - H_S.conj().T).max() <= HERMITICITY_TOL:
            raise ValidationError("H_system must be Hermitian")
        object.__setattr__(self, "H_system", H_S)
        delta = trace_distance(self.rho0, self.path.gibbs_matrix(0.0))
        if self.is_full_rank and not delta <= 1e-10:
            raise ValidationError(f"full-rank protocols require rho0 = tau(0); mismatch {delta:.3e}")
        object.__setattr__(self, "delta", float(delta))
        temp = self.path.temp
        drop = free_energy(self.rho0, H_S, temp) - free_energy(self.path.gibbs_matrix(1.0), H_S, temp)
        object.__setattr__(self, "free_energy_drop", drop)

    @property
    def is_full_rank(self) -> bool:
        return float(np.linalg.eigvalsh(self.rho0.matrix)[0]) >= FULL_RANK_THRESHOLD


def run_qudit_protocol(config: QuditProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """Iterate rho_k = alpha rho_{k-1} + (1-alpha) tau(k/N) and tally work.

    Returns (states, work_steps): the checked states rho_0..rho_N as one
    (N+1, dim, dim) array, and the (N,) works extracted per step, step k
    contributing (1-alpha) Tr[(H(k/N) - H_S)(tau(k/N) - rho_{k-1})].
    """
    path, alpha = config.path, config.alpha
    H = path.hamiltonians(np.arange(1, config.N + 1) / config.N)
    taus = gibbs_matrices(H, path.temp)
    states = contact_chain(config.rho0.matrix, ThermalizingChannel(alpha, taus))[0]
    check_density_matrices(states[1:])
    steps = (1.0 - alpha) * ((H - config.H_system) @ (taus - states[:-1])).trace(axis1=1, axis2=2).real
    return states, steps


# ---------------------------------------------------------------------------
# Trajectory coefficients
# ---------------------------------------------------------------------------

def _dissipation_density(path: HamiltonianPath, s: np.ndarray) -> np.ndarray:
    """Integrand -(1/2) Tr(taudot(s) Hdot(s)) at each s; non-negative along Gibbs families."""

    def gibbs_and_hamiltonian(x):
        H = path.hamiltonians(x)
        return np.stack([gibbs_matrices(H, path.temp), H], axis=1)

    both = path._fd(gibbs_and_hamiltonian, s)
    return -0.5 * (both[:, 0] @ both[:, 1]).trace(axis1=1, axis2=2).real


def _simpson(fun: Callable[[np.ndarray], np.ndarray], panels: int) -> float:
    ys = fun(np.linspace(0.0, 1.0, panels + 1))
    return float((ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()) / (3.0 * panels))


def gamma_coefficient(path: HamiltonianPath) -> float:
    """Dissipation coefficient Gamma = -(1/2) Integral Tr(taudot Hdot) ds.

    Composite Simpson on GAMMA_PANELS panels, doubled with Richardson
    extrapolation until successive refinements agree to GAMMA_TOL or the
    count reaches 4096.
    """
    path.require_smooth()
    fun = lambda s: _dissipation_density(path, s)
    M = GAMMA_PANELS
    coarse = _simpson(fun, M)
    while True:
        M *= 2
        fine = _simpson(fun, M)
        # Richardson step for the O(M^-4) Simpson error.
        extrapolated = fine + (fine - coarse) / 15.0
        if abs(fine - coarse) < GAMMA_TOL or M >= 4096:
            return extrapolated
        coarse = fine


def _fdot(path: HamiltonianPath, H_system: np.ndarray, s: float) -> float:
    """d/ds F(tau(s), H_system) by the O(h^2) stencil of HamiltonianPath._fd."""
    return float(path._fd(lambda u: free_energy(path.gibbs_matrices(u), H_system, path.temp), (s,))[0])


@dataclass(frozen=True)
class AsymptoticDissipation:
    """The order-1/N dissipation law of a path: its coefficients Gamma and Fdot(1), for any alpha and N."""

    gamma: float
    fdot_end: float

    def prediction(self, alpha: float, N: int) -> float:
        """(1 + 2 alpha/(1-alpha)) Gamma / N - alpha/((1-alpha) N) Fdot(1)."""
        ratio = alpha / (1.0 - alpha)
        return (1.0 + 2.0 * ratio) * self.gamma / N - ratio * self.fdot_end / N


def asymptotic_dissipation(path: HamiltonianPath, H_system: np.ndarray) -> AsymptoticDissipation:
    """The path's 1/N law for full-rank staircases from tau(0), with Fdot the slope of F(tau(s), H_system).

    Only Fdot(1) enters: expanding the exact work sum, all Fdot(0+) terms cancel between the geometric
    transient and the Riemann-sum edge corrections (verified against exact staircases).
    """
    return AsymptoticDissipation(gamma=gamma_coefficient(path), fdot_end=_fdot(path, H_system, 1.0))


def exact_dissipation(config: QuditProtocolConfig) -> float:
    """DeltaF - W of the N-step staircase, with DeltaF its free_energy_drop."""
    _, work_steps = run_qudit_protocol(config)
    return config.free_energy_drop - float(work_steps.sum())


# ---------------------------------------------------------------------------
# Rank-deficient initial states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankDeficientPoint:
    delta: float
    N: int
    w_dis: float


def _clamped_start(populations: np.ndarray, delta: float) -> np.ndarray:
    """Move trace weight delta/2 from the supported levels onto the empty ones."""
    pops = populations.copy()
    empty = pops < FULL_RANK_THRESHOLD
    n_empty = int(empty.sum())
    if n_empty == 0:
        raise ValidationError("initial state is already full rank")
    lift = 0.5 * delta / n_empty
    pops[empty] = lift
    support = ~empty
    pops[support] -= 0.5 * delta * populations[support] / populations[support].sum()
    return pops


def _diagonal_population_path(start: np.ndarray, end: np.ndarray, temp: Temperature) -> HamiltonianPath:
    """Diagonal path whose Gibbs populations interpolate linearly.

    Energies are gauged to the most occupied starting level, so the level
    clamped at delta/2 carries a gap of order T log(1/delta).
    """
    anchor = int(np.argmax(start))

    def sampler(s: np.ndarray) -> np.ndarray:
        logs = np.log((1.0 - s)[:, None] * start + s[:, None] * end)
        return _diagonal_stack(temp.T * (logs[:, anchor, None] - logs))

    return HamiltonianPath(dim=len(start), sampler=sampler, temp=temp)


def rank_deficient_scaling(config: QuditProtocolConfig, delta_schedule) -> list[RankDeficientPoint]:
    """Dissipation table for rank-deficient starts with delta-clamped paths.

    For each delta the protocol runs with N = round(1/delta) steps along a
    diagonal path from the clamped initial populations to the Gibbs state of
    the target Hamiltonian; the returned w_dis values scale as log(N)/N.
    """
    if config.is_full_rank:
        raise ValidationError("full-rank initial state: use asymptotic_dissipation")
    deltas = np.asarray(delta_schedule, dtype=float)
    if np.any(deltas <= 0.0):
        raise ValidationError("delta = 0 cannot be represented by a Gibbs state for a rank-deficient start")
    rho0_pops = config.rho0.populations
    if np.abs(config.rho0.matrix - np.diag(rho0_pops)).max() > 1e-12:
        raise ValidationError("rank-deficient scaling is defined for diagonal initial states")
    temp = config.path.temp
    end_pops = config.path.gibbs_matrix(1.0).diagonal().real
    H_S = config.H_system

    rows = []
    for delta in deltas:
        N = max(int(round(1.0 / delta)), 2)
        start = _clamped_start(rho0_pops, delta)
        path = _diagonal_population_path(start, end_pops, temp)
        run_cfg = QuditProtocolConfig(path=path, rho0=config.rho0, N=N, alpha=config.alpha, H_system=H_S)
        rows.append(RankDeficientPoint(delta=float(delta), N=N, w_dis=exact_dissipation(run_cfg)))
    return rows


def make_rank_deficient_erasure(alpha: float, temp: Temperature, delta: float) -> QuditProtocolConfig:
    """Pure-state qubit erasure start with tau(0) clamped at mismatch delta.

    The path ends at the maximally mixed Gibbs state of a zero-gap target:
    one-bit-to-work conversion.
    """
    rho0 = DensityOperator.pure(0, 2)
    start = _clamped_start(rho0.populations, delta)
    end = np.full(2, 0.5)
    path = _diagonal_population_path(start, end, temp)
    return QuditProtocolConfig(path=path, rho0=rho0, N=max(int(round(1.0 / delta)), 2), alpha=alpha)
