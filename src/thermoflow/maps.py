"""Cyclic protocols with thermalizing channels and unitary evolution.

Work is extracted by driving H(t) around a closed loop while the system
meets the bath at N equally spaced contact times.  Each contact is a quantum
channel that contracts the state toward the instantaneous Gibbs state by at
least a declared factor alpha; between contacts the state either evolves
unitarily under H(t) or is carried through an instantaneous quench.

The dissipated work splits exactly into three pieces: the finite-step cost
gamma that survives perfect thermalization, the imperfect-thermalization
cost epsilon, and the unitary-evolution cost kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DensityOperator,
    HamiltonianMatrix,
    Temperature,
    ValidationError,
    check_density_matrices,
    contact_chain,
    free_energy,
    gibbs_matrices,
    gibbs_state,
    trace_distance,
)
from .collision import WorkLedger
from .qudit import HamiltonianPath
from .seeding import rng_for

__all__ = [
    "ThermalizingChannel",
    "CyclicProtocol",
    "DissipationBreakdown",
    "ProtocolRun",
    "partial_thermalization_channel",
    "pinch_then_mix_channel",
    "custom_channel",
    "make_channel",
    "cyclic_qubit_gap_path",
    "cyclic_qubit_zx_path",
    "CYCLIC_PATH_PRESETS",
    "evolve_unitary",
    "unitary_approx_error",
    "run_protocol_segment",
    "run_cyclic_protocol",
    "protocol_state_lag",
    "dissipation_breakdown",
    "estimate_contraction",
]

CHANNEL_KINDS = ("partial", "pinch")
DEFAULT_SUBSTEPS = 16


# ---------------------------------------------------------------------------
# Thermalizing channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalizingChannel:
    """A channel with Gibbs fixed point and declared contraction factor."""

    kind: str
    declared_alpha: float
    target: DensityOperator
    apply_matrix: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_contraction(self.declared_alpha)
        _check_fixed_points(self.apply_matrix(self.target.matrix), self.target.matrix)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(dim=rho.dim, matrix=self.apply_matrix(rho.matrix))


def _check_contraction(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"contraction factor must lie in [0, 1], got {lam}")


def _check_evolution_mode(mode: str) -> None:
    if mode not in ("unitary", "quench"):
        raise ValidationError(f"evolution_mode must be 'unitary' or 'quench', got {mode!r}")


def _check_fixed_points(fixed: np.ndarray, targets: np.ndarray) -> None:
    """Require a channel to map each target (one matrix or a stack) onto itself to 1e-12 in trace norm."""
    drift = np.atleast_1d(np.abs(np.linalg.eigvalsh(fixed - targets)).sum(axis=-1))
    bad = ~(drift <= 1e-12)
    if bad.any():
        raise ValidationError(f"channel does not fix its thermal target (drift {drift[bad.argmax()]:.3e})")


def _pinch(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Dephase m in the eigenbasis held in the columns of vecs (one matrix or a stack)."""
    vecs_h = vecs.conj().swapaxes(-1, -2)
    in_basis = vecs_h @ m @ vecs
    diagonal = np.zeros_like(in_basis)
    idx = np.arange(vecs.shape[-1])
    diagonal[..., idx, idx] = in_basis[..., idx, idx]
    return vecs @ diagonal @ vecs_h


def partial_thermalization_channel(lam: float, target: DensityOperator) -> ThermalizingChannel:
    """G(rho) = lam * rho + (1 - lam) * tau; contraction factor exactly lam."""
    tau = target.matrix

    def apply(m: np.ndarray) -> np.ndarray:
        return lam * m + (1.0 - lam) * tau

    return ThermalizingChannel(kind="partial", declared_alpha=lam, target=target, apply_matrix=apply)


def pinch_then_mix_channel(lam: float, H: HamiltonianMatrix, temp: Temperature) -> ThermalizingChannel:
    """Dephase in the eigenbasis of H, then mix toward Gibbs(H) with weight 1 - lam.

    A second, inequivalent channel family: not a convex combination of the
    identity with a point map, yet it still contracts at least as fast as lam.
    """
    target = gibbs_state(H, temp)
    _, vecs = np.linalg.eigh(H.matrix)
    tau = target.matrix

    def apply(m: np.ndarray) -> np.ndarray:
        return lam * _pinch(m, vecs) + (1.0 - lam) * tau

    return ThermalizingChannel(kind="pinch", declared_alpha=lam, target=target, apply_matrix=apply)


def custom_channel(
    apply_matrix: Callable[[np.ndarray], np.ndarray],
    declared_alpha: float,
    target: DensityOperator,
) -> ThermalizingChannel:
    return ThermalizingChannel(
        kind="custom", declared_alpha=declared_alpha, target=target, apply_matrix=apply_matrix
    )


def make_channel(kind: str, lam: float, H: HamiltonianMatrix, temp: Temperature) -> ThermalizingChannel:
    if kind == "partial":
        return partial_thermalization_channel(lam, gibbs_state(H, temp))
    if kind == "pinch":
        return pinch_then_mix_channel(lam, H, temp)
    raise ValidationError(f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")


def estimate_contraction(channel: ThermalizingChannel, probes: int = 200, seed: int = 7) -> float:
    """Worst measured ||G(rho) - tau||_1 / ||rho - tau||_1 over random probes.

    Half the probes are Haar-random pure states (far from tau), half random
    diagonal states (the commuting sector).  Probes that coincide with tau
    are skipped.
    """
    if probes < 1:
        raise ValidationError(f"probes must be >= 1, got {probes}")
    tau = channel.target
    dim = tau.dim
    worst = 0.0
    for i in range(probes):
        rng = rng_for(seed, "contraction-probe", i)
        if i % 2 == 0:
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            rho = DensityOperator.from_matrix(np.outer(vec, vec.conj()))
        else:
            pops = rng.random(dim) + 1e-3
            rho = DensityOperator.diagonal(pops / pops.sum())
        gap = trace_distance(rho, tau)
        if gap < 1e-12:
            continue
        moved = trace_distance(channel.apply(rho), tau)
        worst = max(worst, moved / gap)
    return worst


# ---------------------------------------------------------------------------
# Cyclic Hamiltonian loops
# ---------------------------------------------------------------------------

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def cyclic_qubit_gap_path(temp: Temperature, base: float = 1.0, amplitude: float = 0.8) -> HamiltonianPath:
    """Commuting loop: splitting modulated by sin^2(pi t) around a base value."""

    def sampler(t: np.ndarray) -> np.ndarray:
        return (base + amplitude * np.array([x**2 for x in np.sin(math.pi * t).tolist()]))[:, None, None] * _SIGMA_Z

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


def cyclic_qubit_zx_path(
    temp: Temperature,
    base: float = 1.0,
    z_amplitude: float = 0.5,
    x_amplitude: float = 0.7,
) -> HamiltonianPath:
    """Non-commuting loop mixing z and x components; H(0) = H(1) = base * Z."""

    def sampler(t: np.ndarray) -> np.ndarray:
        sines = np.sin(math.pi * t)
        z = base + z_amplitude * np.array([x**2 for x in sines.tolist()])  # libm pow, as the scalar formula
        return z[:, None, None] * _SIGMA_Z + (x_amplitude * sines)[:, None, None] * _SIGMA_X

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


CYCLIC_PATH_PRESETS = {
    "qubit-cyclic-gap": cyclic_qubit_gap_path,
    "qubit-cyclic-zx": cyclic_qubit_zx_path,
}


@dataclass(frozen=True)
class CyclicProtocol:
    """Closed-loop protocol: N bath contacts at t_i = i/N along a cyclic path.

    contact_duration is bookkeeping for total-time analyses: the wall-clock
    length of the protocol is N * contact_duration.
    """

    path: HamiltonianPath
    N: int
    channel_alpha: float
    channel_kind: str = "partial"
    evolution_mode: str = "unitary"
    substeps: int = DEFAULT_SUBSTEPS
    contact_duration: Optional[float] = None

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        _check_evolution_mode(self.evolution_mode)
        if self.channel_kind not in CHANNEL_KINDS:
            raise ValidationError(f"channel_kind must be one of {CHANNEL_KINDS}")
        if not 0.0 <= self.channel_alpha <= 1.0:
            raise ValidationError("channel_alpha must lie in [0, 1]")
        if self.substeps < 1:
            raise ValidationError("substeps must be >= 1")
        loop_gap = np.abs(self.path.hamiltonian(0.0) - self.path.hamiltonian(1.0)).max()
        if not loop_gap <= 1e-12:
            raise ValidationError(f"path is not cyclic: ||H(0) - H(1)|| = {loop_gap:.3e}")

    @property
    def total_time(self) -> Optional[float]:
        return None if self.contact_duration is None else self.N * self.contact_duration


# ---------------------------------------------------------------------------
# Unitary propagation
# ---------------------------------------------------------------------------

def _slice_exponential(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) of a Hermitian matrix or of each matrix in a (B, d, d) stack."""
    lam, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * lam * dt)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def evolve_unitary(path: HamiltonianPath, t_start: float, t_end: float, substeps: int) -> np.ndarray:
    """Time-ordered propagator for H(t) by the midpoint-exponential rule.

    Product of exp(-i H(mid_j) dt) over substeps, later slices on the left;
    converges at second order in the substep width.
    """
    if not t_start < t_end:
        raise ValidationError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    if substeps < 1:
        raise ValidationError("substeps must be >= 1")
    dt = (t_end - t_start) / substeps
    U = np.eye(path.dim, dtype=complex)
    for E in _slice_exponential(path.hamiltonians(t_start + (np.arange(substeps) + 0.5) * dt), dt):
        U = E @ U
    # Spectral norm of the Hermitian deviation; eigvalsh passes a NaN on instead of raising.
    drift = np.abs(np.linalg.eigvalsh(U.conj().T @ U - np.eye(path.dim))).max()
    if not drift <= 1e-10:
        raise ValidationError(f"propagator lost unitarity (deviation {drift:.3e})")
    return U


def unitary_approx_error(path: HamiltonianPath, i: int, N: int, substeps: int = 64) -> float:
    """Operator-norm gap between U_i and the frozen-Hamiltonian exponential.

    Compares the step-i propagator with exp(-i H(t_i)/N); across an N ladder
    the maximum over i shrinks at second order in 1/N.
    """
    if not 1 <= i <= N:
        raise ValidationError(f"step index {i} outside 1..{N}")
    t0, t1 = (i - 1) / N, i / N
    U = evolve_unitary(path, t0, t1, substeps)
    frozen = _slice_exponential(path.hamiltonian(t1), t1 - t0)
    return float(np.linalg.norm(U - frozen, 2))


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolRun:
    """Full trace of a protocol run for the dissipation split.

    All but work_steps are (N+1, dim, dim) arrays: hamiltonians[i] and
    taus[i] are H and its Gibbs target at t_i = i/N, sigmas[i] the state
    after contact i (sigmas[0] the initial state), unitaries[i] the
    propagator of step i (identity in quench mode and at i = 0).
    """

    hamiltonians: np.ndarray
    taus: np.ndarray
    sigmas: np.ndarray
    unitaries: np.ndarray
    work_steps: np.ndarray

    @property
    def work(self) -> float:
        return float(self.work_steps.sum())

    def ledger(self) -> WorkLedger:
        total = self.work
        return WorkLedger(per_step_work=self.work_steps, cumulative_work=total, mean=total, variance=0.0)


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a_i b_i) for each pair of matrices of two (B, d, d) stacks."""
    return (a @ b).trace(axis1=1, axis2=2).real


def _execute(
    path: HamiltonianPath,
    N: int,
    rho0: DensityOperator,
    channel_kind: str,
    channel_alpha: float,
    evolution_mode: str,
    substeps: int,
) -> ProtocolRun:
    """Run N contacts by one core.contact_chain call; all else is stacked.

    Step i evolves sigma_{i-1} to rho_i and does work Tr(H_{i-1} sigma_{i-1}) - Tr(H_i rho_i).
    """
    if channel_kind not in CHANNEL_KINDS:
        raise ValidationError(f"unknown channel kind {channel_kind!r}; choose from {CHANNEL_KINDS}")
    _check_evolution_mode(evolution_mode)
    lam = channel_alpha
    _check_contraction(lam)
    hams = path.hamiltonians(np.arange(N + 1) / N)
    taus = gibbs_matrices(hams, path.temp)
    check_density_matrices(taus)
    pull = (1.0 - lam) * taus[1:]
    vecs = np.linalg.eigh(hams)[1] if channel_kind == "pinch" else None
    _check_fixed_points(lam * (taus[1:] if vecs is None else _pinch(taus[1:], vecs[1:])) + pull, taus[1:])

    unitaries = np.tile(np.eye(path.dim, dtype=complex), (N + 1, 1, 1))
    if evolution_mode == "unitary":
        unitaries[1:] = [evolve_unitary(path, (i - 1) / N, i / N, substeps) for i in range(1, N + 1)]
    evolved = np.empty_like(taus[1:])

    def move(m, i):
        # Quench mode never multiplies by the identity: I @ m @ I can flip a -0.0 to +0.0.
        rho = evolved[i - 1] = m if evolution_mode == "quench" else unitaries[i] @ m @ unitaries[i].conj().T
        return rho if vecs is None else _pinch(rho, vecs[i])

    sigmas = contact_chain(rho0.matrix, lam, pull, move)
    work_steps = _traces(hams[:-1], sigmas[:-1]) - _traces(hams[1:], evolved)
    # The recursion carries the raw states; the recorded ones are re-symmetrized.
    sigmas[1:] = 0.5 * (sigmas[1:] + sigmas[1:].conj().swapaxes(1, 2))
    check_density_matrices(sigmas)
    return ProtocolRun(hamiltonians=hams, taus=taus, sigmas=sigmas, unitaries=unitaries, work_steps=work_steps)


def _free_energy(rho: np.ndarray, H: np.ndarray, temp: Temperature) -> float:
    return free_energy(DensityOperator(dim=len(H), matrix=rho), HamiltonianMatrix(dim=len(H), matrix=H), temp)


def _run(protocol: CyclicProtocol, rho0: DensityOperator) -> ProtocolRun:
    """_execute with the protocol's own settings."""
    p = protocol
    return _execute(p.path, p.N, rho0, p.channel_kind, p.channel_alpha, p.evolution_mode, p.substeps)


def run_protocol_segment(
    path: HamiltonianPath,
    N: int,
    rho0: DensityOperator,
    channel_alpha: float,
    channel_kind: str = "partial",
    evolution_mode: str = "quench",
    substeps: int = DEFAULT_SUBSTEPS,
) -> tuple[WorkLedger, DensityOperator]:
    """Run an open (not necessarily cyclic) protocol segment.

    Used for cross-framework consistency checks against the collision
    staircase, where the Hamiltonian ramps between two distinct endpoints.
    """
    run = _execute(path, N, rho0, channel_kind, channel_alpha, evolution_mode, substeps)
    return run.ledger(), DensityOperator(dim=path.dim, matrix=run.sigmas[-1])


def run_cyclic_protocol(protocol: CyclicProtocol, rho0: DensityOperator) -> tuple[WorkLedger, DensityOperator]:
    """Run a cyclic protocol and enforce the free-energy work bound."""
    run = _run(protocol, rho0)
    H0, temp = run.hamiltonians[0], protocol.path.temp
    bound = _free_energy(rho0.matrix, H0, temp) - _free_energy(run.taus[0], H0, temp)
    if not run.work <= bound + 1e-9:
        raise ValidationError(f"second-law violation: W = {run.work!r} exceeds DeltaF = {bound!r}")
    return run.ledger(), DensityOperator(dim=protocol.path.dim, matrix=run.sigmas[-1])


def protocol_state_lag(protocol: CyclicProtocol, rho0: DensityOperator) -> float:
    """Max over contacts of ||sigma_i - tau_i||_1; shrinks as 1/N."""
    run = _run(protocol, rho0)
    return float(np.abs(np.linalg.eigvalsh(run.sigmas[1:] - run.taus[1:])).sum(axis=-1).max())


# ---------------------------------------------------------------------------
# Dissipation split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationBreakdown:
    """Exact split of the dissipated work into gamma + epsilon + kappa.

    gamma covers finite-step discretization at perfect thermalization,
    epsilon the imperfect thermalization, kappa the difference between
    unitary evolution and quenches.  The three sum to the total exactly.
    """

    gamma: float
    epsilon: float
    kappa: float
    total: float
    w_iso: float
    delta_f_iso: float

    def __post_init__(self):
        gap = abs(self.gamma + self.epsilon + self.kappa - self.total)
        if not gap <= 1e-9:
            raise ValidationError(f"dissipation split does not close: residual {gap:.3e}")


def dissipation_breakdown(protocol: CyclicProtocol, rho0: DensityOperator) -> DissipationBreakdown:
    """Run the protocol and split DeltaF_iso - W into its three exact parts."""
    run = _run(protocol, rho0)
    hams, taus, sigmas, U = run.hamiltonians, run.taus, run.sigmas[:-1], run.unitaries[1:]
    temp = protocol.path.temp
    delta_f_iso = _free_energy(taus[0], hams[0], temp) - _free_energy(taus[-1], hams[-1], temp)

    dH = hams[:-1] - hams[1:]
    evolved = U @ sigmas @ U.conj().swapaxes(1, 2)
    gamma, epsilon, kappa = delta_f_iso, 0.0, 0.0
    # Sequential sums: a pairwise np.sum would round differently.
    terms = np.stack([_traces(dH, taus[:-1]), _traces(dH, sigmas - taus[:-1]), _traces(hams[1:], sigmas - evolved)], 1)
    for g, e, k in terms.tolist():
        gamma -= g
        epsilon -= e
        kappa -= k
    return DissipationBreakdown(
        gamma=gamma, epsilon=epsilon, kappa=kappa, total=delta_f_iso - run.work, w_iso=run.work, delta_f_iso=delta_f_iso
    )
