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

import numpy as np

from .core import (
    DensityOperator,
    HamiltonianMatrix,
    Temperature,
    ThermalizingChannel,
    ValidationError,
    _check_contraction_factor,
    _check_count,
    _trace_norm,
    check_density_matrices,
    contact_chain,
    free_energy,
    gibbs_matrices,
    gibbs_state,
    trace_distance,
)
from .qudit import HamiltonianPath
from .seeding import rng_for

__all__ = [
    "CyclicProtocol",
    "DissipationBreakdown",
    "ProtocolRun",
    "make_channel",
    "cyclic_qubit_gap_path",
    "cyclic_qubit_zx_path",
    "CYCLIC_PATH_PRESETS",
    "evolve_unitary",
    "unitary_approx_error",
    "dissipation_breakdown",
    "estimate_contraction",
]

CHANNEL_KINDS = ("partial", "pinch")
EVOLUTION_MODES = ("unitary", "quench")
DEFAULT_SUBSTEPS = 16


# ---------------------------------------------------------------------------
# Thermalizing channels
# ---------------------------------------------------------------------------

def _check_evolution_mode(mode: str) -> None:
    if mode not in EVOLUTION_MODES:
        raise ValidationError(f"evolution_mode must be {' or '.join(map(repr, EVOLUTION_MODES))}, got {mode!r}")


def _check_channel_kind(kind: str) -> None:
    if kind not in CHANNEL_KINDS:
        raise ValidationError(f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")


def _channel(kind: str, lam: float, hams: np.ndarray, taus: np.ndarray) -> ThermalizingChannel:
    """The kind's channel toward the Gibbs targets taus of hams, both (n, d, d) stacks.

    "pinch" dephases in the eigenbasis of each H before mixing: not a convex
    combination of the identity with a point map, yet it contracts at least
    as fast as lam.  The channel must map each target onto itself to 1e-12 in
    trace norm.
    """
    _check_channel_kind(kind)
    channel = ThermalizingChannel(lam, taus, np.linalg.eigh(hams)[1] if kind == "pinch" else None)
    drift = _trace_norm(channel.apply(taus) - taus)
    bad = ~(drift <= 1e-12)
    if bad.any():
        raise ValidationError(f"channel does not fix its thermal target (drift {drift[bad.argmax()]:.3e})")
    return channel


def make_channel(kind: str, lam: float, H: HamiltonianMatrix, temp: Temperature) -> ThermalizingChannel:
    """The kind's one-contact channel toward Gibbs(H) at temp, as the protocol engine builds each contact."""
    return _channel(kind, lam, H.matrix[None], gibbs_state(H, temp).matrix[None])


def estimate_contraction(channel: ThermalizingChannel, probes: int = 200, seed: int = 7) -> float:
    """Worst measured ||G(rho) - tau||_1 / ||rho - tau||_1 over random probes of a one-contact channel.

    The probes are drawn from one stream as a stack: the even rows are
    Haar-random pure states (far from tau), the odd rows random diagonal
    states (the commuting sector).  Probes that coincide with tau are skipped.
    """
    _check_count("probes", probes)
    if len(channel.targets) != 1:
        raise ValidationError(f"expected a one-contact channel, got targets of shape {np.shape(channel.targets)}")
    tau = channel.targets[0]
    dim = len(tau)
    rng = rng_for(seed, "contraction-probe", 0)
    pure, diagonal = (probes + 1) // 2, probes // 2
    vecs = rng.normal(size=(pure, dim)) + 1j * rng.normal(size=(pure, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    pops = rng.random((diagonal, dim)) + 1e-3
    rhos = np.empty((probes, dim, dim), dtype=complex)
    rhos[0::2] = vecs[:, :, None] * vecs[:, None, :].conj()
    rhos[1::2] = (pops / pops.sum(axis=1, keepdims=True))[:, :, None] * np.eye(dim)
    gap, moved = trace_distance(rhos, tau), trace_distance(channel.apply(rhos, 0), tau)
    kept = gap >= 1e-12
    return float((moved[kept] / gap[kept]).max(initial=0.0))


# ---------------------------------------------------------------------------
# Cyclic Hamiltonian loops
# ---------------------------------------------------------------------------

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def cyclic_qubit_zx_path(temp: Temperature, z_amplitude: float = 0.5, x_amplitude: float = 0.7) -> HamiltonianPath:
    """Loop (1 + z_amplitude sin^2(pi t)) Z + x_amplitude sin(pi t) X with H(0) = H(1) = Z; commuting at x_amplitude = 0."""

    def sampler(t: np.ndarray) -> np.ndarray:
        sines = np.sin(math.pi * t)
        z = 1.0 + z_amplitude * np.array([x**2 for x in sines.tolist()])  # libm pow, as the scalar formula
        return z[:, None, None] * _SIGMA_Z + (x_amplitude * sines)[:, None, None] * _SIGMA_X

    return HamiltonianPath(dim=2, sampler=sampler, temp=temp)


def cyclic_qubit_gap_path(temp: Temperature) -> HamiltonianPath:
    """Commuting loop: the splitting 1 + 0.8 sin^2(pi t) of Z alone."""
    return cyclic_qubit_zx_path(temp, z_amplitude=0.8, x_amplitude=0.0)


CYCLIC_PATH_PRESETS = {
    "qubit-cyclic-gap": cyclic_qubit_gap_path,
    "qubit-cyclic-zx": cyclic_qubit_zx_path,
}


@dataclass(frozen=True)
class CyclicProtocol:
    """Closed-loop protocol: N bath contacts at t_i = i/N along a cyclic path."""

    path: HamiltonianPath
    N: int
    channel_alpha: float
    channel_kind: str = "partial"
    evolution_mode: str = "unitary"
    substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        _check_count("N", self.N)
        _check_evolution_mode(self.evolution_mode)
        _check_channel_kind(self.channel_kind)
        _check_contraction_factor(self.channel_alpha)
        _check_count("substeps", self.substeps)
        loop_gap = np.abs(self.path.hamiltonian(0.0) - self.path.hamiltonian(1.0)).max()
        if not loop_gap <= 1e-12:
            raise ValidationError(f"path is not cyclic: ||H(0) - H(1)|| = {loop_gap:.3e}")


# ---------------------------------------------------------------------------
# Unitary propagation
# ---------------------------------------------------------------------------

def _slice_exponential(H: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """exp(-i H dt) of a Hermitian matrix or of each matrix in a stack; dt broadcasts against the eigenvalues."""
    lam, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * lam * dt)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def evolve_unitary(path: HamiltonianPath, t_start, t_end, substeps: int) -> np.ndarray:
    """Time-ordered propagator for H(t) by the midpoint-exponential rule.

    Product of exp(-i H(mid_j) dt) over substeps, later slices on the left;
    converges at second order in the substep width.  Scalar times give one
    (d, d) propagator; equal-length 1-D arrays give a (B, d, d) stack, row b
    over [t_start[b], t_end[b]] and bitwise equal to that scalar call, with
    one sampler call, one eigh and one unitarity eigvalsh for all rows.
    """
    if np.ndim(t_start) > 1 or np.shape(t_start) != np.shape(t_end):
        raise ValidationError(f"need scalars or equal-length 1-D arrays, got shapes {np.shape(t_start)}, {np.shape(t_end)}")
    t0, t1 = np.atleast_1d(t_start).astype(float), np.atleast_1d(t_end).astype(float)
    if not (t0 < t1).all():
        raise ValidationError(f"need t_start < t_end, got [{t0[(t0 < t1).argmin()]}, {t1[(t0 < t1).argmin()]}]")
    _check_count("substeps", substeps)
    dt = (t1 - t0) / substeps
    mids = t0[:, None] + (np.arange(substeps) + 0.5) * dt[:, None]
    E = _slice_exponential(path.hamiltonians(mids.ravel()).reshape(*mids.shape, path.dim, path.dim), dt[:, None, None])
    U = np.tile(np.eye(path.dim, dtype=complex), (len(t0), 1, 1))
    for j in range(substeps):
        U = E[:, j] @ U
    # Spectral norm of each row's Hermitian deviation; eigvalsh passes a NaN on instead of raising.
    drift = np.abs(np.linalg.eigvalsh(U.conj().swapaxes(1, 2) @ U - np.eye(path.dim))).max(axis=1)
    if not (drift <= 1e-10).all():  # argmin: the first row failing the bound
        raise ValidationError(f"propagator lost unitarity (deviation {drift[(drift <= 1e-10).argmin()]:.3e})")
    return U if np.ndim(t_start) else U[0]


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

    hamiltonians[i] and taus[i] are H and its Gibbs target at t_i = i/N,
    sigmas[i] the state after contact i (sigmas[0] the initial state), all
    (N+1, dim, dim); unitaries[i] is the propagator of step i + 1, an
    (N, dim, dim) stack, or None in quench mode, which applies none.
    """

    hamiltonians: np.ndarray
    taus: np.ndarray
    sigmas: np.ndarray
    unitaries: np.ndarray | None
    work_steps: np.ndarray


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

    Step i evolves sigma_{i-1} to rho_i, the input of contact i, and does work Tr(H_{i-1} sigma_{i-1}) - Tr(H_i rho_i).
    """
    _check_evolution_mode(evolution_mode)
    hams = path.hamiltonians(np.arange(N + 1) / N)
    taus = gibbs_matrices(hams, path.temp)
    check_density_matrices(taus)
    channel = _channel(channel_kind, channel_alpha, hams[1:], taus[1:])

    U = None if evolution_mode == "quench" else evolve_unitary(path, np.arange(N) / N, np.arange(1, N + 1) / N, substeps)
    sigmas, evolved = contact_chain(rho0.matrix, channel, U)
    work_steps = _traces(hams[:-1], sigmas[:-1]) - _traces(hams[1:], evolved)
    # The recursion carries the raw states; the recorded ones are re-symmetrized.
    sigmas[1:] = 0.5 * (sigmas[1:] + sigmas[1:].conj().swapaxes(1, 2))
    check_density_matrices(sigmas)
    return ProtocolRun(hamiltonians=hams, taus=taus, sigmas=sigmas, unitaries=U, work_steps=work_steps)


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
    """Run the protocol and split DeltaF_iso - W into its three exact parts; kappa evolves the re-symmetrized states,
    not the raw ones whose evolved stack _execute reads from contact_chain (they differ in kappa's last digits)."""
    p = protocol
    run = _execute(p.path, p.N, rho0, p.channel_kind, p.channel_alpha, p.evolution_mode, p.substeps)
    hams, taus, sigmas, U = run.hamiltonians, run.taus, run.sigmas[:-1], run.unitaries
    temp = p.path.temp
    delta_f_iso = free_energy(taus[0], hams[0], temp) - free_energy(taus[-1], hams[-1], temp)

    dH = hams[:-1] - hams[1:]
    evolved = sigmas if U is None else U @ sigmas @ U.conj().swapaxes(1, 2)  # sigma - sigma is +0.0: kappa stays +0.0
    gamma, epsilon, kappa = delta_f_iso, 0.0, 0.0
    # Sequential sums: a pairwise np.sum would round differently.
    terms = np.stack([_traces(dH, taus[:-1]), _traces(dH, sigmas - taus[:-1]), _traces(hams[1:], sigmas - evolved)], 1)
    for g, e, k in terms.tolist():
        gamma -= g
        epsilon -= e
        kappa -= k
    work = float(run.work_steps.sum())
    return DissipationBreakdown(
        gamma=gamma, epsilon=epsilon, kappa=kappa, total=delta_f_iso - work, w_iso=work, delta_f_iso=delta_f_iso
    )
