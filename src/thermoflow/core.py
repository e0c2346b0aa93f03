"""Density-operator algebra shared by all protocol modules.

Dimension-generic Gibbs states, entropies, free energies, distance measures
and the partial-thermalization map, in natural units (hbar = k_B = 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "Temperature",
    "DensityOperator",
    "HamiltonianMatrix",
    "check_density_matrices",
    "gibbs_populations",
    "gibbs_matrices",
    "gibbs_state",
    "von_neumann_entropy",
    "free_energy",
    "relative_entropy",
    "trace_distance",
    "partial_thermalize",
    "contact_chain",
]

# Validation tolerances (max-elementwise for Hermiticity, spectral for PSD).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-12
# Eigenvalues below this are treated as exactly zero in entropy-like sums.
SUPPORT_TOL = 1e-15
# Harder floor: anything below this is a genuine invariant breach, not dust.
EIGENVALUE_FAILURE = -1e-9


class ValidationError(ValueError):
    """A state, Hamiltonian or configuration violates a declared invariant."""


def _as_complex_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Temperature:
    """Bath temperature T > 0 with cached inverse temperature beta = 1/T."""

    T: float
    beta: float = field(init=False)

    def __post_init__(self):
        if not self.T > 0:
            raise ValidationError(f"temperature must be positive, got {self.T}")
        object.__setattr__(self, "beta", 1.0 / self.T)


def check_density_matrices(stack: np.ndarray) -> None:
    """Require every matrix of a (B, d, d) stack to be Hermitian, unit-trace and PSD.

    Each check runs once over the whole stack, with the tolerances above; the
    first matrix that fails gets DensityOperator's message.  Non-finite entries
    are rejected first, since every later comparison lets a NaN through.
    """
    if not np.isfinite(stack).all():
        raise ValidationError("density operator has non-finite entries")
    dev = np.abs(stack - stack.conj().swapaxes(-1, -2))
    if np.fmax.reduce(dev, axis=None) > HERMITICITY_TOL:
        worst = dev[(dev > HERMITICITY_TOL).any(axis=(-2, -1)).argmax()].max()
        raise ValidationError(f"density operator is not Hermitian: max deviation {worst:.3e}")
    tr = stack.trace(axis1=-2, axis2=-1).real
    off_trace = abs(tr - 1.0)
    if np.fmax.reduce(off_trace) > TRACE_TOL:
        raise ValidationError(f"trace must be 1, got {tr[(off_trace > TRACE_TOL).argmax()]!r}")
    lam_min = np.linalg.eigvalsh(stack)[:, 0]
    if np.fmin.reduce(lam_min) < PSD_FLOOR:
        raise ValidationError(f"negative eigenvalue {lam_min[(lam_min < PSD_FLOOR).argmax()]:.3e} below PSD floor")


@dataclass(frozen=True)
class DensityOperator:
    """A dim x dim Hermitian, unit-trace, PSD matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if m.shape[0] != self.dim:
            raise ValidationError(f"dim {self.dim} does not match matrix shape {m.shape}")
        check_density_matrices(m[None])
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityOperator":
        m = _as_complex_matrix(matrix)
        return cls(dim=m.shape[0], matrix=m)

    @classmethod
    def diagonal(cls, populations) -> "DensityOperator":
        p = np.asarray(populations, dtype=float)
        return cls(dim=len(p), matrix=np.diag(p.astype(complex)))

    @classmethod
    def pure(cls, level: int, dim: int) -> "DensityOperator":
        p = np.zeros(dim)
        p[level] = 1.0
        return cls.diagonal(p)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls.diagonal(np.full(dim, 1.0 / dim))

    @property
    def populations(self) -> np.ndarray:
        """Diagonal entries (real part)."""
        return np.diag(self.matrix).real.copy()


@dataclass(frozen=True)
class HamiltonianMatrix:
    """A dim x dim Hermitian matrix in energy units."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if m.shape[0] != self.dim:
            raise ValidationError(f"dim {self.dim} does not match matrix shape {m.shape}")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"Hamiltonian is not Hermitian: max deviation {dev:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "HamiltonianMatrix":
        m = _as_complex_matrix(matrix)
        return cls(dim=m.shape[0], matrix=m)

    @classmethod
    def diagonal(cls, energies) -> "HamiltonianMatrix":
        e = np.asarray(energies, dtype=float)
        return cls(dim=len(e), matrix=np.diag(e.astype(complex)))

    @classmethod
    def qubit(cls, gap: float) -> "HamiltonianMatrix":
        """Two-level Hamiltonian gap * |1><1|."""
        return cls.diagonal([0.0, gap])


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")


def gibbs_populations(energies, temp: Temperature) -> np.ndarray:
    """Thermal weights exp(-beta*E_i)/Z, computed overflow-free.

    The spectrum is shifted so the largest Boltzmann factor is exactly 1
    before exponentiation, which keeps the computation finite for any
    beta*spread, including the log-divergent Hamiltonians used in the
    rank-deficient protocols.  A stack of spectra is weighted row by row
    along its last axis.
    """
    e = np.asarray(energies, dtype=float)
    w = np.exp(-temp.beta * (e - e.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def gibbs_matrices(H: np.ndarray, temp: Temperature) -> np.ndarray:
    """Gibbs matrices exp(-beta H)/Z of a Hermitian matrix or a (B, d, d) stack of them."""
    lam, vecs = np.linalg.eigh(H)
    p = gibbs_populations(lam, temp)
    m = (vecs * p[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    # Re-symmetrize: eigh output is unitary only to rounding.
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def gibbs_state(H: HamiltonianMatrix, temp: Temperature) -> DensityOperator:
    """Gibbs state exp(-beta H)/Z of a Hermitian Hamiltonian."""
    return DensityOperator(dim=H.dim, matrix=gibbs_matrices(H.matrix, temp))


def _spectrum_for_entropy(rho: DensityOperator) -> np.ndarray:
    lam = np.linalg.eigvalsh(rho.matrix)
    if lam.min() < EIGENVALUE_FAILURE:
        raise ValidationError(f"eigenvalue {lam.min():.3e} is negative beyond numerical dust")
    return np.clip(lam, 0.0, 1.0)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr[rho ln rho] in nats; eigenvalues below 1e-15 contribute 0."""
    lam = _spectrum_for_entropy(rho)
    lam = lam[lam > SUPPORT_TOL]
    return float(-np.sum(lam * np.log(lam)))


def free_energy(rho: DensityOperator, H: HamiltonianMatrix, temp: Temperature) -> float:
    """Non-equilibrium free energy F(rho, H) = Tr(rho H) - T S(rho)."""
    _require_same_dim(rho, H)
    energy = np.trace(rho.matrix @ H.matrix).real
    return float(energy - temp.T * von_neumann_entropy(rho))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy S(rho || sigma) in nats.

    Support violations (rho with weight where sigma has none, beyond
    tolerance) return the +inf sentinel with a diagnostic warning.
    """
    _require_same_dim(rho, sigma)
    lam_s, vecs_s = np.linalg.eigh(sigma.matrix)
    lam_s = np.clip(lam_s, 0.0, 1.0)
    # Population of rho on each sigma eigenvector.
    pops = np.einsum("ij,jk,ki->i", vecs_s.conj().T, rho.matrix, vecs_s).real
    outside = lam_s <= SUPPORT_TOL
    leaked = pops[outside].sum() if outside.any() else 0.0
    if leaked > 1e-12:
        warnings.warn(
            f"support violation: weight {leaked:.3e} of rho lies outside supp(sigma)",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("inf")
    lam_r = _spectrum_for_entropy(rho)
    lam_r = lam_r[lam_r > SUPPORT_TOL]
    tr_rho_ln_rho = float(np.sum(lam_r * np.log(lam_r)))
    inside = ~outside
    tr_rho_ln_sigma = float(np.sum(pops[inside] * np.log(lam_s[inside])))
    return max(tr_rho_ln_rho - tr_rho_ln_sigma, 0.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm ||rho - sigma||_1 (sum of singular values), in [0, 2]."""
    _require_same_dim(rho, sigma)
    lam = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.sum(np.abs(lam)))


def partial_thermalize(rho: DensityOperator, tau: DensityOperator, alpha: float) -> DensityOperator:
    """Convex mix alpha*rho + (1-alpha)*tau toward the thermal target tau.

    Contracts the trace distance to tau by exactly alpha.
    """
    _require_same_dim(rho, tau)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    m = alpha * rho.matrix + (1.0 - alpha) * tau.matrix
    return DensityOperator(dim=rho.dim, matrix=m)


def contact_chain(rho0, lam: float, pull: np.ndarray, move=None) -> np.ndarray:
    """Unchecked (n+1, d, d) states of rho_i = lam * move(rho_{i-1}, i) + pull[i-1], rho0 first.

    move defaults to the identity; the row-by-row operation order fixes the output bytes.
    """
    states = np.empty((len(pull) + 1,) + np.shape(rho0), dtype=complex)
    states[0] = rho0
    for i in range(1, len(states)):
        states[i] = lam * (states[i - 1] if move is None else move(states[i - 1], i)) + pull[i - 1]
    return states
