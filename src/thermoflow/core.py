"""Density-operator algebra shared by all protocol modules.

Dimension-generic Gibbs states, entropies, free energies, distance measures
and the one thermalizing channel, in natural units (hbar = k_B = 1).  The
measures take a (d, d) matrix or a (B, d, d) stack and give one value per matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

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
    "ThermalizingChannel",
    "partial_thermalize",
    "contact_chain",
]

# Validation tolerances (max-elementwise for Hermiticity and for max |B^H B - I| of pinch bases, spectral for PSD).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-12
# Eigenvalues below this are treated as exactly zero in entropy-like sums.
SUPPORT_TOL = 1e-15


class ValidationError(ValueError):
    """A state, Hamiltonian or configuration violates a declared invariant."""


def _as_complex_matrix(matrix) -> np.ndarray:
    """matrix as a complex square matrix or (B, d, d) stack of them."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _check_count(name: str, value, least: int = 1) -> None:
    """Refuse a step or trial count that is not an integer (a bool is not one) or is below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be >= {least} and an integer, got {value!r}")


def _check_hermitian(H: np.ndarray) -> None:
    if not np.isfinite(H).all():
        raise ValidationError("Hamiltonian has non-finite entries")
    dev = np.abs(H - H.conj().swapaxes(-1, -2)).max()
    if not dev <= HERMITICITY_TOL:
        raise ValidationError(f"Hamiltonian is not Hermitian: max deviation {dev:.3e}")


@dataclass(frozen=True)
class Temperature:
    """Bath temperature T > 0 with cached inverse temperature beta = 1/T."""

    T: float
    beta: float = field(init=False)

    def __post_init__(self):
        if not self.T > 0:
            raise ValidationError(f"temperature must be positive, got {self.T}")
        object.__setattr__(self, "beta", 1.0 / self.T)


def check_density_matrices(stack: np.ndarray) -> np.ndarray:
    """Require every matrix of a (B, d, d) stack to be Hermitian, unit-trace and PSD; return the (B, d) eigenvalues.

    Each check runs once over the whole stack, with the tolerances above; the
    first matrix that fails gets DensityOperator's message.  Non-finite entries
    are rejected first, since every later comparison lets a NaN through.  The
    eigenvalues come in ascending order, each at least PSD_FLOOR.
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
    lam = np.linalg.eigvalsh(stack)
    lam_min = lam[:, 0]
    if np.fmin.reduce(lam_min) < PSD_FLOOR:
        raise ValidationError(f"negative eigenvalue {lam_min[(lam_min < PSD_FLOOR).argmax()]:.3e} below PSD floor")
    return lam


class _ValidatedMatrix:
    """One square matrix, checked and frozen on construction, its dim read off; numpy reads it as the read-only matrix."""

    def _freeze(self, check) -> None:
        m = _as_complex_matrix(self.matrix).copy()  # freeze a copy, never the caller's array
        if m.ndim != 2:
            raise ValidationError(f"expected one square matrix, not a stack, got shape {m.shape}")
        check(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @classmethod
    def diagonal(cls, entries):
        return cls(np.diag(np.asarray(entries, dtype=float).astype(complex)))


@dataclass(frozen=True)
class DensityOperator(_ValidatedMatrix):
    """A dim x dim Hermitian, unit-trace, PSD matrix."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self._freeze(lambda m: check_density_matrices(m[None]))

    @classmethod
    def pure(cls, level: int, dim: int) -> "DensityOperator":
        return cls.diagonal(np.eye(dim)[level])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls.diagonal(np.full(dim, 1.0 / dim))

    @property
    def populations(self) -> np.ndarray:
        """Diagonal entries (real part)."""
        return np.diag(self.matrix).real.copy()


@dataclass(frozen=True)
class HamiltonianMatrix(_ValidatedMatrix):
    """A dim x dim Hermitian matrix in energy units."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self._freeze(_check_hermitian)

    @classmethod
    def qubit(cls, gap: float) -> "HamiltonianMatrix":
        """Two-level Hamiltonian gap * |1><1|."""
        return cls.diagonal([0.0, gap])


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise ValidationError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


def gibbs_populations(energies, temp: Temperature) -> np.ndarray:
    """Thermal weights exp(-beta*E_i)/Z, computed overflow-free.

    The spectrum is shifted so the largest Boltzmann factor is exactly 1
    before exponentiation, which keeps the computation finite for any
    beta*spread, including the log-divergent Hamiltonians used in the
    rank-deficient protocols.  A stack of spectra is weighted row by row
    along its last axis.  At beta = inf only the lowest levels keep weight
    (beta * 0 would be NaN there).
    """
    e = np.asarray(energies, dtype=float)
    shifted = e - e.min(axis=-1, keepdims=True)
    w = np.exp(-temp.beta * shifted) if math.isfinite(temp.beta) else (shifted == 0).astype(float)
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
    return DensityOperator(gibbs_matrices(H.matrix, temp))


def _states(rho) -> tuple[np.ndarray, np.ndarray]:
    """rho as a complex matrix or (B, d, d) stack, checked by one check_density_matrices call, and its eigenvalues."""
    m = _as_complex_matrix(rho)
    return m, check_density_matrices(m.reshape((-1,) + m.shape[-2:])).reshape(m.shape[:-1])


def _entropies(lam: np.ndarray) -> np.ndarray:
    """-sum lam ln lam along the last axis of checked eigenvalues; those below SUPPORT_TOL contribute 0."""
    lam = np.clip(lam, 0.0, 1.0)
    return -(lam * np.log(np.where(lam > SUPPORT_TOL, lam, 1.0))).sum(axis=-1)


def _per_matrix(values):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def von_neumann_entropy(rho):
    """S(rho) = -Tr[rho ln rho] in nats; eigenvalues below 1e-15 contribute 0."""
    return _per_matrix(_entropies(_states(rho)[1]))


def free_energy(rho, H, temp: Temperature):
    """Non-equilibrium free energy F(rho, H) = Tr(rho H) - T S(rho); H is one Hamiltonian or one per state."""
    m, lam = _states(rho)
    H = _as_complex_matrix(H)
    _check_hermitian(H)
    _require_same_dim(m, H)
    energy = (m @ H).trace(axis1=-2, axis2=-1).real
    return _per_matrix(energy - temp.T * _entropies(lam))


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho || sigma) in nats of one pair of (d, d) states.

    Support violations (rho with weight where sigma has none, beyond
    tolerance) return the +inf sentinel with a diagnostic warning.
    """
    (rho, lam_r), (sigma, _) = _states(rho), _states(sigma)
    _require_same_dim(rho, sigma)
    lam_s, vecs_s = np.linalg.eigh(sigma)
    lam_s = np.clip(lam_s, 0.0, 1.0)
    # Population of rho on each sigma eigenvector.
    pops = np.einsum("ij,jk,ki->i", vecs_s.conj().T, rho, vecs_s).real
    outside = lam_s <= SUPPORT_TOL
    leaked = pops[outside].sum() if outside.any() else 0.0
    if leaked > 1e-12:
        warnings.warn(
            f"support violation: weight {leaked:.3e} of rho lies outside supp(sigma)",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("inf")
    tr_rho_ln_rho = -float(_entropies(lam_r))
    inside = ~outside
    tr_rho_ln_sigma = float(np.sum(pops[inside] * np.log(lam_s[inside])))
    return max(tr_rho_ln_rho - tr_rho_ln_sigma, 0.0)


def _trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norm of a Hermitian matrix or of each in a stack, unchecked: the sum of |eigenvalues|."""
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def trace_distance(rho, sigma):
    """Trace norm ||rho - sigma||_1 (sum of singular values), in [0, 2]; stacks pair up row by row or broadcast."""
    rho, sigma = _states(rho)[0], _states(sigma)[0]
    _require_same_dim(rho, sigma)
    return _per_matrix(_trace_norm(rho - sigma))


def _pinch(m: np.ndarray, vecs: np.ndarray, vecs_h: np.ndarray, work=None) -> np.ndarray:
    """Dephase m in the eigenbasis held in the columns of vecs (vecs_h: their conjugate transpose) into work's 2nd buffer."""
    a, b, diagonal, on_diagonal = work or _pinch_work(np.broadcast_shapes(np.shape(m), vecs.shape))
    np.matmul(np.matmul(vecs_h, m, out=a), vecs, out=b)
    on_diagonal[...] = b.diagonal(0, -2, -1)
    return np.matmul(np.matmul(vecs, diagonal, out=a), vecs_h, out=b)


def _pinch_work(shape: tuple) -> tuple:
    """Two product buffers, a zero one of which only the diagonal is ever written, and that diagonal as a view."""
    diagonal = np.zeros(shape, dtype=complex)
    return np.empty(shape, dtype=complex), np.empty(shape, dtype=complex), diagonal, np.einsum("...ii->...i", diagonal)


def _check_contraction_factor(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"contraction factor must lie in [0, 1], got {lam}")


@dataclass(frozen=True)
class ThermalizingChannel:
    """rho -> lam * P(rho) + (1 - lam) * tau_i toward each target of an (n, d, d) stack, one per contact.

    P is the identity or, given bases, the pinch: dephasing in the eigenbasis
    held in the columns of bases[i], which must be unitary.  The channel contracts the trace
    distance to tau_i by at least lam (exactly lam without the pinch); it fixes
    tau_i when diagonal in that basis, which the caller checks.  One contact is a stack of one.
    """

    lam: float
    targets: np.ndarray
    bases: Optional[np.ndarray] = None
    pull: np.ndarray = field(init=False, repr=False)
    bases_h: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        _check_contraction_factor(self.lam)
        if np.ndim(self.targets) != 3 or np.shape(self.targets)[1] != np.shape(self.targets)[2]:
            raise ValidationError(f"need (n, d, d) targets, got shape {np.shape(self.targets)}")
        bases_h = None if self.bases is None else self.bases.conj().swapaxes(-1, -2)
        if bases_h is not None:
            if np.shape(self.bases) != np.shape(self.targets):
                raise ValidationError(f"need bases of the targets' shape, got {np.shape(self.bases)}")
            dev = np.abs(bases_h @ self.bases - np.eye(self.bases.shape[-1])).max(initial=0.0)
            if not dev <= HERMITICITY_TOL:  # one stacked check; a NaN fails it too
                raise ValidationError(f"need unitary bases: max |B^H B - I| is {dev:.3e}")
        object.__setattr__(self, "pull", (1.0 - self.lam) * self.targets)
        object.__setattr__(self, "bases_h", bases_h)

    def apply(self, rho: np.ndarray, i=slice(None), out=None, work=None) -> np.ndarray:
        """Contact i's map on rho (a state or a stack); the default i maps each row of a stack by its own contact.

        out, if given, takes the result, and work, a _pinch_work set, the pinch's products.
        """
        m = rho if self.bases is None else _pinch(rho, self.bases[i], self.bases_h[i], work)
        return np.add(np.multiply(self.lam, m, out=out), self.pull[i], out=out)


def partial_thermalize(rho: DensityOperator, tau: DensityOperator, alpha: float) -> DensityOperator:
    """Convex mix alpha*rho + (1-alpha)*tau toward the thermal target tau.

    Contracts the trace distance to tau by exactly alpha.
    """
    _require_same_dim(rho.matrix, tau.matrix)
    return DensityOperator(ThermalizingChannel(alpha, tau.matrix[None]).apply(rho.matrix, 0))


def contact_chain(rho0, channel: ThermalizingChannel, unitaries=None) -> np.ndarray:
    """Unchecked (n+1, d, d) states of rho_i = channel.apply(U_i rho_{i-1} U_i^H, i-1) over n contacts, rho0 first.

    U_i is unitaries[i-1]; without unitaries none is applied, not even the identity (I @ m @ I can flip a -0.0
    to +0.0).  apply writes each row in place as its out, through one work set made once per call.
    """
    if np.shape(channel.targets)[1:] != np.shape(rho0):
        raise ValidationError(f"need (n, d, d) targets for a (d, d) state, got {np.shape(channel.targets)}")
    if unitaries is not None and np.shape(unitaries) != np.shape(channel.targets):
        raise ValidationError(f"need unitaries of the targets' shape, got {np.shape(unitaries)}")
    states = np.empty((len(channel.targets) + 1,) + np.shape(rho0), dtype=complex)
    states[0] = rho0
    work = _pinch_work(np.shape(rho0))
    a, b = work[:2]
    unitaries_h = None if unitaries is None else unitaries.conj().swapaxes(-1, -2)
    for i, (prev, row) in enumerate(zip(states, states[1:])):
        m = prev if unitaries is None else np.matmul(np.matmul(unitaries[i], prev, out=a), unitaries_h[i], out=b)
        channel.apply(m, i, row, work)
    return states
