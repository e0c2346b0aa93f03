"""Optimal thermalization times at fixed total protocol duration.

With N = T_total / t_th contacts, the leading dissipation is
W_dis = 2 Gamma G(t_th) / T_total where G(t) = (1/2 + a(t)/(1-a(t))) t and
a(t) is the relaxation profile of one bath contact.  Minimizing G picks the
optimal per-contact duration: swap-like couplings a(t) = cos^2(g t) have an
interior optimum, exponential relaxation favors t -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ValidationError

__all__ = [
    "CosineSqAlpha",
    "ExponentialAlpha",
    "AlphaModel",
    "TthOptimum",
    "alpha_of",
    "g_function",
    "minimize_g",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CosineSqAlpha:
    """Swap-like contact: alpha(t) = cos^2(g t), g the system-bath coupling."""

    g: float

    def __post_init__(self):
        if not self.g > 0:
            raise ValidationError(f"coupling g must be positive, got {self.g}")

    def alpha(self, t: float) -> float:
        return math.cos(self.g * t) ** 2

    @property
    def first_branch(self) -> tuple[float, float]:
        """The (0, pi/g) window holding the first full rotation."""
        return 0.0, math.pi / self.g


@dataclass(frozen=True)
class ExponentialAlpha:
    """Open-system relaxation: alpha(t) = exp(-t / tau_th)."""

    tau_th: float

    def __post_init__(self):
        if not self.tau_th > 0:
            raise ValidationError(f"relaxation time must be positive, got {self.tau_th}")

    def alpha(self, t: float) -> float:
        return math.exp(-t / self.tau_th)


AlphaModel = Union[CosineSqAlpha, ExponentialAlpha]


def alpha_of(model: AlphaModel, t: float) -> float:
    if t < 0:
        raise ValidationError(f"contact duration must be non-negative, got {t}")
    a = model.alpha(t)
    if not 0.0 <= a <= 1.0:
        raise ValidationError(f"alpha model returned {a} outside [0, 1]")
    return a


def g_function(model: AlphaModel, t: float) -> float:
    """Dissipation proxy G(t) = (1/2 + a(t)/(1 - a(t))) t.

    Returns the +inf sentinel (never raises) where a(t) = 1: minimizers probe
    t -> 0 where swap-like couplings have not rotated at all.
    """
    if not t > 0:
        raise ValidationError(f"need t > 0, got {t}")
    a = float(alpha_of(model, t))
    if a >= 1.0:
        return math.inf
    return (0.5 + a / (1.0 - a)) * float(t)  # Python floats overflow to inf without a warning


@dataclass(frozen=True)
class TthOptimum:
    t_opt: float
    G_opt: float
    alpha_opt: float
    monotone: bool

    def as_dict(self) -> dict:
        return {
            "t_opt": self.t_opt,
            "G_opt": self.G_opt,
            "alpha_opt": self.alpha_opt,
            "monotone_flag": self.monotone,
        }


def _golden_section(fun, a: float, b: float, tol: float) -> float:
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    # The second test ends the search once rounding stops the probes from
    # lying strictly inside the bracket: for a wide window, b - a never falls
    # below an absolute tol.
    while (b - a) > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def minimize_g(model: AlphaModel, t_range: tuple[float, float], tol: float = 1e-9) -> TthOptimum:
    """Golden-section minimum of G over t_range.

    Swap-like models are restricted to their first rotation branch, where G
    is unimodal.  If a coarse scan finds G monotone on the range, the better
    boundary is returned with the monotone flag set (the exponential case:
    the infimum sits at t -> 0).
    """
    lo, hi = t_range
    if not 0.0 <= lo < hi:
        raise ValidationError(f"invalid search range {t_range}")
    if isinstance(model, CosineSqAlpha):
        b_lo, b_hi = model.first_branch
        lo, hi = max(lo, b_lo), min(hi, b_hi)
        if not lo < hi:
            raise ValidationError("search range does not intersect the first branch (0, pi/g)")
    lo = max(lo, 1e-12 * hi)

    fun = lambda t: g_function(model, t)
    grid = np.linspace(lo, hi, 201)
    values = np.array([fun(t) for t in grid])
    finite = values[np.isfinite(values)]
    if len(finite) >= 2 and (np.all(np.diff(values) > 0) or np.all(np.diff(values) < 0)):
        idx = int(np.argmin(values))
        t_opt = float(grid[idx])
        return TthOptimum(t_opt=t_opt, G_opt=float(values[idx]), alpha_opt=alpha_of(model, t_opt), monotone=True)

    k = int(np.argmin(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    t_opt = _golden_section(fun, a, b, tol)
    return TthOptimum(t_opt=t_opt, G_opt=fun(t_opt), alpha_opt=alpha_of(model, t_opt), monotone=False)
