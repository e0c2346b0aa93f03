import dataclasses
import math

import numpy as np
import pytest

from thermoflow.core import DensityOperator, Temperature
from thermoflow.qudit import QuditProtocolConfig, exact_dissipation
from thermoflow.seeding import fill_rows, trial_states

# Figure conventions: k_B T ln 2 = 1.
FIG_TEMP = Temperature(1.0 / math.log(2.0))


def lambda_over_gamma(config: QuditProtocolConfig) -> float:
    """(exact(alpha) - exact(0)) / (r exact(0)), r = alpha/(1-alpha): the alpha-linearity of the exact dissipation.

    It approaches 2 when the endpoint terms vanish, and is NaN at alpha = 0 or
    when the alpha = 0 run of the same staircase dissipates nothing.
    """
    if not config.alpha > 0.0:
        return math.nan
    exact = exact_dissipation(config)
    perfect = exact_dissipation(dataclasses.replace(config, alpha=0.0))
    scale = config.alpha / (1.0 - config.alpha) * perfect
    return (exact - perfect) / scale if scale else math.nan


def trial_uniforms(master_seed: int, tag: str, indices, n: int) -> np.ndarray:
    """Array of shape (len(indices), n) whose row r is rng_for(master_seed, tag, indices[r]).random(n)."""
    return fill_rows(trial_states(master_seed, tag, indices), np.empty((len(indices), n)))


@pytest.fixture
def fig_temp() -> Temperature:
    return FIG_TEMP


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_diagonal_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    p = rng.random(dim) + 1e-6
    return DensityOperator.diagonal(p / p.sum())
