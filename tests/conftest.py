import math

import numpy as np
import pytest

from thermoflow.core import DensityOperator, Temperature

# Figure conventions: k_B T ln 2 = 1.
FIG_TEMP = Temperature(1.0 / math.log(2.0))


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
