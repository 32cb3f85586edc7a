"""Shared fixtures: seeded RNG, random problem generators, hypothesis profile."""
import numpy as np
import pytest
from hypothesis import settings

from qdamp.liouvillian import ModelParams

# Every property test is reproducible: a fixed example sequence, no example
# database, and no per-example deadline (timings vary on a shared machine).
settings.register_profile("qdamp", derandomize=True, database=None, deadline=None)
settings.load_profile("qdamp")


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


def random_density(dim: int, top_level: int, rng) -> np.ndarray:
    """Random pure density matrix supported on levels 0..top_level."""
    v = rng.normal(size=top_level + 1) + 1j * rng.normal(size=top_level + 1)
    psi = np.zeros(dim, dtype=np.complex128)
    psi[: top_level + 1] = v / np.linalg.norm(v)
    return np.outer(psi, psi.conj())


def random_admissible_params(rng, dim: int, theta: float = 0.0) -> ModelParams:
    """Random parameter set satisfying mu*nu >= |kappa|^2 with headroom."""
    mu, nu = rng.uniform(0.1, 0.8, size=2)
    kappa = (np.sqrt(mu * nu) * 0.9 * rng.uniform(0.2, 1.0)
             * np.exp(2j * np.pi * rng.uniform()))
    return ModelParams(omega=float(rng.uniform(0.2, 2.0)), mu=float(mu),
                       nu=float(nu), kappa=complex(kappa), dim=dim,
                       theta=theta)
