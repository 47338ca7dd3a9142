import os
from pathlib import Path

import numpy as np
import pytest

from relatime import DensityMatrix, Hamiltonian

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_checkout():
    """``python -m relatime`` run by a test imports the package under test,
    installed or not."""
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with spectral radius <= scale."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h * (scale / max(radius, 1e-12))


def random_hamiltonian(rng, dim: int, scale: float = 1.0) -> Hamiltonian:
    return Hamiltonian(random_hermitian(rng, dim, scale))


def dense(h: Hamiltonian) -> np.ndarray:
    """The d x d matrix U diag(E) U^dag that a Hamiltonian's eigensystem holds."""
    return (h.eigenbasis * h.spectrum) @ h.eigenbasis.conj().T


def random_density(rng, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def random_pure_density(rng, dim: int) -> DensityMatrix:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def plus_density(dim: int = 2) -> DensityMatrix:
    return DensityMatrix(np.full((dim, dim), 1.0 / dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
