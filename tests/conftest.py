import numpy as np
import pytest

from qubitsep import HSParams
from qubitsep.hs import SIGMA


@pytest.fixture
def pair64():
    """The Werner-like reference state: a2 = b2 = 0.64, t = diag(0.3, 0.3, 0.3).

    Its spectrum in 4*lambda units is {0.02, 0.1, 1.30, 2.58} and its partial
    transpose has a negative eigenvalue, so it is entangled although
    sum|t_i| = 0.9 <= 1.
    """
    return HSParams.diagonal([0, 0.64, 0], [0, 0.64, 0], [0.3, 0.3, 0.3])


@pytest.fixture
def one_sided02():
    """One-sided reference state: a1 = 0.2, b = 0, t = diag(0.3, 0.3, 0.3)."""
    return HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])


@pytest.fixture
def cubic_state():
    """Symmetric two-pair state: a = b = (0.1, 0.15, 0), t = diag(0.3, -0.2, 0.4)."""
    a = [0.1, 0.15, 0.0]
    return HSParams.diagonal(a, a, [0.3, -0.2, 0.4])


@pytest.fixture
def quartic_state():
    """Symmetric three-pair state: a = b = (0.1, 0.15, 0.2), t = diag(0.3, -0.2, 0.2)."""
    a = [0.1, 0.15, 0.2]
    return HSParams.diagonal(a, a, [0.3, -0.2, 0.2])


def random_params(rng: np.random.Generator, scale: float = 1.0) -> HSParams:
    """Unconstrained Pauli coefficients; not necessarily a state."""
    return HSParams(
        rng.uniform(-scale, scale, 3),
        rng.uniform(-scale, scale, 3),
        rng.uniform(-scale, scale, (3, 3)),
    )


def lorentz_of_filter(f: np.ndarray) -> np.ndarray:
    """Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n F^dagger] of a 2x2 filter F."""
    return 0.5 * np.einsum("mij,jk,nkl,li->mn", SIGMA, f, SIGMA, f.conj().T).real
