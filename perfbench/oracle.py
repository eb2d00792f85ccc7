"""Reference partial-transpose verdicts computed with numpy alone.

Nothing here imports qubitsep, so a bug in the package cannot hide in its own
check.  A state is a row of 15 Pauli coefficients: a (3), b (3) and t (9,
row-major), with 4 rho = I x I + a.sigma x I + I x b.sigma + t_lm sigma_l x sigma_m.

The partial transpose is taken in the Pauli picture (sigma_y -> -sigma_y on
qubit A, i.e. a_2 and the second row of t change sign) and only then turned
into a matrix, a different route from the package's index permutation.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Pauli product grid, PAULI_KRON[m, n] = sigma_m (qubit A) x sigma_n (qubit B).
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
PAULI_KRON = np.einsum("mij,nkl->mnikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)

# Below this |min eigenvalue| (4*lambda units) a state sits on the PPT
# boundary, where either verdict is acceptable; the package buckets the same
# band as "boundary" in its cross-validation.
BOUNDARY = 1e-8
# Positivity slack for states that are exactly rank-deficient (pure products).
PSD_SLACK = 1e-10


def density(coeffs: np.ndarray) -> np.ndarray:
    """Batch of 4x4 density matrices from an (n, 15) coefficient array."""
    c = np.asarray(coeffs, dtype=float).reshape(-1, 15)
    grid = np.zeros((c.shape[0], 4, 4))
    grid[:, 0, 0] = 1.0
    grid[:, 1:, 0] = c[:, 0:3]
    grid[:, 0, 1:] = c[:, 3:6]
    grid[:, 1:, 1:] = c[:, 6:].reshape(-1, 3, 3)
    return np.einsum("bmn,mnij->bij", grid, PAULI_KRON) / 4.0


def coefficients(rho: np.ndarray) -> np.ndarray:
    """Inverse of density(): Pauli trace inner products, as (n, 15) rows."""
    grid = np.einsum("bij,mnji->bmn", rho, PAULI_KRON).real
    n = grid.shape[0]
    return np.hstack([grid[:, 1:, 0], grid[:, 0, 1:], grid[:, 1:, 1:].reshape(n, 9)])


def partial_transpose_a(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the partial transpose on qubit A."""
    c = np.array(coeffs, dtype=float).reshape(-1, 15)
    c[:, 1] = -c[:, 1]
    c[:, 9:12] = -c[:, 9:12]
    return c


def witnesses(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum eigenvalue (4*lambda units) of rho and of its partial transpose."""
    c = np.asarray(coeffs, dtype=float).reshape(-1, 15)
    if c.shape[0] == 0:
        return np.empty(0), np.empty(0)
    rho_min = 4.0 * np.linalg.eigvalsh(density(c))[:, 0]
    pt_min = 4.0 * np.linalg.eigvalsh(density(partial_transpose_a(c)))[:, 0]
    return rho_min, pt_min


def mismatches(coeffs: np.ndarray, entangled: np.ndarray) -> np.ndarray:
    """Indices of states whose reported verdict the oracle contradicts.

    `entangled` holds the program's PPT verdict per state (True = entangled).
    A state is flagged when it is not positive semidefinite, or when it lies
    off the PPT boundary and the reported verdict has the wrong sign.
    """
    rho_min, pt_min = witnesses(coeffs)
    verdict = np.asarray(entangled, dtype=bool)
    invalid = rho_min < -PSD_SLACK
    wrong = (np.abs(pt_min) >= BOUNDARY) & ((pt_min < 0.0) != verdict)
    return np.flatnonzero(invalid | wrong)


def digest(coeffs: np.ndarray) -> str:
    """Digest of the exact float bits of a coefficient array."""
    c = np.ascontiguousarray(np.asarray(coeffs, dtype="<f8"))
    return hashlib.sha256(c.tobytes()).hexdigest()[:16]


def verdict_digest(entangled) -> str:
    """Digest of a verdict sequence (E = entangled, S = separable)."""
    text = "".join("E" if e else "S" for e in entangled)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
