"""Two-qubit density matrices and their Pauli-product parameterization.

A two-qubit state rho is expanded as

    4 rho = I x I + sum_i a_i sigma_i x I + sum_i b_i I x sigma_i
            + sum_{l,m} t_lm sigma_l x sigma_m

with real local vectors a, b and a real 3x3 correlation matrix t.

Convention (all regression values depend on it): sigma_y = [[0, -i], [i, 0]],
basis order |00>, |01>, |10>, |11> with qubit A the left tensor factor.
A spectrum is a read-only float array of four eigenvalues, ascending, in
4*lambda units (the eigenvalues of 4 rho).  Comparisons against tolerances in
lambda units divide it by 4 first, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidParameterError, UnsupportedFormError

HERMITICITY_TOL = 1e-12
# an entry at or below this counts as zero: off-diagonal t, a - b, linear terms
ZERO_TOL = 1e-12
PSD_TOL = 1e-10

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# PAULI_KRON[mu, nu] = sigma_mu (qubit A) x sigma_nu (qubit B)
PAULI_KRON = np.array([[np.kron(SIGMA[m], SIGMA[n]) for n in range(4)] for m in range(4)])


def _as_real_vector(x, name: str) -> np.ndarray:
    v = np.array(x, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise InvalidParameterError(f"{name} must be a finite real 3-vector")
    return v


@dataclass(frozen=True, eq=False)
class HSParams:
    """Pauli-basis coefficients (a, b, t) of a two-qubit operator.

    Only finiteness is enforced; the parameters need not describe a positive
    matrix, since partial-transpose images and mid-transformation values are
    carried by the same type.  The arrays are frozen copies of the inputs.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        a = _as_real_vector(self.a, "a")
        b = _as_real_vector(self.b, "b")
        t = np.array(self.t, dtype=float)
        if t.shape != (3, 3):
            raise InvalidParameterError("t must be a real 3x3 matrix")
        if not np.isfinite(t).all():
            raise InvalidParameterError("t must be finite")
        for arr in (a, b, t):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "t", t)

    @classmethod
    def diagonal(cls, a, b, tdiag) -> "HSParams":
        """Build params with a diagonal correlation matrix."""
        return cls(a, b, np.diag(_as_real_vector(tdiag, "tdiag")))

    @classmethod
    def from_grid(cls, c) -> "HSParams":
        """Read params back from a 4x4 coefficient grid (see coefficient_grid)."""
        return cls(c[1:, 0], c[0, 1:], c[1:, 1:])

    @classmethod
    def zero(cls) -> "HSParams":
        return cls(np.zeros(3), np.zeros(3), np.zeros((3, 3)))

    def is_t_diagonal(self, tol: float = ZERO_TOL) -> bool:
        (_, t12, t13), (t21, _, t23), (t31, t32, _) = self.t.tolist()
        return max(abs(t12), abs(t13), abs(t21), abs(t23), abs(t31), abs(t32)) <= tol

    def t_diagonal(self) -> np.ndarray:
        """The diagonal of t; raises if off-diagonal entries are present."""
        if not self.is_t_diagonal():
            raise UnsupportedFormError("correlation matrix is not diagonal")
        return self.t.diagonal().copy()

    def is_symmetric(self) -> bool:
        """True when the two qubits carry identical linear terms (a == b)."""
        return float(np.abs(self.a - self.b).max()) <= ZERO_TOL


def _read_only(v: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place and return it."""
    v.setflags(write=False)
    return v


def require_hermitian(matrix, stacked: bool = False) -> np.ndarray:
    """Check a 4x4 Hermitian matrix, or with `stacked` an (n, 4, 4) stack of them."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (4, 4) or m.ndim != 2 + stacked:
        raise ContractViolationError(
            "expected a stack of 4x4 matrices" if stacked else "expected a 4x4 matrix"
        )
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    if float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) >= HERMITICITY_TOL:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    return m


def coefficient_grid(a, b, t) -> np.ndarray:
    """Coefficients against sigma_m (qubit A) x sigma_n (qubit B) as a 4x4 grid.

    a sits on the A side (column 0), b on the B side (row 0), t rows on A and
    columns on B; R (see rmatrix) is this grid transposed.  Leading axes of
    a (..., 3), b (..., 3) and t (..., 3, 3) give a stack of grids.
    """
    a = np.asarray(a, dtype=float)
    c = np.empty(a.shape[:-1] + (4, 4))
    c[..., 0, 0] = 1.0
    c[..., 1:, 0] = a
    c[..., 0, 1:] = b
    c[..., 1:, 1:] = t
    return c


def rho_from_grid(c) -> np.ndarray:
    """(1/4) sum_mn c_mn sigma_m x sigma_n for one grid or a stack (..., 4, 4).

    Each matrix of a stack is bit for bit the one a single grid gives.
    """
    return np.einsum("...mn,mnij->...ij", c, PAULI_KRON) / 4.0


def grid_from_rho(rho) -> np.ndarray:
    """The complex trace grid Tr[rho sigma_m x sigma_n] of a Hermitian 4x4 matrix.

    The inverse of rho_from_grid; for a Hermitian input the imaginary part is
    rounding residue only.
    """
    return np.einsum("ij,mnji->mn", require_hermitian(rho), PAULI_KRON)


def rho_from_hs(params: HSParams) -> np.ndarray:
    """Assemble the 4x4 matrix (1/4)[I x I + a.sigma x I + I x b.sigma + t..].

    The result is Hermitian with unit trace; positivity is not guaranteed and
    must be queried separately.
    """
    return rho_from_grid(coefficient_grid(params.a, params.b, params.t))


def hs_from_rho(rho) -> HSParams:
    """Invert the Pauli expansion via trace inner products.

    a_i = Tr[rho sigma_i x I], b_i = Tr[rho I x sigma_i],
    t_lm = Tr[rho sigma_l x sigma_m]; round-trips with rho_from_hs to well
    below 1e-12.
    """
    return HSParams.from_grid(grid_from_rho(rho).real)


def eigenvalues_hermitian(matrix) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, ascending, in 4*lambda units."""
    m = require_hermitian(matrix)
    return _read_only(4.0 * np.linalg.eigvalsh(m))


def eigenvalues_closed_form_pair(axis: int, a: float, b: float, tdiag) -> np.ndarray:
    """Closed-form spectrum for a state whose only linear pair sits on one axis.

    With the pair on axis 1 and t diagonal the four values of 4*lambda are
    1 + t1 -/+ sqrt((a + b)^2 + (t2 - t3)^2) and
    1 - t1 -/+ sqrt((a - b)^2 + (t2 + t3)^2); other axes follow by cyclic
    relabeling of the correlation entries.
    """
    if axis not in (1, 2, 3):
        raise InvalidParameterError("axis must be 1, 2 or 3")
    t = _as_real_vector(tdiag, "tdiag")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidParameterError("a and b must be finite")
    k = axis - 1
    i, j = (k + 1) % 3, (k + 2) % 3
    r_sum = float(np.hypot(a + b, t[i] - t[j]))
    r_dif = float(np.hypot(a - b, t[i] + t[j]))
    four = np.array(
        [1 + t[k] - r_sum, 1 + t[k] + r_sum, 1 - t[k] - r_dif, 1 - t[k] + r_dif]
    )
    return _read_only(np.sort(four))


def is_positive_semidefinite(matrix, tol: float = PSD_TOL) -> bool:
    """True when the minimum eigenvalue is >= -tol."""
    return float(eigenvalues_hermitian(matrix)[0]) / 4.0 >= -tol


def tdiag_via_local_rotations(params: HSParams):
    """Diagonalize t by proper rotations acting independently on each qubit.

    Returns (params', rotation_a, rotation_b) with t' = Ra t Rb^T diagonal,
    a' = Ra a and b' = Rb b.  Both rotations have determinant +1, so when
    det(t) < 0 exactly one diagonal entry keeps a negative sign; it is placed
    at the smallest singular value.  An already-diagonal t is returned
    unchanged with identity rotations.
    """
    if params.is_t_diagonal():
        eye = np.eye(3)
        return params, eye, eye
    u, s, vt = np.linalg.svd(params.t)
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, 2] *= -1.0
        s = s.copy()
        s[2] *= -1.0
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[2, :] *= -1.0
        s = s.copy()
        s[2] *= -1.0
    rot_a = u.T
    rot_b = vt
    out = HSParams(rot_a @ params.a, rot_b @ params.b, np.diag(s))
    return out, rot_a, rot_b


def tdiag_via_symmetric_rotation(params: HSParams):
    """Diagonalize a symmetric t with one shared proper rotation on both qubits.

    Keeps a == b intact, which the symmetric boost solvers require.  The
    diagonal entries are the eigenvalues of t (signs preserved).
    """
    t = params.t
    if float(np.abs(t - t.T).max()) > ZERO_TOL:
        raise UnsupportedFormError("shared-rotation reduction needs a symmetric t")
    w, v = np.linalg.eigh(0.5 * (t + t.T))
    if np.linalg.det(v) < 0:
        v = v.copy()
        v[:, 0] *= -1.0
    rot = v.T
    out = HSParams(rot @ params.a, rot @ params.b, np.diag(w))
    return out, rot
