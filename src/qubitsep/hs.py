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

The 16 coefficients are held in one layout, the real 4x4 matrix
R = [[1, a], [b, t^T]]: R[nu, mu] is the coefficient of sigma_mu (qubit A)
x sigma_nu (qubit B), so rows index qubit B and columns qubit A, and the
corner R[0, 0] is Tr rho.  In this layout R is covariant under local
filters: F_A (x) F_B sends R to exactly Lambda(F_B) R Lambda(F_A)^T, with
Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n F^dagger] a proper Lorentz
transformation for F in SL(2, C).  A two-sided product L @ R @ M^T
therefore applies L on qubit B and M on qubit A.  Hermiticity of rho is
equivalent to R being real.
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
    def from_r(cls, r) -> "HSParams":
        """Read params back from R (see pack_r); the corner is not read."""
        return cls(r[0, 1:], r[1:, 0], r[1:, 1:].T)

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
        """True when a == b and t == t^T, entry by entry within ZERO_TOL."""
        (a1, a2, a3), (b1, b2, b3) = self.a.tolist(), self.b.tolist()
        (_, t12, t13), (t21, _, t23), (t31, t32, _) = self.t.tolist()
        linear = max(abs(a1 - b1), abs(a2 - b2), abs(a3 - b3))
        return max(linear, abs(t12 - t21), abs(t13 - t31), abs(t23 - t32)) <= ZERO_TOL


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


def _as_r(r, name: str = "R") -> np.ndarray:
    m = np.asarray(r, dtype=float)
    if m.shape != (4, 4):
        raise InvalidParameterError(f"{name} must be a real 4x4 matrix")
    if not np.isfinite(m).all():
        raise InvalidParameterError(f"{name} entries must be finite")
    return m


def pack_r(a, b, t) -> np.ndarray:
    """R = [[1, a], [b, t^T]]; leading axes of a (..., 3), b (..., 3) and
    t (..., 3, 3) give a stack of R matrices."""
    a = np.asarray(a, dtype=float)
    r = np.empty(a.shape[:-1] + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 0, 1:] = a
    r[..., 1:, 0] = b
    r[..., 1:, 1:] = np.swapaxes(t, -1, -2)
    return r


def r_from_hs(params: HSParams) -> np.ndarray:
    """Pack (a, b, t) into R; the corner is 1."""
    return pack_r(params.a, params.b, params.t)


def _rho_from_r(r) -> np.ndarray:
    # rho_from_r without the input check, for one R or a stack (..., 4, 4);
    # each matrix of a stack is bit for bit the one a single R gives
    return np.einsum("...nm,mnij->...ij", r, PAULI_KRON) / 4.0


def rho_from_r(r) -> np.ndarray:
    """(1/4) sum R[nu, mu] sigma_mu x sigma_nu: the matrix of trace R[0, 0].

    The inverse of r_from_rho; R must be a finite real 4x4 matrix.
    """
    return _rho_from_r(_as_r(r))


def r_from_rho(rho) -> np.ndarray:
    """Extract R from a Hermitian matrix via Pauli trace inner products.

    R[nu, mu] = Tr[rho sigma_mu x sigma_nu]; the corner is Tr rho.  A trace
    whose imaginary part reaches HERMITICITY_TOL is rejected, since for a
    Hermitian input it is rounding residue only.
    """
    r = np.einsum("ij,mnji->nm", require_hermitian(rho), PAULI_KRON)
    imag = float(np.abs(r.imag).max())
    if imag >= HERMITICITY_TOL:
        raise InvalidParameterError(f"imaginary residue {imag:.3g} in R entries")
    return r.real


def is_symmetric_r(r) -> bool:
    """HSParams.is_symmetric on R, that is R == R^T within ZERO_TOL."""
    return HSParams.from_r(_as_r(r)).is_symmetric()


def rho_from_hs(params: HSParams) -> np.ndarray:
    """Assemble the 4x4 matrix (1/4)[I x I + a.sigma x I + I x b.sigma + t..].

    The result is Hermitian with unit trace; positivity is not guaranteed and
    must be queried separately.
    """
    return _rho_from_r(r_from_hs(params))


def hs_from_rho(rho) -> HSParams:
    """Invert the Pauli expansion via trace inner products (see r_from_rho).

    a_i = Tr[rho sigma_i x I], b_i = Tr[rho I x sigma_i],
    t_lm = Tr[rho sigma_l x sigma_m]; round-trips with rho_from_hs to well
    below 1e-12.
    """
    return HSParams.from_r(r_from_rho(rho))


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
