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
corner R[0, 0] is Tr rho.  HSParams keeps one frozen R built from copies of
its inputs; a, b and t are read-only views of it.  R is covariant under local
filters: F_A (x) F_B sends R to exactly Lambda(F_B) R Lambda(F_A)^T, with
Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n F^dagger] a proper Lorentz
transformation for F in SL(2, C), so L @ R @ M^T applies L on qubit B and M
on qubit A.  Hermiticity of rho is equivalent to R being real.

A rho assembled from a real R is exactly Hermitian (mirror entries come from the
same operations in the same order), so only its finiteness is checked; a matrix
from outside gets both checks (require_hermitian, in pt.spectra and others).
"""

from __future__ import annotations

import math
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
    try:
        v = np.array(x, dtype=float).reshape(3)
        if all(map(math.isfinite, v.tolist())):
            return v
    except (TypeError, ValueError):  # not numbers, or not three of them
        pass
    raise InvalidParameterError(f"{name} must be a finite real 3-vector")


@dataclass(frozen=True, eq=False)
class HSParams:
    """Pauli-basis coefficients (a, b, t) of a two-qubit operator.

    Only finiteness is enforced; the parameters need not describe a positive
    matrix, since partial-transpose images and mid-transformation values are
    carried by the same type.  a, b and t are read-only views of one frozen R
    (see pack_r) built from copies of the inputs.
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
        if not all(map(math.isfinite, t.ravel().tolist())):
            raise InvalidParameterError("t must be finite")
        self._adopt(pack_r(a, b, t))

    def _adopt(self, r: np.ndarray) -> None:
        # freeze a fresh R with corner 1 and take a, b and t as views of it
        r = _read_only(r)
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "a", r[0, 1:])
        object.__setattr__(self, "b", r[1:, 0])
        object.__setattr__(self, "t", r[1:, 1:].T)

    @classmethod
    def diagonal(cls, a, b, tdiag) -> "HSParams":
        """Build params with a diagonal correlation matrix."""
        return cls(a, b, np.diag(_as_real_vector(tdiag, "tdiag")))

    @classmethod
    def from_r(cls, r) -> "HSParams":
        """Params that hold a read-only copy of R (see pack_r), its corner set to 1.

        The corner is not read; the other 15 entries get the checks, and the
        messages, of HSParams(a, b, t).
        """
        r = np.array(r, dtype=float)
        if r.shape != (4, 4):
            raise InvalidParameterError("R must be a real 4x4 matrix")
        (_, *a), *rows = r.tolist()
        if not all(map(math.isfinite, a)):
            raise InvalidParameterError("a must be a finite real 3-vector")
        if not all(math.isfinite(row[0]) for row in rows):
            raise InvalidParameterError("b must be a finite real 3-vector")
        if not all(map(math.isfinite, rows[0][1:] + rows[1][1:] + rows[2][1:])):
            raise InvalidParameterError("t must be finite")
        r[0, 0] = 1.0
        params = cls.__new__(cls)
        params._adopt(r)
        return params

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
        """True when R equals its transpose (a == b, t == t^T) within ZERO_TOL."""
        r = self._r.tolist()
        return max(abs(r[m][n] - r[n][m]) for m in range(4) for n in range(m)) <= ZERO_TOL


def _read_only(v: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place and return it."""
    v.setflags(write=False)
    return v


def require_hermitian(matrix) -> np.ndarray:
    """Check a finite 4x4 Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ContractViolationError("expected a 4x4 matrix")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    if float(np.abs(m - m.conj().T).max()) >= HERMITICITY_TOL:
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
    """The params' own read-only R, not a copy: copy it to write.  Corner 1."""
    return params._r


def _rho_from_r(r, out=None) -> np.ndarray:
    # rho_from_r without the input check, for one R or a stack (..., 4, 4),
    # into `out` if given; each matrix of a stack is bit for bit the one a
    # single R gives.  Finite coefficients near the float limit overflow rho.
    m = np.einsum("...nm,mnij->...ij", r, PAULI_KRON, out=out)
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    return np.divide(m, 4.0, out=m)


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


def rho_from_hs(params: HSParams) -> np.ndarray:
    """Assemble the 4x4 matrix (1/4)[I x I + a.sigma x I + I x b.sigma + t..].

    The result is Hermitian with unit trace; positivity is not guaranteed and
    must be queried separately.
    """
    return _rho_from_r(r_from_hs(params))


def eigenvalues_hermitian(matrix) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, ascending, in 4*lambda units."""
    m = require_hermitian(matrix)
    return _read_only(4.0 * np.linalg.eigvalsh(m))


def _is_reflection(q: np.ndarray) -> bool:
    # det(q) < 0 for an orthogonal 3x3 q, by the triple product on floats: det is +-1
    (a, b, c), (d, e, f), (g, h, i) = q.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0


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
    if _is_reflection(u):
        u = u.copy()
        u[:, 2] *= -1.0
        s = s.copy()
        s[2] *= -1.0
    if _is_reflection(vt):
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
    if _is_reflection(v):
        v = v.copy()
        v[:, 0] *= -1.0
    rot = v.T
    out = HSParams(rot @ params.a, rot @ params.b, np.diag(w))
    return out, rot
