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

Every Hermitian eigensolve of the package runs through _eigvalsh or _eigh:
numpy's own LAPACK gufuncs (eigvalsh_lo, eigh_lo) under the error state that
numpy's eigvalsh and eigh set.  A result is bit for bit numpy's, and a solve
that does not converge raises numpy's LinAlgError with no RuntimeWarning, but
the public wrapper's re-checks of an array the package built, a large share
of the cost of a 4x4 or 3x3 solve, are skipped.  _local_rotations' SVD runs the
same way through _svd: numpy's svd_f, named svd_n_f before numpy 2.0, under
the error state of np.linalg.svd, so a failure raises LinAlgError("SVD did not
converge").  Both rotation cores write the rotated a and b and the diagonal
into one zeroed R, which the reduced params adopt.  _spectra turns eigenvalue
rows into spectra and raises InvalidParameterError on one past the float
range in 4*lambda units, for eigenvalues_hermitian and for pt and sampling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ContractViolationError, InvalidParameterError

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

# 4*lambda leaves the float range past this |lambda|
_SPECTRUM_MAX = sys.float_info.max / 4.0


# what float() and numpy's conversions raise on non-numbers, ragged input and huge ints
_NOT_REAL = (TypeError, ValueError, OverflowError)


def _not_real(name: str, shape: tuple) -> InvalidParameterError:
    kind = {(): "number", (3,): "3-vector"}.get(shape) or "x".join(map(str, shape)) + " matrix"
    return InvalidParameterError(f"{name} must be finite real {kind}")


def _as_real(x, shape: tuple, name: str):
    """The one gate for real input: a new float array of exactly `shape` with
    finite entries, or a Python float for shape (); anything else raises
    InvalidParameterError naming the input.  A value must hold real numbers
    (no text, objects or complex values, which a float cast would misread or
    make real); a Python int or float is taken without a numpy array."""
    try:
        if shape == () and isinstance(x, (int, float)):
            v = float(x)
            ok = math.isfinite(v)
        else:
            v = np.array(x)
            ok = v.dtype.kind in "biuf" and v.shape == shape
            v = v.astype(float, copy=False) if ok else v
            ok = ok and all(map(math.isfinite, v.ravel().tolist()))
            v = float(v) if ok and shape == () else v
    except _NOT_REAL:
        ok = False
    if not ok:
        raise _not_real(name, shape)
    return v


def _as_complex(x, message: str) -> np.ndarray:
    # x as a complex array, the caller's own if it is one; text, objects and
    # ragged input raise InvalidParameterError(message), as _as_real does for reals
    try:
        m = np.asarray(x)
    except _NOT_REAL:
        raise InvalidParameterError(message) from None
    if m.dtype.kind not in "biufc":
        raise InvalidParameterError(message)
    return m.astype(complex, copy=False)


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
        a, b = _as_real(self.a, (3,), "a"), _as_real(self.b, (3,), "b")
        self._adopt(pack_r(a, b, _as_real(self.t, (3, 3), "t")))

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
        return cls(a, b, np.diag(_as_real(tdiag, (3,), "tdiag")))

    @classmethod
    def from_r(cls, r) -> "HSParams":
        """Params that hold a read-only copy of R (see pack_r), its corner set to 1.

        The corner is not read; the other 15 entries get the checks, and the
        messages, of HSParams(a, b, t); a finite R costs one pass.
        """
        try:
            r = np.array(r)
        except _NOT_REAL:
            raise _not_real("R", (4, 4)) from None
        if r.dtype.kind not in "biuf" or r.shape != (4, 4):
            raise _not_real("R", (4, 4))
        return cls._of_new_r(r.astype(float, copy=False))

    @classmethod
    def _of_new_r(cls, r: np.ndarray) -> "HSParams":
        # from_r past its copy: the caller hands over r, a new float 4x4
        # array, and one pass checks its 15 entries past the corner
        if not all(map(math.isfinite, r.ravel().tolist()[1:])):
            cls(r[0, 1:], r[1:, 0], r[1:, 1:].T)  # raises, naming the part that is not finite
        r[0, 0] = 1.0
        return cls._of_checked_r(r)

    @classmethod
    def _of_checked_r(cls, r: np.ndarray) -> "HSParams":
        # from_r without its checks: the caller built r, a new finite float
        # array with corner 1, and hands it over
        params = cls.__new__(cls)
        params._adopt(r)
        return params

    @classmethod
    def zero(cls) -> "HSParams":
        return cls(np.zeros(3), np.zeros(3), np.zeros((3, 3)))

    def is_t_diagonal(self) -> bool:
        (_, t12, t13), (t21, _, t23), (t31, t32, _) = self.t.tolist()
        return max(abs(t12), abs(t13), abs(t21), abs(t23), abs(t31), abs(t32)) <= ZERO_TOL

    def is_symmetric(self) -> bool:
        """True when R equals its transpose (a == b, t == t^T) within ZERO_TOL."""
        (_, a1, a2, a3), (b1, _, r12, r13), (b2, r21, _, r23), (b3, r31, r32, _) = self._r.tolist()
        return max(
            abs(a1 - b1), abs(a2 - b2), abs(a3 - b3), abs(r12 - r21), abs(r13 - r31), abs(r23 - r32)
        ) <= ZERO_TOL


def _read_only(v: np.ndarray) -> np.ndarray:
    """Freeze a freshly computed array in place and return it."""
    v.setflags(write=False)
    return v


def require_hermitian(matrix) -> np.ndarray:
    """Check a finite 4x4 Hermitian matrix: InvalidParameterError if it is not
    finite numbers, ContractViolationError if it is not 4x4 or not Hermitian."""
    m = _as_complex(matrix, "matrix entries must be numbers")
    if m.shape != (4, 4):
        raise ContractViolationError("expected a 4x4 matrix")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    if float(np.abs(m - m.conj().T).max()) >= HERMITICITY_TOL:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
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


def _rho_from_r(r) -> np.ndarray:
    # rho_from_r without the input check, for one R or a stack (..., 4, 4);
    # each matrix of a stack is bit for bit the one a single R gives.  Finite
    # coefficients near the float limit overflow rho.
    m = np.einsum("...nm,mnij->...ij", r, PAULI_KRON)
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    return np.divide(m, 4.0, out=m)


def rho_from_r(r) -> np.ndarray:
    """(1/4) sum R[nu, mu] sigma_mu x sigma_nu: the matrix of trace R[0, 0].

    The inverse of r_from_rho; R must be a finite real 4x4 matrix.
    """
    return _rho_from_r(_as_real(r, (4, 4), "R"))


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


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# the error state numpy's eigvalsh and eigh set around their gufuncs: a solve
# that does not converge sets the invalid flag, which raises numpy's
# LinAlgError, and LAPACK's own scaling may over- or underflow unseen
_LAPACK_ERRSTATE = dict(
    call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


@np.errstate(**_LAPACK_ERRSTATE)
def _eigvalsh(m: np.ndarray) -> np.ndarray:
    # np.linalg.eigvalsh(m) bit for bit, for a float or complex array the
    # package built: numpy's own LAPACK gufunc, without the wrapper's re-checks
    return _umath_linalg.eigvalsh_lo(m, signature="D->d" if m.dtype.kind == "c" else "d->d")


@np.errstate(**_LAPACK_ERRSTATE)
def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.linalg.eigh(m) bit for bit, as (w, v), for a real array the package built
    return _umath_linalg.eigh_lo(m, signature="d->dd")


def _svd_no_convergence(err, flag):
    raise LinAlgError("SVD did not converge")


# numpy's full-matrices SVD gufunc; before numpy 2.0 a square matrix took svd_n_f
_SVD_GUFUNC = getattr(_umath_linalg, "svd_f", None) or getattr(_umath_linalg, "svd_n_f", None)


@np.errstate(**dict(_LAPACK_ERRSTATE, call=_svd_no_convergence))
def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # np.linalg.svd(m) bit for bit, as (u, s, vt), for a real array the package built
    return _SVD_GUFUNC(m, signature="d->ddd")


def _spectra(lam: np.ndarray) -> np.ndarray:
    # eigvalsh rows (..., 4) as read-only spectra in 4*lambda units; each row
    # ascends, so its two ends bound it; a nan fails the test too
    top = _SPECTRUM_MAX
    if not all(-top <= lo <= hi <= top for lo, _, _, hi in lam.reshape(-1, 4).tolist()):
        raise InvalidParameterError("spectrum exceeds the float range in 4*lambda units")
    return _read_only(4.0 * lam)


def eigenvalues_hermitian(matrix) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, ascending, in 4*lambda units.

    A spectrum past the float range in those units raises
    InvalidParameterError.
    """
    return _spectra(_eigvalsh(require_hermitian(matrix)))


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
        return params, np.eye(3), np.eye(3)
    return _local_rotations(params)


def _local_rotations(params: HSParams):
    # tdiag_via_local_rotations on a t its caller has found not diagonal
    u, s, vt = _svd(params.t)  # new arrays, flipped in place
    if _is_reflection(u):
        u[:, 2] *= -1.0
        s[2] *= -1.0
    if _is_reflection(vt):
        vt[2, :] *= -1.0
        s[2] *= -1.0
    return _rotated(u.T @ params.a, vt @ params.b, s), u.T, vt


def _rotated(a: np.ndarray, b: np.ndarray, tdiag: np.ndarray) -> HSParams:
    # params of a, b and diag(tdiag), written into one zeroed R: pack_r's R
    # bit for bit, without building diag(tdiag)
    r = np.zeros((4, 4))
    r[0, 1:] = a
    r[1:, 0] = b
    r.flat[5::5] = tdiag
    return HSParams._of_new_r(r)


def tdiag_via_symmetric_rotation(params: HSParams):
    """Diagonalize the t of a symmetric state with one shared proper rotation.

    The rotated a is both a and b of the result, so the result is symmetric
    bit for bit, as the symmetric boost solvers require.  The diagonal
    entries are the eigenvalues of t (signs preserved).  A t with
    max|t - t^T| > ZERO_TOL, or a and b more than ZERO_TOL apart, raises
    ContractViolationError.
    """
    t = params.t
    if float(np.abs(t - t.T).max()) > ZERO_TOL:
        raise ContractViolationError("shared-rotation reduction needs a symmetric t")
    if not params.is_symmetric():  # t passed, so a and b differ
        raise ContractViolationError("shared-rotation reduction needs a == b")
    return _symmetric_rotation(params)


def _symmetric_rotation(params: HSParams):
    # tdiag_via_symmetric_rotation on params that is_symmetric has passed.
    # Rotating b on its own could spread |a - b| past ZERO_TOL, so that the
    # reduced params would no longer pass is_symmetric
    t = params.t
    w, v = _eigh(0.5 * (t + t.T))
    if _is_reflection(v):
        v[:, 0] *= -1.0
    rot = v.T
    a = rot @ params.a
    return _rotated(a, a, w), rot
