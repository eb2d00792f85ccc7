"""The real 4x4 coefficient matrix R of a two-qubit state.

Row 0 carries (1, a), column 0 carries (1, b), and the lower-right 3x3
block is t untransposed (rows on qubit A, columns on qubit B).  So R is
hs.coefficient_grid with its border swapped, and the grid's transpose only
for symmetric t.  R is not covariant under local filters A (x) B: a filter
on qubit A is exactly a left factor on the grid, but no left or right factor
on R reproduces it (ROADMAP, "Covariant R").  Hermiticity of rho is
equivalent to R being real.

R is stored normalized with R[0, 0] = 1; any overall factor picked up at
construction or under two-sided transformations is recorded in `scale`, so
`raw` always reproduces the unnormalized matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransformationError, InvalidParameterError
from .hs import HERMITICITY_TOL, PAULI_KRON, HSParams, require_hermitian

_NORM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RMatrix:
    entries: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise InvalidParameterError("R must be a real 4x4 matrix")
        if not np.isfinite(m).all():
            raise InvalidParameterError("R entries must be finite")
        scale = float(self.scale)
        if abs(m[0, 0] - 1.0) > _NORM_TOL:
            if m[0, 0] <= 0.0:
                raise DegenerateTransformationError(
                    f"leading entry {m[0, 0]:.6g} is not positive; cannot normalize"
                )
            scale *= m[0, 0]
            m = m / m[0, 0]
        m = m.copy()
        m[0, 0] = 1.0
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "scale", scale)

    @property
    def raw(self) -> np.ndarray:
        """The matrix with its recorded overall factor reapplied."""
        return self.scale * self.entries

    @property
    def a(self) -> np.ndarray:
        return self.entries[0, 1:]

    @property
    def b(self) -> np.ndarray:
        return self.entries[1:, 0]

    @property
    def t(self) -> np.ndarray:
        return self.entries[1:, 1:]


def r_from_hs(params: HSParams) -> RMatrix:
    """Pack (a, b, t) into the normalized R form."""
    m = np.empty((4, 4))
    m[0, 0] = 1.0
    m[0, 1:] = params.a
    m[1:, 0] = params.b
    m[1:, 1:] = params.t
    return RMatrix(m)


def r_from_rho(rho) -> RMatrix:
    """Extract R from a Hermitian matrix via Pauli trace inner products.

    Equivalent to r_from_hs(hs_from_rho(rho)): the trace grid
    Tr[rho sigma_m x sigma_n] has a in its first column and b in its first
    row, so the border is swapped into the R layout.
    """
    m = require_hermitian(rho)
    c = np.einsum("ij,mnji->mn", m, PAULI_KRON)
    imag = float(np.abs(c.imag).max())
    if imag >= HERMITICITY_TOL:
        raise InvalidParameterError(f"imaginary residue {imag:.3g} in R entries")
    c = c.real
    r = c.copy()
    r[0, 1:] = c[1:, 0]
    r[1:, 0] = c[0, 1:]
    return RMatrix(r)


def rho_from_r(r: RMatrix) -> np.ndarray:
    """Inverse of r_from_rho, using the normalized entries (unit trace)."""
    c = r.entries.copy()
    c[1:, 0] = r.entries[0, 1:]
    c[0, 1:] = r.entries[1:, 0]
    return np.einsum("mn,mnij->ij", c, PAULI_KRON) / 4.0


def is_symmetric_r(r: RMatrix, tol: float = _SYMMETRY_TOL) -> bool:
    return float(np.abs(r.entries - r.entries.T).max()) < tol
