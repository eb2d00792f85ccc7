"""The real 4x4 coefficient matrix R of a two-qubit state.

R is the transpose of hs.coefficient_grid: row 0 carries (1, a), column 0
carries (1, b), and the lower-right 3x3 block is t^T, so rows index qubit B
and columns index qubit A throughout.  In this layout R is covariant under
local filters: F_A (x) F_B sends R to Lambda(F_B) R Lambda(F_A)^T up to the
overall scale, with Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n F^dagger] a
proper Lorentz transformation for F in SL(2, C).  A two-sided product
L @ R @ M^T therefore applies L on qubit B and M on qubit A.  Hermiticity of
rho is equivalent to R being real.

R is stored normalized with R[0, 0] = 1; any overall factor picked up at
construction or under two-sided transformations is recorded in `scale`, so
`raw` always reproduces the unnormalized matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransformationError, InvalidParameterError
from .hs import HERMITICITY_TOL, HSParams, coefficient_grid, grid_from_rho, rho_from_grid

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


def r_from_hs(params: HSParams) -> RMatrix:
    """Pack (a, b, t) into the normalized R form."""
    return RMatrix(coefficient_grid(params.a, params.b, params.t).T)


def r_from_rho(rho) -> RMatrix:
    """Extract R from a Hermitian matrix via Pauli trace inner products.

    Equivalent to r_from_hs(hs_from_rho(rho)); a trace grid whose imaginary
    part reaches HERMITICITY_TOL is rejected.
    """
    c = grid_from_rho(rho)
    imag = float(np.abs(c.imag).max())
    if imag >= HERMITICITY_TOL:
        raise InvalidParameterError(f"imaginary residue {imag:.3g} in R entries")
    return RMatrix(c.real.T)


def rho_from_r(r: RMatrix) -> np.ndarray:
    """Inverse of r_from_rho, using the normalized entries (unit trace)."""
    return rho_from_grid(r.entries.T)


def is_symmetric_r(r: RMatrix) -> bool:
    return float(np.abs(r.entries - r.entries.T).max()) < _SYMMETRY_TOL
