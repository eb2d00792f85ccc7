"""The real 4x4 coefficient matrix R of a two-qubit state, a plain float array.

R is the transpose of hs.coefficient_grid: row 0 carries (1, a), column 0
carries (1, b), and the lower-right 3x3 block is t^T, so rows index qubit B
and columns index qubit A throughout; the corner R[0, 0] is Tr rho.  In this
layout R is covariant under local filters: F_A (x) F_B sends R to exactly
Lambda(F_B) R Lambda(F_A)^T, with Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n
F^dagger] a proper Lorentz transformation for F in SL(2, C).  A two-sided
product L @ R @ M^T therefore applies L on qubit B and M on qubit A.
Hermiticity of rho is equivalent to R being real.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .hs import HERMITICITY_TOL, HSParams, coefficient_grid, grid_from_rho, rho_from_grid

_SYMMETRY_TOL = 1e-12


def _as_r(r, name: str = "R") -> np.ndarray:
    m = np.asarray(r, dtype=float)
    if m.shape != (4, 4):
        raise InvalidParameterError(f"{name} must be a real 4x4 matrix")
    if not np.isfinite(m).all():
        raise InvalidParameterError(f"{name} entries must be finite")
    return m


def r_from_hs(params: HSParams) -> np.ndarray:
    """Pack (a, b, t) into R; the corner is 1."""
    return coefficient_grid(params.a, params.b, params.t).T


def r_from_rho(rho) -> np.ndarray:
    """Extract R from a Hermitian matrix via Pauli trace inner products.

    The corner is Tr rho, so for a state this equals r_from_hs(hs_from_rho(rho));
    a trace grid whose imaginary part reaches HERMITICITY_TOL is rejected.
    """
    c = grid_from_rho(rho)
    imag = float(np.abs(c.imag).max())
    if imag >= HERMITICITY_TOL:
        raise InvalidParameterError(f"imaginary residue {imag:.3g} in R entries")
    return c.real.T


def rho_from_r(r) -> np.ndarray:
    """Inverse of r_from_rho: the matrix of trace R[0, 0]."""
    return rho_from_grid(_as_r(r).T)


def is_symmetric_r(r) -> bool:
    m = _as_r(r)
    return float(np.abs(m - m.T).max()) < _SYMMETRY_TOL
