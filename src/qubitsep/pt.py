"""Partial transpose and the classic two-qubit separability tests.

For two qubits the Peres-Horodecki test is exact: a state is separable iff
its partial transpose has no negative eigenvalue.  The transposes on qubit A
and on qubit B are transposes of each other and share their spectrum, so the
test transposes qubit A.  In the Pauli picture that is the sign flip
sigma_y -> -sigma_y on qubit A (tests/paper_formulas.py states it on (a, b, t)).

A matrix from outside is checked by require_hermitian and transposed by
partial_transpose_matrix, and spectra hands both to _spectra.  For the R of
HSParams, cross_validate builds rho and its partial transpose with
_rho_and_pt, one einsum over a stacked basis: the Pauli products and their
transposes on qubit A, so that each partial-transpose entry is the same sum as
the rho entry it moves, bit for bit.  It hands that pair to _spectra too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .hs import PAULI_KRON, PSD_TOL, _as_complex, _as_real, _read_only, require_hermitian

# Not called here; perfbench/tracing.py wraps this name on this module.
from .hs import eigenvalues_hermitian  # noqa: F401

SEPARABLE = "separable"
ENTANGLED = "entangled"

VERDICT_TOL = 1e-10
MDS_SUM_TOL = 1e-12
# 4*lambda leaves the float range past this |lambda|
_SPECTRUM_MAX = sys.float_info.max / 4.0


@dataclass(frozen=True)
class Verdict:
    """Outcome of a separability test.

    `witness` is the signed margin of the deciding inequality: the minimum
    partial-transpose eigenvalue in 4*lambda units for the Peres-Horodecki
    test (negative when entangled), or sum|t'_i| - 1 for the normal-form test
    (positive when entangled).  Borderline results (|margin| below the test
    tolerance) are reported separable with the boundary flag set, since the
    separable set is closed for two qubits.
    """

    kind: str
    witness: float
    criterion: str
    boundary: bool = False


def partial_transpose_matrix(rho) -> np.ndarray:
    """Matrix-level partial transpose on qubit A of a 4x4 matrix of numbers;
    it only moves entries, NaN included."""
    message = "rho must be a 4x4 matrix of numbers"
    m = _as_complex(rho, message)
    if m.shape != (4, 4):
        raise InvalidParameterError(message)
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


# [0] is PAULI_KRON, [1] its partial transpose on qubit A, one Pauli product at a time
_RHO_AND_PT_BASIS = _read_only(
    np.stack([PAULI_KRON, [[partial_transpose_matrix(p) for p in row] for row in PAULI_KRON]])
)


def spectra(rho) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of rho and of its partial transpose, from one stacked eigensolve.

    Each is bit for bit what eigenvalues_hermitian gives for its matrix alone:
    read-only, ascending, in 4*lambda units.  A spectrum past the float range
    in those units raises InvalidParameterError.
    """
    pair = np.empty((2, 4, 4), dtype=complex)
    pair[0] = require_hermitian(rho)
    pair[1] = partial_transpose_matrix(pair[0])
    return _spectra(pair)


def _rho_and_pt(r) -> np.ndarray:
    # rho_from_r(r) and its partial transpose, stacked, for a checked R: the
    # entries and the error of rho_from_r, bit for bit; rho is exactly Hermitian
    pair = np.einsum("nm,kmnij->kij", r, _RHO_AND_PT_BASIS)
    if not np.isfinite(pair).all():
        raise InvalidParameterError("matrix entries must be finite")
    return np.divide(pair, 4.0, out=pair)


def _spectra(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the spectra of rho = pair[0] and of its partial transpose pair[1]
    lam = np.linalg.eigvalsh(pair)
    # each spectrum ascends, so its two ends bound it; a nan fails the test too
    (lo, _, _, hi), (pt_lo, _, _, pt_hi) = lam.tolist()
    top = _SPECTRUM_MAX
    if not (-top <= lo <= hi <= top and -top <= pt_lo <= pt_hi <= top):
        raise InvalidParameterError("spectrum exceeds the float range in 4*lambda units")
    four = _read_only(4.0 * lam)
    return four[0], four[1]


def require_state(spectrum: np.ndarray, tol: float) -> None:
    """Raise InvalidStateError, carrying `spectrum` (4*lambda units), if an
    eigenvalue lambda is below -tol."""
    if float(spectrum[0]) / 4.0 < -tol:
        raise InvalidStateError("input is not positive semidefinite; not a state", spectrum)


def peres_horodecki(rho, tol: float = VERDICT_TOL) -> Verdict:
    """Exact separability test: entangled iff the partial transpose dips below -tol.

    Raises InvalidStateError for inputs with an eigenvalue below -PSD_TOL;
    a verdict on a non-state would mask upstream bugs.  `tol` is the verdict
    margin only.
    """
    spectrum, pt_spectrum = spectra(rho)
    require_state(spectrum, PSD_TOL)
    return ppt_verdict(pt_spectrum, _as_real(tol, (), "tol"))


def ppt_verdict(pt_spectrum: np.ndarray, tol: float = VERDICT_TOL) -> Verdict:
    """The Peres-Horodecki verdict read from an already computed PT spectrum.

    Unlike peres_horodecki this does not check that the input is a state;
    the caller has done so with its own tolerance.
    """
    witness = float(pt_spectrum[0])
    min_lam = witness / 4.0
    return Verdict(
        kind=ENTANGLED if min_lam < -tol else SEPARABLE,
        witness=witness,
        criterion="peres-horodecki",
        boundary=abs(min_lam) <= tol,
    )


def mds_criterion(tdiag) -> bool:
    """|t1| + |t2| + |t3| <= 1, the exact test when both linear vectors vanish."""
    t = _as_real(tdiag, (3,), "tdiag")
    return float(np.abs(t).sum()) <= 1.0 + MDS_SUM_TOL
