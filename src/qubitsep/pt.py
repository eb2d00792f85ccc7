"""Partial transpose and the classic two-qubit separability tests.

For two qubits the Peres-Horodecki test is exact: a state is separable iff
its partial transpose has no negative eigenvalue.  The transposes on qubit A
and on qubit B are transposes of each other and share their spectrum, so the
test transposes qubit A.  In the Pauli picture that is the sign flip
sigma_y -> -sigma_y on qubit A (tests/paper_formulas.py states it on (a, b, t)).

The partial transpose only moves entries: entry (i, j) of it is entry
_PT_INDEX[i, j] of rho's 16, read in row-major order.  That one index map
transposes every matrix here: a matrix from outside (partial_transpose_matrix,
after require_hermitian in spectra), the rho that cross_validate assembles
from an R, and the stack of sampled rho that batch_stats holds.  A moved entry
is the rho entry itself, bit for bit, signed zeros and NaN included.

spectra solves rho and its partial transpose in one stacked eigensolve,
hs._eigvalsh (numpy's LAPACK gufunc under numpy's error state, without the
np.linalg wrapper), and hs._spectra checks both against the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .hs import PSD_TOL, _as_complex, _as_real, _eigvalsh, _read_only, _spectra, require_hermitian

# Not called here; perfbench/tracing.py wraps this name on this module.
from .hs import eigenvalues_hermitian  # noqa: F401

SEPARABLE = "separable"
ENTANGLED = "entangled"

VERDICT_TOL = 1e-10
MDS_SUM_TOL = 1e-12
# the row-major positions in rho of the entries of its partial transpose on
# qubit A; stacked after the identity map, rho and its transpose in one take
_PT_INDEX = _read_only(np.arange(16).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4))
_PAIR_INDEX = _read_only(np.stack([np.arange(16).reshape(4, 4), _PT_INDEX]))


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
    return m.reshape(16)[_PT_INDEX]


def spectra(rho) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of rho and of its partial transpose, from one stacked eigensolve.

    Each is bit for bit what eigenvalues_hermitian gives for its matrix alone:
    read-only, ascending, in 4*lambda units.  A spectrum past the float range
    in those units raises InvalidParameterError.
    """
    return _pair_spectra(require_hermitian(rho))


def _pair_spectra(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # spectra for a checked 4x4 rho: it and its partial transpose in one eigensolve
    four = _spectra(_eigvalsh(rho.reshape(16)[_PAIR_INDEX]))
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
    margin only; it must be finite and >= 0 (InvalidParameterError).
    """
    spectrum, pt_spectrum = spectra(rho)
    require_state(spectrum, PSD_TOL)
    return ppt_verdict(pt_spectrum, _verdict_tol(tol))


def _verdict_tol(tol) -> float:
    # a verdict margin from outside: through the gate, and >= 0, since a
    # negative margin turns a verdict around (the maximally mixed state would
    # read entangled)
    tol = _as_real(tol, (), "tol")
    if tol < 0.0:
        raise InvalidParameterError("tol must be finite and >= 0")
    return tol


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
