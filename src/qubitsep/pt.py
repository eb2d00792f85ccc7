"""Partial transpose and the classic two-qubit separability tests.

For two qubits the Peres-Horodecki test is exact: a state is separable iff
its partial transpose has no negative eigenvalue.  In the Pauli picture the
partial transpose of one qubit is the sign flip sigma_y -> -sigma_y on that
qubit, and composing it with a 180-degree rotation about y gives the "PTU"
map used by the complement identity lambda_i(PTU image) = 1/2 - lambda_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidParameterError, InvalidStateError
from .hs import (
    PSD_TOL,
    ZERO_TOL,
    HSParams,
    _read_only,
    _rho_from_r,
    eigenvalues_hermitian,
    require_hermitian,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"

VERDICT_TOL = 1e-10
MDS_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    """Outcome of a separability test.

    `witness` is the signed margin of the deciding inequality: the minimum
    partial-transpose eigenvalue in 4*lambda units for the eigenvalue tests
    (negative when entangled), or sum|t'_i| - 1 for the normal-form test
    (positive when entangled).  Borderline results (|margin| below the test
    tolerance) are reported separable with the boundary flag set, since the
    separable set is closed for two qubits.
    """

    kind: str
    witness: float
    criterion: str
    boundary: bool = False


def _check_qubit(qubit: str) -> str:
    if qubit not in ("A", "B"):
        raise InvalidParameterError("qubit must be 'A' or 'B'")
    return qubit


def partial_transpose(params: HSParams, qubit: str = "A") -> HSParams:
    """Partial transpose in the Pauli picture: sigma_y -> -sigma_y on one qubit.

    Qubit A: a2 -> -a2 and the second row of t is negated; qubit B acts on b2
    and the second column.  Matches the matrix-level transpose entrywise.
    """
    _check_qubit(qubit)
    a = params.a.copy()
    b = params.b.copy()
    t = params.t.copy()
    if qubit == "A":
        a[1] = -a[1]
        t[1, :] = -t[1, :]
    else:
        b[1] = -b[1]
        t[:, 1] = -t[:, 1]
    return HSParams(a, b, t)


def partial_transpose_matrix(rho, qubit: str = "A") -> np.ndarray:
    """Matrix-level partial transpose in the computational basis."""
    _check_qubit(qubit)
    m = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    axes = (2, 1, 0, 3) if qubit == "A" else (0, 3, 2, 1)
    return m.transpose(axes).reshape(4, 4)


def ptu(params: HSParams, qubit: str = "A") -> HSParams:
    """Partial transpose followed by a 180-degree y rotation on the same qubit.

    Net effect for qubit A: a -> -a, t -> -t, b unchanged (mirror for B).
    Requires diagonal t, the only setting in which the map is used.
    """
    _check_qubit(qubit)
    tdiag = params.t_diagonal()
    if qubit == "A":
        return HSParams.diagonal(-params.a, params.b, -tdiag)
    return HSParams.diagonal(params.a, -params.b, -tdiag)


def spectra(rho, qubit: str = "A") -> tuple[np.ndarray, np.ndarray]:
    """Spectra of rho and of its partial transpose, from one stacked eigensolve.

    Each is bit for bit what eigenvalues_hermitian gives for its matrix alone:
    read-only, ascending, in 4*lambda units.
    """
    pair = np.empty((2, 4, 4), dtype=complex)
    pair[0] = require_hermitian(rho)
    return _spectra(pair, qubit)


def _spectra_of_r(r) -> tuple[np.ndarray, np.ndarray]:
    # spectra(rho_from_r(r)) for a checked R; rho, exactly Hermitian, is built in place
    pair = np.empty((2, 4, 4), dtype=complex)
    _rho_from_r(r, out=pair[0])
    return _spectra(pair, "A")


def _spectra(pair: np.ndarray, qubit: str) -> tuple[np.ndarray, np.ndarray]:
    # the spectra of rho = pair[0] and of its partial transpose, written to pair[1]
    pair[1] = partial_transpose_matrix(pair[0], qubit)
    four = _read_only(4.0 * np.linalg.eigvalsh(pair))
    return four[0], four[1]


def require_state(spectrum: np.ndarray, tol: float) -> None:
    """Raise InvalidStateError, carrying `spectrum` (4*lambda units), if an
    eigenvalue lambda is below -tol."""
    if float(spectrum[0]) / 4.0 < -tol:
        raise InvalidStateError("input is not positive semidefinite; not a state", spectrum)


def peres_horodecki(rho, tol: float = VERDICT_TOL, qubit: str = "A") -> Verdict:
    """Exact separability test: entangled iff the partial transpose dips below -tol.

    Raises InvalidStateError for inputs with an eigenvalue below -PSD_TOL;
    a verdict on a non-state would mask upstream bugs.  `tol` is the verdict
    margin only.
    """
    spectrum, pt_spectrum = spectra(rho, qubit)
    require_state(spectrum, PSD_TOL)
    return ppt_verdict(pt_spectrum, tol)


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
    t = np.asarray(tdiag, dtype=float).reshape(3)
    if not np.isfinite(t).all():
        raise InvalidParameterError("tdiag must be finite")
    return float(np.abs(t).sum()) <= 1.0 + MDS_SUM_TOL


def necessity_check(params: HSParams) -> bool:
    """Fast necessary screen: False implies entangled, True implies nothing.

    Mixing a state with its double-sign-flipped image removes the linear
    terms but keeps t, so separability forces the correlation sum condition
    even when a, b are nonzero.
    """
    return mds_criterion(params.t_diagonal())


def half_eigenvalue_criterion(rho, params: HSParams, tol: float = VERDICT_TOL) -> Verdict:
    """Separable iff every eigenvalue is <= 1/2; valid only for one-sided linear terms.

    The complement identity behind it needs a = 0 or b = 0, each decided at
    ZERO_TOL; both nonzero is a precondition violation.  `tol` is the verdict
    margin only.
    """
    a_active = float(np.abs(params.a).max()) > ZERO_TOL
    b_active = float(np.abs(params.b).max()) > ZERO_TOL
    if a_active and b_active:
        raise ContractViolationError(
            "half-eigenvalue criterion needs a = 0 or b = 0"
        )
    four_max = float(eigenvalues_hermitian(rho)[-1])
    max_lam = four_max / 4.0
    entangled = max_lam > 0.5 + tol
    return Verdict(
        kind=ENTANGLED if entangled else SEPARABLE,
        witness=2.0 - four_max,
        criterion="half-eigenvalue",
        boundary=abs(max_lam - 0.5) <= tol,
    )
