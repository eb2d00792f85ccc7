"""The solve path's numpy-level code before it ran on unchecked cores, kept as
test references.

  * boost_general_rows: the symmetric boost built row by row with a
    comprehension per spatial row;
  * certify_lists: the certificate on the boosted R, with the spatial block
    split into nine (i, j) pairs, eigvalsh on nested lists and every Sigma
    built through SigmaForm's gate.  A boosted R with an entry that is not
    finite fails the certificate once its linear terms have passed, and so
    does a finite block whose eigensolve does not converge.

boost._boost_general and normal_form._certify must give the same bits, and
_certify the same errors.
"""

import sys

import numpy as np

from qubitsep.boost import _gamma
from qubitsep.errors import SolverInconsistencyError
from qubitsep.normal_form import OFFDIAG_TOL, SigmaForm


def boost_general_rows(vs, beta_sq):
    g = _gamma(beta_sq)
    x = g * g / (g + 1.0)
    w = [-g * vi for vi in vs]
    rows = [[g, *w]]
    for i, vi in enumerate(vs):
        rows.append([w[i], *(float(i == j) + x * (vi * vj) for j, vj in enumerate(vs))])
    return np.array(rows)


def certify_lists(q, scale):
    tol = max(OFFDIAG_TOL, 128 * sys.float_info.epsilon * scale)
    (s0, *row), *rest = q.tolist()
    offdiag = max(map(abs, row + [x[0] for x in rest]))
    if offdiag >= tol:
        raise SolverInconsistencyError(
            f"linear terms not eliminated: residual {offdiag:.3g}"
        )
    if not np.isfinite(q).all():
        raise SolverInconsistencyError("boosted R has entries that are not finite")
    block = [x[1:] for x in rest]
    pairs = [(block[i][j], block[j][i]) for i in range(3) for j in range(3)]
    if max(abs(x - y) for x, y in pairs) >= tol:
        raise SolverInconsistencyError("transformed spatial block is not symmetric")
    sym = [[0.5 * (x + y) for x, y in pairs[i : i + 3]] for i in (0, 3, 6)]
    try:
        eig = np.linalg.eigvalsh(sym).tolist()
    except np.linalg.LinAlgError:
        raise SolverInconsistencyError("boosted spatial block has no computable spectrum") from None
    return SigmaForm(s0, sorted(eig, key=lambda x: -abs(x))), offdiag
