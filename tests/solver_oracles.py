"""The solve path's numpy-level code before it ran on unchecked cores, kept as
test references.

  * boost_general_rows: the symmetric boost built row by row with a
    comprehension per spatial row;
  * certify_lists: the certificate on the boosted R, with the spatial block
    split into nine (i, j) pairs, eigvalsh on nested lists and every Sigma
    built through SigmaForm's gate.  A boosted R with an entry that is not
    finite fails the certificate once its linear terms have passed, and so
    does a finite block whose eigensolve does not converge;
  * local_rotations_packed and symmetric_rotation_packed: the two rotations of
    a full t through np.linalg.svd and np.linalg.eigh, with the reduced R
    built by pack_r from np.diag of the diagonal.

boost._boost_general, normal_form._certify, hs._local_rotations and
_symmetric_rotation must give the same bits, and _certify the same errors.
"""

import sys

import numpy as np

from qubitsep.boost import _gamma
from qubitsep.errors import SolverInconsistencyError
from qubitsep.hs import _is_reflection, pack_r
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


def local_rotations_packed(params):
    # (R, rotation_a, rotation_b), R with corner 1
    u, s, vt = np.linalg.svd(params.t)
    if _is_reflection(u):
        u[:, 2] *= -1.0
        s[2] *= -1.0
    if _is_reflection(vt):
        vt[2, :] *= -1.0
        s[2] *= -1.0
    return pack_r(u.T @ params.a, vt @ params.b, np.diag(s)), u.T, vt


def symmetric_rotation_packed(params):
    # (R, rotation), R with corner 1
    t = params.t
    w, v = np.linalg.eigh(0.5 * (t + t.T))
    if _is_reflection(v):
        v[:, 0] *= -1.0
    rot = v.T
    return pack_r(rot @ params.a, rot @ params.b, np.diag(w)), rot
