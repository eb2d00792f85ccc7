"""Lorentz boost matrices and their two-sided action on R.

A boost L satisfies L^T eta L = eta with eta = diag(1, -1, -1, -1) and
det L = 1.  Two forms are used: a boost confined to the (0, axis) plane,
and the general symmetric boost built from a velocity 3-vector beta with
gamma = (1 - beta^2)^(-1/2) and spatial block I + X beta beta^T,
X = (gamma - 1)/beta^2.

The boosts are built by normal_form's solve from velocities it has solved
for and held below the light-speed limit, so _boost_x and _boost_general take
Python floats as they are.  apply_two_sided takes matrices from outside and
checks them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoostLimitError
from .hs import _as_real

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

# Boosts closer to light speed than this raise, signalling a non-generic state.
BETA_LIMIT = 1e-9


def _gamma(beta_sq: float) -> float:
    if not beta_sq < 1.0:  # the solves, with beta_limit >= 0, never reach it
        raise BoostLimitError("|beta| reaches light speed")
    return 1.0 / math.sqrt(1.0 - beta_sq)


def _boost_x(beta: float, axis: int) -> np.ndarray:
    """4x4 boost with block [[g, -g b], [-g b, g]] on indices (0, axis), for a
    float velocity |beta| < 1 and an axis 1, 2 or 3."""
    g = _gamma(beta * beta)
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = g
    m[0, axis] = m[axis, 0] = -g * beta
    return m


def _boost_general(vs: list[float], beta_sq: float) -> np.ndarray:
    """The symmetric boost for a velocity 3-vector of floats `vs` with
    |beta|^2 = beta_sq (numpy's v @ v); on an axis it is _boost_x."""
    g = _gamma(beta_sq)
    x = g * g / (g + 1.0)
    v1, v2, v3 = vs
    w1, w2, w3 = -g * v1, -g * v2, -g * v3
    # the spatial block is eye(3) + x * outer(v, v), entry by entry on floats;
    # an off-diagonal entry adds its 0.0, which turns a product -0.0 into 0.0
    x12, x13, x23 = 0.0 + x * (v1 * v2), 0.0 + x * (v1 * v3), 0.0 + x * (v2 * v3)
    return np.array(
        [
            [g, w1, w2, w3],
            [w1, 1.0 + x * (v1 * v1), x12, x13],
            [w2, x12, 1.0 + x * (v2 * v2), x23],
            [w3, x13, x23, 1.0 + x * (v3 * v3)],
        ]
    )


def apply_two_sided(r, left, right) -> np.ndarray:
    """Return left @ R @ right^T.

    The left factor acts on qubit B and the right factor on qubit A, since
    R's rows index qubit B and its columns qubit A (see hs).  The right
    factor is transposed internally so callers always pass plain boost
    matrices regardless of which side they act on.  All three must be finite
    real 4x4 matrices (InvalidParameterError).
    """
    named = ((r, "R"), (left, "left"), (right, "right"))
    r, left, right = (_as_real(m, (4, 4), name) for m, name in named)
    return left @ r @ right.T
