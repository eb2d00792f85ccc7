"""Lorentz boost matrices and their two-sided action on R.

A boost L satisfies L^T eta L = eta with eta = diag(1, -1, -1, -1) and
det L = 1.  Two forms are used: a boost confined to the (0, axis) plane,
and the general symmetric boost built from a velocity 3-vector beta with
gamma = (1 - beta^2)^(-1/2) and spatial block I + X beta beta^T,
X = (gamma - 1)/beta^2.

The public functions validate their inputs; normal_form's solve path calls the
unchecked cores _boost_x, _boost_general and _two_sided on the values it built
itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoostLimitError, InvalidParameterError
from .hs import _as_real

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

# Boosts closer to light speed than this raise, signalling a non-generic state.
BETA_LIMIT = 1e-9


def _gamma(beta_sq: float) -> float:
    if not beta_sq < 1.0:  # reachable only with a beta_limit below 0
        raise BoostLimitError("|beta| reaches light speed")
    return 1.0 / math.sqrt(1.0 - beta_sq)


def boost_x(beta: float, axis: int = 1, beta_limit: float = BETA_LIMIT) -> np.ndarray:
    """4x4 boost with block [[g, -g b], [-g b, g]] on indices (0, axis)."""
    if not isinstance(axis, (int, np.integer)) or axis not in (1, 2, 3):
        raise InvalidParameterError("axis must be 1, 2 or 3")
    beta = _as_real(beta, (), "beta")
    if abs(beta) >= 1.0 - _as_real(beta_limit, (), "beta_limit"):
        raise BoostLimitError(f"|beta| = {abs(beta):.12g} reaches the light-speed limit")
    return _boost_x(beta, axis)


def _boost_x(beta: float, axis: int) -> np.ndarray:
    # boost_x on a checked float velocity within the limit and an axis 1, 2 or 3
    g = _gamma(beta * beta)
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = g
    m[0, axis] = m[axis, 0] = -g * beta
    return m


def boost_general(beta, beta_limit: float = BETA_LIMIT) -> np.ndarray:
    """The symmetric boost for a velocity 3-vector; reduces to boost_x on an axis."""
    v = _as_real(beta, (3,), "beta")
    beta_sq = float(v @ v)
    if beta_sq >= (1.0 - _as_real(beta_limit, (), "beta_limit")) ** 2:
        raise BoostLimitError(
            f"|beta| = {math.sqrt(beta_sq):.12g} reaches the light-speed limit"
        )
    return _boost_general(v.tolist(), beta_sq)


def _boost_general(vs: list[float], beta_sq: float) -> np.ndarray:
    # boost_general on a checked velocity and its numpy |beta|^2 (v @ v)
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
    return _two_sided(*(_as_real(m, (4, 4), name) for m, name in named))


def _two_sided(r: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # apply_two_sided without the input checks, for arrays the caller built
    return left @ r @ right.T
