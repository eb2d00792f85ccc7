"""Lorentz boost matrices and their two-sided action on R.

A boost L satisfies L^T eta L = eta with eta = diag(1, -1, -1, -1) and
det L = 1.  Two forms are used: a boost confined to the (0, axis) plane,
and the general symmetric boost built from a velocity 3-vector beta with
gamma = (1 - beta^2)^(-1/2) and spatial block I + X beta beta^T,
X = (gamma - 1)/beta^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoostLimitError, InvalidParameterError
from .rmatrix import _as_r

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

# Boosts closer to light speed than this raise, signalling a non-generic state.
BETA_LIMIT = 1e-9


def _gamma(beta_sq: float) -> float:
    return 1.0 / math.sqrt(1.0 - beta_sq)


def boost_x(beta: float, axis: int = 1, beta_limit: float = BETA_LIMIT) -> np.ndarray:
    """4x4 boost with block [[g, -g b], [-g b, g]] on indices (0, axis)."""
    if axis not in (1, 2, 3):
        raise InvalidParameterError("axis must be 1, 2 or 3")
    if not math.isfinite(beta):
        raise InvalidParameterError("beta must be finite")
    if abs(beta) >= 1.0 - beta_limit:
        raise BoostLimitError(
            f"|beta| = {abs(beta):.12g} reaches the light-speed limit", beta=beta
        )
    g = _gamma(beta * beta)
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = g
    m[0, axis] = m[axis, 0] = -g * beta
    return m


def boost_general(beta, beta_limit: float = BETA_LIMIT) -> np.ndarray:
    """The symmetric boost for a velocity 3-vector; reduces to boost_x on an axis."""
    v = np.asarray(beta, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise InvalidParameterError("beta must be finite")
    beta_sq = float(v @ v)
    if beta_sq >= (1.0 - beta_limit) ** 2:
        raise BoostLimitError(
            f"|beta| = {math.sqrt(beta_sq):.12g} reaches the light-speed limit",
            beta=math.sqrt(beta_sq),
        )
    g = _gamma(beta_sq)
    x = g * g / (g + 1.0)
    m = np.empty((4, 4))
    m[0, 0] = g
    m[0, 1:] = -g * v
    m[1:, 0] = -g * v
    m[1:, 1:] = np.eye(3) + x * np.outer(v, v)
    return m


def apply_two_sided(r, left, right) -> np.ndarray:
    """Return left @ R @ right^T.

    The left factor acts on qubit B and the right factor on qubit A, since
    R's rows index qubit B and its columns qubit A (see rmatrix).  The right
    factor is transposed internally so callers always pass plain boost
    matrices regardless of which side they act on.
    """
    return _as_r(left, "boost factor") @ _as_r(r) @ _as_r(right, "boost factor").T
