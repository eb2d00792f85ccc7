"""Real roots of a real polynomial of degree at most four.

The roots come from one eigensolve of the monic companion matrix.  Its
eigenvalues are the exact roots of a polynomial whose coefficients are off
by a small multiple of machine precision (Edelman & Murakami, Math. Comp.
64, 763, 1995), so every real root has an eigenvalue near it.  The
eigenvalues within a relative _REAL_AXIS_TOL of the real axis seed Newton's
method on the polynomial; that band keeps the pair a triple root splits
into, about eps^(1/3) off the axis.  A polished value is kept only if it
passes the residual bound, and sorted neighbours whose midpoint passes it
too are one (multiple) root, reported once as their mean.

Newton runs on Python floats: the coefficients are converted once, and the
IEEE operations are the ones numpy scalars would do, only cheaper.  Near a
root, Newton in floating point often settles into an exact cycle among
neighbouring floats; the polish detects any repeated iterate and returns the
float the full step budget would have ended on, instead of spending the
remaining steps going round the cycle.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidParameterError

_REAL_AXIS_TOL = 1e-4
_ROOT_RESIDUAL_TOL = 1e-12
_MAX_POLISH_STEPS = 40


def _eval_with_derivative(coeffs, x: float) -> tuple[float, float]:
    # Horner evaluation of p(x) and p'(x); coeffs ordered highest power first.
    p = 0.0
    dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _polish(coeffs, x: float, steps: int = _MAX_POLISH_STEPS) -> float:
    # Newton iteration from an eigenvalue seed.  Usually one or two steps
    # suffice; a small root next to large ones can start well off in relative
    # terms, so iterate to a fixed point.
    # The step depends on x alone, so once an iterate repeats an earlier one
    # the rest of the loop goes round that cycle: return the iterate the last
    # step would reach, found from the cycle's start and length.
    seen = [x]
    for _ in range(steps):
        p, dp = _eval_with_derivative(coeffs, x)
        if p == 0.0 or dp == 0.0 or not math.isfinite(p):
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x -= step
        if x in seen:
            start = seen.index(x)
            return seen[start + (steps - start) % (len(seen) - start)]
        seen.append(x)
    return x


def _is_root(monic, x: float) -> bool:
    # |p(x)| <= _ROOT_RESIDUAL_TOL * sum |c_k| |x|^k, both by Horner and both
    # finite; subnormal arithmetic cannot meet a relative bound, so it is at
    # least the smallest normal double (x^2 + 4x + 2e-313 keeps its root near
    # -5.6e-314)
    p = 0.0
    m = 0.0
    ax = abs(x)
    for c in monic:
        p = p * x + c
        m = m * ax + abs(c)
    if not (math.isfinite(p) and math.isfinite(m)):
        return False
    return abs(p) <= max(_ROOT_RESIDUAL_TOL * m, sys.float_info.min)


def real_roots(coefficients) -> np.ndarray:
    """All real roots of a real polynomial of degree <= 4, sorted ascending.

    Coefficients are ordered highest power first; exact leading zeros lower
    the degree.  The roots are Newton-polished companion-matrix eigenvalues,
    and each value returned satisfies |p(x)| <= 1e-12 * sum |c_k| |x|^k on the
    monic polynomial (or |p(x)| is below the smallest normal double).
    Neighbouring roots between which p stays that small are one multiple
    root and appear once.  An empty array is a valid result.  A leading
    coefficient so small that the monic coefficients overflow is rejected.
    """
    c = np.asarray(coefficients, dtype=float).ravel().tolist()
    if not c:
        raise InvalidParameterError("empty coefficient list")
    if not all(map(math.isfinite, c)):
        raise InvalidParameterError("coefficients must be finite")
    lead = next((i for i, x in enumerate(c) if x != 0.0), None)
    if lead is None:
        raise InvalidParameterError("zero polynomial has no defined root set")
    degree = len(c) - 1 - lead
    if degree > 4:
        raise InvalidParameterError("only degrees up to four are supported")
    if degree == 0:
        return np.array([])
    monic = [x / c[lead] for x in c[lead:]]
    if not all(map(math.isfinite, monic)):
        raise InvalidParameterError("leading coefficient too small: the monic form overflows")
    # ones on the subdiagonal, the negated monic coefficients on the first row
    companion = [[-x for x in monic[1:]]]
    companion += [[float(i == j) for j in range(degree)] for i in range(degree - 1)]
    seeds = [
        z.real
        for z in np.linalg.eigvals(companion).tolist()
        if abs(z.imag) <= _REAL_AXIS_TOL * abs(z)
    ]
    found = sorted(x for x in (_polish(monic, s) for s in seeds) if _is_root(monic, x))
    clusters: list[list[float]] = []
    for x in found:
        if clusters and _is_root(monic, 0.5 * (clusters[-1][-1] + x)):
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return np.array([sum(cluster) / len(cluster) for cluster in clusters])
