"""Closed-form real-root extraction for polynomials up to degree four.

The boost solvers only ever need the real roots, and the coefficient spread
can be large (leading terms near unity against constants a few orders
smaller), so each closed-form root gets a couple of Newton corrections on
the original polynomial before it is returned.

All of this runs on Python floats: the coefficients are converted once, and
the IEEE operations are the ones numpy scalars would do, so the roots are
the same bits, only cheaper to get.  Near a root, Newton in floating point
often settles into an exact two-cycle between neighbouring floats; the
polish detects it and returns the float the full step budget would have
ended on, instead of spending the remaining steps bouncing.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidParameterError

_LEAD_TOL = 1e-14
_CLUSTER_TOL = 1e-8
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
    # Newton iteration from the closed-form seed.  Usually one or two steps
    # suffice; widely spread roots (ratios beyond ~1e6) can leave the
    # resolvent seed several percent off, so iterate to a fixed point.
    # The step depends on x alone, so once x_new equals the iterate of two
    # steps back the rest of the loop alternates x_new, x, x_new, ...: return
    # the one the last step would reach, chosen by the parity of the steps left.
    prev = math.nan
    for i in range(steps):
        p, dp = _eval_with_derivative(coeffs, x)
        if p == 0.0 or dp == 0.0 or not math.isfinite(p):
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x_new = x - step
        if x_new == x:
            break
        if x_new == prev:
            return x_new if (steps - i) % 2 == 1 else x
        prev, x = x, x_new
    return x


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _quadratic(b: float, c: float) -> list[float]:
    # Monic x^2 + b x + c; stable form avoiding cancellation.
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    if q == 0.0:
        # b == 0 and disc == 0, i.e. x^2 = 0
        return [0.0, 0.0]
    return [q, c / q]


def _cubic(b: float, c: float, d: float) -> list[float]:
    # Monic x^3 + b x^2 + c x + d, depressed to t^3 + p t + q.
    shift = -b / 3.0
    p = c - b * b / 3.0
    q = d + 2.0 * b ** 3 / 27.0 - b * c / 3.0
    if p == 0.0 and q == 0.0:
        return [shift]
    disc = -4.0 * p ** 3 - 27.0 * q * q
    if disc >= 0.0 and p < 0.0:
        # three real roots, trigonometric form
        m = 2.0 * math.sqrt(-p / 3.0)
        den = p * m
        # den underflows to -0.0 only for |p| < 1e-216; q / den is then -inf,
        # +inf or nan, which the clamp maps to -1, 1 and -1
        arg = 3.0 * q / den if den != 0.0 else (1.0 if q < 0.0 else -1.0)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg) / 3.0
        return [m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    s = math.sqrt(max(q * q / 4.0 + p ** 3 / 27.0, 0.0))
    return [_cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s) + shift]


def _quartic(b: float, c: float, d: float, e: float) -> list[float]:
    # Monic quartic via the resolvent-cubic factorization into two quadratics.
    shift = -b / 4.0
    b2 = b * b
    p = c - 3.0 * b2 / 8.0
    q = d - b * c / 2.0 + b2 * b / 8.0
    r = e - b * d / 4.0 + b2 * c / 16.0 - 3.0 * b2 * b2 / 256.0
    roots: list[float] = []
    q_scale = max(1.0, abs(p), abs(r))
    big_u = 0.0
    if abs(q) > _LEAD_TOL * q_scale:
        # U = u^2 solves U^3 + 2p U^2 + (p^2 - 4r) U - q^2 = 0 and the largest
        # root is positive in exact arithmetic (value at 0 is -q^2 < 0).  A
        # tiny positive root can round negative, so refine it on the
        # resolvent before accepting.
        res = (1.0, 2.0 * p, p * p - 4.0 * r, -q * q)
        candidates = [_polish(res, u) for u in _cubic(res[1], res[2], res[3])]
        big_u = max((u for u in candidates if u > 0.0), default=0.0)
    if big_u > 0.0:
        u = math.sqrt(big_u)
        v = 0.5 * (p + big_u - q / u)
        w = 0.5 * (p + big_u + q / u)
        roots.extend(_quadratic(u, v))
        roots.extend(_quadratic(-u, w))
    else:
        # q is negligible at working precision: treat as the biquadratic
        # y^4 + p y^2 + r; the final polish absorbs the dropped linear term
        for z in _quadratic(p, r):
            if z >= 0.0:
                roots.extend((math.sqrt(z), -math.sqrt(z)))
    return [y + shift for y in roots]


def _closed_form(monic) -> list[float]:
    degree = len(monic) - 1
    if degree == 1:
        return [-monic[1]]
    if degree == 2:
        return _quadratic(monic[1], monic[2])
    if degree == 3:
        return _cubic(monic[1], monic[2], monic[3])
    return _quartic(monic[1], monic[2], monic[3], monic[4])


def _deflate(coeffs, root: float) -> list[float]:
    # forward synthetic division; stable when dividing out large roots first
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def _is_root(monic, x: float) -> bool:
    # |p(x)| <= _ROOT_RESIDUAL_TOL * sum |c_k| |x|^k, both by Horner; subnormal
    # arithmetic cannot meet a relative bound, so it is at least the smallest
    # normal double (x^2 + 4x + 2e-313 keeps its root near -5.6e-314)
    p = 0.0
    m = 0.0
    ax = abs(x)
    for c in monic:
        p = p * x + c
        m = m * ax + abs(c)
    bound = max(_ROOT_RESIDUAL_TOL * m, sys.float_info.min)
    return math.isfinite(x) and abs(p) <= bound


def _polished_roots(monic, seeds) -> list[float]:
    polished = (_polish(monic, x) for x in seeds)
    return [x for x in polished if _is_root(monic, x)]


def _cluster(values, monic) -> list[float]:
    merged: list[float] = []
    for x in sorted(values):
        if merged and abs(x - merged[-1]) <= _CLUSTER_TOL * max(1.0, abs(x)):
            # keep the better of two near-coincident representatives
            if abs(_eval_with_derivative(monic, x)[0]) < abs(
                _eval_with_derivative(monic, merged[-1])[0]
            ):
                merged[-1] = x
        else:
            merged.append(x)
    return merged


def _reduced_roots(c: np.ndarray, scale: float) -> list[float]:
    # real roots of c without its leading coefficients below _LEAD_TOL * scale
    start = 0
    while start < c.size - 1 and abs(c[start]) < _LEAD_TOL * scale:
        start += 1
    c = c[start:]
    degree = c.size - 1
    if degree > 4:
        raise InvalidParameterError("only degrees up to four are supported")
    if degree == 0:
        return []
    monic = (c / c[0]).tolist()
    candidates = _cluster((_polish(monic, x) for x in _closed_form(monic)), monic)
    merged = [x for x in candidates if _is_root(monic, x)]
    if 0 < len(candidates) < degree:
        # A cancellation inside the factorization can drop a close real pair
        # entirely (it cannot be polished back because it was never emitted).
        # Divide out the candidates, largest first, and mine the low-degree
        # quotient for seeds; like every candidate, these count only if they
        # satisfy the residual bound on the original polynomial.
        quotient = monic
        for r in sorted(candidates, key=abs, reverse=True):
            quotient = _deflate(quotient, r)
        if len(quotient) >= 2:
            extra = _polished_roots(monic, _closed_form(quotient))
            if extra:
                merged = _cluster(merged + extra, monic)
    if not merged and degree % 2 == 1:
        # A real polynomial of odd degree has a real root.  The closed form
        # can lose it when powers of tiny or huge coefficients under- or
        # overflow; the companion-matrix eigenvalues do not.
        merged = _cluster(_polished_roots(monic, np.roots(monic).real.tolist()), monic)
    return merged


def real_roots(coefficients) -> np.ndarray:
    """All real roots of a real polynomial of degree <= 4, sorted ascending.

    Coefficients are ordered highest power first.  Leading coefficients that
    are negligible against the largest coefficient reduce the degree; the
    large roots this drops are the reciprocals of the roots of the reversed
    polynomial outside [-1e-8, 1e-8] (those inside stand for roots at
    infinity).  Roots are Newton-polished and near-coincident roots (within
    1e-8) are merged, so multiple roots appear once.  Every value returned
    satisfies |p(x)| <= 1e-12 * sum |c_k| |x|^k on the polynomial it was
    found for, reduced or full (or |p(x)| is below the smallest normal
    double).  An empty array is a valid result; for odd degree it is
    returned only if the companion-matrix eigenvalues give no root either.
    """
    c = np.asarray(coefficients, dtype=float).ravel()
    if c.size == 0:
        raise InvalidParameterError("empty coefficient list")
    if not np.isfinite(c).all():
        raise InvalidParameterError("coefficients must be finite")
    scale = float(np.abs(c).max())
    if scale == 0.0:
        raise InvalidParameterError("zero polynomial has no defined root set")
    merged = _reduced_roots(c, scale)
    if abs(c[0]) < _LEAD_TOL * scale and c.size <= 5:
        full = c[np.flatnonzero(c)[0] :] / scale
        seeds = [1.0 / y for y in _reduced_roots(full[::-1], 1.0) if abs(y) > _CLUSTER_TOL]
        merged = _cluster(merged + _polished_roots(full.tolist(), seeds), full.tolist())
    return np.array(merged)
