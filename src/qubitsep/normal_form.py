"""Boost elimination of the linear terms of R and the diagonal normal form.

In the generic case a pair of boosts (or a single symmetric one) removes the
first row and column of R apart from the corner, leaving
Sigma = diag(s0, s1, s2, s3); separability is then exactly
|s1| + |s2| + |s3| <= s0.  This module solves for the boost velocities in
the supported families:

  * one linear pair (a_k, b_k) on a single axis  -> two rapidities,
  * symmetric states (a == b), the paper's case b): one symmetric boost,
    from the secular equation g(mu) = 0 of a rank-one-modified diagonal
    matrix, which stands for the paper's cubic (two pairs) or quartic (three
    pairs); axes whose t values tie share one pole,

classifies the structurally non-generic states for which the required boost
degenerates to light speed (at t = 0 by the lengths of a and b, so in any
direction), and certifies every solve by re-applying the boost and checking
that the eliminated entries actually vanished.  Each solve
reports the residual its own tolerance accepted: the pair conditions against
_PAIR_RESIDUAL_TOL, |g(mu)| against _FUNDAMENTAL_TOL.

solve_normal_form is the whole route for any HSParams, one function per
stage.  It reads t's diagonality once and, where t is not diagonal, turns it
diagonal by proper local rotations: one shared rotation for a symmetric state,
so that case b) still applies.  It classifies, solves case a) with _solve_pair
and case b) with _solve_symmetric, builds the boosts with boost._boost_x or
_boost_general and certifies the boosted R with _certify, the rules of
eliminate_and_diagonalize, without re-checking the arrays it built itself;
the certificate's 3x3 eigensolve is hs._eigvalsh, numpy's LAPACK gufunc
without the np.linalg wrapper, whose LinAlgError on a block that does not
converge becomes SolverInconsistencyError.  Its report holds the diagonal-t
params it solved (reduced) and a note naming the rotation.  On the way it
checks one scalar, beta_limit (in [0, 1), _beta_limit), and
separability_verdict checks tol (>= 0, pt._verdict_tol).
solve_pair_general and solve_symmetric, for values from outside, check their
input and call _solve_pair and _solve_symmetric, the cores the solve calls
on the floats it read from its own params.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boost import BETA_LIMIT, _boost_general, _boost_x, apply_two_sided
from .errors import (
    BoostLimitError,
    InvalidParameterError,
    NoPhysicalBoostError,
    SolverInconsistencyError,
)
from .hs import (
    ZERO_TOL,
    HSParams,
    _as_real,
    _eigvalsh,
    _local_rotations,
    _read_only,
    _symmetric_rotation,
    r_from_hs,
)
from .pt import ENTANGLED, SEPARABLE, VERDICT_TOL, Verdict, _verdict_tol

# Not called here; perfbench/tracing.py wraps this name on this module.
from .roots import real_roots  # noqa: F401

GENERIC = "generic"
NON_GENERIC_A = "non-generic-a"
NON_GENERIC_B = "non-generic-b"
NON_GENERIC_C = "non-generic-c"
NON_GENERIC_D = "non-generic-d"
NO_PHYSICAL_BOOST = "no-physical-boost"

OFFDIAG_TOL = 1e-9
_STRUCTURAL_TOL = 1e-9
_PAIR_RESIDUAL_TOL = 1e-12
# a root of the symmetric solve is physical only if |g(mu)| is at most this
_FUNDAMENTAL_TOL = 1e-10
# a denominator at or below this counts as zero: 1 +- t1 of the pair (its rapidity
# is then free) and mu + t_j of the symmetric boost (the velocity would diverge)
_DENOM_TOL = 1e-12
# cap on the Newton steps of the symmetric solve; sampled states take 2 to 8
_NEWTON_STEPS = 64


@dataclass(frozen=True, eq=False)
class SigmaForm:
    """The diagonal normal form: corner value s0 > 0 and spatial values s."""

    s0: float
    s: np.ndarray

    def __post_init__(self):
        s0 = _as_real(self.s0, (), "s0")
        if not s0 > 0.0:
            raise InvalidParameterError("s0 must be finite and positive")
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s", _read_only(_as_real(self.s, (3,), "s")))

    @property
    def tprime(self) -> np.ndarray:
        """Normalized diagonal values t'_i = s_i / s0."""
        return self.s / self.s0

    @property
    def tprime_sum(self) -> float:
        """|t'_1| + |t'_2| + |t'_3|, the quantity the verdict compares to 1."""
        # on floats, left to right: numpy's sum of the three, bit for bit
        s0, (x, y, z) = self.s0, self.s.tolist()
        return abs(x / s0) + abs(y / s0) + abs(z / s0)


@dataclass(frozen=True)
class Classification:
    kind: str
    detail: str = ""

    @property
    def is_generic(self) -> bool:
        return self.kind == GENERIC


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything a solve produced, including its numerical certificates."""

    classification: Classification
    boost_kind: str  # "none" | "pair" | "symmetric"
    betas: tuple[float, ...]
    axis: int | None
    # the residual the solve's own tolerance accepted. pair: the larger of the
    # two elimination conditions (at most _PAIR_RESIDUAL_TOL); symmetric:
    # |g(mu)| at the root (at most _FUNDAMENTAL_TOL; 0.0 with no linear
    # terms); none: nan
    polynomial_residual: float
    offdiag_residual: float
    sigma: SigmaForm | None
    # the params solved, with an exactly diagonal t, and a note naming the
    # rotation that made t diagonal (None when it already was)
    reduced: HSParams
    note: str | None


def solve_pair_general(
    a1: float, b1: float, t1: float, beta_limit: float = BETA_LIMIT
) -> tuple[tuple[float, float], float]:
    """Boost velocities (beta_a, beta_b) eliminating a single linear pair, and
    the residual its certificate accepted.

    The two elimination conditions

        -beta_b + b1 beta_a beta_b + a1 - beta_a t1 = 0
        -beta_a + a1 beta_a beta_b + b1 - beta_b t1 = 0

    are hyperbolic rotations of the block [[1, a1], [b1, t1]]: their sum and
    difference fix the sum and difference of the rapidities phi = atanh(beta),

        tanh(phi_a + phi_b) = (a1 + b1) / (1 + t1),
        tanh(phi_b - phi_a) = (a1 - b1) / (1 - t1).

    The numbers 1 +- t1 +- (a1 +- b1) are the diagonal of 4 rho in the
    sigma_k x sigma_k eigenbasis, so for a state no ratio exceeds 1 in modulus,
    and 1 is light speed: above 1 NoPhysicalBoostError, at 1 BoostLimitError.
    A denominator at most _DENOM_TOL leaves its rapidity free; it takes the
    other one's value, so phi_a = 0.  Each velocity must stay below
    1 - beta_limit, and the pair must pass its elimination certificate: the
    larger of the two conditions above, returned as the residual, must be at
    most _PAIR_RESIDUAL_TOL.

    beta_a is named for the term it eliminates, a1, not for the qubit it
    acts on: solve_normal_form certifies with the boost _boost_x(beta_a, k)
    as the left factor of R, which acts on qubit B, and _boost_x(beta_b, k)
    as the right factor, which acts on qubit A (see hs).  On rho,
    _boost_x(beta, k) is the filter F = cosh(eta/2) I - sinh(eta/2) sigma_k,
    eta = atanh(beta).
    """
    a1, b1, t1 = _as_real(a1, (), "a1"), _as_real(b1, (), "b1"), _as_real(t1, (), "t1")
    return _solve_pair(a1, b1, t1, _beta_limit(beta_limit))


def _beta_limit(beta_limit) -> float:
    # a beta_limit from outside: through the gate, and in [0, 1).  At 1 or above
    # no |beta| < 1 - beta_limit is left and every boost would fail; below 0 it
    # admits only |beta| within rounding of 1, which the boost cannot take.
    beta_limit = _as_real(beta_limit, (), "beta_limit")
    if not 0.0 <= beta_limit < 1.0:
        raise InvalidParameterError("beta_limit must be finite and in [0, 1)")
    return beta_limit


def _solve_pair(a1: float, b1: float, t1: float, beta_limit: float):
    # solve_pair_general on checked finite floats
    total = _rapidity(a1 + b1, 1.0 + t1, "(a1 + b1)/(1 + t1)")
    diff = _rapidity(a1 - b1, 1.0 - t1, "(a1 - b1)/(1 - t1)")
    total = diff if total is None else total
    diff = total if diff is None else diff
    beta_a, beta_b = math.tanh((total - diff) / 2.0), math.tanh((total + diff) / 2.0)
    for name, beta in (("beta_a", beta_a), ("beta_b", beta_b)):
        if abs(beta) >= 1.0 - beta_limit:
            raise BoostLimitError(f"{name} = {beta:.12g} reaches the light-speed limit")
    residual = _pair_residual(a1, b1, t1, beta_a, beta_b)
    if residual > _PAIR_RESIDUAL_TOL:
        raise SolverInconsistencyError("pair solve failed its elimination certificate")
    return (beta_a, beta_b), residual


def _rapidity(num: float, den: float, name: str) -> float | None:
    # atanh(num / den), or None where |den| <= _DENOM_TOL leaves it free
    if abs(num) > abs(den):
        raise NoPhysicalBoostError("no real boost solves the elimination conditions")
    if abs(den) <= _DENOM_TOL:
        return None
    ratio = num / den
    if abs(ratio) >= 1.0:
        raise BoostLimitError(f"{name} = {ratio:.12g} reaches light speed")
    return math.atanh(ratio)


def _pair_residual(a1, b1, t1, beta_a, beta_b) -> float:
    e1 = -beta_b + b1 * beta_a * beta_b + a1 - beta_a * t1
    e2 = -beta_a + a1 * beta_a * beta_b + b1 - beta_b * t1
    return max(abs(e1), abs(e2))


def solve_symmetric(a, tdiag, beta_limit: float = BETA_LIMIT) -> tuple[np.ndarray, float]:
    """Case b): the velocity 3-vector of the one symmetric boost that removes
    the linear terms a = b, and the residual |g(mu)| at the accepted root.

    With mu = a_1/beta_1 - t_1 the coupled velocities are
    beta_j = a_j / (mu + t_j), and the fundamental identity
    (a_1 - beta_1 t_1)/beta_1 = 1 - a.beta becomes the secular equation

        g(mu) = mu - 1 + sum_j a_j^2 / (mu + t_j) = 0

    of a rank-one-modified diagonal matrix (Golub 1973).  Axes with equal t
    share one pole of weight w_v = sum of their a_j^2, so exact ties merge;
    zero a_j drop out, and a zero vector gives zero velocities (residual 0).
    Cleared of its denominators, g is the Moebius image of the paper's
    quadratic, cubic or quartic in beta_1 (see tests/paper_formulas.py); the
    solve never forms that polynomial.

    A root mu is an eigenvalue of R eta with eigenvector (1, beta), and
    g'(mu) = 1 - |beta|^2.  R eta is eta-self-adjoint, so eigenvectors of
    distinct roots are eta-orthogonal, which two timelike vectors never are:
    at most one root has |beta| < 1.  For a state it is s0 >= |s_i|, the
    largest root: above every pole, where g is convex, and below 1, as
    g > mu - 1 there.  So Newton's method on g from mu = 1 steps down onto it
    monotonically.  A top pole at or above mu = 1, a step within _DENOM_TOL of
    it, an iterate with g' <= 0, |g(mu)| > _FUNDAMENTAL_TOL or
    |beta| >= 1 - beta_limit raise NoPhysicalBoostError, as does a non-state
    whose root with |beta| < 1 lies between two poles.  The velocities are in
    the caller's axes; the residual is the |g(mu)| just compared with
    _FUNDAMENTAL_TOL, so it is finite and at most that.
    """
    av, tv = _as_real(a, (3,), "a"), _as_real(tdiag, (3,), "tdiag")
    return _solve_symmetric(av.tolist(), tv.tolist(), _beta_limit(beta_limit))[:2]


def _secular(values, weights, mu: float) -> tuple[float, float]:
    # g(mu) and g'(mu); w / d / d, since d * d may underflow to zero
    g, dg = mu - 1.0, 1.0
    for v, w in zip(values, weights):
        d = mu + v
        g += w / d
        dg -= w / d / d
    return g, dg


def _no_root(beta_limit: float) -> NoPhysicalBoostError:
    return NoPhysicalBoostError(
        "no real root gives a boost with |beta| < 1 - beta_limit "
        f"= {1.0 - beta_limit:.12g} satisfying the fundamental identity"
    )


def _solve_symmetric(a: list[float], tdiag: list[float], beta_limit: float):
    # solve_symmetric on checked finite floats, plus the boost's |beta|^2
    pole_weights: dict[float, float] = {}
    for aj, tj in zip(a, tdiag):
        if aj != 0.0:
            pole_weights[tj] = pole_weights.get(tj, 0.0) + aj * aj
    if not pole_weights:
        return np.zeros(3), 0.0, 0.0
    values = sorted(pole_weights)
    weights = [pole_weights[v] for v in values]
    mu, steps = 1.0, 0
    while mu + values[0] > _DENOM_TOL:
        g, dg = _secular(values, weights, mu)
        if g <= 0.0 or dg <= 0.0 or steps == _NEWTON_STEPS or not mu - g / dg < mu:
            break
        mu, steps = mu - g / dg, steps + 1
    else:
        raise _no_root(beta_limit)
    if dg > 0.0 and abs(g) <= _FUNDAMENTAL_TOL:
        betas = np.array([aj / (mu + tj) if aj != 0.0 else 0.0 for aj, tj in zip(a, tdiag)])
        # numpy's dot (a float sum rounds differently): the |beta|^2 that
        # _boost_general builds the boost from
        beta_sq = float(betas @ betas)
        if beta_sq < (1.0 - beta_limit) ** 2:
            return betas, abs(g), beta_sq
    raise _no_root(beta_limit)


def eliminate_and_diagonalize(r, left, right) -> tuple[SigmaForm, float]:
    """Apply two Lorentz factors to R, certify the elimination, read off Sigma.

    `left` acts on qubit B and `right` on qubit A (left @ R @ right^T, see
    hs); apply_two_sided checks that all three are finite real 4x4
    matrices.  The certificate: the boosted linear terms and the asymmetry of
    the boosted spatial block must both stay below OFFDIAG_TOL, or below the
    rounding bound of the product where that is larger, every boosted entry
    must be finite and the symmetric block's eigensolve must converge, else
    SolverInconsistencyError; the corner s0 must be positive (SigmaForm).
    The symmetric 3x3 block is diagonalized by a rotation and its eigenvalues
    are ordered by descending magnitude (stably, for reproducibility).
    Returns Sigma and the largest boosted linear term.
    """
    q = apply_two_sided(r, left, right)
    return _certify(q, math.prod(float(np.abs(m).max()) for m in (left, r, right)))


def _certify(q: np.ndarray, scale: float) -> tuple[SigmaForm, float]:
    # eliminate_and_diagonalize's certificate on the boosted R; solve_normal_form
    # passes the product of arrays it built itself, so it skips the input checks.
    # scale = max|left| max|R| max|right| bounds every entry of |left| |R| |right^T|
    # by 16 scale, and each of the two products of inner size 4 rounds an entry by
    # at most 4 eps times that (Higham's gamma_4), so 128 eps scale bounds the
    # rounding (seen: 2.8 eps scale); it passes OFFDIAG_TOL only past scale 3.5e4
    tol = max(OFFDIAG_TOL, 128 * sys.float_info.epsilon * scale)
    rows = q.tolist()
    (s0, r1, r2, r3), (c1, q11, q12, q13), (c2, q21, q22, q23), (c3, q31, q32, q33) = rows
    # Python's max keeps a nan only in first place, so a nan residual r1 passes
    # this test and is caught by the next one
    offdiag = max(abs(r1), abs(r2), abs(r3), abs(c1), abs(c2), abs(c3))
    if offdiag >= tol:
        raise SolverInconsistencyError(
            f"linear terms not eliminated: residual {offdiag:.3g}"
        )
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise SolverInconsistencyError("boosted R has entries that are not finite")
    if max(abs(q12 - q21), abs(q13 - q31), abs(q23 - q32)) >= tol:
        raise SolverInconsistencyError("transformed spatial block is not symmetric")
    # the mean of the block and its transpose; x + x can overflow where x cannot
    h12, h13, h23 = 0.5 * (q12 + q21), 0.5 * (q13 + q31), 0.5 * (q23 + q32)
    sym = np.array(
        [
            [0.5 * (q11 + q11), h12, h13],
            [h12, 0.5 * (q22 + q22), h23],
            [h13, h23, 0.5 * (q33 + q33)],
        ]
    )
    try:
        s = _eigvalsh(sym).tolist()
    except np.linalg.LinAlgError:  # a finite block with entries near the float limit
        raise SolverInconsistencyError("boosted spatial block has no computable spectrum") from None
    s.sort(key=lambda x: -abs(x))
    if not (s0 > 0.0 and all(map(math.isfinite, s))):
        SigmaForm(s0, s)  # raises the error of the gate the unchecked form skips
    sigma = object.__new__(SigmaForm)
    object.__setattr__(sigma, "s0", s0)
    object.__setattr__(sigma, "s", _read_only(np.array(s)))
    return sigma, offdiag


def separability_verdict(sigma: SigmaForm, tol: float = VERDICT_TOL) -> Verdict:
    """Separable iff |s1| + |s2| + |s3| <= s0, i.e. sum |t'_i| <= 1.

    tol must be finite and >= 0 (InvalidParameterError)."""
    tol = _verdict_tol(tol)
    witness = sigma.tprime_sum - 1.0
    return Verdict(
        kind=ENTANGLED if witness > tol else SEPARABLE,
        witness=witness,
        criterion="lorentz-normal-form",
        boundary=abs(witness) <= tol,
    )


_GENERIC = Classification(GENERIC)
_CASE_C = Classification(
    NON_GENERIC_C,
    "symmetric half-strength pair with vanishing axis correlation (boundary "
    "|2a| = |1 + t1|); the label fixes no verdict, the exact test decides "
    "(see ppt_verdict)",
)


def _match_non_generic(a: list[float], b: list[float], tdiag: list[float]):
    """Structural match of the four normalized light-speed cases, or None.

    Takes the linear vectors and the diagonal of t as lists of floats.
    Detection runs before any solver so these states never surface as opaque
    boost-limit failures.
    """
    tol = _STRUCTURAL_TOL
    # with t = 0 every direction is an axis, so cases a) to c) read lengths
    t_zero = max(map(abs, tdiag)) <= tol
    if t_zero and max(map(abs, b)) <= tol and abs(math.hypot(*a) - 1.0) <= tol:
        return Classification(
            NON_GENERIC_A,
            "qubit A pure with qubit B maximally mixed; the eliminating "
            "boost for B degenerates to light speed; known verdict: separable",
        )
    if t_zero and max(map(abs, a)) <= tol and abs(math.hypot(*b) - 1.0) <= tol:
        return Classification(
            NON_GENERIC_B,
            "qubit B pure with qubit A maximally mixed; the eliminating "
            "boost for A degenerates to light speed; known verdict: separable",
        )
    if max(abs(x - y) for x, y in zip(a, b)) <= tol:
        if t_zero and abs(math.hypot(*a) - 0.5) <= tol:
            return _CASE_C
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            if abs(a[i]) > tol or abs(a[j]) > tol or abs(a[k]) <= tol:
                continue
            if (
                abs(abs(a[k]) - 0.5) <= tol
                and abs(tdiag[k]) <= tol
                and abs(tdiag[i] - tdiag[j]) <= tol
            ):
                return _CASE_C
            if (
                abs(abs(a[k]) - 1.0) <= tol
                and abs(tdiag[k] - 1.0) <= tol
                and abs(tdiag[i]) <= tol
                and abs(tdiag[j]) <= tol
            ):
                return Classification(
                    NON_GENERIC_D,
                    "symmetric unit pair with unit axis correlation (boundary "
                    "|2a| = |1 + t1|); both qubits pure, so the state is a pure "
                    "product; known verdict: separable",
                )
    return None


def _no_boost_report(
    classification: Classification, reduced: HSParams, note: str | None
) -> SolveReport:
    return SolveReport(
        classification=classification,
        boost_kind="none",
        betas=(),
        axis=None,
        polynomial_residual=math.nan,
        offdiag_residual=math.nan,
        sigma=None,
        reduced=reduced,
        note=note,
    )


def solve_normal_form(
    params: HSParams,
    beta_limit: float = BETA_LIMIT,
) -> SolveReport:
    """The Lorentz route for any params: diagonalize t, classify, solve, certify.

    A t that is not diagonal is diagonalized by proper local rotations: one
    shared rotation for a symmetric state (a == b, t symmetric), so that the
    symmetric boost still applies, and independent ones on the two qubits
    otherwise.  The report holds the params solved (`reduced`, params itself
    when t was diagonal) and a `note` naming the rotation, or None.

    Dispatches on the pattern of active linear terms: none or one active axis
    is the zero boost or one linear pair, several are the symmetric boost of
    case b) (ties in t included, see solve_symmetric) or, for a non-symmetric
    state, outside the supported families.  Solver failures that mean "no
    physical boost exists" are folded into the classification; certificate
    failures propagate, since they indicate a numerical bug rather than a
    non-generic state.
    """
    beta_limit = _beta_limit(beta_limit)
    note = None
    if not params.is_t_diagonal():
        # is_symmetric covers t's symmetry, so the shared rotation needs no
        # check; its params, with the rotated a as both a and b, pass it again
        if params.is_symmetric():
            params = _symmetric_rotation(params)[0]
            note = (
                "correlation matrix diagonalized by one shared local rotation "
                "(symmetric state preserved)"
            )
        else:
            params = _local_rotations(params)[0]
            note = "correlation matrix diagonalized by local rotations"
    a, b, tdiag = params.a.tolist(), params.b.tolist(), params.t.diagonal().tolist()
    structural = _match_non_generic(a, b, tdiag)
    if structural is not None:
        return _no_boost_report(structural, params, note)
    active = [abs(x) > ZERO_TOL or abs(y) > ZERO_TOL for x, y in zip(a, b)]
    n_active = sum(active)
    if n_active >= 2 and not params.is_symmetric():
        return _no_boost_report(
            Classification(
                NO_PHYSICAL_BOOST,
                "outside the supported boost families: more than one "
                "axis carries linear terms and the state is not symmetric",
            ),
            params,
            note,
        )
    try:
        if n_active == 1:
            k = active.index(True)
            betas, poly = _solve_pair(a[k], b[k], tdiag[k], beta_limit)
            left, right = _boost_x(betas[0], k + 1), _boost_x(betas[1], k + 1)
            boost_kind, axis = "pair", k + 1
        else:
            # an inactive axis may still carry a nonzero |a_i|
            linear = [x if on else 0.0 for x, on in zip(a, active)]
            velocity, poly, beta_sq = _solve_symmetric(linear, tdiag, beta_limit)
            betas = velocity.tolist()
            left = right = _boost_general(betas, beta_sq)
            boost_kind, axis = "symmetric", None
        # no entry of a boost exceeds its corner gamma
        scale = float(left[0, 0] * right[0, 0]) * max(1.0, *map(abs, a + b + tdiag))
        sigma, offdiag = _certify(left @ r_from_hs(params) @ right.T, scale)
    except NoPhysicalBoostError as exc:
        return _no_boost_report(Classification(NO_PHYSICAL_BOOST, str(exc)), params, note)
    return SolveReport(
        classification=_GENERIC,
        boost_kind=boost_kind,
        betas=tuple(betas),
        axis=axis,
        polynomial_residual=poly,
        offdiag_residual=offdiag,
        sigma=sigma,
        reduced=params,
        note=note,
    )
