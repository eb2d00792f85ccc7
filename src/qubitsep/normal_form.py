"""Boost elimination of the linear terms of R and the diagonal normal form.

In the generic case a pair of boosts (or a single symmetric one) removes the
first row and column of R apart from the corner, leaving
Sigma = diag(s0, s1, s2, s3); separability is then exactly
|s1| + |s2| + |s3| <= s0.  This module solves for the boost velocities in
the supported families:

  * one linear pair (a_k, b_k) on a single axis  -> quadratic,
  * symmetric states (a == b), the paper's case b): one symmetric boost,
    from a cubic for two pairs and a quartic for three,

classifies the structurally non-generic states for which the required boost
degenerates to light speed, and certifies every solve by re-applying the
boost and checking that the eliminated entries actually vanished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boost import BETA_LIMIT, apply_two_sided, boost_general, boost_x
from .errors import (
    BoostLimitError,
    ContractViolationError,
    InvalidParameterError,
    InvalidStateError,
    NoPhysicalBoostError,
    SolverInconsistencyError,
)
from .hs import ZERO_TOL, HSParams
from .pt import ENTANGLED, SEPARABLE, VERDICT_TOL, Verdict
from .rmatrix import r_from_hs
from .roots import real_roots

GENERIC = "generic"
NON_GENERIC_A = "non-generic-a"
NON_GENERIC_B = "non-generic-b"
NON_GENERIC_C = "non-generic-c"
NON_GENERIC_D = "non-generic-d"
NO_PHYSICAL_BOOST = "no-physical-boost"

OFFDIAG_TOL = 1e-9
_STRUCTURAL_TOL = 1e-9
_PAIR_RESIDUAL_TOL = 1e-12
# the pair quadratic is degenerate when |c2| <= this * max(|c1|, 1)
_QUADRATIC_LEAD_TOL = 1e-15
_FUNDAMENTAL_TOL = 1e-10
# a velocity denominator at or below this (relative to 1, or to |a_1| when
# larger) counts as zero: the velocity would diverge
_DENOM_TOL = 1e-12
# Newton steps of _identity_polish on each candidate root
_POLISH_STEPS = 8


@dataclass(frozen=True, eq=False)
class SigmaForm:
    """The diagonal normal form: corner value s0 > 0 and spatial values s."""

    s0: float
    s: np.ndarray

    def __post_init__(self):
        s0 = float(self.s0)
        if not (math.isfinite(s0) and s0 > 0.0):
            raise InvalidParameterError("s0 must be finite and positive")
        v = np.asarray(self.s, dtype=float).reshape(3).copy()
        if not np.isfinite(v).all():
            raise InvalidParameterError("s must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s", v)

    @property
    def tprime(self) -> np.ndarray:
        """Normalized diagonal values t'_i = s_i / s0."""
        return self.s / self.s0

    @property
    def tprime_sum(self) -> float:
        """|t'_1| + |t'_2| + |t'_3|, the quantity the verdict compares to 1."""
        return float(np.abs(self.tprime).sum())


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
    polynomial_residual: float
    offdiag_residual: float
    sigma: SigmaForm | None


def solve_pair_general(
    a1: float, b1: float, t1: float, beta_limit: float = BETA_LIMIT
) -> tuple[float, float]:
    """Boost velocities (beta_a, beta_b) eliminating a single linear pair.

    The two elimination conditions

        -beta_b + b1 beta_a beta_b + a1 - beta_a t1 = 0
        -beta_a + a1 beta_a beta_b + b1 - beta_b t1 = 0

    reduce to the quadratic
    (b1 - a1 t1) beta_a^2 + (a1^2 - b1^2 + t1^2 - 1) beta_a + (b1 - a1 t1) = 0,
    whose two roots multiply to 1, so exactly one of them is physical.
    beta_b then follows from the first condition directly,
    beta_b = (a1 - beta_a t1) / (1 - b1 beta_a), which stays well defined even
    where the textbook ratio form has a vanishing denominator.

    beta_a is named for the term it eliminates, a1, not for the qubit it
    acts on: solve_normal_form passes boost_x(beta_a) to
    eliminate_and_diagonalize as the left factor of R, which acts on qubit B,
    and boost_x(beta_b) as the right factor, which acts on qubit A (see
    rmatrix).  On rho, boost_x(beta, k) is the filter
    F = cosh(eta/2) I - sinh(eta/2) sigma_k, eta = atanh(beta).
    """
    for name, val in (("a1", a1), ("b1", b1), ("t1", t1)):
        if not math.isfinite(val):
            raise InvalidParameterError(f"{name} must be finite")
    if a1 == 0.0 and b1 == 0.0:
        return 0.0, 0.0
    c2 = b1 - a1 * t1
    c1 = a1 * a1 - b1 * b1 + t1 * t1 - 1.0
    if abs(c2) <= _QUADRATIC_LEAD_TOL * max(abs(c1), 1.0):
        # Quadratic degenerates; beta_a = 0 with beta_b = a1 solves both
        # conditions exactly (and is the branch continuous with beta -> 0
        # when the system is underdetermined).
        beta_a = 0.0
    else:
        disc = c1 * c1 - 4.0 * c2 * c2
        if disc < 0.0:
            raise NoPhysicalBoostError(
                "no real boost solves the elimination conditions"
            )
        sq = math.sqrt(disc)
        q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else -0.5 * sq
        if q == 0.0:
            # disc == 0 with c1 == 0 would force c2 == 0; degenerate double root
            raise BoostLimitError(
                "double root on the unit circle", beta=math.copysign(1.0, -c1)
            )
        r_big, r_small = q / c2, c2 / q
        beta_a = r_small if abs(r_small) <= abs(r_big) else r_big
        for _ in range(2):
            f = (c2 * beta_a + c1) * beta_a + c2
            df = 2.0 * c2 * beta_a + c1
            if df == 0.0:
                break
            beta_a -= f / df
    if abs(beta_a) >= 1.0 - beta_limit:
        raise BoostLimitError(
            f"beta_a = {beta_a:.12g} reaches the light-speed limit", beta=beta_a
        )
    denom = 1.0 - b1 * beta_a
    if abs(denom) <= _DENOM_TOL:
        raise NoPhysicalBoostError("beta_b diverges; no physical boost")
    beta_b = (a1 - beta_a * t1) / denom
    if abs(beta_b) >= 1.0 - beta_limit:
        raise BoostLimitError(
            f"beta_b = {beta_b:.12g} reaches the light-speed limit", beta=beta_b
        )
    if _pair_residual(a1, b1, t1, beta_a, beta_b) > _PAIR_RESIDUAL_TOL:
        raise SolverInconsistencyError("pair solve failed its elimination certificate")
    return beta_a, beta_b


def _pair_residual(a1, b1, t1, beta_a, beta_b) -> float:
    e1 = -beta_b + b1 * beta_a * beta_b + a1 - beta_a * t1
    e2 = -beta_a + a1 * beta_a * beta_b + b1 - beta_b * t1
    return max(abs(e1), abs(e2))


def solve_pair_symmetric(a: float, t1: float, beta_limit: float = BETA_LIMIT) -> float:
    """The shared velocity for a symmetric pair a1 = b1 = a.

    beta solves a beta^2 - (1 + t1) beta + a = 0; written in the
    cancellation-free form beta = 2a / (T + sqrt(T^2 - 4a^2)), T = 1 + t1.
    Reality needs |1 + t1| >= |2a| (guaranteed by positivity of the state);
    equality pushes beta to 1, which no physical boost reaches.
    """
    if not (math.isfinite(a) and math.isfinite(t1)):
        raise InvalidParameterError("a and t1 must be finite")
    if a == 0.0:
        return 0.0
    big_t = 1.0 + t1
    disc = big_t * big_t - 4.0 * a * a
    if disc < 0.0:
        raise InvalidStateError(
            "|1 + t1| < |2a|: no real boost; input cannot be a valid state"
        )
    beta = 2.0 * a / (big_t + math.copysign(math.sqrt(disc), big_t))
    for _ in range(2):
        f = (a * beta - big_t) * beta + a
        df = 2.0 * a * beta - big_t
        if df == 0.0:
            break
        beta -= f / df
    if abs(beta) >= 1.0 - beta_limit:
        raise BoostLimitError(
            f"beta = {beta:.12g} reaches the light-speed limit "
            "(boundary |2a| = |1 + t1|)",
            beta=beta,
        )
    return beta


def sigma_pair_symmetric(a: float, tdiag, beta_limit: float = BETA_LIMIT) -> SigmaForm:
    """Normal form for a symmetric pair on the first axis:

    s0 = gamma^2 (1 - 2 a beta + beta^2 t1),
    s1 = gamma^2 (-2 a beta + beta^2 + t1),  s2 = t2,  s3 = t3 (signed).
    """
    t1, t2, t3 = np.asarray(tdiag, dtype=float).reshape(3)
    beta = solve_pair_symmetric(a, t1, beta_limit)
    g2 = 1.0 / ((1.0 - beta) * (1.0 + beta))
    s0 = g2 * (1.0 - 2.0 * a * beta + beta * beta * t1)
    s1 = g2 * (-2.0 * a * beta + beta * beta + t1)
    return SigmaForm(s0, np.array([s1, t2, t3]))


def sigma_pair_b1zero(a1: float, tdiag, beta_limit: float = BETA_LIMIT) -> SigmaForm:
    """Normal form for the one-sided pair b1 = 0.

    With beta_b = a1 - beta_a t1 the corner collapses to s0 = gamma_a/gamma_b
    and the axis value to s1 = gamma_b t1 / gamma_a; the transverse entries
    are untouched.  Reality needs |1 - t1^2 - a1^2| >= |2 a1 t1|.
    """
    t1, t2, t3 = np.asarray(tdiag, dtype=float).reshape(3)
    beta_a, beta_b = solve_pair_general(a1, 0.0, t1, beta_limit)
    g_a = 1.0 / math.sqrt((1.0 - beta_a) * (1.0 + beta_a))
    g_b = 1.0 / math.sqrt((1.0 - beta_b) * (1.0 + beta_b))
    s0 = g_a / g_b
    s1 = g_b * t1 / g_a
    return SigmaForm(s0, np.array([s1, t2, t3]))


def _cubic_coefficients(a1: float, a2: float, tdiag) -> np.ndarray:
    t1, t2, _ = np.asarray(tdiag, dtype=float).reshape(3)
    t = t2 - t1
    big_t = 1.0 + t1
    return np.array(
        [
            1.0,
            ((a1 * a1 + a2 * a2) / t - big_t) / a1,
            1.0 - big_t / t,
            a1 / t,
        ]
    )


def _quartic_coefficients(a, tdiag) -> np.ndarray:
    a1, a2, a3 = a
    t1, t2, t3 = tdiag
    t = t2 - t1
    tp = t3 - t1
    big_t = 1.0 + t1
    return np.array(
        [
            1.0,
            a1 / t + a1 / tp - big_t / a1 + a2 * a2 / (a1 * t) + a3 * a3 / (a1 * tp),
            1.0 + (a1 * a1 + a2 * a2 + a3 * a3) / (t * tp) - big_t / tp - big_t / t,
            a1 / tp + a1 / t - a1 * big_t / (t * tp),
            a1 * a1 / (t * tp),
        ]
    )


def _coupled_betas(a, tdiag, beta1: float):
    """beta_j = a_j beta_1 / (a_1 + beta_1 (t_j - t_1)) for j = 2, 3."""
    a1 = a[0]
    betas = [beta1]
    for j in (1, 2):
        if a[j] == 0.0:
            betas.append(0.0)
            continue
        den = a1 + beta1 * (tdiag[j] - tdiag[0])
        if abs(den) <= _DENOM_TOL * max(1.0, abs(a1)):
            return None
        betas.append(a[j] * beta1 / den)
    return np.array(betas)


def _fundamental_residual(a, tdiag, betas) -> float:
    # (a1 - beta1 t1)/beta1 = 1 - a.beta must hold for a consistent solve.
    beta1 = betas[0]
    return abs((a[0] - beta1 * tdiag[0]) / beta1 - (1.0 - float(np.dot(a, betas))))


def _identity_polish(a, tdiag, beta1: float) -> float:
    """Newton-refine a candidate root on the unreduced elimination identity.

    The polynomial reduction divides by the spreads t_j - t_1, so its roots
    lose accuracy when correlation values nearly coincide or a_1 is small.
    The rational identity

        f(b) = a1/b - t1 - 1 + a1 b + a2^2 b/d2 + a3^2 b/d3,
        d_j = a1 + b (t_j - t1),

    stays well conditioned there; a few Newton steps on it recover the root
    to machine precision.  The arithmetic runs on Python floats, the same
    IEEE operations as on numpy scalars.
    """
    a1, a2, a3 = map(float, a)
    t1, t2, t3 = map(float, tdiag)
    dt2 = t2 - t1
    dt3 = t3 - t1

    def value(x):
        d2 = a1 + x * dt2
        d3 = a1 + x * dt3
        if x == 0.0 or d2 == 0.0 or d3 == 0.0:
            return None, None
        f = a1 / x - t1 - 1.0 + a1 * x + a2 * a2 * x / d2 + a3 * a3 * x / d3
        try:
            fp = (
                -a1 / (x * x)
                + a1
                + a2 * a2 * a1 / (d2 * d2)
                + a3 * a3 * a1 / (d3 * d3)
            )
        except ZeroDivisionError:
            # a square underflowed to 0; numpy scalars would give fp = inf or
            # nan, which stops the iteration the same way
            return f, math.nan
        return f, fp

    best = beta1
    f_best, _ = value(beta1)
    if f_best is None:
        return beta1
    f_best = abs(f_best)
    x = beta1
    for _ in range(_POLISH_STEPS):
        f, fp = value(x)
        if f is None or fp == 0.0 or not (math.isfinite(f) and math.isfinite(fp)):
            break
        if abs(f) < f_best:
            best, f_best = x, abs(f)
        step = f / fp
        if not math.isfinite(step) or x - step == x:
            break
        x -= step
    f_last, _ = value(x)
    if f_last is not None and math.isfinite(f_last) and abs(f_last) < f_best:
        best = x
    return best


def solve_symmetric(a, tdiag, beta_limit: float = BETA_LIMIT) -> tuple[np.ndarray, float]:
    """Case b): the velocity 3-vector of the one symmetric boost that removes
    the linear terms a = b, and the residual |p(beta_1)| of the polynomial it
    solves.

    Axes with a_i != 0 are solved, the largest |a_i| leading as axis 1: every
    reduced coefficient divides by a_1, so this keeps the polynomial best
    behaved.  The fundamental identity becomes a polynomial in beta_1: the
    quadratic a_1 beta^2 - (1 + t_1) beta + a_1 for one nonzero component,
    the cubic (built from t = t2 - t1, T = 1 + t1) for two and the quartic
    (t, t' = t3 - t1, T) for three; a zero vector gives zero velocities.  Of
    its real roots by increasing magnitude the first physical one is kept:
    coupled velocities well defined, |beta| below the light-speed limit,
    fundamental identity satisfied.  The smallest root is the branch
    continuous with beta -> 0 as the linear terms vanish.  The velocities come
    back in the caller's axis order.

    Precondition: the t values of the nonzero axes are pairwise distinct.  An
    exact tie makes the reduction ill-posed and raises ContractViolationError;
    solve_normal_form rotates ties away first.
    """
    av = np.asarray(a, dtype=float).reshape(3)
    tv = np.asarray(tdiag, dtype=float).reshape(3)
    if not (np.isfinite(av).all() and np.isfinite(tv).all()):
        raise InvalidParameterError("a and tdiag must be finite")
    n = int(np.count_nonzero(av))
    if n == 0:
        return np.zeros(3), 0.0
    order = sorted(range(3), key=lambda i: (av[i] == 0.0, -abs(av[i])))
    wa, wt = av[order], tv[order]
    if len(set(wt[:n].tolist())) < n:
        raise ContractViolationError("t ties exactly on two nonzero axes")
    if n == 1:
        coeffs = np.array([1.0, -(1.0 + wt[0]) / wa[0], 1.0])
    elif n == 2:
        coeffs = _cubic_coefficients(wa[0], wa[1], wt)
    else:
        coeffs = _quartic_coefficients(wa, wt)
    for beta1 in sorted(real_roots(coeffs), key=abs):
        if beta1 == 0.0:
            continue
        refined = _identity_polish(wa, wt, float(beta1))
        betas = _coupled_betas(wa, wt, refined)
        if betas is None:
            continue
        if float(betas @ betas) >= (1.0 - beta_limit) ** 2:
            continue
        if _fundamental_residual(wa, wt, betas) > _FUNDAMENTAL_TOL:
            continue
        out = np.zeros(3)
        out[order] = betas
        return out, abs(float(np.polyval(coeffs, betas[0])))
    raise NoPhysicalBoostError(
        "no real root gives a boost with beta^2 < 1 satisfying the "
        "consistency identity"
    )


def eliminate_and_diagonalize(r, left, right) -> tuple[SigmaForm, float]:
    """Apply two Lorentz factors to R, certify the elimination, read off Sigma.

    `left` acts on qubit B and `right` on qubit A (left @ R @ right^T, see
    rmatrix).  The certificate: the boosted linear terms and the asymmetry of
    the boosted spatial block must both stay below OFFDIAG_TOL, else
    SolverInconsistencyError, and the corner s0 must be positive (SigmaForm).
    The symmetric 3x3 block is diagonalized by a rotation and its eigenvalues
    are ordered by descending magnitude for reproducibility.  Returns Sigma and
    the largest boosted linear term.
    """
    q = apply_two_sided(r, left, right)
    offdiag = float(max(np.abs(q[0, 1:]).max(), np.abs(q[1:, 0]).max()))
    if offdiag >= OFFDIAG_TOL:
        raise SolverInconsistencyError(
            f"linear terms not eliminated: residual {offdiag:.3g}"
        )
    block = q[1:, 1:]
    sym = 0.5 * (block + block.T)
    if float(np.abs(block - block.T).max()) >= OFFDIAG_TOL:
        raise SolverInconsistencyError("transformed spatial block is not symmetric")
    eig = np.linalg.eigvalsh(sym)
    order = np.argsort(-np.abs(eig), kind="stable")
    return SigmaForm(float(q[0, 0]), eig[order]), offdiag


def separability_verdict(sigma: SigmaForm, tol: float = VERDICT_TOL) -> Verdict:
    """Separable iff |s1| + |s2| + |s3| <= s0, i.e. sum |t'_i| <= 1."""
    total = sigma.tprime_sum
    witness = total - 1.0
    entangled = witness > tol
    return Verdict(
        kind=ENTANGLED if entangled else SEPARABLE,
        witness=witness,
        criterion="lorentz-normal-form",
        boundary=abs(witness) <= tol,
    )


def _is_unit_axis_vector(v, tol: float) -> bool:
    s = np.sort(np.abs(v))
    return abs(s[2] - 1.0) <= tol and s[1] <= tol


def _match_non_generic(a, b, tdiag):
    """Structural match of the four normalized light-speed cases, or None.

    Takes the linear vectors and the diagonal of t.  Detection runs before
    any solver so these states never surface as opaque boost-limit failures.
    """
    tol = _STRUCTURAL_TOL
    if float(np.abs(tdiag).max()) <= tol:
        if float(np.abs(b).max()) <= tol and _is_unit_axis_vector(a, tol):
            return Classification(
                NON_GENERIC_A,
                "qubit A pure with qubit B maximally mixed; the eliminating "
                "boost for B degenerates to light speed; known verdict: separable",
            )
        if float(np.abs(a).max()) <= tol and _is_unit_axis_vector(b, tol):
            return Classification(
                NON_GENERIC_B,
                "qubit B pure with qubit A maximally mixed; the eliminating "
                "boost for A degenerates to light speed; known verdict: separable",
            )
    if float(np.abs(a - b).max()) <= tol:
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            if abs(a[i]) > tol or abs(a[j]) > tol or abs(a[k]) <= tol:
                continue
            if (
                abs(abs(a[k]) - 0.5) <= tol
                and abs(tdiag[k]) <= tol
                and abs(tdiag[i] - tdiag[j]) <= tol
            ):
                return Classification(
                    NON_GENERIC_C,
                    "symmetric half-strength pair with vanishing axis "
                    "correlation (boundary |2a| = |1 + t1|); the label fixes no "
                    "verdict, the exact test decides (see ppt_verdict)",
                )
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


def _no_boost_report(classification: Classification) -> SolveReport:
    return SolveReport(
        classification=classification,
        boost_kind="none",
        betas=(),
        axis=None,
        polynomial_residual=math.nan,
        offdiag_residual=math.nan,
        sigma=None,
    )


def _tied_axes(tdiag, active) -> list[int]:
    """Active axes whose t value exactly equals that of another active axis.

    Three axes hold at most one such group, listed in ascending order.
    """
    axes = [i for i in range(3) if active[i]]
    return [i for i in axes if any(tdiag[i] == tdiag[j] for j in axes if j != i)]


def _rotate_tie(params: HSParams, group: list[int]) -> HSParams:
    """One shared proper rotation in the span of `group` that moves a's
    components there onto axis group[0].

    t is a multiple of the identity on that span, so it is unchanged, and the
    rotated state is locally unitarily equivalent to `params`.
    """
    rot = np.eye(3)
    g0 = group[0]
    for g in group[1:]:
        v = rot @ params.a
        h = math.hypot(v[g0], v[g])
        step = np.eye(3)
        step[g0, g0] = step[g, g] = v[g0] / h
        step[g0, g] = v[g] / h
        step[g, g0] = -v[g] / h
        rot = step @ rot
    return HSParams(rot @ params.a, rot @ params.b, params.t)


def _with_note(classification: Classification, note: str) -> Classification:
    detail = f"{classification.detail}; {note}" if classification.detail else note
    return Classification(classification.kind, detail)


def solve_normal_form(
    params: HSParams,
    beta_limit: float = BETA_LIMIT,
) -> SolveReport:
    """Full pipeline for diagonal-t parameters: classify, solve, certify.

    Dispatches on the pattern of active linear terms.  Solver failures that
    mean "no physical boost exists" are folded into the classification;
    certificate failures propagate, since they indicate a numerical bug
    rather than a non-generic state.  A symmetric state whose active axes tie
    exactly (t_i == t_j) is first rotated in the tied plane, which leaves t
    alone and puts the linear terms there on one axis; the report then refers
    to the rotated state and its classification detail says so.
    """
    a, b, tdiag = params.a, params.b, params.t_diagonal()
    structural = _match_non_generic(a, b, tdiag)
    if structural is not None:
        return _no_boost_report(structural)
    active = (np.abs(a) > ZERO_TOL) | (np.abs(b) > ZERO_TOL)
    if int(active.sum()) < 2:
        return _solve_active(params, tdiag, active, beta_limit)
    if not params.is_symmetric():
        return _no_boost_report(
            Classification(
                NO_PHYSICAL_BOOST,
                "outside the supported boost families: more than one "
                "axis carries linear terms and the state is not symmetric",
            )
        )
    group = _tied_axes(tdiag, active)
    if not group:
        return _solve_active(params, tdiag, active, beta_limit)
    rotated = _rotate_tie(params, group)
    # the other axes of the group carry only rounding residue now
    active[group[1:]] = False
    g0 = group[0]
    note = (
        f"t ties exactly on axes {', '.join(str(i + 1) for i in group)}; "
        f"one shared rotation there moved the linear terms onto axis {g0 + 1} "
        f"(a = b = {rotated.a[g0]:.6g}); the report refers to the rotated state"
    )
    structural = _match_non_generic(rotated.a, rotated.b, tdiag)
    if structural is not None:
        return _no_boost_report(_with_note(structural, note))
    report = _solve_active(rotated, tdiag, active, beta_limit)
    return replace(report, classification=_with_note(report.classification, note))


def _solve_active(params: HSParams, tdiag, active, beta_limit: float) -> SolveReport:
    """The boost solve for a non-structural state whose active axes are
    `active`: one linear pair, else one symmetric boost, the paper's case b)
    (zero velocity when no axis is active)."""
    a, b = params.a, params.b
    try:
        if int(active.sum()) == 1:
            k = int(np.flatnonzero(active)[0])
            betas = solve_pair_general(a[k], b[k], tdiag[k], beta_limit)
            poly = _pair_residual(a[k], b[k], tdiag[k], *betas)
            left = boost_x(betas[0], k + 1, beta_limit)
            right = boost_x(betas[1], k + 1, beta_limit)
            boost_kind, axis = "pair", k + 1
        else:
            # an inactive axis may still carry a nonzero |a_i|
            betas, poly = solve_symmetric(np.where(active, a, 0.0), tdiag, beta_limit)
            left = right = boost_general(betas, beta_limit)
            boost_kind, axis = "symmetric", None
        sigma, offdiag = eliminate_and_diagonalize(r_from_hs(params), left, right)
    except NoPhysicalBoostError as exc:
        return _no_boost_report(Classification(NO_PHYSICAL_BOOST, str(exc)))
    return SolveReport(
        classification=Classification(GENERIC),
        boost_kind=boost_kind,
        betas=tuple(float(x) for x in betas),
        axis=axis,
        polynomial_residual=float(poly),
        offdiag_residual=offdiag,
        sigma=sigma,
    )


def classify(params: HSParams, beta_limit: float = BETA_LIMIT) -> Classification:
    """Generic / one of the four light-speed cases / no-physical-boost."""
    return solve_normal_form(params, beta_limit).classification
