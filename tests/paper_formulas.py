"""The paper's closed forms, kept as test references.

The package decides every state through the exact partial-transpose test and
the certified boost solve; these are the formulas the paper writes down for
special families, against which the tests check the package's numbers:

  * the spectrum of a state with one linear pair (criterion 1);
  * the partial transpose on (a, b, t) and the PTU map of the complement
    identity (criterion 2);
  * the half-eigenvalue criterion for one-sided linear terms (criterion 4);
  * the normal form of one linear pair, case a) (criteria 3 and 4), and its
    two boost velocities, evaluated in 50-digit decimal arithmetic;
  * case a) as an X-state: its two diagonal products p+ and p-, and Yu and
    Eberly's concurrence of an X-state;
  * the case b) cubic (two symmetric pairs) and quartic (three pairs) in
    beta_1.  The solver works on the secular equation in mu instead (see
    normal_form.solve_symmetric);
  * the case b) velocity by scanning every real root of the cleared secular
    polynomial P, the Moebius image of that cubic and quartic in mu, and
    keeping the smallest physical |beta|.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from qubitsep import (
    BETA_LIMIT,
    ENTANGLED,
    SEPARABLE,
    ContractViolationError,
    HSParams,
    NoPhysicalBoostError,
    SigmaForm,
    Verdict,
    eigenvalues_hermitian,
    rho_from_hs,
)
from qubitsep.hs import ZERO_TOL
from qubitsep.normal_form import _DENOM_TOL, _FUNDAMENTAL_TOL
from qubitsep.pt import VERDICT_TOL
from qubitsep.roots import real_roots


def eigenvalues_closed_form_pair(axis: int, a: float, b: float, tdiag) -> np.ndarray:
    """Spectrum (4*lambda, ascending) of a state whose only linear pair sits on one axis.

    With the pair on axis 1 and t diagonal the four values are
    1 + t1 -/+ sqrt((a + b)^2 + (t2 - t3)^2) and
    1 - t1 -/+ sqrt((a - b)^2 + (t2 + t3)^2); other axes follow by cyclic
    relabeling of the correlation entries.
    """
    t = np.asarray(tdiag, dtype=float)
    k = axis - 1
    i, j = (k + 1) % 3, (k + 2) % 3
    r_sum = float(np.hypot(a + b, t[i] - t[j]))
    r_dif = float(np.hypot(a - b, t[i] + t[j]))
    return np.sort([1 + t[k] - r_sum, 1 + t[k] + r_sum, 1 - t[k] - r_dif, 1 - t[k] + r_dif])


def partial_transpose(params: HSParams) -> HSParams:
    """Partial transpose on qubit A in the Pauli picture: sigma_y -> -sigma_y,
    so a2 and the second row of t change sign."""
    flip = np.array([1.0, -1.0, 1.0])
    return HSParams(params.a * flip, params.b, params.t * flip[:, None])


def ptu(params: HSParams) -> HSParams:
    """Partial transpose followed by a 180-degree y rotation on qubit A:
    a -> -a and t -> -t for a diagonal t, b unchanged; any other t raises
    ContractViolationError."""
    if not params.is_t_diagonal():
        raise ContractViolationError("correlation matrix is not diagonal")
    return HSParams.diagonal(-params.a, params.b, -params.t.diagonal())


def half_eigenvalue_criterion(rho, params: HSParams, tol: float = VERDICT_TOL) -> Verdict:
    """Separable iff every eigenvalue is <= 1/2; valid only for one-sided linear terms.

    The complement identity behind it needs a = 0 or b = 0, each decided at
    ZERO_TOL; both nonzero raises.  `tol` is the verdict margin only.
    """
    if float(np.abs(params.a).max()) > ZERO_TOL and float(np.abs(params.b).max()) > ZERO_TOL:
        raise ContractViolationError("half-eigenvalue criterion needs a = 0 or b = 0")
    four_max = float(eigenvalues_hermitian(rho)[-1])
    max_lam = four_max / 4.0
    return Verdict(
        kind=ENTANGLED if max_lam > 0.5 + tol else SEPARABLE,
        witness=2.0 - four_max,
        criterion="half-eigenvalue",
        boundary=abs(max_lam - 0.5) <= tol,
    )


def pair_products(a_k: float, b_k: float, t_k: float) -> tuple[float, float]:
    """Case a): p+ = sqrt((1 + t_k)^2 - (a_k + b_k)^2) and
    p- = sqrt((1 - t_k)^2 - (a_k - b_k)^2).

    With the pair axis turned to z the state is an X-state (pair_x_state), and
    these are 4 sqrt(rho11 rho44) and 4 sqrt(rho22 rho33).  The pair solve's
    light-speed conditions |a_k + b_k| = |1 + t_k| and |a_k - b_k| = |1 - t_k|
    are p+ = 0 and p- = 0.
    """
    return (
        math.sqrt((1 + t_k) ** 2 - (a_k + b_k) ** 2),
        math.sqrt((1 - t_k) ** 2 - (a_k - b_k) ** 2),
    )


def pair_sigma(a_k: float, b_k: float, tdiag, axis: int = 1) -> SigmaForm:
    """Case a): the normal form of one linear pair (a_k, b_k) on `axis`.

    The pair block B = [[1, a_k], [b_k, t_k]] has the Lorentz invariants
    s0^2 + s_k^2 = tr(B eta B^T eta) and s0 s_k = det B, solved by
    s0 = (p+ + p-)/2, s_k = (p+ - p-)/2 (pair_products).  The transverse
    values are untouched; s is in axis order.
    """
    s = [float(x) for x in tdiag]
    k = axis - 1
    p_plus, p_minus = pair_products(a_k, b_k, s[k])
    s[k] = (p_plus - p_minus) / 2
    return SigmaForm((p_plus + p_minus) / 2, s)


def pair_x_state(a_k: float, b_k: float, tdiag, axis: int = 1) -> np.ndarray:
    """Case a): rho of the pair state with its pair axis turned to z.

    The turn is the cyclic relabeling of the axes that ends on `axis`, one
    proper rotation on both qubits.  rho is then an X-state: nonzero only on
    its diagonal and anti-diagonal, with 4 rho14 = t_i - t_j and
    4 rho23 = t_i + t_j for the other two diagonal values of t.
    """
    t = [float(x) for x in tdiag]
    k = axis - 1
    i, j = (k + 1) % 3, (k + 2) % 3
    return rho_from_hs(HSParams.diagonal([0, 0, a_k], [0, 0, b_k], [t[i], t[j], t[k]]))


def x_state_concurrence(rho) -> float:
    """Concurrence of a two-qubit X-state (Yu & Eberly, Quantum Inf. Comput. 7,
    459, 2007): C = 2 max(0, |rho14| - sqrt(rho22 rho33),
    |rho23| - sqrt(rho11 rho44))."""
    r11, r22, r33, r44 = np.diag(rho).real.tolist()
    return 2 * max(
        0.0,
        abs(rho[0, 3]) - math.sqrt(r22 * r33),
        abs(rho[1, 2]) - math.sqrt(r11 * r44),
    )


def pair_velocities(a1: float, b1: float, t1: float) -> tuple[float, float]:
    """Case a): the velocities (beta_a, beta_b) of one linear pair, in 50 digits.

    The rapidities satisfy tanh(phi_a + phi_b) = (a1 + b1)/(1 + t1) and
    tanh(phi_b - phi_a) = (a1 - b1)/(1 - t1), so with
    P = e^{2(phi_a + phi_b)} and Q = e^{2(phi_b - phi_a)}, ratios of the
    diagonal of 4 rho in the sigma_k x sigma_k eigenbasis, the velocities are
    beta = (e^{2 phi} - 1)/(e^{2 phi} + 1) with e^{2 phi_a} = sqrt(P/Q) and
    e^{2 phi_b} = sqrt(P Q).  Where 1 + t1 or 1 - t1 is zero, that rapidity
    takes the other one's value.  The stored floats are taken as exact.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, t = Decimal(a1), Decimal(b1), Decimal(t1)
        p = (1 + t + a + b) / (1 + t - a - b) if t != -1 else None
        q = (1 - t + a - b) / (1 - t - a + b) if t != 1 else p
        p = q if p is None else p
        e_a, e_b = (p / q).sqrt(), (p * q).sqrt()
        return float((e_a - 1) / (e_a + 1)), float((e_b - 1) / (e_b + 1))


def cubic_coefficients(a1: float, a2: float, tdiag) -> np.ndarray:
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


def quartic_coefficients(a, tdiag) -> np.ndarray:
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


def _times_linear(c: list[float], v: float) -> list[float]:
    """Coefficients of c(mu) (mu + v), highest power first."""
    return [x + v * y for x, y in zip([*c, 0.0], [0.0, *c])]


def _secular_coefficients(values, weights) -> list[float]:
    """P(mu) = (mu - 1) prod_v (mu + v) + sum_v w_v prod_{u != v} (mu + u),
    highest power first: the secular function g times its denominators."""
    p, q = [1.0, -1.0], [1.0]
    for v, w in zip(values, weights):
        p = _times_linear(p, v)
        for i, c in enumerate(q):
            p[i + 2] += w * c
        q = _times_linear(q, v)
    return p


def symmetric_velocity_oracle(a, tdiag, beta_limit: float = BETA_LIMIT):
    """Case b) by the root scan: the velocity 3-vector.

    Poles t_j with a_j != 0 merge on ties into weights w_v = sum a_j^2.  Every
    real root of the cleared polynomial P (real_roots) gets eight Newton steps
    on g(mu) = mu - 1 + sum_v w_v/(mu + v), stopped at a pole or where a square
    leaves the float range.  Of the roots with every |mu + v| > _DENOM_TOL,
    |g(mu)| <= _FUNDAMENTAL_TOL and |beta| < 1 - beta_limit, with
    beta_j = a_j/(mu + t_j), the one with the smallest |beta| is kept; none
    raises NoPhysicalBoostError.  No poles give zero velocities.
    """
    pole_weights: dict[float, float] = {}
    for aj, tj in zip(a, tdiag):
        if aj != 0.0:
            pole_weights[tj] = pole_weights.get(tj, 0.0) + aj * aj
    if not pole_weights:
        return np.zeros(3)
    values = sorted(pole_weights)
    weights = [pole_weights[v] for v in values]
    best, best_sq = None, (1.0 - beta_limit) ** 2
    for mu in real_roots(_secular_coefficients(values, weights)).tolist():
        for _ in range(8):
            g, dg = mu - 1.0, 1.0
            try:
                for v, w in zip(values, weights):
                    g += w / (mu + v)
                    dg -= w / (mu + v) ** 2
                step = g / dg
            except (ZeroDivisionError, OverflowError):
                break
            if not math.isfinite(step):
                break
            mu -= step
        dens = [mu + v for v in values]
        if min(map(abs, dens)) <= _DENOM_TOL:
            continue
        if abs(mu - 1.0 + sum(w / d for w, d in zip(weights, dens))) > _FUNDAMENTAL_TOL:
            continue
        betas = np.array([aj / (mu + tj) if aj != 0.0 else 0.0 for aj, tj in zip(a, tdiag)])
        beta_sq = float(betas @ betas)
        if beta_sq < best_sq:
            best, best_sq = betas, beta_sq
    if best is None:
        raise NoPhysicalBoostError("no real root gives a physical boost")
    return best
