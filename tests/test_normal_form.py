import itertools
import json
import math
import warnings

import numpy as np
import pytest

from qubitsep import (
    ENTANGLED,
    FAMILIES,
    SEPARABLE,
    BoostLimitError,
    Classification,
    HSParams,
    InvalidParameterError,
    NoPhysicalBoostError,
    SampleSpec,
    SigmaForm,
    SolverInconsistencyError,
    eliminate_and_diagonalize,
    peres_horodecki,
    r_from_hs,
    r_from_rho,
    random_state,
    rho_from_hs,
    separability_verdict,
    solve_normal_form,
    solve_pair_general,
    solve_symmetric,
)
from qubitsep import cli, normal_form, sampling
from qubitsep.normal_form import (
    GENERIC,
    NO_PHYSICAL_BOOST,
    NON_GENERIC_A,
    NON_GENERIC_B,
    NON_GENERIC_C,
    NON_GENERIC_D,
    _FUNDAMENTAL_TOL,
)
from qubitsep.boost import _boost_x
from qubitsep.hs import SIGMA

from conftest import corpus_rows, lorentz_of_filter, record_symmetric_solves, symmetric_boost
from paper_formulas import (
    cubic_coefficients,
    pair_sigma,
    pair_velocities,
    quartic_coefficients,
    symmetric_velocity_oracle,
)

# frozen from exact-root evaluation (verified against 30-digit arithmetic)
BETA_SYM_064 = 0.8381591141937414
GAMMA_SQ_064 = 3.3614654455582774
S0_SYM_064 = 0.4635781669160054
S1_SYM_064 = -0.2364218330839946
SUM_SYM_064 = 1.8042735676021249

BETA_A_B1ZERO = -0.0692966918274642
BETA_B_B1ZERO = 0.2207890075482393
SUM_B1ZERO = 0.9275622029820688

BETA1_CUBIC = 0.0792032561208348
BETA2_CUBIC = 0.1967021301502871
BETAS_QUARTIC = (0.0816147674563641, 0.2068199699475560, 0.1777353654311645)


def test_solve_pair_general_trivial():
    assert solve_pair_general(0.0, 0.0, 0.7)[0] == (0.0, 0.0)


def test_solve_pair_general_symmetric_case():
    (ba, bb), _ = solve_pair_general(0.64, 0.64, 0.3)
    assert abs(ba - BETA_SYM_064) < 1e-12
    assert abs(bb - BETA_SYM_064) < 1e-12


def test_solve_pair_general_one_sided():
    (ba, bb), _ = solve_pair_general(0.2, 0.0, 0.3)
    assert abs(ba - BETA_A_B1ZERO) < 1e-12
    assert abs(bb - BETA_B_B1ZERO) < 1e-12
    # quadratic residual well below 1e-12
    c2 = 0.0 - 0.2 * 0.3
    c1 = 0.2**2 + 0.3**2 - 1.0
    assert abs((c2 * ba + c1) * ba + c2) < 1e-12


def test_solve_pair_general_roots_multiply_to_one():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(500):
        a1, b1, t1 = rng.uniform(-0.95, 0.95, 3)
        c2 = b1 - a1 * t1
        c1 = a1 * a1 - b1 * b1 + t1 * t1 - 1.0
        if abs(c2) < 1e-6 or c1 * c1 - 4 * c2 * c2 <= 1e-12:
            continue
        roots = np.roots([c2, c1, c2])
        assert abs(roots[0] * roots[1] - 1.0) < 1e-8
        try:
            (ba, _), _ = solve_pair_general(a1, b1, t1)
        except NoPhysicalBoostError:
            continue
        checked += 1
        assert abs(ba) < 1.0
        # returned root is the physical one of the pair
        assert abs(ba - roots[np.argmin(np.abs(roots))]) < 1e-8
    assert checked > 100


def _scaled_velocity_error(a1, b1, t1, betas) -> float:
    """max |beta - oracle| in units of eps / (1 - x^2), x the larger |ratio|:
    the rounding of the stored ratios, amplified by atanh near light speed."""
    x = max(abs((a1 + b1) / (1 + t1)), abs((a1 - b1) / (1 - t1)))
    error = max(abs(u - v) for u, v in zip(betas, pair_velocities(a1, b1, t1)))
    return error * (1 - x * x) / np.finfo(float).eps


def _pair_block(ratio_sum, ratio_dif, t1):
    """The block (a1, b1, t1) whose two rapidity ratios are the given ones."""
    a_plus, a_minus = ratio_sum * (1 + t1), ratio_dif * (1 - t1)
    return (a_plus + a_minus) / 2, (a_plus - a_minus) / 2, t1


def _near_light_speed_block(rng, index, d):
    # one ratio at distance d from +-1, the other uniform, t1 uniform
    t1 = rng.uniform(-1, 1)
    edge, free = (1 - d) * rng.choice([-1.0, 1.0]), rng.uniform(-1, 1)
    return _pair_block(*((edge, free) if index % 2 else (free, edge)), t1)


def test_pair_velocities_match_the_decimal_oracle():
    # the closed form by rapidities against a 50-digit evaluation of it on the
    # stored floats: within 4 eps / (1 - x^2) on random valid blocks and on
    # blocks 1e-4 to 1e-8 from light speed
    rng = np.random.default_rng(5)
    blocks = []
    while len(blocks) < 300:
        a1, b1, t1 = rng.uniform(-1, 1, 3)
        if abs(a1 + b1) < 1 + t1 and abs(a1 - b1) < 1 - t1:
            blocks.append((a1, b1, t1))
    for index, d in enumerate(np.geomspace(1e-4, 1e-8, 600)):
        blocks.append(_near_light_speed_block(rng, index, d))
    for block in blocks:
        assert _scaled_velocity_error(*block, solve_pair_general(*block)[0]) <= 4.0, block


def test_pair_solve_certifies_states_near_light_speed(pair64):
    # one rapidity ratio at distance d from +-1: the solve is certified.  At
    # d = 1e-14 gamma_a gamma_b reaches about 3.5e6 and the rounding of the
    # boosted R passes OFFDIAG_TOL, so the certificate's rounding bound decides
    # (seeds 29 and 31 raised SolverInconsistencyError under OFFDIAG_TOL alone)
    for seed, d in ((29, 1e-12), (29, 1e-14), (31, 1e-14)):
        rng = np.random.default_rng(seed)
        for index in range(400):
            a, b, tdiag = np.zeros(3), np.zeros(3), np.zeros(3)
            k = index % 3
            a[k], b[k], tdiag[k] = _near_light_speed_block(rng, index, d)
            rec = sampling.cross_validate(HSParams.diagonal(a, b, tdiag))
            kind, detail = rec.classification.kind, rec.classification.detail
            # at d = 1e-14 the stored ratio may round to 1 itself: light speed
            if d < 1e-12 and kind == NO_PHYSICAL_BOOST:
                assert detail.endswith("= 1 reaches light speed"), (seed, index, detail)
            else:
                assert kind == GENERIC, (seed, d, index)
            assert rec.agree is not False, (seed, d, index)
    # at a typical scale the bound stays OFFDIAG_TOL: a velocity 1e-8 off
    # (relative) still fails the certificate
    (ba, bb), _ = solve_pair_general(0.64, 0.64, 0.3)
    r = r_from_hs(pair64)
    assert eliminate_and_diagonalize(r, _boost_x(ba, 2), _boost_x(bb, 2))[1] < 1e-15
    with pytest.raises(SolverInconsistencyError, match="linear terms"):
        eliminate_and_diagonalize(r, _boost_x(ba * (1 + 1e-8), 2), _boost_x(bb, 2))


def test_solve_pair_general_elimination_certificate():
    rng = np.random.default_rng(61)
    for _ in range(500):
        a1, b1, t1 = rng.uniform(-0.9, 0.9, 3)
        try:
            (ba, bb), residual = solve_pair_general(a1, b1, t1)
        except NoPhysicalBoostError:
            continue
        e1 = -bb + b1 * ba * bb + a1 - ba * t1
        e2 = -ba + a1 * ba * bb + b1 - bb * t1
        # the residual returned is the larger of the two conditions
        assert residual == max(abs(e1), abs(e2)) < 1e-12


def _boost_filter(beta, axis):
    """The SL(2,C) filter cosh(eta/2) I - sinh(eta/2) sigma_axis, eta = atanh(beta)."""
    eta = np.arctanh(beta)
    return np.cosh(eta / 2) * np.eye(2) - np.sinh(eta / 2) * SIGMA[axis]


def test_boost_filter_is_boost_x():
    for axis in (1, 2, 3):
        for beta in (-0.9, -0.3, 0.2, 0.7):
            lam = lorentz_of_filter(_boost_filter(beta, axis))
            assert np.abs(lam - _boost_x(beta, axis)).max() < 1e-14


def test_pair_betas_act_on_the_named_sides():
    # beta_a's filter goes on qubit B and beta_b's on qubit A; the opposite
    # assignment leaves linear terms whenever a_k != b_k
    linear = {"named": 0.0, "swapped": 0.0}
    for axis in (1, 2, 3):
        spec = SampleSpec("single-pair", 50, 5, axis)
        for index in range(50):
            p = random_state(spec, index)
            k = axis - 1
            (beta_a, beta_b), _ = solve_pair_general(p.a[k], p.b[k], p.t[k, k])
            rho = rho_from_hs(p)
            for name, (f_a, f_b) in (
                ("named", (_boost_filter(beta_b, axis), _boost_filter(beta_a, axis))),
                ("swapped", (_boost_filter(beta_a, axis), _boost_filter(beta_b, axis))),
            ):
                f = np.kron(f_a, f_b)
                e = r_from_rho(f @ rho @ f.conj().T)
                residue = max(np.abs(e[0, 1:]).max(), np.abs(e[1:, 0]).max())
                linear[name] = max(linear[name], residue)
    assert linear["named"] < 1e-13
    assert linear["swapped"] > 0.5


def test_solve_pair_symmetric_values():
    # a symmetric pair a1 = b1 = a shares one velocity
    assert solve_pair_general(0.0, 0.0, 0.3)[0] == (0.0, 0.0)
    (beta, beta_b), _ = solve_pair_general(0.64, 0.64, 0.3)
    assert beta_b == pytest.approx(beta, abs=1e-14)
    assert abs(beta - BETA_SYM_064) < 1e-12
    g2 = 1.0 / (1.0 - beta * beta)
    assert abs(g2 - GAMMA_SQ_064) < 1e-12
    assert abs(beta - 0.8382) < 5e-4
    assert abs(g2 - 3.3615) < 1e-4


def test_solve_pair_symmetric_boundary():
    # 2a = 1.3 = 1 + t1: the required boost hits light speed
    with pytest.raises(BoostLimitError):
        solve_pair_general(0.65, 0.65, 0.3)


def test_solve_pair_symmetric_invalid_region():
    # |2a| > |1 + t1|: no real boost, and no state either
    with pytest.raises(NoPhysicalBoostError):
        solve_pair_general(0.9, 0.9, 0.3)


def _path_into_case(case, eps):
    """A state at distance eps from the structural form of case a)-d)."""
    x = 1.0 - eps
    return {
        NON_GENERIC_A: HSParams.diagonal([x, 0, 0], [0, 0, 0], [0, 0, 0]),
        NON_GENERIC_B: HSParams.diagonal([0, 0, 0], [x, 0, 0], [0, 0, 0]),
        NON_GENERIC_C: HSParams.diagonal([x / 2, 0, 0], [x / 2, 0, 0], [0, 0, 0]),
        NON_GENERIC_D: HSParams.diagonal([x, 0, 0], [x, 0, 0], [x, 0, 0]),
    }[case]


def test_boundary_beta_approach():
    # just inside the boundary the solver succeeds with beta within 1e-6 of 1
    eps = 4e-13
    a = (1 + 0.3) * (1 - eps) / 2
    (beta, _), _ = solve_pair_general(a, a, 0.3)
    assert beta < 1.0
    assert 1.0 - beta < 1e-6
    # the paper's non-generic cases are beta = 1, "not reachable physically":
    # along a path of generic states into each, 1 - max|beta| shrinks like
    # eps for a) and b) and like sqrt(eps) for c) and d), both verdicts agree,
    # and the endpoint gets its label
    powers = {NON_GENERIC_A: 1.0, NON_GENERIC_B: 1.0, NON_GENERIC_C: 0.5, NON_GENERIC_D: 0.5}
    for case, power in powers.items():
        gaps = []
        for eps in np.geomspace(1e-1, 1e-8, 8):
            rec = sampling.cross_validate(_path_into_case(case, eps))
            assert rec.classification.kind == GENERIC, (case, eps)
            assert rec.lorentz.kind == rec.ppt.kind, (case, eps)
            gaps.append(1.0 - max(map(abs, rec.report.betas)))
            assert 0.5 <= gaps[-1] / eps**power <= 2.0, (case, eps)
        assert all(x > y for x, y in zip(gaps, gaps[1:])), case
        assert sampling.cross_validate(_path_into_case(case, 0.0)).classification.kind == case


def test_pair_solve_certifies_states_near_case_b():
    # a_k = b_k t_k with |b_k| = 1 - d: the rapidity ratios are b_k and -b_k,
    # d from light speed, and beta_a = b_k up to the rounding of a_k = fl(b_k t_k)
    rng = np.random.default_rng(19)
    for d in (1e-4, 1e-6, 1e-8):
        for trial in range(60):
            axis = trial % 3
            b_k = (1 - d) * rng.choice([-1.0, 1.0])
            t_k = rng.uniform(-0.9, 0.9) if trial % 2 else 0.0
            # transverse values inside the room sqrt(2 d) that positivity leaves
            u, v = rng.uniform(-0.4, 0.4, 2) * np.sqrt(2 * d)
            a, b, tdiag = np.zeros(3), np.zeros(3), np.zeros(3)
            a[axis], b[axis] = b_k * t_k, b_k
            tdiag[[axis, (axis + 1) % 3, (axis + 2) % 3]] = [
                t_k,
                ((1 + t_k) * u + (1 - t_k) * v) / 2,
                ((1 - t_k) * v - (1 + t_k) * u) / 2,
            ]
            rec = sampling.cross_validate(HSParams.diagonal(a, b, tdiag))
            assert rec.classification.kind == GENERIC, (d, trial)
            block = a[axis], b[axis], tdiag[axis]
            assert _scaled_velocity_error(*block, rec.report.betas) <= 4.0, (d, trial)
            assert rec.agree is not False, (d, trial)


def test_boundary_verdict_continuity():
    t1 = 0.3
    for eps in np.geomspace(1e-6, 0.1, 25):
        a = (1 + t1) * (1 - eps) / 2
        (beta, _), _ = solve_pair_general(a, a, t1)
        assert abs(beta) < 1.0 - 1e-9
        p = HSParams.diagonal([a, 0, 0], [a, 0, 0], [t1, 0.1, 0.1])
        assert solve_normal_form(p).classification.kind == GENERIC


def test_sigma_pair_symmetric_reference():
    sig = pair_sigma(0.64, 0.64, [0.3, 0.3, 0.3])
    assert abs(sig.s0 - S0_SYM_064) < 1e-12
    assert abs(sig.s[0] - S1_SYM_064) < 1e-12
    assert abs(sig.s[1] - 0.3) < 1e-15 and abs(sig.s[2] - 0.3) < 1e-15
    assert abs(sig.s0 - 0.4636) < 1e-4
    assert abs(sig.tprime[1] - 0.6471) < 1e-4
    assert abs(sig.tprime_sum - SUM_SYM_064) < 1e-12
    v = separability_verdict(sig)
    assert v.kind == ENTANGLED


def test_sigma_pair_symmetric_trivial():
    sig = pair_sigma(0.0, 0.0, [0.3, -0.2, 0.1])
    assert sig.s0 == 1.0
    assert np.allclose(sig.s, [0.3, -0.2, 0.1], atol=0)


def test_sigma_pair_b1zero_reference():
    sig = pair_sigma(0.2, 0.0, [0.3, 0.3, 0.3])
    assert abs(sig.tprime_sum - SUM_B1ZERO) < 1e-12
    assert abs(sig.tprime_sum - 0.92756) < 1e-4
    assert separability_verdict(sig).kind == SEPARABLE


def test_sigma_pair_b1zero_matches_brute_force_substitution():
    # independent route: apply the axis boosts to R and renormalize
    (ba, bb), _ = solve_pair_general(0.2, 0.0, 0.3)
    p = HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])
    sig, offdiag = eliminate_and_diagonalize(r_from_hs(p), _boost_x(ba, 1), _boost_x(bb, 1))
    closed = pair_sigma(0.2, 0.0, [0.3, 0.3, 0.3])
    assert abs(sig.tprime_sum - closed.tprime_sum) < 1e-12
    assert abs(sig.s0 - closed.s0) < 1e-12
    assert offdiag < 1e-12


def test_sigma_pair_b1zero_trivial_cases():
    sig = pair_sigma(0.0, 0.0, [0.4, 0.2, 0.1])
    assert sig.s0 == 1.0 and np.allclose(sig.s, [0.4, 0.2, 0.1], atol=0)
    sig = pair_sigma(0.5, 0.0, [0.0, 0.2, 0.1])
    assert abs(sig.s0 - np.sqrt(0.75)) < 1e-12
    assert abs(sig.s[0]) < 1e-15


def test_sigma_pair_b1zero_reality_violation():
    # |1 - t1^2 - a1^2| < |2 a1 t1| has no real boost
    with pytest.raises(NoPhysicalBoostError):
        solve_pair_general(0.8, 0.0, 0.7)


def test_single_pair_sigma_matches_the_pair_invariants():
    # case a) for any a_k, b_k: the certified solve against the paper's
    # closed form from the pair invariants
    for axis in (1, 2, 3):
        spec = SampleSpec("single-pair", 200, 7, axis)
        k = axis - 1
        for index in range(spec.count):
            p = random_state(spec, index)
            report = solve_normal_form(p)
            assert report.classification.is_generic, (axis, index)
            closed = pair_sigma(p.a[k], p.b[k], np.diag(p.t), axis)
            assert abs(report.sigma.s0 - closed.s0) < 1e-12, (axis, index)
            expected = sorted(closed.s, key=lambda x: -abs(x))
            assert np.abs(report.sigma.s - expected).max() < 1e-12, (axis, index)


def test_cubic_coefficients_and_betas(cubic_state):
    coeffs = cubic_coefficients(0.1, 0.15, np.array([0.3, -0.2, 0.4]))
    assert np.abs(coeffs - np.array([1.0, -13.65, 3.6, -0.2])).max() < 1e-12
    (b1, b2, b3), _ = solve_symmetric([0.1, 0.15, 0.0], [0.3, -0.2, 0.4])
    assert b3 == 0.0
    assert abs(b1 - BETA1_CUBIC) < 1e-12
    assert abs(b2 - BETA2_CUBIC) < 1e-12
    assert abs(b1 - 0.0792) < 5e-5
    assert abs(b2 - 0.1967) < 5e-5
    assert b1 * b1 + b2 * b2 < 1.0


def test_cubic_trivial_and_errors():
    betas, residual = solve_symmetric(np.zeros(3), [0.3, -0.2, 0.4])
    assert betas.tolist() == [0.0, 0.0, 0.0] and residual == 0.0
    # a vanishing first component is relabelled, not rejected
    betas, residual = solve_symmetric([0.0, 0.15, 0.1], [0.3, -0.2, 0.4])
    assert betas[0] == 0.0 and betas[1] != 0.0 and betas[2] != 0.0
    assert residual < 1e-12
    lhs = (0.15 - betas[1] * -0.2) / betas[1]
    assert abs(lhs - (1.0 - 0.15 * betas[1] - 0.1 * betas[2])) < 1e-10
    # an exact tie on two nonzero axes solves like the merged state
    _assert_solves_as_merged([0.1, 0.15, 0.0], [0.3, 0.3, 0.4])
    # a tie with a zero axis is no tie at all
    betas, _ = solve_symmetric([0.1, 0.15, 0.0], [0.3, -0.2, 0.3])
    assert betas[2] == 0.0 and betas[0] != 0.0


def test_cubic_ratio_identity():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(300):
        a1, a2 = rng.uniform(-0.5, 0.5, 2)
        tdiag = rng.uniform(-0.5, 0.5, 3)
        if abs(a1) < 1e-3 or abs(tdiag[1] - tdiag[0]) < 1e-3:
            continue
        try:
            (b1, b2, _), _ = solve_symmetric([a1, a2, 0.0], tdiag)
        except NoPhysicalBoostError:
            continue
        if abs(b1) < 1e-12 or abs(b2) < 1e-12:
            continue
        checked += 1
        lhs = (a1 - b1 * tdiag[0]) / b1
        rhs = (a2 - b2 * tdiag[1]) / b2
        assert abs(lhs - rhs) < 1e-10
    assert checked > 50


def test_quartic_coefficients_and_betas(quartic_state):
    coeffs = quartic_coefficients(
        np.array([0.1, 0.15, 0.2]), np.array([0.3, -0.2, 0.2])
    )
    assert np.abs(coeffs - np.array([1.0, -18.65, 18.05, -3.8, 0.2])).max() < 1e-12
    betas, _ = solve_symmetric([0.1, 0.15, 0.2], [0.3, -0.2, 0.2])
    for got, frozen, printed in zip(betas, BETAS_QUARTIC, (0.0816, 0.2068, 0.1777)):
        assert abs(got - frozen) < 1e-12
        assert abs(got - printed) < 2e-3
    assert sum(x * x for x in betas) < 1.0


def test_quartic_fundamental_identity():
    a = np.array([0.1, 0.15, 0.2])
    t = np.array([0.3, -0.2, 0.2])
    betas, _ = solve_symmetric(a, t)
    lhs = (a[0] - betas[0] * t[0]) / betas[0]
    rhs = 1.0 - float(a @ betas)
    assert abs(lhs - rhs) < 1e-10


def test_quartic_continuity_to_zero():
    for eps in (1e-2, 1e-3, 1e-4):
        betas, _ = solve_symmetric([eps, eps, eps], [0.3, -0.2, 0.2])
        assert np.abs(betas).max() < 5 * eps


def test_symmetric_solve_matches_the_root_scan_oracle(monkeypatch):
    # every case b) solve on a corpus with near-boundary and full-t states and
    # on 200 samples per symmetric family: the Newton root is the root scan's
    # choice, and it is s0, the corner of Sigma (mu is an eigenvalue of R eta)
    rows = corpus_rows(monkeypatch, 3, 2048)
    states = [HSParams(r[0:3], r[3:6], np.reshape(r[6:], (3, 3))) for r in rows]
    for family in ("symmetric-two", "symmetric-three", "full-symmetric"):
        spec = SampleSpec(family, 200, 5)
        states += [p for found, _, _ in sampling._sample(spec, range(200)) for p in found]
    solves, evaluations = record_symmetric_solves(monkeypatch), []
    secular = normal_form._secular

    def recording_secular(values, weights, mu):
        g, dg = secular(values, weights, mu)
        evaluations.append((mu, g))
        return g, dg

    monkeypatch.setattr(normal_form, "_secular", recording_secular)
    generic = 0
    for params in states:
        solves.clear()
        evaluations.clear()
        rec = sampling.cross_validate(params)
        # no linear terms: the zero boost, no secular equation
        if not solves or not any(solves[0][0]):
            continue
        try:
            expected = symmetric_velocity_oracle(*solves[0])
        except NoPhysicalBoostError:
            assert rec.classification.kind == NO_PHYSICAL_BOOST
            continue
        assert rec.classification.kind == GENERIC
        generic += 1
        betas = np.array(rec.report.betas)
        assert np.abs(betas - expected).max() <= 1e-14 * np.abs(expected).max()
        # the last evaluation of g is at the root returned, and the reported
        # residual is |g| there, the value _FUNDAMENTAL_TOL accepted
        mu, g = evaluations[-1]
        s0 = rec.report.sigma.s0
        assert abs(mu - s0) <= 1e-13 * s0
        assert rec.report.polynomial_residual == abs(g) <= _FUNDAMENTAL_TOL
    assert generic >= 1000


def test_symmetric_solve_raises_no_arithmetic_error():
    # finite inputs over the float range, poles at or past mu = -1 and poles
    # a few ulps apart: a velocity or NoPhysicalBoostError, never a
    # ZeroDivisionError, an OverflowError or a warning
    rng = np.random.default_rng(41)
    signs = np.array([-1.0, 1.0])
    cases = [
        ([1e200, 1e200, 0.0], [0.1, 0.2, 0.3]),
        ([1.0, 1.0, 1.0], [1e300, -1e300, 0.0]),
        ([0.3, 0.2, 0.1], [-1.0, 0.2, 0.3]),
        ([0.3, 0.2, 0.1], [-1e200, -1.5, 0.3]),
        ([0.3, 0.2, 0.1], [0.3, 0.3 + 1e-16, 0.3 - 1e-16]),
        ([0.3, 0.2, 0.1], [-0.5, np.nextafter(-0.5, 0.0), 0.1]),
    ]
    for _ in range(2000):
        a = 10.0 ** rng.uniform(-200, 200, 3) * signs[rng.integers(0, 2, 3)]
        t = 10.0 ** rng.uniform(-200, 200, 3) * signs[rng.integers(0, 2, 3)]
        cases.append((a, t))
    for _ in range(500):
        a = rng.uniform(-1.0, 1.0, 3)
        cases.append((a, rng.uniform(-3.0, -1.0, 3)))
        cases.append((a, rng.uniform(-0.9, 0.9) + 1e-16 * rng.integers(-2, 3, 3)))
    solved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoPhysicalBoostError):
            solve_symmetric([1e200, 1e200, 0.0], [0.1, 0.2, 0.3])
        for a, t in cases:
            try:
                _, residual = solve_symmetric(a, t)
            except (NoPhysicalBoostError, BoostLimitError):
                continue
            assert math.isfinite(residual) and residual <= _FUNDAMENTAL_TOL, (a, t)
            solved += 1
    assert solved > 0


def test_tprime_sum_is_the_numpy_sum():
    # the float sum of |s_i / s0| is numpy's, bit for bit, on every Sigma of
    # 200 samples per family
    sigmas = 0
    for family in FAMILIES:
        spec = SampleSpec(family, 200, 1)
        for params in (p for found, _, _ in sampling._sample(spec, range(200)) for p in found):
            sigma = sampling.cross_validate(params).report.sigma
            if sigma is not None:
                sigmas += 1
                expected = float(np.abs(sigma.s / sigma.s0).sum())
                assert sigma.tprime_sum.hex() == expected.hex()
    assert sigmas >= 1000


def _assert_solves_as_merged(a, tdiag):
    """An exact tie solves like the state with the tied components merged
    onto the first tied axis (a rotation in the tied plane, which leaves t
    alone): every velocity is a_j / (mu + t_j) with the merged state's mu."""
    a, tdiag = np.asarray(a, dtype=float), np.asarray(tdiag, dtype=float)
    first = [int(np.flatnonzero(tdiag == tdiag[i])[0]) for i in range(3)]
    merged = np.zeros(3)
    for i in range(3):
        merged[first[i]] = np.hypot(merged[first[i]], a[i])
    betas, residual = solve_symmetric(a, tdiag)
    want, _ = solve_symmetric(merged, tdiag)
    assert residual < 1e-12
    ratio = [want[f] / merged[f] if merged[f] != 0.0 else 0.0 for f in first]
    assert np.allclose(betas, a * ratio, rtol=0.0, atol=1e-12)
    assert np.linalg.norm(betas) == pytest.approx(np.linalg.norm(want), abs=1e-12)


def test_quartic_errors():
    for tdiag in ([0.3, -0.2, -0.2], [0.3, 0.3, 0.2], [0.2, -0.2, 0.2], [0.1, 0.1, 0.1]):
        _assert_solves_as_merged([0.1, 0.15, 0.2], tdiag)
    with pytest.raises(InvalidParameterError):
        solve_symmetric([0.1, np.nan, 0.2], [0.3, -0.2, 0.2])
    with pytest.raises(InvalidParameterError):
        solve_symmetric([0.1, 0.15, 0.2], [0.3, -0.2, np.inf])


def test_symmetric_solve_is_permutation_covariant():
    # the solver sorts the poles t_j itself, so relabelling the input
    # relabels the output bit for bit whenever the t_j are distinct
    rng = np.random.default_rng(83)
    solved = 0
    for trial in range(300):
        a = rng.uniform(-0.5, 0.5, 3)
        if trial % 3 == 0:
            a[rng.integers(3)] = 0.0
        t = rng.uniform(-0.9, 0.9, 3)
        try:
            betas, residual = solve_symmetric(a, t)
        except NoPhysicalBoostError:
            continue
        solved += 1
        for perm in map(list, itertools.permutations(range(3))):
            got, got_residual = solve_symmetric(a[perm], t[perm])
            assert got.tobytes() == betas[perm].tobytes()
            assert got_residual == residual
    assert solved > 100


def test_single_component_solves_as_the_symmetric_pair():
    for axis in range(3):
        a = np.zeros(3)
        a[axis] = 0.64
        betas, residual = solve_symmetric(a, [0.3, 0.3, 0.3])
        assert abs(betas[axis] - BETA_SYM_064) < 1e-12
        assert np.delete(betas, axis).tolist() == [0.0, 0.0]
        assert residual < 1e-12


def test_eliminate_identity_case():
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [0.2, -0.5, 0.3])
    sig, offdiag = eliminate_and_diagonalize(r_from_hs(p), np.eye(4), np.eye(4))
    assert sig.s0 == 1.0
    assert np.allclose(sig.s, [-0.5, 0.3, 0.2], atol=1e-15)  # descending |s|
    assert offdiag == 0.0


def test_certificate_rejects_linear_terms_left_in_place(cubic_state):
    with pytest.raises(SolverInconsistencyError, match="linear terms"):
        eliminate_and_diagonalize(r_from_hs(cubic_state), np.eye(4), np.eye(4))


def test_certificate_rejects_an_asymmetric_spatial_block():
    # a rotation on one side only keeps the zero linear terms but turns the
    # distinct diagonal correlations into an asymmetric block
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [0.2, -0.5, 0.3])
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.eye(4)
    rotation[1:3, 1:3] = [[c, -s], [s, c]]
    with pytest.raises(SolverInconsistencyError, match="not symmetric"):
        eliminate_and_diagonalize(r_from_hs(p), np.eye(4), rotation)


def test_eliminate_reference_cubic(cubic_state):
    (b1, b2, _), _ = solve_symmetric([0.1, 0.15, 0.0], [0.3, -0.2, 0.4])
    boost = symmetric_boost([b1, b2, 0.0])
    sig, offdiag = eliminate_and_diagonalize(r_from_hs(cubic_state), boost, boost)
    q_expected = np.array(
        [
            [0.96257, 0, 0, 0],
            [0, 0.292049, -0.015808, 0],
            [0, -0.015808, -0.229474, 0],
            [0, 0, 0, 0.4],
        ]
    )
    q = boost @ r_from_hs(cubic_state) @ boost.T
    assert np.abs(q - q_expected).max() < 5e-4
    assert offdiag < 1e-12
    assert abs(sig.s0 - 0.96257) < 5e-5
    expected_ratios = np.array([0.415552, 0.303945, -0.238396])  # descending |s|
    assert np.abs(sig.tprime - expected_ratios).max() < 1e-3
    assert abs(sig.tprime_sum - 0.957893) < 1e-3


def test_eliminate_reference_quartic(quartic_state):
    betas, _ = solve_symmetric([0.1, 0.15, 0.2], [0.3, -0.2, 0.2])
    boost = symmetric_boost(betas)
    q_expected = np.array(
        [
            [0.92527, 0, 0, 0],
            [0, 0.29218, -0.01648, -0.01713],
            [0, -0.01648, -0.230845, -0.03401],
            [0, -0.01713, -0.03401, 0.16432],
        ]
    )
    q = boost @ r_from_hs(quartic_state) @ boost.T
    assert np.abs(q - q_expected).max() < 5e-3
    sig, offdiag = eliminate_and_diagonalize(r_from_hs(quartic_state), boost, boost)
    assert offdiag < 1e-9
    assert abs(sig.s0 - 0.9257) < 5e-3
    assert np.abs(sig.s - np.array([0.2943, -0.2344, 0.1653])).max() < 5e-3
    assert sig.tprime_sum < 1.0


def test_separability_verdict_examples():
    v = separability_verdict(SigmaForm(1.0, np.array([0.3, 0.3, 0.3])))
    assert v.kind == SEPARABLE and abs(v.witness + 0.1) < 1e-12
    sig = SigmaForm(0.5, np.array([0.3, 0.3, 0.3]))
    assert separability_verdict(sig).kind == ENTANGLED


def test_classify_non_generic_cases():
    a_case = HSParams.diagonal([1, 0, 0], [0, 0, 0], [0, 0, 0])
    assert solve_normal_form(a_case).classification.kind == NON_GENERIC_A
    b_case = HSParams.diagonal([0, 0, 0], [0, 1, 0], [0, 0, 0])
    assert solve_normal_form(b_case).classification.kind == NON_GENERIC_B
    c_case = HSParams.diagonal([0.5, 0, 0], [0.5, 0, 0], [0, 0, 0])
    assert solve_normal_form(c_case).classification.kind == NON_GENERIC_C
    d_case = HSParams.diagonal([1, 0, 0], [1, 0, 0], [1, 0, 0])
    cls = solve_normal_form(d_case).classification
    assert cls.kind == NON_GENERIC_D
    assert "known verdict: separable" in cls.detail


def test_classify_non_generic_axis_permutation():
    a_case = HSParams.diagonal([0, 0, -1], [0, 0, 0], [0, 0, 0])
    assert solve_normal_form(a_case).classification.kind == NON_GENERIC_A
    c_case = HSParams.diagonal([0, 0.5, 0], [0, 0.5, 0], [0.2, 0, 0.2])
    assert solve_normal_form(c_case).classification.kind == NON_GENERIC_C


def test_classify_generic_and_boundary(pair64):
    assert solve_normal_form(pair64).classification.kind == GENERIC
    boundary = HSParams.diagonal([0.65, 0, 0], [0.65, 0, 0], [0.3, 0.1, 0.1])
    cls = solve_normal_form(boundary).classification
    assert cls.kind == NO_PHYSICAL_BOOST


def _solve_bits(report):
    sigma = report.sigma
    floats = [*report.betas, report.polynomial_residual, report.offdiag_residual]
    return (
        report.classification,
        report.boost_kind,
        report.axis,
        [x.hex() for x in floats],
        None if sigma is None else (sigma.s0.hex(), sigma.s.tobytes()),
    )


def test_solve_normal_form_reduces_a_full_t(monkeypatch, tmp_path, capsys):
    # on every full-t state of the corpus the report holds params with an
    # exactly diagonal t and the note analyze prints, and solving those params
    # again gives the same solve, bit for bit
    path = tmp_path / "state.json"
    full = 0
    for row in corpus_rows(monkeypatch, 0, 1024).tolist():
        p = HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3)))
        if p.is_t_diagonal():
            continue
        full += 1
        report = solve_normal_form(p)
        t = report.reduced.t
        assert np.array_equal(t, np.diag(t.diagonal()))
        path.write_text(json.dumps({"a": row[0:3], "b": row[3:6], "t_full": row[6:]}))
        cli.main(["analyze", str(path)])
        assert json.loads(capsys.readouterr().out)["criteria_notes"][0] == report.note
        again = solve_normal_form(report.reduced)
        assert again.reduced is report.reduced and again.note is None
        assert _solve_bits(again) == _solve_bits(report)
    assert full > 100


def test_classify_unsupported_family():
    p = HSParams.diagonal([0.2, 0, 0], [0, 0.3, 0], [0.1, 0.1, 0.1])
    cls = solve_normal_form(p).classification
    assert cls.kind == NO_PHYSICAL_BOOST
    assert "not symmetric" in cls.detail


def near_symmetric_full_t() -> HSParams:
    # |a - b| = 9.0e-13 passes is_symmetric; rotating b on its own would
    # spread it to 1.56e-12, past ZERO_TOL
    a = np.array([0.1, 0.12, 0.08])
    q = np.column_stack(
        [np.array([1.0, -1, 1]) / math.sqrt(3), np.array([1.0, 1, 0]) / math.sqrt(2),
         np.array([-1.0, 1, 2]) / math.sqrt(6)]
    )
    return HSParams(a, a + 0.9e-12 * np.array([1, -1, 1]), q @ np.diag([0.3, -0.2, 0.1]) @ q.T)


def test_shared_rotation_keeps_the_symmetric_decision():
    p = near_symmetric_full_t()
    assert p.is_symmetric() and not p.is_t_diagonal()
    report = solve_normal_form(p)
    assert report.reduced.is_symmetric()
    assert np.array_equal(report.reduced.a, report.reduced.b)
    assert "symmetric state preserved" in report.note
    assert (report.classification.kind, report.boost_kind) == (GENERIC, "symmetric")
    assert separability_verdict(report.sigma).kind == peres_horodecki(rho_from_hs(p)).kind == SEPARABLE


def test_reduced_params_solve_to_the_same_report():
    report = solve_normal_form(near_symmetric_full_t())
    again = solve_normal_form(report.reduced)
    assert again.classification == report.classification
    assert again.boost_kind == report.boost_kind == "symmetric"
    assert np.array(again.betas).tobytes() == np.array(report.betas).tobytes()
    for field in ("s0", "s", "tprime", "tprime_sum"):
        want = np.asarray(getattr(report.sigma, field)).tobytes()
        assert np.asarray(getattr(again.sigma, field)).tobytes() == want, field


def test_solver_reports_offdiag_certificate(pair64):
    report = solve_normal_form(pair64)
    assert report.classification.kind == GENERIC
    assert report.offdiag_residual < 1e-9
    assert report.boost_kind == "pair"
    assert report.axis == 2


def test_single_pair_axis_relabeling_invariance():
    # the normalized sum must not depend on which axis carries the pair
    base_t = [0.3, -0.1, 0.45]
    sums = []
    for axis in range(3):
        a = np.zeros(3)
        b = np.zeros(3)
        a[axis] = 0.35
        b[axis] = -0.15
        order = [axis % 3, (axis + 1) % 3, (axis + 2) % 3]
        tdiag = np.empty(3)
        tdiag[order] = base_t
        report = solve_normal_form(HSParams.diagonal(a, b, tdiag))
        assert report.classification.kind == GENERIC
        sums.append(report.sigma.tprime_sum)
    assert max(sums) - min(sums) < 1e-9


def test_symmetric_two_driver_handles_any_zero_axis(cubic_state):
    ref = solve_normal_form(cubic_state).sigma.tprime_sum
    for order in ((2, 0, 1), (1, 2, 0), (0, 2, 1)):
        idx = np.asarray(order)
        p = HSParams.diagonal(
            cubic_state.a[idx], cubic_state.b[idx], np.diag(cubic_state.t)[idx]
        )
        report = solve_normal_form(p)
        assert report.classification.kind == GENERIC
        assert abs(report.sigma.tprime_sum - ref) < 1e-9


def test_degenerate_quadratic_family():
    # symmetric pair with t1 = 1: the beta_a quadratic vanishes identically;
    # beta_a = 0 with beta_b = a still eliminates the linear block exactly
    for a, t2 in ((0.3, 0.2), (-0.4, 0.1)):
        p = HSParams.diagonal([a, 0, 0], [a, 0, 0], [1.0, t2, -t2])
        rho = rho_from_hs(p)
        report = solve_normal_form(p)
        assert report.classification.kind == GENERIC
        assert report.offdiag_residual < 1e-12
        lorentz = separability_verdict(report.sigma)
        assert lorentz.kind == peres_horodecki(rho).kind == ENTANGLED


def test_entangled_member_of_case_c_family():
    # equal transverse correlations on a half-strength symmetric pair stay
    # non-generic, and the exact test still supplies the (entangled) verdict
    p = HSParams.diagonal([0.5, 0, 0], [0.5, 0, 0], [0.0, 0.4, 0.4])
    assert solve_normal_form(p).classification.kind == NON_GENERIC_C
    assert peres_horodecki(rho_from_hs(p)).kind == ENTANGLED


def test_driver_verdicts_agree_with_ppt_on_references(
    pair64, one_sided02, cubic_state, quartic_state
):
    for p in (pair64, one_sided02, cubic_state, quartic_state):
        report = solve_normal_form(p)
        assert report.classification.kind == GENERIC
        lorentz = separability_verdict(report.sigma)
        ppt = peres_horodecki(rho_from_hs(p))
        assert lorentz.kind == ppt.kind


@pytest.mark.parametrize(
    "a, tdiag, merged",
    [
        ([0.2, 0.1, 0.0], [0.3, 0.3, 0.1], [np.hypot(0.2, 0.1), 0.0, 0.0]),
        ([0.1, 0.15, 0.2], [0.3, -0.2, -0.2], [0.1, 0.25, 0.0]),
    ],
)
def test_exact_tie_solves_as_the_rotated_state(a, tdiag, merged):
    # the tied state solves in its own frame; the rotation in the tied plane
    # that merges its linear terms onto one axis must not change the boost's
    # speed or the normal form
    tied = solve_normal_form(HSParams.diagonal(a, a, tdiag))
    rotated = solve_normal_form(HSParams.diagonal(merged, merged, tdiag))
    assert tied.classification == Classification(GENERIC)
    assert rotated.classification == Classification(GENERIC)
    assert tied.boost_kind == "symmetric"
    betas = np.asarray(tied.betas)
    if rotated.boost_kind == "pair":
        # the velocities of the two sides on one axis
        assert rotated.betas[0] == pytest.approx(rotated.betas[1], abs=1e-12)
        speed = abs(rotated.betas[0])
    else:
        speed = float(np.linalg.norm(rotated.betas))
    assert np.linalg.norm(betas) == pytest.approx(speed, abs=1e-12)
    assert tied.sigma.tprime_sum == pytest.approx(rotated.sigma.tprime_sum, abs=1e-12)
    # beta is parallel to a across the tie group (axis 2 is in it in both
    # states): one ratio beta_j / a_j
    group = [i for i in range(3) if a[i] != 0.0 and tdiag[i] == tdiag[1]]
    assert len(group) >= 2
    ratios = betas[group] / np.asarray(a)[group]
    assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)


def test_exact_tie_rotated_onto_a_structural_form():
    # a = b = (0.3, 0.4, 0) with t = 0 is case c) turned about the z axis
    rotated = HSParams.diagonal([0.3, 0.4, 0], [0.3, 0.4, 0], [0, 0, 0])
    cls = solve_normal_form(rotated).classification
    assert cls.kind == NON_GENERIC_C
    on_axis = HSParams.diagonal([0.5, 0, 0], [0.5, 0, 0], [0, 0, 0])
    assert cls == solve_normal_form(on_axis).classification


def test_exact_ties_agree_with_ppt():
    """Symmetric states whose active axes tie exactly, in every tie pattern."""
    rng = np.random.default_rng(31)
    # (active axes, index map that copies one drawn t value onto another axis)
    patterns = (
        ((0, 1), [0, 0, 1]),
        ((0, 2), [0, 1, 0]),
        ((0, 1, 2), [0, 0, 1]),
        ((0, 1, 2), [0, 1, 1]),
        ((0, 1, 2), [0, 0, 0]),
    )
    generic = 0
    checked = 0
    while checked < 400:
        axes, ties = patterns[checked % len(patterns)]
        a = np.zeros(3)
        a[list(axes)] = rng.uniform(0.05, 0.6, len(axes)) * rng.choice([-1, 1], len(axes))
        tdiag = rng.uniform(-0.9, 0.9, 3)[ties]
        p = HSParams.diagonal(a, a, tdiag)
        rho = rho_from_hs(p)
        if np.linalg.eigvalsh(rho)[0] < 1e-6:
            continue
        checked += 1
        report = solve_normal_form(p)
        if report.classification.kind != GENERIC:
            continue
        generic += 1
        assert report.offdiag_residual < 1e-9
        ppt = peres_horodecki(rho)
        if abs(ppt.witness) > 1e-8:
            assert separability_verdict(report.sigma).kind == ppt.kind
    assert generic >= 0.9 * checked


@pytest.mark.parametrize(
    "a, tdiag_of",
    [
        ([0.1, 0.15, 0.2], lambda eps: [0.3, -0.2, -0.2 + eps]),
        ([0.2, 0.1, 0.05], lambda eps: [0.3 + eps, 0.3, 0.3 - eps]),
    ],
)
def test_near_ties_solve_like_the_exact_tie(a, tdiag_of):
    # the reduced cubic and quartic divide by the spreads t_j - t_1; the
    # secular equation does not, so a near tie is as generic as the tie
    tprime_sums = []
    for eps in (0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-7):
        p = HSParams.diagonal(a, a, tdiag_of(eps))
        report = solve_normal_form(p)
        assert report.classification == Classification(GENERIC), eps
        assert report.polynomial_residual <= 1e-12, eps
        ppt = peres_horodecki(rho_from_hs(p))
        assert separability_verdict(report.sigma).kind == ppt.kind, eps
        tprime_sums.append(report.sigma.tprime_sum)
    assert np.abs(np.array(tprime_sums) - tprime_sums[0]).max() <= 1e-6


def test_symmetric_failure_names_the_light_speed_rule():
    # the one physical root has |beta| = 0.629: past 1 - beta_limit = 0.5,
    # below the default limit
    p = HSParams.diagonal([0.24, -0.45, 0], [0.24, -0.45, 0], [-0.14, 0.3, -0.08])
    cls = solve_normal_form(p, beta_limit=0.5).classification
    assert cls.kind == NO_PHYSICAL_BOOST
    assert "|beta| < 1 - beta_limit = 0.5" in cls.detail
    report = solve_normal_form(p)
    assert report.classification.kind == GENERIC
    assert np.linalg.norm(report.betas) == pytest.approx(0.629, abs=5e-4)


def test_symmetric_beta1_is_a_root_of_the_papers_polynomial():
    # the secular form is a change of variable, mu = a_1/beta_1 - t_1: beta_1
    # must solve the paper's cubic (two pairs) or quartic (three pairs)
    rng = np.random.default_rng(97)
    checked = {2: 0, 3: 0}
    while min(checked.values()) < 100:
        n = 2 + int(rng.integers(2))
        a = np.zeros(3)
        a[:n] = rng.uniform(0.05, 0.6, n) * rng.choice([-1.0, 1.0], n)
        tdiag = rng.uniform(-0.9, 0.9, 3)
        if min(abs(tdiag[j] - tdiag[i]) for i in range(n) for j in range(i + 1, n)) < 1e-3:
            continue
        try:
            betas, _ = solve_symmetric(a, tdiag)
        except NoPhysicalBoostError:
            continue
        if n == 2:
            coeffs = cubic_coefficients(a[0], a[1], tdiag)
        else:
            coeffs = quartic_coefficients(a, tdiag)
        b1 = betas[0]
        scale = float(np.abs(coeffs) @ np.abs(b1) ** np.arange(len(coeffs) - 1, -1, -1))
        assert abs(np.polyval(coeffs, b1)) <= 1e-10 * scale
        checked[n] += 1
