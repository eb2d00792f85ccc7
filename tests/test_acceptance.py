"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import time

import numpy as np
import pytest

from qubitsep import (
    ENTANGLED,
    SEPARABLE,
    BoostLimitError,
    ETA,
    HSParams,
    SampleSpec,
    batch_stats,
    boost_general,
    boost_x,
    cross_validate,
    eigenvalues_hermitian,
    eliminate_and_diagonalize,
    mds_criterion,
    partial_transpose_matrix,
    peres_horodecki,
    r_from_hs,
    r_from_rho,
    random_state,
    rho_from_hs,
    rho_from_r,
    separability_verdict,
    solve_normal_form,
    solve_pair_general,
    solve_symmetric,
    tdiag_via_local_rotations,
)
from qubitsep.normal_form import (
    GENERIC,
    NON_GENERIC_A,
    NON_GENERIC_B,
    NON_GENERIC_C,
    NON_GENERIC_D,
)

from paper_formulas import (
    cubic_coefficients,
    eigenvalues_closed_form_pair,
    half_eigenvalue_criterion,
    pair_sigma,
    partial_transpose,
)


_MODULE_START = time.monotonic()


def _report(number: str, description: str, body) -> None:
    try:
        body()
    except AssertionError:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_eigenvalue_regression():
    def body():
        expected = np.array([0.02, 0.1, 1.30, 2.58])
        closed = eigenvalues_closed_form_pair(2, 0.64, 0.64, [0.3, 0.3, 0.3])
        assert np.abs(closed - expected).max() < 1e-9
        p = HSParams.diagonal([0, 0.64, 0], [0, 0.64, 0], [0.3, 0.3, 0.3])
        dense = eigenvalues_hermitian(rho_from_hs(p))
        assert np.abs(closed - dense).max() < 1e-10

    _report("1", "reference spectrum {0.02, 0.1, 1.30, 2.58}", body)


def test_criterion_2_pt_regression():
    def body():
        p = HSParams.diagonal([0, 0.64, 0], [0, 0.64, 0], [0.3, 0.3, 0.3])
        pt_spec = eigenvalues_hermitian(rho_from_hs(partial_transpose(p)))
        precise = np.array([-0.113648, 0.7, 0.7, 2.713648])
        rounded = np.array([-0.115, 0.70, 0.70, 2.715])
        assert np.abs(pt_spec - precise).max() < 1e-6
        assert np.abs(pt_spec - rounded).max() < 2e-3
        assert peres_horodecki(rho_from_hs(p)).kind == ENTANGLED

    _report("2", "partial-transpose spectrum and entangled verdict", body)


def test_criterion_3_symmetric_single_pair():
    def body():
        beta, _ = solve_pair_general(0.64, 0.64, 0.3)
        assert abs(beta - 0.8382) < 5e-4
        assert abs(beta - 0.83816) < 5e-4
        gamma_sq = 1.0 / (1.0 - beta * beta)
        assert abs(gamma_sq - 3.3615) < 1e-4
        sig = pair_sigma(0.64, 0.64, [0.3, 0.3, 0.3])
        assert abs(sig.s0 - 0.4636) < 1e-4
        assert abs(sig.tprime[1] - 0.6471) < 1e-4
        assert abs(sig.tprime[2] - 0.6471) < 1e-4
        assert abs(sig.tprime_sum - 1.8095) < 1e-2
        assert abs(sig.tprime_sum - 1.8043) < 1e-4
        lorentz = separability_verdict(sig)
        p = HSParams.diagonal([0.64, 0, 0], [0.64, 0, 0], [0.3, 0.3, 0.3])
        ppt = peres_horodecki(rho_from_hs(p))
        assert lorentz.kind == ENTANGLED and ppt.kind == ENTANGLED

    _report("3", "symmetric pair: beta, gamma^2, s0, t'-sum, verdict", body)


def test_criterion_4_one_sided_pair():
    def body():
        beta_a, beta_b = solve_pair_general(0.2, 0.0, 0.3)
        assert abs(beta_a - (-0.069297)) < 1e-6
        assert abs(beta_b - 0.220789) < 1e-6
        c2 = 0.0 - 0.2 * 0.3
        c1 = 0.2**2 - 0.0 + 0.3**2 - 1.0
        assert abs((c2 * beta_a + c1) * beta_a + c2) < 1e-12
        sig = pair_sigma(0.2, 0.0, [0.3, 0.3, 0.3])
        # brute-force substitution oracle: boost R on both sides, renormalize
        p = HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])
        oracle_sig, _ = eliminate_and_diagonalize(
            r_from_hs(p), boost_x(beta_a), boost_x(beta_b)
        )
        assert abs(sig.tprime_sum - oracle_sig.tprime_sum) < 1e-4
        assert abs(sig.tprime_sum - 0.92756) < 1e-4
        lorentz = separability_verdict(sig)
        rho = rho_from_hs(p)
        ppt = peres_horodecki(rho)
        half = half_eigenvalue_criterion(rho, p)
        max_lam = float(eigenvalues_hermitian(rho)[-1] / 4)
        assert abs(max_lam - 0.375) < 1e-12
        assert lorentz.kind == SEPARABLE
        assert ppt.kind == SEPARABLE
        assert half.kind == SEPARABLE

    _report("4", "one-sided pair: betas, t'-sum 0.92756, three-way separable", body)


def test_criterion_5_cubic_example():
    def body():
        tdiag = np.array([0.3, -0.2, 0.4])
        coeffs = cubic_coefficients(0.1, 0.15, tdiag)
        assert np.abs(coeffs - np.array([1.0, -13.65, 3.6, -0.2])).max() < 1e-12
        (b1, b2, _), _ = solve_symmetric([0.1, 0.15, 0.0], tdiag)
        assert abs(b1 - 0.0792) < 5e-5
        assert abs(b2 - 0.1967) < 5e-5
        p = HSParams.diagonal([0.1, 0.15, 0], [0.1, 0.15, 0], tdiag)
        boost = boost_general([b1, b2, 0.0])
        q = boost @ r_from_hs(p) @ boost.T
        q_expected = np.array(
            [
                [0.96257, 0, 0, 0],
                [0, 0.292049, -0.015808, 0],
                [0, -0.015808, -0.229474, 0],
                [0, 0, 0, 0.4],
            ]
        )
        assert np.abs(q - q_expected).max() < 5e-4
        sig, offdiag = eliminate_and_diagonalize(r_from_hs(p), boost, boost)
        assert offdiag < 1e-9
        ratios = np.array([0.303945, -0.238396, 0.415552])
        order = np.argsort(-np.abs(ratios), kind="stable")
        assert np.abs(sig.tprime - ratios[order]).max() < 1e-3
        assert abs(sig.tprime_sum - 0.957893) < 1e-3
        lorentz = separability_verdict(sig)
        ppt = peres_horodecki(rho_from_hs(p))
        assert lorentz.kind == SEPARABLE and ppt.kind == SEPARABLE

    _report("5", "cubic example: coefficients, betas, Q, ratios, verdict", body)


def test_criterion_6_quartic_example():
    def body():
        tdiag = np.array([0.3, -0.2, 0.2])
        a = np.array([0.1, 0.15, 0.2])
        (b1, b2, b3), _ = solve_symmetric(a, tdiag)
        assert abs(b1 - 0.0816) < 2e-3
        assert abs(b2 - 0.2068) < 2e-3
        assert abs(b3 - 0.1777) < 2e-3
        p = HSParams.diagonal(a, a, tdiag)
        boost = boost_general([b1, b2, b3])
        sig, offdiag = eliminate_and_diagonalize(r_from_hs(p), boost, boost)
        assert offdiag < 1e-9
        q = boost @ r_from_hs(p) @ boost.T
        q_expected = np.array(
            [
                [0.92527, 0, 0, 0],
                [0, 0.29218, -0.01648, -0.01713],
                [0, -0.01648, -0.230845, -0.03401],
                [0, -0.01713, -0.03401, 0.16432],
            ]
        )
        assert np.abs(q - q_expected).max() < 5e-3
        assert abs(sig.s0 - 0.9257) < 5e-3
        assert np.abs(sig.s - np.array([0.2943, -0.2344, 0.1653])).max() < 5e-3
        assert np.abs(sig.s).sum() / sig.s0 < 1.0
        lorentz = separability_verdict(sig)
        ppt = peres_horodecki(rho_from_hs(p))
        assert lorentz.kind == SEPARABLE and ppt.kind == SEPARABLE

    _report("6", "quartic example: betas, elimination, Q, s values, verdict", body)


CASE_A = HSParams.diagonal([1, 0, 0], [0, 0, 0], [0, 0, 0])
CASE_B = HSParams.diagonal([0, 0, 0], [1, 0, 0], [0, 0, 0])
CASE_C = HSParams.diagonal([0.5, 0, 0], [0.5, 0, 0], [0, 0, 0])
CASE_D = HSParams.diagonal([1, 0, 0], [1, 0, 0], [1, 0, 0])


def test_criterion_7_non_generic_classification():
    def body():
        assert solve_normal_form(CASE_A).classification.kind == NON_GENERIC_A
        assert solve_normal_form(CASE_B).classification.kind == NON_GENERIC_B
        assert solve_normal_form(CASE_C).classification.kind == NON_GENERIC_C
        assert solve_normal_form(CASE_D).classification.kind == NON_GENERIC_D

    _report("7a", "four light-speed cases classified correctly", body)


def test_criterion_7_cases_a_to_c_separable():
    def body():
        for params in (CASE_A, CASE_B, CASE_C):
            assert peres_horodecki(rho_from_hs(params)).kind == SEPARABLE

    _report("7b", "cases a)-c) separable under the exact test", body)


def test_criterion_7_case_d_entangled_via_ppt():
    def body():
        # The test name records the claim "case d) is always entangled", which
        # this test now refutes.  With a = b = (1,0,0) and t1 = 1,
        # 4 rho = I(x)I + sx(x)I + I(x)sx + sx(x)sx = (I + sx)(x)(I + sx), so
        # rho = |+><+| (x) |+><+|: a product state, separable by definition,
        # whose partial transpose is itself.  The exact test must agree with
        # that known verdict; its witness is the minimum PT eigenvalue, 0 in
        # exact arithmetic and a few ulp in floating point.
        cls = solve_normal_form(CASE_D).classification
        assert cls.kind == NON_GENERIC_D
        assert "known verdict: separable" in cls.detail
        plus = np.full((2, 2), 0.5)
        rho = rho_from_hs(CASE_D)
        assert np.abs(rho - np.kron(plus, plus)).max() <= 1e-15
        assert np.array_equal(partial_transpose_matrix(rho), rho)
        verdict = peres_horodecki(rho)
        assert verdict.kind == SEPARABLE
        assert verdict.boundary
        assert abs(verdict.witness) <= 1e-12

    _report(
        "7c",
        "case d) is the product |++><++| and separable under the "
        "partial-transpose test (the test name records the refuted "
        "'entangled' claim)",
        body,
    )


def test_criterion_7_boundary_boost_limit():
    def body():
        with pytest.raises(BoostLimitError):
            solve_pair_general(0.65, 0.65, 0.3)  # |2a| = |1 + t1| exactly
        eps = 4e-13
        a = (1 + 0.3) * (1 - eps) / 2
        beta, _ = solve_pair_general(a, a, 0.3)
        assert beta < 1.0 and 1.0 - beta < 1e-6

    _report("7d", "boundary |2a| = |1+t1| raises; beta -> 1 just inside", body)


def test_criterion_8_property_suite():
    def body():
        # (i) zero disagreements between the two criteria across families
        plan = [
            ("mds", 2000, 101, 1),
            ("single-pair", 1000, 102, 1),
            ("single-pair", 1000, 103, 2),
            ("single-pair", 1000, 104, 3),
            ("symmetric-two", 2000, 105, 1),
            ("symmetric-three", 2000, 106, 1),
            ("full-symmetric", 1000, 107, 1),
        ]
        total = 0
        for family, count, seed, axis in plan:
            report = batch_stats(
                SampleSpec(family=family, count=count, seed=seed, axis=axis)
            )
            total += report.total
            assert report.disagree_count == 0, (family, seed)
            assert report.max_offdiag_residual < 1e-8
        assert total == 10_000

        # (ii) 1000 random boosts preserve the metric to 1e-12
        rng = np.random.default_rng(202)
        for k in range(1000):
            if k % 2:
                m = boost_x(rng.uniform(-0.99, 0.99), int(rng.integers(1, 4)))
            else:
                v = rng.normal(size=3)
                v *= rng.uniform(0.0, 0.99) / np.linalg.norm(v)
                m = boost_general(v)
            assert np.abs(m.T @ ETA @ m - ETA).max() < 1e-12

        # (iii) 1000 round trips rho <-> HS <-> R below 1e-12
        rng = np.random.default_rng(203)
        for _ in range(1000):
            p = HSParams(
                rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 3))
            )
            rho = rho_from_hs(p)
            q = HSParams.from_r(r_from_rho(rho))
            assert np.abs(q.a - p.a).max() < 1e-12
            assert np.abs(q.b - p.b).max() < 1e-12
            assert np.abs(q.t - p.t).max() < 1e-12
            back = rho_from_r(r_from_rho(rho))
            assert np.abs(back - rho).max() < 1e-12
            assert np.abs(r_from_hs(p) - r_from_rho(rho)).max() < 1e-12

        # (iv) product mixtures satisfy the necessary correlation-sum bound
        spec = SampleSpec(family="product-mixture", count=1, seed=204)
        for index in range(1000):
            p = random_state(spec, index)
            reduced, _, _ = tdiag_via_local_rotations(p)
            tdiag = np.diag(reduced.t)
            assert np.abs(tdiag).sum() <= 1.0 + 1e-9
            assert mds_criterion(tdiag)

        # (v) symmetric states carry the eigenvalue 1 - t1 - t2 - t3
        rng = np.random.default_rng(205)
        for _ in range(1000):
            a = rng.uniform(-1, 1, 3)
            tdiag = rng.uniform(-1, 1, 3)
            spec_vals = eigenvalues_hermitian(rho_from_hs(HSParams.diagonal(a, a, tdiag)))
            assert np.abs(spec_vals - (1.0 - tdiag.sum())).min() < 1e-10

    _report("8", "property suite: 10^4 agreement, metric, round trips, bounds", body)


def test_criterion_8_runtime_budget():
    def body():
        # tests in this module run before this one (file order), so the
        # elapsed wall time covers the whole acceptance suite
        assert time.monotonic() - _MODULE_START < 60.0

    _report("8-time", "acceptance suite completes within 60 seconds", body)
