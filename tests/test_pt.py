import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitsep import (
    ENTANGLED,
    SEPARABLE,
    ContractViolationError,
    HSParams,
    InvalidStateError,
    SampleSpec,
    UnsupportedFormError,
    eigenvalues_hermitian,
    mds_criterion,
    partial_transpose_matrix,
    peres_horodecki,
    random_state,
    rho_from_hs,
    spectra,
)

from qubitsep.hs import PSD_TOL

from conftest import random_params
from paper_formulas import half_eigenvalue_criterion, partial_transpose, ptu

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=unit)
mat33 = arrays(np.float64, (3, 3), elements=unit)


def test_partial_transpose_trivial():
    p = HSParams.zero()
    q = partial_transpose(p)
    assert np.array_equal(q.a, p.a) and np.array_equal(q.t, p.t)


def test_partial_transpose_reference(pair64):
    q = partial_transpose(pair64)
    assert np.allclose(q.a, [0, -0.64, 0], atol=0)
    assert np.allclose(q.b, [0, 0.64, 0], atol=0)
    assert np.allclose(np.diag(q.t), [0.3, -0.3, 0.3], atol=0)


@given(vec3, vec3, mat33)
@settings(deadline=None)
def test_partial_transpose_matches_matrix_level(a, b, t):
    p = HSParams(a, b, t)
    lhs = rho_from_hs(partial_transpose(p))
    rhs = partial_transpose_matrix(rho_from_hs(p))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_transpose_matrix_consistency_bulk():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        p = random_params(rng)
        lhs = rho_from_hs(partial_transpose(p))
        rhs = partial_transpose_matrix(rho_from_hs(p))
        assert np.abs(lhs - rhs).max() < 1e-12


@given(vec3, vec3, mat33)
@settings(deadline=None)
def test_partial_transpose_is_involution(a, b, t):
    p = HSParams(a, b, t)
    q = partial_transpose(partial_transpose(p))
    assert np.array_equal(q.a, p.a)
    assert np.array_equal(q.b, p.b)
    assert np.array_equal(q.t, p.t)


@given(vec3, vec3, mat33)
@settings(deadline=None, max_examples=50)
def test_pt_spectra_agree_between_qubits(a, b, t):
    # why the package transposes qubit A only
    rho = rho_from_hs(HSParams(a, b, t))
    sa = eigenvalues_hermitian(partial_transpose_matrix(rho))
    sb = eigenvalues_hermitian(rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))
    assert np.abs(sa - sb).max() < 1e-10


def test_ptu_reference():
    p = HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])
    q = ptu(p)
    assert np.allclose(q.a, [-0.2, 0, 0], atol=0)
    assert np.allclose(np.diag(q.t), [-0.3, -0.3, -0.3], atol=0)
    assert np.array_equal(q.b, p.b)
    # reproduces I - A - T directly at the matrix level
    expected = (np.eye(4) - (4 * rho_from_hs(p) - np.eye(4))) / 4
    assert np.abs(rho_from_hs(q) - expected).max() < 1e-14


def test_ptu_trivial_and_form_check():
    p = HSParams.zero()
    q = ptu(p)
    assert np.array_equal(q.t, p.t)
    with pytest.raises(UnsupportedFormError):
        ptu(HSParams(np.zeros(3), np.zeros(3), np.ones((3, 3))))


def test_ptu_eigenvalue_complement():
    # with b = 0 the image spectrum is 1/2 - lambda, pairing ends to ends
    spec_def = SampleSpec(family="single-pair", count=1, seed=5)
    for index in range(50):
        p = random_state(spec_def, index)
        p = HSParams.diagonal(p.a, np.zeros(3), np.diag(p.t))
        lam = eigenvalues_hermitian(rho_from_hs(p)) / 4
        lam_img = eigenvalues_hermitian(rho_from_hs(ptu(p))) / 4
        assert np.abs(lam_img - (0.5 - lam[::-1])).max() < 1e-10


def test_peres_horodecki_reference(pair64):
    v = peres_horodecki(rho_from_hs(pair64), tol=1e-10)
    assert v.kind == ENTANGLED
    assert abs(v.witness - (1.3 - np.sqrt(1.9984))) < 1e-12
    assert not v.boundary


def test_peres_horodecki_identity():
    v = peres_horodecki(np.eye(4) / 4)
    assert v.kind == SEPARABLE
    assert v.witness > 0


def test_peres_horodecki_werner():
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [-0.5, -0.5, -0.5])
    v = peres_horodecki(rho_from_hs(p))
    assert v.kind == ENTANGLED
    assert abs(v.witness - (-0.5)) < 1e-12


def test_peres_horodecki_rejects_non_state():
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidStateError):
        peres_horodecki(rho_from_hs(p))


def test_peres_horodecki_stacked_solve_matches_single():
    # the stacked eigensolve gives each spectrum bit for bit
    for family in ("single-pair", "symmetric-three", "full-symmetric", "product-mixture"):
        spec = SampleSpec(family=family, count=1, seed=5)
        for index in range(10):
            rho = rho_from_hs(random_state(spec, index))
            expected = eigenvalues_hermitian(partial_transpose_matrix(rho))
            witness = peres_horodecki(rho).witness
            assert witness.hex() == float(expected[0]).hex()
            # a state shifted just below PSD is still refused
            lam_min = float(eigenvalues_hermitian(rho)[0] / 4)
            with pytest.raises(InvalidStateError):
                peres_horodecki(rho - (lam_min + 1e-6) * np.eye(4))


def test_spectra_match_single_solves():
    for family in ("single-pair", "full-symmetric", "product-mixture"):
        spec = SampleSpec(family=family, count=1, seed=6)
        for index in range(5):
            rho = rho_from_hs(random_state(spec, index))
            spectrum, pt_spectrum = spectra(rho)
            expected = eigenvalues_hermitian(rho)
            expected_pt = eigenvalues_hermitian(partial_transpose_matrix(rho))
            assert spectrum.tobytes() == expected.tobytes()
            assert pt_spectrum.tobytes() == expected_pt.tobytes()


def test_non_state_error_carries_spectrum():
    rho = rho_from_hs(HSParams.diagonal([0, 0, 0], [0, 0, 0], [1, 1, 1]))
    with pytest.raises(InvalidStateError) as info:
        peres_horodecki(rho)
    assert info.value.spectrum.tobytes() == spectra(rho)[0].tobytes()
    assert float(info.value.spectrum[0]) == pytest.approx(-2.0)


def test_verdict_margin_does_not_loosen_the_state_check():
    # lambda_min is about -7.5e-8: below -PSD_TOL, though within a margin of 1e-6
    t = 1 / 3 + 1e-7
    rho = rho_from_hs(HSParams.diagonal([0, 0, 0], [0, 0, 0], [t, t, t]))
    assert -1e-6 < eigenvalues_hermitian(rho)[0] / 4 < -PSD_TOL
    with pytest.raises(InvalidStateError):
        peres_horodecki(rho, tol=1e-6)


def test_mds_criterion():
    assert mds_criterion([0.3, 0.3, 0.3])
    assert not mds_criterion([0.5, 0.5, 0.5])
    assert mds_criterion([1.0, 0.0, 0.0])


def test_necessity_check(pair64):
    # the correlation-sum screen is necessary only: it passes for the
    # reference state although that is entangled
    assert mds_criterion(pair64.t_diagonal())
    assert peres_horodecki(rho_from_hs(pair64)).kind == ENTANGLED
    assert not mds_criterion(
        HSParams.diagonal([0, 0, 0], [0, 0, 0], [0.6, 0.6, 0.0]).t_diagonal()
    )
    assert mds_criterion(HSParams.zero().t_diagonal())


def test_half_eigenvalue_reference(one_sided02):
    rho = rho_from_hs(one_sided02)
    spec = eigenvalues_hermitian(rho)
    assert np.allclose(
        spec,
        sorted([1.1, 1.5, 0.7 - np.sqrt(0.4), 0.7 + np.sqrt(0.4)]),
        atol=1e-12,
    )
    assert abs(spec[-1] / 4 - 0.375) < 1e-12
    v = half_eigenvalue_criterion(rho, one_sided02)
    assert v.kind == SEPARABLE


def test_half_eigenvalue_identity():
    v = half_eigenvalue_criterion(np.eye(4) / 4, HSParams.zero())
    assert v.kind == SEPARABLE


def test_half_eigenvalue_bell():
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [1.0, -1.0, 1.0])
    rho = rho_from_hs(p)
    spec = eigenvalues_hermitian(rho)
    assert np.allclose(spec, [0, 0, 0, 4], atol=1e-12)
    assert half_eigenvalue_criterion(rho, p).kind == ENTANGLED


def test_half_eigenvalue_precondition():
    p = HSParams.diagonal([0.2, 0, 0], [0.2, 0, 0], [0, 0, 0])
    with pytest.raises(ContractViolationError):
        half_eigenvalue_criterion(rho_from_hs(p), p)


def test_half_eigenvalue_precondition_ignores_the_verdict_margin():
    # b = 1e-7 is a linear term at ZERO_TOL whatever the verdict margin
    p = HSParams.diagonal([0.5, 0, 0], [1e-7, 0, 0], [0, 0, 0])
    for tol in (1e-10, 1e-6):
        with pytest.raises(ContractViolationError):
            half_eigenvalue_criterion(rho_from_hs(p), p, tol=tol)


@pytest.mark.parametrize("axis", [1, 2])
def test_half_eigenvalue_agrees_with_ppt(axis):
    # one-sided random states: the two exact criteria must coincide.
    # Zeroing one linear vector of a sampled state can break positivity, so
    # non-states are skipped rather than judged.
    spec_def = SampleSpec(family="single-pair", count=1, seed=41, axis=axis)
    checked = 0
    for index in range(400):
        p = random_state(spec_def, index)
        one_sided_a = HSParams.diagonal(p.a, np.zeros(3), np.diag(p.t))
        one_sided_b = HSParams.diagonal(np.zeros(3), p.b, np.diag(p.t))
        for q in (one_sided_a, one_sided_b):
            rho = rho_from_hs(q)
            if eigenvalues_hermitian(rho)[0] / 4 < -1e-12:
                continue
            ppt = peres_horodecki(rho)
            half = half_eigenvalue_criterion(rho, q)
            if abs(ppt.witness) < 1e-8 or abs(half.witness) < 1e-8:
                continue
            checked += 1
            assert ppt.kind == half.kind
    assert checked > 300
