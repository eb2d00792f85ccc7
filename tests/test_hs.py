import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitsep import (
    ContractViolationError,
    HSParams,
    InvalidParameterError,
    UnsupportedFormError,
    eigenvalues_closed_form_pair,
    eigenvalues_hermitian,
    hs_from_rho,
    is_positive_semidefinite,
    r_from_rho,
    rho_from_hs,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from qubitsep.hs import SIGMA
from qubitsep.pt import partial_transpose_matrix, spectra

from conftest import random_params

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=unit)
mat33 = arrays(np.float64, (3, 3), elements=unit)


def test_pauli_convention():
    assert np.array_equal(SIGMA[2], np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(SIGMA[1] @ SIGMA[2], 1j * SIGMA[3])


def test_identity_state():
    rho = rho_from_hs(HSParams.zero())
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_reference_pair_state_entries(pair64):
    m = 4 * rho_from_hs(pair64)
    assert np.allclose(np.diag(m), [1.3, 0.7, 0.7, 1.3], atol=1e-14)
    assert abs(m[1, 2] - 0.6) < 1e-14
    assert abs(m[2, 1] - 0.6) < 1e-14
    for i, j in ((0, 1), (0, 2), (1, 3)):
        assert abs(m[i, j] - (-0.64j)) < 1e-14
        assert abs(m[j, i] - 0.64j) < 1e-14
    assert abs(m[0, 3]) < 1e-14  # the x and y correlations cancel there


def test_symmetric_state_entries(cubic_state):
    m = 4 * rho_from_hs(cubic_state)
    # (1,1) entry is 1 + 2 a3 + t3 and (2,3) is t1 + t2 for symmetric states
    assert abs(m[0, 0] - 1.4) < 1e-14
    assert abs(m[1, 2] - 0.1) < 1e-14


@given(vec3, vec3, mat33)
@settings(deadline=None)
def test_round_trip_hypothesis(a, b, t):
    p = HSParams(a, b, t)
    q = hs_from_rho(rho_from_hs(p))
    assert np.abs(q.a - p.a).max() < 1e-12
    assert np.abs(q.b - p.b).max() < 1e-12
    assert np.abs(q.t - p.t).max() < 1e-12


def test_round_trip_bulk():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        q = hs_from_rho(rho_from_hs(p))
        worst = max(
            worst,
            np.abs(q.a - p.a).max(),
            np.abs(q.b - p.b).max(),
            np.abs(q.t - p.t).max(),
        )
    assert worst < 1e-12


@given(vec3, vec3, mat33)
@settings(deadline=None)
def test_unit_trace_and_hermitian(a, b, t):
    rho = rho_from_hs(HSParams(a, b, t))
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.abs(rho - rho.conj().T).max() < 1e-14


def test_closed_form_reference_values(pair64):
    spec = eigenvalues_closed_form_pair(2, 0.64, 0.64, [0.3, 0.3, 0.3])
    assert np.allclose(spec, [0.02, 0.1, 1.30, 2.58], atol=1e-9)
    dense = eigenvalues_hermitian(rho_from_hs(pair64))
    assert np.abs(spec - dense).max() < 1e-12


def test_closed_form_identity_case():
    spec = eigenvalues_closed_form_pair(1, 0.0, 0.0, [0, 0, 0])
    assert np.allclose(spec, [1, 1, 1, 1], atol=0)


def test_closed_form_pt_image_values():
    # image of the reference state under partial transposition of qubit A
    spec = eigenvalues_closed_form_pair(2, -0.64, 0.64, [0.3, -0.3, 0.3])
    expected = np.array([1.3 - np.sqrt(1.9984), 0.7, 0.7, 1.3 + np.sqrt(1.9984)])
    assert np.abs(spec - np.sort(expected)).max() < 1e-12
    assert np.allclose(spec, [-0.113648, 0.7, 0.7, 2.713648], atol=1e-6)


@given(st.sampled_from([1, 2, 3]), unit, unit, vec3)
@settings(deadline=None)
def test_closed_form_matches_dense(axis, a, b, tdiag):
    spec = eigenvalues_closed_form_pair(axis, a, b, tdiag)
    av = np.zeros(3)
    bv = np.zeros(3)
    av[axis - 1] = a
    bv[axis - 1] = b
    dense = eigenvalues_hermitian(rho_from_hs(HSParams.diagonal(av, bv, tdiag)))
    assert np.abs(spec - dense).max() < 1e-10


def test_closed_form_matches_dense_bulk():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        axis = int(rng.integers(1, 4))
        a, b = rng.uniform(-1, 1, 2)
        tdiag = rng.uniform(-1, 1, 3)
        spec = eigenvalues_closed_form_pair(axis, a, b, tdiag)
        av = np.zeros(3)
        bv = np.zeros(3)
        av[axis - 1] = a
        bv[axis - 1] = b
        dense = eigenvalues_hermitian(rho_from_hs(HSParams.diagonal(av, bv, tdiag)))
        assert np.abs(spec - dense).max() < 1e-10


def test_eigenvalues_hermitian_examples():
    assert np.allclose(
        eigenvalues_hermitian(np.eye(4) / 4) / 4, [0.25] * 4, atol=1e-14
    )
    diag = np.diag([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(
        eigenvalues_hermitian(diag) / 4, [0.1, 0.2, 0.3, 0.4], atol=1e-14
    )


def test_eigenvalues_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ContractViolationError):
        eigenvalues_hermitian(m)


def test_spectrum_sum_equals_trace():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (x + x.conj().T) / 2
        spec = eigenvalues_hermitian(h)
        assert abs(spec.sum() / 4 - np.trace(h).real) < 1e-10


def _is_ascending_copy_of(spectrum, raw) -> bool:
    """The spectrum is read-only and equals np.sort(raw) bit for bit."""
    return not spectrum.flags.writeable and spectrum.tobytes() == np.sort(raw).tobytes()


def test_every_spectrum_producer_yields_sorted_values():
    rng = np.random.default_rng(29)
    for _ in range(300):
        params = random_params(rng, scale=rng.choice([0.3, 1.0, 5.0]))
        rho = rho_from_hs(params)
        raw = 4.0 * np.linalg.eigvalsh(rho)
        assert _is_ascending_copy_of(eigenvalues_hermitian(rho), raw)
        for qubit in ("A", "B"):
            pt_rho = partial_transpose_matrix(rho, qubit)
            spectrum, pt_spectrum = spectra(rho, qubit)
            assert _is_ascending_copy_of(spectrum, raw)
            assert _is_ascending_copy_of(pt_spectrum, 4.0 * np.linalg.eigvalsh(pt_rho))
        axis = int(rng.integers(1, 4))
        a, b = rng.uniform(-1, 1, 2)
        t = rng.uniform(-1, 1, 3)
        k = axis - 1
        i, j = (k + 1) % 3, (k + 2) % 3
        r_sum = float(np.hypot(a + b, t[i] - t[j]))
        r_dif = float(np.hypot(a - b, t[i] + t[j]))
        closed = [1 + t[k] - r_sum, 1 + t[k] + r_sum, 1 - t[k] - r_dif, 1 - t[k] + r_dif]
        assert _is_ascending_copy_of(eigenvalues_closed_form_pair(axis, a, b, t), np.array(closed))


def test_is_positive_semidefinite(pair64):
    assert is_positive_semidefinite(np.eye(4) / 4, tol=1e-10)
    rho = rho_from_hs(pair64)
    assert is_positive_semidefinite(rho, tol=1e-10)
    pt = HSParams.diagonal([0, -0.64, 0], [0, 0.64, 0], [0.3, -0.3, 0.3])
    assert not is_positive_semidefinite(rho_from_hs(pt), tol=1e-10)


@given(vec3, vec3)
@settings(deadline=None)
def test_symmetric_spectrum_contains_special_value(a, tdiag):
    # any symmetric state has 1 - t1 - t2 - t3 in its 4*lambda spectrum
    spec = eigenvalues_hermitian(rho_from_hs(HSParams.diagonal(a, a, tdiag)))
    target = 1.0 - tdiag.sum()
    assert np.abs(spec - target).min() < 1e-10


def test_tdiag_diagonal_input_is_unchanged():
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [0.3, 0.3, -0.3])
    out, rot_a, rot_b = tdiag_via_local_rotations(p)
    assert np.array_equal(rot_a, np.eye(3))
    assert np.array_equal(rot_b, np.eye(3))
    assert np.array_equal(out.t, p.t)
    # determinant is negative and exactly one diagonal sign is negative
    signs = np.sign(np.diag(out.t))
    assert (signs < 0).sum() == 1


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def test_tdiag_recovers_known_factors():
    t = _rot_z(np.pi / 2) @ np.diag([0.5, 0.2, 0.1])
    p = HSParams(np.array([0.1, 0.0, 0.2]), np.zeros(3), t)
    out, rot_a, rot_b = tdiag_via_local_rotations(p)
    assert out.is_t_diagonal(1e-12)
    sv = np.sort(np.abs(np.diag(out.t)))[::-1]
    assert np.allclose(sv, [0.5, 0.2, 0.1], atol=1e-12)
    for rot in (rot_a, rot_b):
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12
    assert np.allclose(rot_a @ t @ rot_b.T, out.t, atol=1e-12)
    assert np.allclose(rot_a @ p.a, out.a, atol=1e-12)


def test_tdiag_negative_determinant_sign_placement():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(50):
        p = random_params(rng)
        if np.linalg.det(p.t) >= 0 or p.is_t_diagonal():
            continue
        found += 1
        out, _, _ = tdiag_via_local_rotations(p)
        d = np.diag(out.t)
        assert (d < 0).sum() == 1
        assert d[2] < 0  # negative sign sits at the smallest singular value
        assert abs(d[2]) <= abs(d[0]) + 1e-15 and abs(d[2]) <= abs(d[1]) + 1e-15
    assert found > 5


@given(vec3, vec3, mat33)
@settings(deadline=None, max_examples=50)
def test_tdiag_preserves_spectrum(a, b, t):
    p = HSParams(a, b, t)
    out, _, _ = tdiag_via_local_rotations(p)
    s1 = eigenvalues_hermitian(rho_from_hs(p))
    s2 = eigenvalues_hermitian(rho_from_hs(out))
    assert np.abs(s1 - s2).max() < 1e-10


def test_tdiag_symmetric_rotation_keeps_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.uniform(-1, 1, 3)
        m = rng.uniform(-1, 1, (3, 3))
        p = HSParams(a, a, 0.5 * (m + m.T))
        out, rot = tdiag_via_symmetric_rotation(p)
        assert out.is_t_diagonal(1e-12)
        assert np.array_equal(out.a, out.b)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12
        s1 = eigenvalues_hermitian(rho_from_hs(p))
        s2 = eigenvalues_hermitian(rho_from_hs(out))
        assert np.abs(s1 - s2).max() < 1e-10


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        HSParams([np.inf, 0, 0], [0, 0, 0], np.zeros((3, 3)))
    with pytest.raises(InvalidParameterError):
        HSParams([0, 0, 0], [0, 0, 0], np.full((3, 3), np.nan))
    with pytest.raises(UnsupportedFormError):
        HSParams(np.zeros(3), np.zeros(3), np.ones((3, 3))).t_diagonal()
    with pytest.raises(ContractViolationError):
        hs_from_rho(np.arange(16, dtype=complex).reshape(4, 4))
    # Hermitian within HERMITICITY_TOL, but Tr rho has imaginary part 1.6e-12
    nearly = (0.25 + 4e-13j) * np.eye(4)
    for convert in (r_from_rho, hs_from_rho):
        with pytest.raises(InvalidParameterError, match="imaginary residue"):
            convert(nearly)


def test_params_own_their_arrays():
    a = np.array([0.1, 0.2, 0.3])
    t = np.zeros((3, 3))
    p = HSParams(a, a.copy(), t)
    t[0, 0] = 0.5  # the caller's array stays writable
    a[0] = 0.9  # and edits to it do not reach the params
    assert p.a[0] == 0.1 and p.t[0, 0] == 0.0
    with pytest.raises(ValueError):
        p.a[0] = 0.0
