import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitsep import (
    ContractViolationError,
    HSParams,
    InvalidParameterError,
    eigenvalues_hermitian,
    mds_criterion,
    r_from_rho,
    rho_from_hs,
    solve_symmetric,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from qubitsep.hs import SIGMA, ZERO_TOL, _is_reflection, _rho_from_r, rho_from_r
from qubitsep.pt import partial_transpose_matrix, spectra

from conftest import random_params
from paper_formulas import eigenvalues_closed_form_pair

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
    q = HSParams.from_r(r_from_rho(rho_from_hs(p)))
    assert np.abs(q.a - p.a).max() < 1e-12
    assert np.abs(q.b - p.b).max() < 1e-12
    assert np.abs(q.t - p.t).max() < 1e-12


def test_round_trip_bulk():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        q = HSParams.from_r(r_from_rho(rho_from_hs(p)))
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
        spectrum, pt_spectrum = spectra(rho)
        assert _is_ascending_copy_of(spectrum, raw)
        pt_raw = 4.0 * np.linalg.eigvalsh(partial_transpose_matrix(rho))
        assert _is_ascending_copy_of(pt_spectrum, pt_raw)


def test_is_positive_semidefinite(pair64):
    def lambda_min(m):
        return eigenvalues_hermitian(m)[0] / 4

    assert lambda_min(np.eye(4) / 4) >= -1e-10
    assert lambda_min(rho_from_hs(pair64)) >= -1e-10
    pt = HSParams.diagonal([0, -0.64, 0], [0, 0.64, 0], [0.3, -0.3, 0.3])
    assert lambda_min(rho_from_hs(pt)) < -1e-10


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


def test_tdiag_diagonal_input_gets_two_distinct_rotations():
    p = HSParams.diagonal([0.1, 0, 0], [0, 0.2, 0], [0.3, -0.2, 0.1])
    _, rot_a, rot_b = tdiag_via_local_rotations(p)
    assert rot_a is not rot_b
    rot_a[0, 1] = 0.5  # a caller may write one rotation
    assert np.array_equal(rot_b, np.eye(3))
    _, again, _ = tdiag_via_local_rotations(p)
    assert np.array_equal(again, np.eye(3))


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def test_tdiag_recovers_known_factors():
    t = _rot_z(np.pi / 2) @ np.diag([0.5, 0.2, 0.1])
    p = HSParams(np.array([0.1, 0.0, 0.2]), np.zeros(3), t)
    out, rot_a, rot_b = tdiag_via_local_rotations(p)
    assert out.is_t_diagonal()
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
        assert out.is_t_diagonal()
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
    with pytest.raises(ContractViolationError):
        r_from_rho(np.arange(16, dtype=complex).reshape(4, 4))
    # Hermitian within HERMITICITY_TOL, but Tr rho has imaginary part 1.6e-12
    with pytest.raises(InvalidParameterError, match="imaginary residue"):
        r_from_rho((0.25 + 4e-13j) * np.eye(4))
    # a 3-vector of the wrong size or of non-numbers, wherever one is taken
    for call in (
        lambda: HSParams([0, 0], [0, 0, 0], np.zeros((3, 3))),
        lambda: HSParams.diagonal([0, 0, 0], [0, 0, 0], [0, 0, 0, 0]),
        lambda: HSParams(["x", 0, 0], [0, 0, 0], np.zeros((3, 3))),
        lambda: HSParams([0, 0, 0], [[0, 0], [0]], np.zeros((3, 3))),
        lambda: solve_symmetric([0.1, 0.1], [0.3, 0.2, 0.1]),
        lambda: solve_symmetric([0.1, 0.1, 0.1], [0.3, 0.2, np.inf]),
        lambda: mds_criterion([0.1, 0.1]),
        lambda: mds_criterion([0.1, 0.1, np.nan]),
    ):
        with pytest.raises(InvalidParameterError, match="finite real 3-vector"):
            call()


def test_params_own_their_arrays():
    a = np.array([0.1, 0.2, 0.3])
    t = np.zeros((3, 3))
    p = HSParams(a, a.copy(), t)
    t[0, 0] = 0.5  # the caller's array stays writable
    a[0] = 0.9  # and edits to it do not reach the params
    assert p.a[0] == 0.1 and p.t[0, 0] == 0.0
    with pytest.raises(ValueError):
        p.a[0] = 0.0


def test_assembled_rho_is_exactly_hermitian():
    # mirror entries come from the same operations in the same order, so an
    # assembled rho needs no Hermiticity check; R entries span 1e-300..1e300
    rng = np.random.default_rng(41)
    scale = 10.0 ** rng.uniform(-300, 300, (4000, 4, 4))
    stacks = [
        rng.normal(size=(4000, 4, 4)) * scale,
        rng.normal(size=(4000, 4, 4)) * 10.0 ** rng.uniform(-300, 300, (4000, 1, 1)),
        np.where(rng.random((4000, 4, 4)) < 0.5, 0.0, rng.normal(size=(4000, 4, 4))),
    ]
    for rs in stacks:
        rho = _rho_from_r(rs)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
        assert np.array_equal(rho[17], _rho_from_r(rs[17]))


def test_overflowing_rho_is_an_input_error():
    # finite coefficients whose rho overflows: an error, not a nan matrix
    for r in (np.full((4, 4), 1e308), np.diag([1.0, 1.7e308, 1.7e308, 1.7e308])):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            rho_from_r(r)
    with pytest.raises(InvalidParameterError, match="must be finite"):
        rho_from_hs(HSParams(np.full(3, 1e308), np.full(3, 1e308), np.full((3, 3), 1e308)))


def test_reflection_sign_matches_determinant():
    # 10 000 orthogonal factors as the reductions meet them: svd's u and vt,
    # eigh's eigenvectors, on general, rank-deficient and tied matrices
    rng = np.random.default_rng(43)
    m = rng.normal(size=(2000, 3, 3))
    m[:400, 2] = 0.0  # rank two
    m[400:600] = rng.normal(size=(200, 3, 1)) * rng.normal(size=(200, 1, 3))  # rank one
    m[600:800] = np.eye(3) * rng.choice([-1.0, 0.5, 1.0], (200, 1, 3))  # ties on the diagonal
    u, _, vt = np.linalg.svd(m)
    _, v = np.linalg.eigh(rng.normal(size=(6000, 3, 3)) + m.repeat(3, axis=0))
    factors = np.concatenate([u, vt, v])
    assert len(factors) == 10000
    det = np.linalg.det(factors)
    assert [_is_reflection(q) for q in factors] == (det < 0).tolist()
    assert 0 < int((det < 0).sum()) < len(factors)


def _six_difference_symmetry(p: HSParams) -> bool:
    """The symmetry rule written out: a == b and t == t^T, entry by entry within ZERO_TOL."""
    (a1, a2, a3), (b1, b2, b3) = p.a.tolist(), p.b.tolist()
    (_, t12, t13), (t21, _, t23), (t31, t32, _) = p.t.tolist()
    linear = max(abs(a1 - b1), abs(a2 - b2), abs(a3 - b3))
    return max(linear, abs(t12 - t21), abs(t13 - t31), abs(t23 - t32)) <= ZERO_TOL


def test_symmetry_rule_matches_six_differences_on_random_params():
    # unconstrained params, symmetric ones, and symmetric ones with one entry
    # pair pushed apart by d
    rng = np.random.default_rng(25)
    decisions = []
    for kind in rng.integers(3, size=3000):
        p = random_params(rng)
        if kind > 0:
            b, t = p.a.copy(), (p.t + p.t.T) / 2
            if kind == 2:
                d = rng.choice([ZERO_TOL / 2, ZERO_TOL, 2 * ZERO_TOL, 1e-3])
                i, j = rng.choice(3, 2, replace=False)
                if rng.uniform() < 0.5:
                    b[i] += d
                else:
                    t[i, j] += d
            p = HSParams(p.a, b, t)
        decisions.append(p.is_symmetric())
        assert decisions[-1] is _six_difference_symmetry(p)
    assert 0 < sum(decisions) < len(decisions)


_AT_ZERO_TOL = [math.nextafter(ZERO_TOL, 0.0), ZERO_TOL, math.nextafter(ZERO_TOL, 1.0)]


@pytest.mark.parametrize("d", _AT_ZERO_TOL)
@pytest.mark.parametrize("pair", ["a1-b1", "a2-b2", "a3-b3", "t12-t21", "t13-t31", "t23-t32"])
def test_symmetry_rule_at_zero_tol(pair, d):
    # one unequal entry pair, its difference exactly ZERO_TOL or one ulp either side
    a = np.array([0.1, -0.2, 0.15])
    t = np.array([[0.3, 0.05, -0.1], [0.05, -0.2, 0.02], [-0.1, 0.02, 0.1]])
    b = a.copy()
    if pair[0] == "a":
        i = int(pair[1]) - 1
        a[i], b[i] = 0.0, d
    else:
        i, j = int(pair[1]) - 1, int(pair[2]) - 1
        t[i, j], t[j, i] = d, 0.0
    p = HSParams(a, b, t)
    assert p.is_symmetric() is _six_difference_symmetry(p) is (d <= ZERO_TOL)
