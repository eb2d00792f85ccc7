import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitsep import (
    HSParams,
    InvalidParameterError,
    eigenvalues_hermitian,
    r_from_hs,
    r_from_rho,
    rho_from_hs,
    rho_from_r,
)
from qubitsep import hs
from qubitsep.hs import ZERO_TOL
from qubitsep.sampling import cross_validate

from conftest import lorentz_of_filter, random_params

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=unit)
mat33 = arrays(np.float64, (3, 3), elements=unit)

R_319 = np.array(
    [
        [1.0, 0.1, 0.15, 0.0],
        [0.1, 0.3, 0.0, 0.0],
        [0.15, 0.0, -0.2, 0.0],
        [0.0, 0.0, 0.0, 0.4],
    ]
)

R_323 = np.array(
    [
        [1.0, 0.1, 0.15, 0.2],
        [0.1, 0.3, 0.0, 0.0],
        [0.15, 0.0, -0.2, 0.0],
        [0.2, 0.0, 0.0, 0.2],
    ]
)


def test_r_from_hs_trivial():
    assert np.array_equal(r_from_hs(HSParams.zero()), np.diag([1.0, 0, 0, 0]))


def test_r_from_hs_reference_matrices(cubic_state, quartic_state):
    assert np.array_equal(r_from_hs(cubic_state), R_319)
    assert np.array_equal(r_from_hs(quartic_state), R_323)


def test_r_from_hs_is_the_params_own_read_only_r(cubic_state):
    r = r_from_hs(cubic_state)
    assert r is r_from_hs(cubic_state)
    assert not r.flags.writeable
    for view in (cubic_state.a, cubic_state.b, cubic_state.t):
        assert not view.flags.writeable and np.shares_memory(view, r)


@pytest.mark.parametrize(
    "a, b, t, packs, kind",
    [
        # diagonal t: the spectra and the certificate read the params' own R
        pytest.param([0, 0.64, 0], [0, 0.64, 0], np.diag([0.3] * 3), 0, "pair", id="diagonal-t"),
        # full t: R is packed once, when the reduced params are built
        pytest.param(
            [0.2, 0.1, 0],
            [0.2, 0.1, 0],
            [[0.3, 0.1, 0], [0.1, -0.2, 0.05], [0, 0.05, 0.1]],
            1,
            "symmetric",
            id="full-t-symmetric",
        ),
        pytest.param(
            [0.2, 0.1, 0],
            [0.1, 0, 0.1],
            [[0.3, 0.1, 0], [0, -0.2, 0.05], [0.1, 0, 0.1]],
            1,
            "none",
            id="full-t-outside-the-families",
        ),
    ],
)
def test_cross_validate_packs_r_once_per_params(monkeypatch, a, b, t, packs, kind):
    params = HSParams(a, b, t)
    calls = []
    pack_r = hs.pack_r

    def counted(*args):
        calls.append(args)
        return pack_r(*args)

    monkeypatch.setattr(hs, "pack_r", counted)
    rec = cross_validate(params)
    monkeypatch.undo()
    assert len(calls) == packs
    assert rec.report.boost_kind == kind
    assert (rec.note is None) is (packs == 0)


def test_r_from_rho_identity():
    r = r_from_rho(np.eye(4) / 4)
    assert np.abs(r - np.diag([1.0, 0, 0, 0])).max() < 1e-14


def test_r_from_rho_reference(pair64):
    r = r_from_rho(rho_from_hs(pair64))
    assert abs(r[0, 2] - 0.64) < 1e-12
    assert abs(r[2, 0] - 0.64) < 1e-12
    assert np.allclose(np.diag(r)[1:], [0.3, 0.3, 0.3], atol=1e-12)


@given(vec3, vec3, mat33)
@settings(deadline=None)
def test_r_composition_identity(a, b, t):
    p = HSParams(a, b, t)
    direct = r_from_hs(p)
    via_rho = r_from_rho(rho_from_hs(p))
    assert np.abs(direct - via_rho).max() < 1e-12


def _random_sl2c(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def test_r_covariant_under_local_filters():
    # F_A (x) F_B sends R to exactly Lambda(F_B) R Lambda(F_A)^T
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        f_a, f_b = _random_sl2c(rng), _random_sl2c(rng)
        f = np.kron(f_a, f_b)
        got = r_from_rho(f @ rho @ f.conj().T)
        want = lorentz_of_filter(f_b) @ r_from_rho(rho) @ lorentz_of_filter(f_a).T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_triple_round_trip_bulk():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        rho = rho_from_hs(random_params(rng))
        back = rho_from_r(r_from_rho(rho))
        worst = max(worst, float(np.abs(back - rho).max()))
    assert worst < 1e-12


def test_realness_residue_bulk():
    rng = np.random.default_rng(17)
    from qubitsep.hs import PAULI_KRON

    for _ in range(200):
        rho = rho_from_hs(random_params(rng))
        r = np.einsum("ij,mnji->nm", rho, PAULI_KRON)
        assert float(np.abs(r.imag).max()) < 1e-12


def test_rho_from_r_trivial():
    assert np.abs(rho_from_r(np.diag([1.0, 0, 0, 0])) - np.eye(4) / 4).max() < 1e-15


def test_rho_from_r_keeps_the_trace():
    assert np.abs(rho_from_r(2.0 * R_319) - 2.0 * rho_from_r(R_319)).max() < 1e-15


def test_rho_from_r_reference_is_a_state():
    rho = rho_from_r(R_319)
    assert eigenvalues_hermitian(rho)[0] / 4 >= -1e-12


def test_from_r_adopts_a_read_only_copy_with_corner_one():
    rng = np.random.default_rng(11)
    for r in (R_319, R_323, *rng.uniform(-1.0, 1.0, (20, 4, 4))):
        given = r.copy()
        given[0, 0] = np.nan  # the corner is not read
        given[1, 2] = -0.0
        params = HSParams.from_r(given)
        own = r_from_hs(params)
        built = HSParams(given[0, 1:], given[1:, 0], given[1:, 1:].T)
        assert own.tobytes() == r_from_hs(built).tobytes()
        assert own[0, 0] == 1.0 and np.signbit(own[1, 2])
        assert not own.flags.writeable and not np.shares_memory(own, given)
        for view in (params.a, params.b, params.t):
            assert not view.flags.writeable and np.shares_memory(view, own)
        kept = own.tobytes()
        given[...] = 7.0
        assert own.tobytes() == kept


@pytest.mark.parametrize("entry", [(0, 2), (3, 0), (2, 3), (1, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_from_r_rejects_non_finite_coefficients_as_hsparams_does(entry, value):
    r = R_323.copy()
    r[entry] = value
    with pytest.raises(InvalidParameterError) as built:
        HSParams(r[0, 1:], r[1:, 0], r[1:, 1:].T)
    with pytest.raises(InvalidParameterError) as adopted:
        HSParams.from_r(r)
    assert str(adopted.value) == str(built.value)
    expected = {(0, 2): "a must be", (3, 0): "b must be"}.get(entry, "t must be finite")
    assert str(adopted.value).startswith(expected)


def _is_symmetric_r(r) -> bool:
    return HSParams.from_r(r).is_symmetric()


def test_is_symmetric():
    # R == R^T within ZERO_TOL
    assert _is_symmetric_r(R_319)
    assert _is_symmetric_r(np.diag([1.0, 0.3, -0.2, 0.5]))
    p = HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0, 0, 0])
    assert not _is_symmetric_r(r_from_hs(p))


def test_one_symmetry_rule():
    # a == b and t == t^T, each entry within ZERO_TOL inclusive, on params and on R
    zero, t = np.zeros(3), np.diag([0.3, -0.2, 0.4])
    off = np.zeros((3, 3))
    off[0, 1] = 1.0
    cases = []
    for d in (0.0, ZERO_TOL, 2 * ZERO_TOL, 0.1):
        cases.append((HSParams(zero, [d, 0, 0], t), d <= ZERO_TOL))
        cases.append((HSParams([0.2, 0.1, 0], [0.2, 0.1, d], t), d <= ZERO_TOL))
        cases.append((HSParams([0.2, 0, 0], [0.2, 0, 0], t + d * off), d <= ZERO_TOL))
    cases.append((HSParams([0.1, 0, 0], [0, 0.1, 0], t + 0.1 * (off + off.T)), False))
    for p, symmetric in cases:
        assert p.is_symmetric() is symmetric
        assert _is_symmetric_r(r_from_hs(p)) is symmetric


def test_malformed_r_rejected():
    for bad in (np.eye(3), R_319[:, :3], np.where(R_319 == 0.4, np.nan, R_319)):
        with pytest.raises(InvalidParameterError):
            rho_from_r(bad)
