import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitsep import (
    BoostLimitError,
    ETA,
    InvalidParameterError,
    apply_two_sided,
    eliminate_and_diagonalize,
    r_from_hs,
)
from qubitsep.boost import _boost_x

from conftest import symmetric_boost

betas = st.floats(min_value=-0.99, max_value=0.99, allow_nan=False)
beta_vecs = arrays(
    np.float64, (3,), elements=st.floats(min_value=-0.57, max_value=0.57)
)


def _metric_defect(m):
    return float(np.abs(m.T @ ETA @ m - ETA).max())


def test_boost_x_identity():
    assert np.array_equal(_boost_x(0.0, 1), np.eye(4))


def test_boost_x_reference_entries():
    beta = 0.8381591141937414
    m = _boost_x(beta, 1)
    g = 1.0 / np.sqrt(1 - beta * beta)
    assert abs(m[0, 0] - g) < 1e-15 and abs(m[1, 1] - g) < 1e-15
    assert abs(m[0, 1] + g * beta) < 1e-15 and abs(m[1, 0] + g * beta) < 1e-15
    assert abs(g - 1.8334) < 1e-4
    assert abs(g * beta - 1.5367) < 1e-4


@given(betas, st.sampled_from([1, 2, 3]))
@settings(deadline=None)
def test_boost_x_metric(beta, axis):
    assert _metric_defect(_boost_x(beta, axis)) < 1e-12


def test_boost_x_metric_bulk():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        beta = rng.uniform(-0.99, 0.99)
        axis = int(rng.integers(1, 4))
        assert _metric_defect(_boost_x(beta, axis)) < 1e-12


@given(betas)
@settings(deadline=None)
def test_boost_x_composition_inverse(beta):
    prod = _boost_x(beta, 2) @ _boost_x(-beta, 2)
    assert np.abs(prod - np.eye(4)).max() < 1e-12


@given(betas, st.sampled_from([1, 2, 3]))
@settings(deadline=None)
def test_boost_x_determinant(beta, axis):
    assert abs(np.linalg.det(_boost_x(beta, axis)) - 1.0) < 1e-10


def test_boost_x_limit():
    # a boost refuses light speed and beyond; the beta_limit margin is the solves'
    for beta in (1.0, -1.0, 1.5):
        with pytest.raises(BoostLimitError):
            _boost_x(beta, 1)
    assert _boost_x(1.0 - 1e-10, 1)[0, 0] > 7e4


def test_boost_general_identity():
    assert np.array_equal(symmetric_boost([0.0, 0.0, 0.0]), np.eye(4))


@given(betas)
@settings(deadline=None)
def test_boost_general_reduces_to_axis_boost(beta):
    for axis in (1, 2, 3):
        v = np.zeros(3)
        v[axis - 1] = beta
        assert np.abs(symmetric_boost(v) - _boost_x(beta, axis)).max() < 1e-14


@given(beta_vecs)
@settings(deadline=None)
def test_boost_general_metric_and_symmetry(v):
    m = symmetric_boost(v)
    assert _metric_defect(m) < 1e-12
    assert np.array_equal(m, m.T)
    assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_boost_general_metric_bulk():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        v = rng.uniform(-1, 1, 3)
        norm = np.linalg.norm(v)
        v *= rng.uniform(0, 0.99) / norm
        assert _metric_defect(symmetric_boost(v)) < 1e-12


def test_boost_general_reference_velocity():
    m = symmetric_boost([0.0792, 0.1967, 0.0])
    assert _metric_defect(m) < 1e-12


@given(betas)
@settings(deadline=None)
def test_gamma_consistency(beta):
    gamma = _boost_x(beta, 1)[0, 0]
    assert gamma >= 1.0
    assert abs(gamma**2 * (1.0 - beta * beta) - 1.0) < 1e-12


def test_boost_general_limit():
    # |v| > 1
    with pytest.raises(BoostLimitError):
        symmetric_boost([0.8, 0.6, 0.01])


def _boost_general_reference(v):
    # the spatial block as eye(3) + x * outer(v, v), in numpy
    v = np.asarray(v, dtype=float)
    g = 1.0 / math.sqrt(1.0 - float(v @ v))
    x = g * g / (g + 1.0)
    m = np.empty((4, 4))
    m[0, 0] = g
    m[0, 1:] = m[1:, 0] = -g * v
    m[1:, 1:] = np.eye(3) + x * np.outer(v, v)
    return m


@pytest.mark.parametrize(
    "v",
    [
        [0.3, 0.0, 0.0],
        [0.0, -0.6, 0.0],
        [-0.0, 0.0, 0.45],
        [0.0792032561208348, 0.1967021301502871, 0.0],
        [0.2, -0.0, -0.35],
        [0.1, -0.2, 0.3],
    ],
)
def test_boost_general_matches_outer_product_form(v):
    # bit for bit, signed zeros included
    assert symmetric_boost(v).tobytes() == _boost_general_reference(v).tobytes()


def test_boost_general_matches_outer_product_form_bulk():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        v = rng.uniform(-0.57, 0.57, 3) * (rng.uniform(size=3) < 0.7)
        assert symmetric_boost(v).tobytes() == _boost_general_reference(v).tobytes(), v


def test_apply_two_sided_identity(pair64):
    r = r_from_hs(pair64)
    assert np.array_equal(apply_two_sided(r, np.eye(4), np.eye(4)), r)


def test_apply_two_sided_is_the_plain_product(cubic_state):
    r = r_from_hs(cubic_state)
    m = symmetric_boost([0.0792032561208348, 0.1967021301502871, 0.0])
    q = apply_two_sided(r, m, m)
    assert np.array_equal(q, m @ r @ m.T)
    assert abs(q[0, 0] - 0.96257) < 5e-5


@pytest.mark.parametrize("side", [0, 1, 2])
def test_apply_two_sided_rejects_malformed_input(pair64, side):
    args = [r_from_hs(pair64), np.eye(4), np.eye(4)]
    for bad in (np.eye(3), np.full((4, 4), np.inf)):
        args[side] = bad
        with pytest.raises(InvalidParameterError):
            apply_two_sided(*args)


@pytest.mark.parametrize("side", [0, 1, 2])
def test_eliminate_and_diagonalize_rejects_malformed_input(pair64, side):
    args = [r_from_hs(pair64), np.eye(4), np.eye(4)]
    for bad in (np.eye(3), np.ones((4, 5)), np.full((4, 4), np.inf), np.full((4, 4), np.nan)):
        args[side] = bad
        with pytest.raises(InvalidParameterError):
            eliminate_and_diagonalize(*args)


def test_certificate_rejects_nonpositive_boosted_corner():
    # a boost whose image of R is diagonal with a negative corner
    m = _boost_x(0.3, 1)
    inverse = _boost_x(-0.3, 1)
    r = inverse @ np.diag([-0.5, 0.2, 0.1, 0.1]) @ inverse.T
    with pytest.raises(InvalidParameterError, match="s0"):
        eliminate_and_diagonalize(r, m, m)
