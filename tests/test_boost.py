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
    boost_general,
    boost_x,
    eliminate_and_diagonalize,
    r_from_hs,
)

betas = st.floats(min_value=-0.99, max_value=0.99, allow_nan=False)
beta_vecs = arrays(
    np.float64, (3,), elements=st.floats(min_value=-0.57, max_value=0.57)
)


def _metric_defect(m):
    return float(np.abs(m.T @ ETA @ m - ETA).max())


def test_boost_x_identity():
    assert np.array_equal(boost_x(0.0, 1), np.eye(4))


def test_boost_x_reference_entries():
    beta = 0.8381591141937414
    m = boost_x(beta, 1)
    g = 1.0 / np.sqrt(1 - beta * beta)
    assert abs(m[0, 0] - g) < 1e-15 and abs(m[1, 1] - g) < 1e-15
    assert abs(m[0, 1] + g * beta) < 1e-15 and abs(m[1, 0] + g * beta) < 1e-15
    assert abs(g - 1.8334) < 1e-4
    assert abs(g * beta - 1.5367) < 1e-4


@given(betas, st.sampled_from([1, 2, 3]))
@settings(deadline=None)
def test_boost_x_metric(beta, axis):
    assert _metric_defect(boost_x(beta, axis)) < 1e-12


def test_boost_x_metric_bulk():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        beta = rng.uniform(-0.99, 0.99)
        axis = int(rng.integers(1, 4))
        assert _metric_defect(boost_x(beta, axis)) < 1e-12


@given(betas)
@settings(deadline=None)
def test_boost_x_composition_inverse(beta):
    prod = boost_x(beta, 2) @ boost_x(-beta, 2)
    assert np.abs(prod - np.eye(4)).max() < 1e-12


@given(betas, st.sampled_from([1, 2, 3]))
@settings(deadline=None)
def test_boost_x_determinant(beta, axis):
    assert abs(np.linalg.det(boost_x(beta, axis)) - 1.0) < 1e-10


def test_boost_x_limit():
    with pytest.raises(BoostLimitError):
        boost_x(1.0 - 1e-10, 1)
    with pytest.raises(BoostLimitError):
        boost_x(1.0, 1)


def test_boost_general_identity():
    assert np.array_equal(boost_general([0.0, 0.0, 0.0]), np.eye(4))


@given(betas)
@settings(deadline=None)
def test_boost_general_reduces_to_axis_boost(beta):
    for axis in (1, 2, 3):
        v = np.zeros(3)
        v[axis - 1] = beta
        assert np.abs(boost_general(v) - boost_x(beta, axis)).max() < 1e-14


@given(beta_vecs)
@settings(deadline=None)
def test_boost_general_metric_and_symmetry(v):
    m = boost_general(v)
    assert _metric_defect(m) < 1e-12
    assert np.array_equal(m, m.T)
    assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_boost_general_metric_bulk():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        v = rng.uniform(-1, 1, 3)
        norm = np.linalg.norm(v)
        v *= rng.uniform(0, 0.99) / norm
        assert _metric_defect(boost_general(v)) < 1e-12


def test_boost_general_reference_velocity():
    m = boost_general([0.0792, 0.1967, 0.0])
    assert _metric_defect(m) < 1e-12


@given(betas)
@settings(deadline=None)
def test_gamma_consistency(beta):
    gamma = boost_x(beta, 1)[0, 0]
    assert gamma >= 1.0
    assert abs(gamma**2 * (1.0 - beta * beta) - 1.0) < 1e-12


def test_boost_general_limit():
    with pytest.raises(BoostLimitError):
        boost_general([0.8, 0.6, 0.01])


@pytest.mark.parametrize("limit", [1e-9, 0.1, 0.5])
def test_boost_general_light_speed_rule_matches_boost_x(limit):
    edge = 1.0 - limit
    directions = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.0, 0.8), (1.0, -2.0, 2.0)]
    for u in directions:
        u = np.array(u) / np.linalg.norm(u)
        for rel in (-1e-2, -1e-6, -1e-9, 1e-9, 1e-6, 1e-2):
            v = edge * (1.0 + rel) * u
            speed = float(np.sqrt(v @ v))
            try:
                boost_x(speed, 1, limit)
                axis_raises = False
            except BoostLimitError:
                axis_raises = True
            try:
                boost_general(v, limit)
                general_raises = False
            except BoostLimitError:
                general_raises = True
            assert general_raises == axis_raises == (rel > 0), (limit, u, rel)
    with pytest.raises(BoostLimitError):
        boost_general([edge, 0.0, 0.0], limit)


def test_apply_two_sided_identity(pair64):
    r = r_from_hs(pair64)
    assert np.array_equal(apply_two_sided(r, np.eye(4), np.eye(4)), r)


def test_apply_two_sided_is_the_plain_product(cubic_state):
    r = r_from_hs(cubic_state)
    m = boost_general([0.0792032561208348, 0.1967021301502871, 0.0])
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


def test_certificate_rejects_nonpositive_boosted_corner():
    # a boost whose image of R is diagonal with a negative corner
    m = boost_x(0.3, 1)
    inverse = boost_x(-0.3, 1)
    r = inverse @ np.diag([-0.5, 0.2, 0.1, 0.1]) @ inverse.T
    with pytest.raises(InvalidParameterError, match="s0"):
        eliminate_and_diagonalize(r, m, m)
