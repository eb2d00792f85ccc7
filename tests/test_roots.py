import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitsep import InvalidParameterError, real_roots, roots

coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _poly_magnitude(coeffs, x):
    return sum(abs(c) * abs(x) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))


def test_simple_quadratic():
    assert np.allclose(real_roots([1, 0, -1]), [-1, 1], atol=1e-14)


def test_quadratic_without_real_roots():
    assert real_roots([1, 0, 1]).size == 0


def test_double_root_is_clustered():
    out = real_roots([1, -2, 1])
    assert out.shape == (1,)
    assert abs(out[0] - 1.0) < 1e-7


def test_triple_root():
    out = real_roots([1, -6, 12, -8])
    assert out.shape == (1,)
    assert abs(out[0] - 2.0) < 1e-5


def test_reference_cubic():
    roots = real_roots([1, -13.65, 3.6, -0.2])
    assert roots.shape == (3,)
    smallest = roots[np.argmin(np.abs(roots))]
    assert abs(smallest - 0.0792) < 5e-5
    for r in roots:
        assert abs(np.polyval([1, -13.65, 3.6, -0.2], r)) < 1e-12 * _poly_magnitude(
            [1, -13.65, 3.6, -0.2], r
        )


def test_reference_quartic():
    coeffs = [1, -18.65, 18.05, -3.8, 0.2]
    roots = real_roots(coeffs)
    smallest = roots[np.argmin(np.abs(roots))]
    assert abs(smallest - 0.0816) < 5e-4
    for r in roots:
        assert abs(np.polyval(coeffs, r)) < 1e-12 * _poly_magnitude(coeffs, r)


def test_tiny_depressed_cubic():
    # x^3 - 1e-250 x: the trigonometric branch's denominator p*m underflows to
    # zero; the three roots 0, +-1e-125 merge into one
    out = real_roots([1.0, 0.0, -1e-250, 0.0])
    assert out.shape == (1,)
    assert abs(out[0]) <= 1e-124


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # x^3 + 1e-250 (x^2 - x + 1): the only real root is -(1e-250)^(1/3);
        # the closed form used to return -2.5e8 and -4.5e-8 instead
        ([1.0, 1e-250, -1e-250, 1e-250], -(1e-250 ** (1.0 / 3.0))),
        # one real root near 1.73e9 and a complex pair near +-4.11i; the
        # closed form used to add -9.04 and 22.1, far off any root
        ([-1.5e-3, 2.6e6, 5.7e-8, 4.4e7], 2.6e6 / 1.5e-3),
    ],
)
def test_only_roots_are_returned(coeffs, expected):
    out = real_roots(coeffs)
    assert out.shape == (1,)
    assert abs(out[0] - expected) <= 1e-9 * abs(expected)
    monic = np.array(coeffs) / coeffs[0]
    assert abs(np.polyval(monic, out[0])) <= 1e-12 * _poly_magnitude(monic, out[0])


def test_subnormal_root_is_kept():
    # x^2 + 4x + 2.2e-313: the root near -5.6e-314 is subnormal, and so is any
    # relative residual bound at it; the companion-matrix solver finds it too
    out = real_roots([1.0, 4.0, 2.2250738585e-313])
    assert out.shape == (2,)
    assert out[0] == -4.0
    assert -1e-313 < out[1] < 0.0


def test_biquadratic():
    assert np.allclose(real_roots([1, 0, -5, 0, 4]), [-2, -1, 1, 2], atol=1e-10)


def test_quartic_without_real_roots():
    assert real_roots([1, 0, 0, 0, 1]).size == 0


def test_leading_zero_reduction():
    assert np.allclose(real_roots([0, 1.0, -1.0]), [1.0], atol=1e-14)
    assert np.allclose(real_roots([1e-20, 1.0, -1.0]), [1.0], atol=1e-12)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # 1e-7 x^3 - 1e8: the leading term is below 1e-14 of the constant, so
        # the degree drops to 0, yet x = 1e5 is a root
        ([1e-7, 0.0, 0.0, -1e8], 1e5),
        # the degree drops to 2 with no real root; the cubic has one near 4.7192e4
        ([-3.38e-7, 1.10e-5, 5.27e-8, 3.55e7], 4.7192e4),
    ],
)
def test_large_root_survives_degree_reduction(coeffs, expected):
    out = real_roots(coeffs)
    assert out.shape == (1,)
    assert abs(out[0] - expected) <= 1e-4 * expected
    assert abs(np.polyval(coeffs, out[0])) <= 1e-12 * _poly_magnitude(coeffs, out[0])
    oracle = [r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9 * abs(r)]
    assert np.allclose(out, oracle, rtol=1e-9)


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        real_roots([])
    with pytest.raises(InvalidParameterError):
        real_roots([0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        real_roots([1, 2, 3, 4, 5, 6])
    with pytest.raises(InvalidParameterError):
        real_roots([np.nan, 1.0])


@given(st.lists(coeff, min_size=3, max_size=5))
@settings(deadline=None, max_examples=300)
def test_matches_companion_matrix_solver(coeffs):
    # independent oracle: numpy's companion-matrix eigenvalues
    assume(abs(coeffs[0]) > 0.1)
    oracle = np.roots(coeffs)
    # skip ill-conditioned clusters where root identity is ambiguous
    if oracle.size > 1:
        gaps = [
            abs(x - y) for i, x in enumerate(oracle) for y in oracle[i + 1 :]
        ]
        assume(min(gaps) > 1e-3)
    real_oracle = sorted(r.real for r in oracle if abs(r.imag) < 1e-9)
    mine = real_roots(coeffs)
    assert len(mine) == len(real_oracle)
    for ours, theirs in zip(mine, real_oracle):
        assert abs(ours - theirs) < 1e-6 * (1.0 + abs(theirs))


def test_residual_postcondition_random():
    rng = np.random.default_rng(53)
    for _ in range(500):
        deg = int(rng.integers(2, 5))
        coeffs = rng.uniform(-20, 20, deg + 1)
        if abs(coeffs[0]) < 0.5:
            coeffs[0] = 0.5
        for r in real_roots(coeffs):
            mag = _poly_magnitude(coeffs, r)
            assert abs(np.polyval(coeffs, r)) < 1e-12 * max(mag, 1e-300)


def _reference_polish(coeffs, x, steps):
    # the plain Newton loop without the two-cycle exit; returns (x, steps taken)
    taken = 0
    for _ in range(steps):
        p, dp = roots._eval_with_derivative(coeffs, x)
        if p == 0.0 or dp == 0.0 or not math.isfinite(p):
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x_new = x - step
        if x_new == x:
            break
        x = x_new
        taken += 1
    return x, taken


def test_polish_two_cycle_exit_matches_full_loop(monkeypatch):
    # seeds from the closed form of random quartics whose plain Newton loop
    # never stops early: it bounces between two neighbouring floats
    rng = np.random.default_rng(0)
    bouncing = []
    while len(bouncing) < 20:
        c = rng.uniform(-1.0, 1.0, 5)
        monic = (c / c[0]).tolist()
        for x0 in roots._closed_form(monic):
            _, taken = _reference_polish(monic, x0, roots._MAX_POLISH_STEPS)
            if taken == roots._MAX_POLISH_STEPS:
                bouncing.append((monic, x0))
    # both parities of the remaining step count pick a different end point
    cases = [
        (monic, x0, steps, _reference_polish(monic, x0, steps)[0])
        for steps in (roots._MAX_POLISH_STEPS, roots._MAX_POLISH_STEPS - 1)
        for monic, x0 in bouncing
    ]
    calls = 0
    evaluate = roots._eval_with_derivative

    def counting(coeffs, x):
        nonlocal calls
        calls += 1
        return evaluate(coeffs, x)

    monkeypatch.setattr(roots, "_eval_with_derivative", counting)
    for monic, x0, steps, expected in cases:
        calls = 0
        got = roots._polish(monic, x0, steps)
        assert got.hex() == expected.hex()
        assert calls < steps
