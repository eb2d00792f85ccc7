import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitsep import InvalidParameterError, SampleSpec, batch_stats, roots
from qubitsep.roots import real_roots

from conftest import record_symmetric_solves
from paper_formulas import symmetric_velocity_oracle

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
    # x^3 - 1e-250 x: p underflows between the roots 0 and +-1e-125, so they
    # merge into one
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
        # one real root near 1.2882e-61 and a complex pair; the closed form
        # used to add -2.3e131, 6.3e115 and 1.07e131, where p overflows and
        # the residual test compared inf with inf
        (
            [3118.5412045928883, -7.641424864809092e-276, -3.533678953957831e-296,
             -6.6664842711469105e-180],
            (6.6664842711469105e-180 / 3118.5412045928883) ** (1.0 / 3.0),
        ),
    ],
)
def test_only_roots_are_returned(coeffs, expected):
    out = real_roots(coeffs)
    assert out.shape == (1,)
    assert abs(out[0] - expected) <= 1e-9 * abs(expected)
    monic = np.array(coeffs) / coeffs[0]
    assert abs(np.polyval(monic, out[0])) <= 1e-12 * _poly_magnitude(monic, out[0])


def test_overflowing_residual_is_not_a_root():
    # at -2.3e131 both p and the magnitude sum overflow to inf; inf <= inf
    # must not pass for a root
    monic = [1.0, -2.45e-279, -1.13e-299, -2.14e-183]
    assert not roots._is_root(monic, -2.3e131)


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
    # a tiny leading coefficient is kept: both roots, -1e20 and 1, come back
    assert np.allclose(real_roots([1e-20, 1.0, -1.0]), [-1e20, 1.0], rtol=1e-12)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # 1e-7 x^3 - 1e8: the leading term is 1e-15 of the constant, yet
        # x = 1e5 is a root
        ([1e-7, 0.0, 0.0, -1e8], 1e5),
        # without its leading term the cubic has no real root; it has one
        # near 4.7192e4
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
    # dividing by the leading coefficient overflows
    with pytest.raises(InvalidParameterError):
        real_roots([1e-300, 1e10, 1.0])


def _resolved(coeffs, x):
    # p(x) is well beyond the residual bound: x is not numerically a root
    return abs(np.polyval(coeffs, x)) > 10 * roots._ROOT_RESIDUAL_TOL * _poly_magnitude(coeffs, x)


@given(
    st.lists(coeff, max_size=4),
    st.lists(st.tuples(coeff, st.floats(min_value=5e-4, max_value=10.0)), max_size=2),
    st.floats(min_value=0.1, max_value=10.0),
    st.booleans(),
)
@settings(deadline=None, max_examples=300)
def test_returns_exactly_the_real_roots(reals, pairs, lead, negate):
    # a polynomial built from known roots: the real ones, and complex pairs
    # x +- iy; no two roots closer than 1e-3
    assume(2 <= len(reals) + 2 * len(pairs) <= 4)
    every = reals + [complex(x, s * y) for x, y in pairs for s in (1, -1)]
    assume(all(abs(u - v) >= 1e-3 for i, u in enumerate(every) for v in every[i + 1 :]))
    coeffs = (-lead if negate else lead) * np.poly(every).real
    expected = sorted(reals)
    # neighbouring real roots are told apart, and no pair's real part passes
    # for a root
    assume(all(_resolved(coeffs, 0.5 * (u + v)) for u, v in zip(expected, expected[1:])))
    assume(all(_resolved(coeffs, x) for x, _ in pairs))
    mine = real_roots(coeffs)
    assert len(mine) == len(expected)
    derivative = np.polyder(coeffs)
    for ours, exact in zip(mine, expected):
        # first-order error of a root whose residual meets the bound, with
        # room for the rounding of the coefficients
        slack = 4 * roots._ROOT_RESIDUAL_TOL * _poly_magnitude(coeffs, exact)
        assert abs(ours - exact) <= slack / abs(np.polyval(derivative, exact)) + 1e-300


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
    # the plain Newton loop without the cycle exit; returns (x, steps taken)
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
    # seeds from the companion eigenvalues of random quartics whose plain
    # Newton loop never stops early: it bounces between two neighbouring floats
    rng = np.random.default_rng(0)
    bouncing = []
    while len(bouncing) < 20:
        c = rng.uniform(-1.0, 1.0, 5)
        monic = (c / c[0]).tolist()
        eig = np.roots(monic)
        for x0 in eig.real[eig.imag == 0].tolist():
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


def test_polish_cycle_exit_matches_full_loop_on_sampled_states(monkeypatch):
    # every polish of the root-scan oracle for case b) on 200 seed-1 samples of
    # each symmetric family; some of them settle into cycles longer than two
    solves = record_symmetric_solves(monkeypatch)
    for family in ("symmetric-two", "symmetric-three", "full-symmetric"):
        batch_stats(SampleSpec(family, 200, 1))
    monkeypatch.undo()
    calls = []
    polish = roots._polish

    def recording(coeffs, x, steps=roots._MAX_POLISH_STEPS):
        calls.append((list(coeffs), x, steps))
        return polish(coeffs, x, steps)

    monkeypatch.setattr(roots, "_polish", recording)
    for a, tdiag, beta_limit in solves:
        symmetric_velocity_oracle(a, tdiag, beta_limit)
    monkeypatch.undo()
    evaluations = 0
    evaluate = roots._eval_with_derivative

    def counting(coeffs, x):
        nonlocal evaluations
        evaluations += 1
        return evaluate(coeffs, x)

    monkeypatch.setattr(roots, "_eval_with_derivative", counting)
    longer = 0
    for coeffs, x0, steps in calls:
        expected, taken = _reference_polish(coeffs, x0, steps)
        evaluations = 0
        assert roots._polish(coeffs, x0, steps).hex() == expected.hex()
        if taken == steps:
            assert evaluations < steps
            # no two-cycle: the iterate two steps before the end differs
            longer += _reference_polish(coeffs, x0, steps - 2)[0] != expected
    assert len(calls) == 2200
    assert longer > 0
