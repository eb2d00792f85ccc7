"""Case a) is an X-state: the certified pair solve against its closed forms.

Turned so that its pair axis is z, a state with one linear pair (a_k, b_k)
and a diagonal t is nonzero only on the diagonal and anti-diagonal of rho.
Its two diagonal products p+ = 4 sqrt(rho11 rho44) and p- = 4 sqrt(rho22 rho33)
(paper_formulas.pair_products) give the normal form without a boost,
s0 = (p+ + p-)/2 and s_k = (p+ - p-)/2, the other two values being those of t,
and Yu and Eberly's concurrence of an X-state is an oracle for the
concurrence the normal form gives, max(0, (|s1| + |s2| + |s3| - s0)/2).
The pair solve's light-speed conditions are p+ = 0 and p- = 0.

The states: the single-pair family on every axis at seeds 0 and 1, their
one-sided versions (b = 0 or a = 0) where those are states, and the pair
states of perfbench's seeded corpus.
"""

import sys

import numpy as np
import pytest

from qubitsep import (
    BoostLimitError,
    HSParams,
    SampleSpec,
    eigenvalues_hermitian,
    random_state,
    rho_from_hs,
    solve_normal_form,
    solve_pair_general,
)
from qubitsep.normal_form import _DENOM_TOL

from conftest import corpus_rows
from paper_formulas import pair_products, pair_sigma, pair_x_state, x_state_concurrence

ULP = sys.float_info.epsilon  # one ulp of 1; every value compared is at most 1
SIGMA_ULPS = 8  # seen: 4
CONCURRENCE_ULPS = 8  # seen: 2


def _pair_axis(p: HSParams) -> int | None:
    # the one axis carrying linear terms of a diagonal-t state, or None
    if not p.is_t_diagonal():
        return None
    active = [x != 0.0 or y != 0.0 for x, y in zip(p.a.tolist(), p.b.tolist())]
    return active.index(True) + 1 if sum(active) == 1 else None


@pytest.fixture(scope="module")
def pair_states() -> list[HSParams]:
    states = [
        random_state(SampleSpec("single-pair", 64, seed, axis), index)
        for seed in (0, 1)
        for axis in (1, 2, 3)
        for index in range(64)
    ]
    zero = np.zeros(3)
    one_sided = [HSParams(a, b, p.t) for p in states for a, b in ((p.a, zero), (zero, p.b))]
    states += [p for p in one_sided if float(eigenvalues_hermitian(rho_from_hs(p))[0]) > 0.0]
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows = corpus_rows(monkeypatch, 0, 1024).tolist()
    corpus = [HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))) for row in rows]
    return states + [p for p in corpus if _pair_axis(p) is not None]


def test_pair_solve_matches_the_x_state_closed_forms(pair_states):
    generic = one_sided = 0
    for p in pair_states:
        report = solve_normal_form(p)
        if not report.classification.is_generic:
            continue
        generic += 1
        one_sided += not p.a.any() or not p.b.any()
        axis = _pair_axis(p)
        k = axis - 1
        a_k, b_k, tdiag = float(p.a[k]), float(p.b[k]), p.t.diagonal()
        closed = pair_sigma(a_k, b_k, tdiag, axis)
        sigma = report.sigma
        # the report orders s by magnitude, not by axis: compare sorted values
        assert abs(sigma.s0 - closed.s0) <= SIGMA_ULPS * ULP
        assert np.abs(np.sort(sigma.s) - np.sort(closed.s)).max() <= SIGMA_ULPS * ULP
        rho = pair_x_state(a_k, b_k, tdiag, axis)
        anti = np.fliplr(np.eye(4, dtype=bool))
        assert not rho[~(np.eye(4, dtype=bool) | anti)].any()
        concurrence = max(0.0, (float(np.abs(sigma.s).sum()) - sigma.s0) / 2)
        assert abs(x_state_concurrence(rho) - concurrence) <= CONCURRENCE_ULPS * ULP
    assert generic > 1000 and one_sided > 300


def _dyadic_pairs(rng, n):
    # (a_k, b_k, t_k) from the diagonal d = 4 (rho11, rho22, rho33, rho44) of an
    # X-state, in multiples of 2**-7 summing to 4, each at least 2**-7; then one
    # entry (or both entries of one product) set to 0, or one set to 2**-40,
    # its mass moved to another entry.  Every sum below is exact, so p+ and p-
    # are exactly 0 where an entry of their product is, and at least 2**-24
    # elsewhere
    for _ in range(n):
        d = ((1 + rng.multinomial(508, [0.25] * 4)) / 128).tolist()
        move = rng.integers(4)
        other = (move + 1 + rng.integers(3)) % 4
        kind = rng.integers(4)
        if kind == 1:
            d[other], d[move] = d[other] + d[move], 0.0
        elif kind == 2:
            d[other], d[move] = d[other] + d[move] - 2.0**-40, 2.0**-40
        elif kind == 3:  # a product with both entries 0: 1 + t_k or 1 - t_k is 0
            partner = 3 - move
            rest = [m for m in range(4) if m not in (move, partner)]
            d[rest[0]] += d[move] + d[partner]
            d[move] = d[partner] = 0.0
        d1, d2, d3, d4 = d
        yield (d1 + d2 - d3 - d4) / 4, (d1 - d2 + d3 - d4) / 4, (d1 + d4 - d2 - d3) / 4


def _light_speed_pairs(pair_states):
    for p in pair_states:
        k = _pair_axis(p) - 1
        yield float(p.a[k]), float(p.b[k]), float(p.t[k, k])
    yield from _dyadic_pairs(np.random.default_rng(18), 400)
    # the floats next to p+ = 0 (and p- = 0): |a_k + b_k| against 1 + t_k = 1.5
    # is 1.5 (0.75 - 2**-53 is a tie, rounded to even), 1.5 - 2**-52 or
    # 1.5 - 2**-51
    for b in (0.75, 0.75 - 2.0**-53, 0.75 - 2.0**-52, 0.75 - 2.0**-51):
        yield 0.75, b, 0.5
        yield -0.75, -b, 0.5
        yield 0.75, -b, -0.5


def test_pair_solve_reaches_light_speed_exactly_where_p_vanishes(pair_states):
    # with beta_limit 0 the pair solve refuses only |beta| >= 1 itself.  p is
    # "0 to rounding" at or below 2**-30 of its 1 +- t_k: a float input gives
    # p = 0 exactly or p above about 2**-27 of it (a square root of the
    # rounding in p^2).  Where 1 +- t_k is 0 as well, that rapidity is free
    # (_DENOM_TOL) and takes the other one's value: no light speed from it
    seen = {True: 0, False: 0}
    for a_k, b_k, t_k in _light_speed_pairs(pair_states):
        p_plus, p_minus = pair_products(a_k, b_k, t_k)
        expected = any(
            abs(den) > _DENOM_TOL and p <= 2.0**-30 * abs(den)
            for p, den in ((p_plus, 1 + t_k), (p_minus, 1 - t_k))
        )
        try:
            solve_pair_general(a_k, b_k, t_k, 0.0)
            light = False
        except BoostLimitError:
            light = True
        assert light == expected, (a_k, b_k, t_k, p_plus, p_minus)
        seen[light] += 1
    assert min(seen.values()) > 100
