"""Tolerance comparisons at their edge, on the side the README table documents.

The comparisons that read an eigensolve's output get a value exactly at their
edge and one np.nextafter step on each side:

  * VERDICT_TOL: the partial-transpose verdict is entangled when
    lambda_min < -VERDICT_TOL, and boundary when |lambda_min| <= VERDICT_TOL;
  * PSD_TOL: the input is a state when lambda_min >= -PSD_TOL;
  * _PSD_ACCEPT_TOL: the sampler accepts a candidate when
    lambda_min >= -_PSD_ACCEPT_TOL.

Spectra are in 4*lambda units; 4 * x is exact for these x, so the comparison
in lambda units sees x itself.

The comparisons of the Lorentz route get the last float on the documented
side and the one np.nextafter step past it:

  * ZERO_TOL: tdiag_via_symmetric_rotation refuses max|t - t^T| > ZERO_TOL,
    and max|a - b| > ZERO_TOL;
  * _DENOM_TOL: a pair rapidity is free when its |denominator| <= _DENOM_TOL;
  * BETA_LIMIT: the symmetric boost needs |beta|^2 < (1 - beta_limit)^2;
  * _STRUCTURAL_TOL: case d) matches when each of its distances is <= it, and
    at t = 0 case a) (and b)) when ||a| - 1| (||b| - 1|) is <= it.

The residual certificates of the two boost solves get a residual exactly at
their edge and the one np.nextafter step past it:

  * _PAIR_RESIDUAL_TOL: solve_pair_general accepts an elimination residual
    <= it;
  * _FUNDAMENTAL_TOL: the symmetric solve accepts a root with |g(mu)| <= it.

The symmetric solve's Newton loop runs while mu + values[0] > _DENOM_TOL (mu
more than it above the top pole), and the solve accepts a root only where
g'(mu) > 0: each at its edge, and the one step to the side that passes.

The strict comparisons get a value exactly at their edge and the one
np.nextafter step to the side that passes:

  * OFFDIAG_TOL: the elimination certificate refuses a boosted linear term or
    a block asymmetry >= it;
  * HERMITICITY_TOL: require_hermitian refuses max|M - M^H| >= it;
  * MDS_SUM_TOL: mds_criterion and the screen note of analyze accept
    sum|t_i| <= 1 + it;
  * _BOUNDARY_TOL: a partial-transpose witness with |witness| < it is boundary.

The sampler's prefilter marks a candidate when a 2x2 principal minor of 4 rho
is below -_PREFILTER_MARGIN * C^2 (C = max|R|): a minor exactly there and one
step past it.  Its other test, a diagonal entry below -_PREFILTER_MARGIN * C,
never decides the mark (see test_prefilter_diagonal_edge_is_decided_by_a_minor).
roots._is_root accepts |p(x)| <= _ROOT_RESIDUAL_TOL * sum |c_k| |x|^k: a
residual exactly there and one step past it.  real_roots seeds Newton's
method from a companion-matrix eigenvalue z with |Im z| <= _REAL_AXIS_TOL |z|:
a root at 0 sits on that edge, and so does a seed placed exactly there, which
is taken, while the one np.nextafter step past it is not.
"""

import json
import math

import numpy as np
import pytest

from qubitsep import (
    ENTANGLED,
    SEPARABLE,
    ContractViolationError,
    HSParams,
    InvalidStateError,
    NoPhysicalBoostError,
    SampleSpec,
    SamplingExhaustedError,
    SolverInconsistencyError,
    mds_criterion,
    r_from_hs,
    random_state,
    rho_from_hs,
    sampling,
    solve_pair_general,
    solve_symmetric,
    spectra,
    tdiag_via_symmetric_rotation,
)
from qubitsep.cli import main
from qubitsep.hs import HERMITICITY_TOL, PSD_TOL, ZERO_TOL, require_hermitian
from qubitsep import normal_form
from qubitsep.normal_form import (
    _DENOM_TOL,
    _FUNDAMENTAL_TOL,
    _PAIR_RESIDUAL_TOL,
    _STRUCTURAL_TOL,
    NON_GENERIC_A,
    NON_GENERIC_B,
    NON_GENERIC_D,
    OFFDIAG_TOL,
    _certify,
    _match_non_generic,
    _rapidity,
    _solve_symmetric,
)
from qubitsep.pt import MDS_SUM_TOL, VERDICT_TOL, ppt_verdict, require_state
from qubitsep.roots import _REAL_AXIS_TOL, _ROOT_RESIDUAL_TOL, _is_root, real_roots
from qubitsep.sampling import (
    _BOUNDARY_TOL,
    _PREFILTER_MARGIN,
    _PSD_ACCEPT_TOL,
    _draw_block,
    _new_stack,
    _proven_indefinite,
)

BELOW, AT, ABOVE = "below", "at", "above"


def _edge(tol: float, side: str) -> float:
    # -tol, or one step of the float grid below or above it
    edge = -tol
    return {BELOW: np.nextafter(edge, -math.inf), AT: edge, ABOVE: np.nextafter(edge, math.inf)}[side]


def _spectrum(lam_min: float) -> np.ndarray:
    return np.array([4.0 * lam_min, 1.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "side, kind, boundary",
    [(BELOW, ENTANGLED, False), (AT, SEPARABLE, True), (ABOVE, SEPARABLE, True)],
)
def test_ppt_verdict_at_minus_verdict_tol(side, kind, boundary):
    lam_min = _edge(VERDICT_TOL, side)
    assert 4.0 * lam_min / 4.0 == lam_min
    verdict = ppt_verdict(_spectrum(lam_min), VERDICT_TOL)
    assert (verdict.kind, verdict.boundary) == (kind, boundary)
    assert verdict.witness == 4.0 * lam_min


@pytest.mark.parametrize("side, state", [(BELOW, False), (AT, True), (ABOVE, True)])
def test_require_state_at_minus_psd_tol(side, state):
    spectrum = _spectrum(_edge(PSD_TOL, side))
    if state:
        require_state(spectrum, PSD_TOL)
    else:
        with pytest.raises(InvalidStateError) as info:
            require_state(spectrum, PSD_TOL)
        assert info.value.spectrum is spectrum


@pytest.mark.parametrize("side, accepted", [(BELOW, False), (AT, True), (ABOVE, True)])
def test_sampler_accept_at_minus_psd_accept_tol(monkeypatch, side, accepted):
    # every candidate that reaches the accept eigensolve gets lambda_min at the
    # edge; an accepted one is the first candidate past the prefilter
    lam_min = _edge(_PSD_ACCEPT_TOL, side)
    solve = sampling._eigvalsh

    def at_edge(rho):
        lam = solve(rho)
        lam[:, 0] = lam_min
        return lam

    monkeypatch.setattr(sampling, "_eigvalsh", at_edge)
    spec = SampleSpec("mds", 1, 2)
    if not accepted:
        with pytest.raises(SamplingExhaustedError):
            random_state(spec, 0)
        return
    # seed 2's first block of two: the prefilter discards the first candidate
    rs = _draw_block("mds", 1, np.random.default_rng((2, 0)), 2, _new_stack(2))
    assert (~_proven_indefinite(rs)).tolist() == [False, True]
    assert r_from_hs(random_state(spec, 0)).tobytes() == rs[1].tobytes()


def _last_inside(inside, x: float, outward: float) -> float:
    # the last float on the way from x toward `outward` for which inside holds:
    # the one np.nextafter step past it fails
    while not inside(x):
        x = float(np.nextafter(x, -outward))
    while inside(step := float(np.nextafter(x, outward))):
        x = step
    return x


@pytest.mark.parametrize("side, symmetric", [(AT, True), (ABOVE, False)])
def test_symmetric_rotation_refuses_asymmetry_past_zero_tol(side, symmetric):
    t = np.diag([0.3, 0.2, 0.1])
    t[0, 1] = {AT: ZERO_TOL, ABOVE: np.nextafter(ZERO_TOL, math.inf)}[side]
    params = HSParams([0.1, 0.2, 0.0], [0.1, 0.2, 0.0], t)
    if symmetric:
        out, _ = tdiag_via_symmetric_rotation(params)
        assert out.is_t_diagonal() and np.array_equal(out.a, out.b)
    else:
        with pytest.raises(ContractViolationError, match="needs a symmetric t"):
            tdiag_via_symmetric_rotation(params)


@pytest.mark.parametrize("side, symmetric", [(AT, True), (ABOVE, False)])
def test_symmetric_rotation_refuses_a_and_b_apart_past_zero_tol(side, symmetric):
    gap = {AT: ZERO_TOL, ABOVE: np.nextafter(ZERO_TOL, math.inf)}[side]
    t = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]])
    params = HSParams([0.0, 0.2, 0.1], [gap, 0.2, 0.1], t)
    if symmetric:
        out, _ = tdiag_via_symmetric_rotation(params)
        assert out.is_t_diagonal() and np.array_equal(out.a, out.b)
    else:
        with pytest.raises(ContractViolationError, match="needs a == b"):
            tdiag_via_symmetric_rotation(params)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_rapidity_is_free_at_denom_tol(sign):
    # num = den / 2 is exact, so past the edge the rapidity is atanh(1/2)
    at = sign * _DENOM_TOL
    past = float(np.nextafter(at, sign * math.inf))
    assert _rapidity(at / 2.0, at, "ratio") is None
    assert _rapidity(past / 2.0, past, "ratio") == math.atanh(0.5)


def test_symmetric_boost_refuses_beta_sq_at_the_light_speed_bound():
    # the first of these states whose |beta|^2 the bound (1 - beta_limit)^2
    # reaches exactly: at that beta_limit the strict < refuses the boost
    for a1 in (0.3, 0.35, 0.4, 0.45, 0.25):
        a, tdiag = [a1, 0.3, 0.0], [0.2, 0.1, 0.0]
        beta_sq = _solve_symmetric(a, tdiag, 0.0)[2]
        start = 1.0 - math.sqrt(beta_sq)
        inside = _last_inside(lambda limit: (1.0 - limit) ** 2 > beta_sq, start, math.inf)
        past = float(np.nextafter(inside, math.inf))
        if (1.0 - past) ** 2 == beta_sq:
            break
    else:
        pytest.fail("no state puts the bound on its own beta_sq")
    betas, _ = solve_symmetric(a, tdiag, inside)
    assert float(betas @ betas) == beta_sq
    with pytest.raises(NoPhysicalBoostError, match="no real root gives a boost"):
        solve_symmetric(a, tdiag, past)


def test_pair_solve_accepts_a_residual_up_to_pair_residual_tol(monkeypatch):
    for residual, accepted in (
        (_PAIR_RESIDUAL_TOL, True),
        (np.nextafter(_PAIR_RESIDUAL_TOL, math.inf), False),
    ):
        monkeypatch.setattr(normal_form, "_pair_residual", lambda *args: residual)
        if accepted:
            assert solve_pair_general(0.2, 0.1, 0.3)[1] == residual
        else:
            with pytest.raises(SolverInconsistencyError, match="elimination certificate"):
                solve_pair_general(0.2, 0.1, 0.3)


def test_symmetric_solve_accepts_g_up_to_fundamental_tol(monkeypatch):
    # g <= 0 ends the Newton loop at mu = 1, where every |beta| is well below 1
    a, tdiag = [0.1, 0.15, 0.2], [0.3, -0.2, 0.2]
    for g, accepted in (
        (-_FUNDAMENTAL_TOL, True),
        (np.nextafter(-_FUNDAMENTAL_TOL, -math.inf), False),
    ):
        monkeypatch.setattr(normal_form, "_secular", lambda *args: (g, 1.0))
        if accepted:
            assert solve_symmetric(a, tdiag)[1] == _FUNDAMENTAL_TOL
        else:
            with pytest.raises(NoPhysicalBoostError, match="fundamental identity"):
                solve_symmetric(a, tdiag)


def test_symmetric_newton_loop_needs_mu_above_the_top_pole_by_more_than_denom_tol(monkeypatch):
    # the loop runs only while mu + values[0] > _DENOM_TOL.  At mu = 1 that sum
    # is 1 + t_1, a multiple of 2**-53, and 1e-12 is not; so the tolerance is
    # also moved onto that grid, where t_1 = grid - 1 puts the sum on the edge.
    # a_1 = 2**-48 makes g(1) so small that the Newton step leaves mu at 1,
    # the root the solve then takes.
    grid = 1.0 + (_DENOM_TOL - 1.0)
    edge = grid - 1.0
    inside = float(np.nextafter(edge, math.inf))
    a, tdiag = [2.0**-48, 0.0, 0.0], [edge, 0.3, 0.2]
    for tol in (_DENOM_TOL, grid):
        monkeypatch.setattr(normal_form, "_DENOM_TOL", tol)
        with pytest.raises(NoPhysicalBoostError, match="fundamental identity"):
            solve_symmetric(a, tdiag)
        betas, _ = solve_symmetric(a, [inside, *tdiag[1:]])
        assert betas.tolist() == [a[0] / (1.0 + inside), 0.0, 0.0]


def test_symmetric_solve_refuses_a_root_where_g_has_zero_slope(monkeypatch):
    # g'(mu) = 1 - |beta|^2: at 0 the boost is at light speed, refused by the
    # g' > 0 test alone, since the core is called with a beta_limit of -1
    # (solve_symmetric refuses it), whose limit test would take |beta| = 1.
    # With 1 + t_1 = a_1 = 2**-34, mu = 1 gives g = 2**-34 (within
    # _FUNDAMENTAL_TOL) and g' = 0 exactly, and beta_1 = 1
    a1 = 2.0**-34
    assert normal_form._secular([a1 - 1.0], [a1 * a1], 1.0) == (a1, 0.0)
    with pytest.raises(NoPhysicalBoostError, match="fundamental identity"):
        _solve_symmetric([a1, 0.0, 0.0], [a1 - 1.0, 0.0, 0.0], -1.0)
    # one step up, g' > 0 takes the root (g <= 0 ends the loop at mu = 1)
    a, tdiag = [0.1, 0.15, 0.2], [0.3, -0.2, 0.2]
    for slope, accepted in ((0.0, False), (5e-324, True)):
        monkeypatch.setattr(normal_form, "_secular", lambda *args: (0.0, slope))
        if accepted:
            assert solve_symmetric(a, tdiag)[1] == 0.0
        else:
            with pytest.raises(NoPhysicalBoostError, match="fundamental identity"):
                solve_symmetric(a, tdiag)


def _case_d(entry: str, x: float):
    # case d) on axis 1, a = b = (1, 0, 0) and t = diag(1, 0, 0), one entry set to x
    a, tdiag = [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    if entry == "a_k":
        a[0] = x
    else:
        tdiag[{"t_k": 0, "t_i": 1, "t_j": 2}[entry]] = x
    return _match_non_generic(a, list(a), tdiag)


@pytest.mark.parametrize(
    "entry, start, inside",
    [
        # no float x has 1 - x exactly at 1e-9, so these edges sit strictly inside
        ("a_k", 1.0, lambda x: abs(abs(x) - 1.0) <= _STRUCTURAL_TOL),
        ("t_k", 1.0, lambda x: abs(x - 1.0) <= _STRUCTURAL_TOL),
        ("t_i", 0.0, lambda x: abs(x) <= _STRUCTURAL_TOL),
        ("t_j", 0.0, lambda x: abs(x) <= _STRUCTURAL_TOL),
    ],
)
def test_case_d_matches_up_to_structural_tol(entry, start, inside):
    outward = -math.inf if start == 1.0 else math.inf
    edge = _last_inside(inside, start + math.copysign(_STRUCTURAL_TOL, outward), outward)
    if start == 0.0:
        assert edge == _STRUCTURAL_TOL
    assert _case_d(entry, edge).kind == NON_GENERIC_D
    assert _case_d(entry, float(np.nextafter(edge, outward))) is None


@pytest.mark.parametrize("outward", [math.inf, -math.inf])
@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
def test_case_a_matches_its_length_up_to_structural_tol(direction, outward):
    # at t = 0 case a) (a = x * direction, b = 0) and its mirror case b)
    # match while ||a| - 1| <= _STRUCTURAL_TOL, on an axis or off it
    def length(x):
        return math.hypot(*(x * c for c in direction))

    def inside(x):
        return abs(length(x) - 1.0) <= _STRUCTURAL_TOL

    edge = _last_inside(inside, 1.0 + math.copysign(_STRUCTURAL_TOL, outward), outward)
    zero = [0.0, 0.0, 0.0]
    for x, matched in ((edge, True), (float(np.nextafter(edge, outward)), False)):
        v = [x * c for c in direction]
        for kind, found in (
            (NON_GENERIC_A, _match_non_generic(v, zero, zero)),
            (NON_GENERIC_B, _match_non_generic(zero, v, zero)),
        ):
            assert (found.kind if found else None) == (kind if matched else None)


@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (2, 3)])
def test_certificate_refuses_offdiag_tol(entry):
    # a linear term r1 or c1, or the block asymmetry q12 - q21, at the edge
    # raises; one step below it passes (scale 1 keeps the tolerance at 1e-9)
    for x, refused in ((OFFDIAG_TOL, True), (np.nextafter(OFFDIAG_TOL, 0.0), False)):
        q = np.diag([1.0, 0.3, 0.2, 0.1])
        q[entry] = x
        if refused:
            with pytest.raises(SolverInconsistencyError):
                _certify(q, 1.0)
        else:
            _certify(q, 1.0)


def test_require_hermitian_refuses_hermiticity_tol():
    for x, refused in ((HERMITICITY_TOL, True), (np.nextafter(HERMITICITY_TOL, 0.0), False)):
        m = np.eye(4, dtype=complex)
        m[0, 1] = x
        assert abs(m[0, 1] - m[1, 0].conjugate()) == x
        if refused:
            with pytest.raises(ContractViolationError, match="not Hermitian"):
                require_hermitian(m)
        else:
            require_hermitian(m)


def test_mds_screen_accepts_up_to_mds_sum_tol(tmp_path, capsys):
    # 1 + MDS_SUM_TOL is the edge float; the screen note of analyze (a1 = 1e-11
    # is active, so not the MDS note) fails only one step above it
    edge = 1.0 + MDS_SUM_TOL
    path = tmp_path / "state.json"
    for t1, screened in ((edge, True), (np.nextafter(edge, math.inf), False)):
        assert mds_criterion([t1, 0.0, 0.0]) is screened
        path.write_text(json.dumps({"a": [1e-11, 0, 0], "b": [0, 0, 0], "t_diag": [t1, 0, 0]}))
        main(["analyze", str(path)])
        notes = json.loads(capsys.readouterr().out)["criteria_notes"]
        failed = "necessary screen failed: sum|t_i| > 1 already implies entangled"
        assert (failed in notes) is not screened


def test_boundary_witness_is_below_boundary_tol():
    # a separable generic state given a partial-transpose witness of exactly
    # -_BOUNDARY_TOL: a disagreement; one step toward 0 it is boundary
    params = HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])
    spectrum = spectra(rho_from_hs(params))[0]
    for witness, boundary, agree in (
        (-_BOUNDARY_TOL, False, False),
        (np.nextafter(-_BOUNDARY_TOL, 0.0), True, None),
    ):
        pt_spectrum = np.array([witness, 1.0, 1.0, 2.0])
        rec = sampling._validate(params, spectrum, pt_spectrum, VERDICT_TOL, 1e-9, PSD_TOL)
        assert rec.ppt.witness == witness and rec.ppt.kind == ENTANGLED
        assert (rec.boundary, rec.agree) == (boundary, agree)


def _candidate(**entries) -> np.ndarray:
    # a one-candidate stack: corner 1, the given entries of R, the rest 0
    rs = _new_stack(1)
    for name, value in entries.items():
        rs[0, int(name[1]), int(name[2])] = value
    return rs


def test_prefilter_marks_a_minor_below_minus_margin_times_scale():
    # a_3 = -1 makes 4 rho's diagonal (0, 0, 2, 2) and b_1 = y puts y at (0, 1):
    # the (0, 1) minor is 0 * 0 - y^2, C = 1, and y^2 rounds to 1e-9 exactly
    y = math.sqrt(_PREFILTER_MARGIN)
    assert y * y == _PREFILTER_MARGIN
    assert _proven_indefinite(_candidate(r03=-1.0, r10=y)).tolist() == [False]
    past = float(np.nextafter(y, math.inf))
    assert _proven_indefinite(_candidate(r03=-1.0, r10=past)).tolist() == [True]


def test_prefilter_diagonal_edge_is_decided_by_a_minor():
    # The diagonal test's < against <= cannot change the mark.  Let D = 4 rho
    # have D_ii = -m C (m = _PREFILTER_MARGIN) and no diagonal entry below
    # -m C, and suppose no minor is below -m C^2.  The minors (i, j) =
    # -m C D_jj - |D_ij|^2 give D_jj <= C and |D_ij|^2 <= 2 m C^2, and then
    # the other minors |D_kl|^2 <= (1 + m) C^2.  Each entry of R is a signed
    # sum of D's entries: (±D_00 ± D_11 ± D_22 ± D_33) / 4, at most
    # (m + 3) C / 4, or (±D_ij ± D_kl) / 2 for a pair through i and the pair
    # left over, at most (sqrt(2 m) + sqrt(1 + m)) C / 2.  Both are below
    # C = max|R|, by far more than rounding moves them, so some minor is below
    # its own edge whenever a diagonal entry is at its edge.  On a_3 = x = -(1 + d),
    # where D = (-d, -d, 2 + d, 2 + d) and C = -x, the last float inside the
    # diagonal test and the next one out are both marked; the mark starts
    # where the (0, 2) minor -d (2 + d) crosses -m C^2, at d near m / 2.
    def diagonal_inside(x):
        return 1.0 + x >= -_PREFILTER_MARGIN * abs(x)

    def marked(x):
        return _proven_indefinite(_candidate(r03=x)).tolist() == [True]

    edge = _last_inside(diagonal_inside, -1.0 - _PREFILTER_MARGIN, -math.inf)
    assert marked(edge) and marked(float(np.nextafter(edge, -math.inf)))
    first = _last_inside(lambda x: not marked(x), -1.0 - _PREFILTER_MARGIN / 2, -math.inf)
    assert not marked(first) and marked(float(np.nextafter(first, -math.inf)))
    assert 0.49 < -(1.0 + first) / _PREFILTER_MARGIN < 0.51


def test_is_root_accepts_a_residual_up_to_root_residual_tol():
    # x = 1 on x^2 - x + c: Horner gives p = c exactly and the bound 1 * 1 +
    # 1 * 1 + |c| = 2 + |c|; c = 2.000000000002e-12 is its own tolerance
    c = 2.000000000002e-12
    assert _ROOT_RESIDUAL_TOL * (2.0 + c) == c
    assert _is_root([1.0, -1.0, c], 1.0)
    assert _is_root([1.0, -1.0, -c], 1.0)
    past = float(np.nextafter(c, math.inf))
    assert _ROOT_RESIDUAL_TOL * (2.0 + past) < past
    assert not _is_root([1.0, -1.0, past], 1.0)
    assert not _is_root([1.0, -1.0, -past], 1.0)


def test_real_roots_seeds_from_eigenvalues_up_to_real_axis_tol(monkeypatch):
    # x^3 - x: the companion matrix gives the root 0 exactly, where
    # |Im z| = 0 = _REAL_AXIS_TOL * |z|
    companion = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert 0.0 in np.linalg.eigvals(companion).tolist()
    assert real_roots([1.0, 0.0, -1.0, 0.0]).tolist() == [-1.0, 0.0, 1.0]
    # x^2 - 1 with the seed of its root 1 moved off the real axis: the largest
    # Im z the band takes, and the next float
    im = _REAL_AXIS_TOL * abs(complex(1.0, _REAL_AXIS_TOL))
    while not im <= _REAL_AXIS_TOL * abs(complex(1.0, im)):
        im = float(np.nextafter(im, 0.0))
    while (up := float(np.nextafter(im, 1.0))) <= _REAL_AXIS_TOL * abs(complex(1.0, up)):
        im = up
    for seed_im, found in ((im, [-1.0, 1.0]), (float(np.nextafter(im, 1.0)), [-1.0])):
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.array([-1.0, complex(1.0, seed_im)]))
        assert real_roots([1.0, 0.0, -1.0]).tolist() == found
