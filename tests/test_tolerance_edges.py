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

  * ZERO_TOL: tdiag_via_symmetric_rotation refuses max|t - t^T| > ZERO_TOL;
  * _DENOM_TOL: a pair rapidity is free when its |denominator| <= _DENOM_TOL;
  * BETA_LIMIT: the symmetric boost needs |beta|^2 < (1 - beta_limit)^2;
  * _STRUCTURAL_TOL: case d) matches when each of its distances is <= it.

The residual certificates of the two boost solves get a residual exactly at
their edge and the one np.nextafter step past it:

  * _PAIR_RESIDUAL_TOL: solve_pair_general accepts an elimination residual
    <= it;
  * _FUNDAMENTAL_TOL: the symmetric solve accepts a root with |g(mu)| <= it.

The strict comparisons get a value exactly at their edge and the one
np.nextafter step to the side that passes:

  * OFFDIAG_TOL: the elimination certificate refuses a boosted linear term or
    a block asymmetry >= it;
  * HERMITICITY_TOL: require_hermitian refuses max|M - M^H| >= it;
  * MDS_SUM_TOL: mds_criterion and the screen note of analyze accept
    sum|t_i| <= 1 + it;
  * _BOUNDARY_TOL: a partial-transpose witness with |witness| < it is boundary.
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
    NON_GENERIC_D,
    OFFDIAG_TOL,
    _certify,
    _match_non_generic,
    _rapidity,
    _solve_symmetric,
)
from qubitsep.pt import MDS_SUM_TOL, VERDICT_TOL, ppt_verdict, require_state
from qubitsep.sampling import (
    _BOUNDARY_TOL,
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
