"""Comparisons that read an eigensolve's output, at their tolerance edge.

Each comparison gets a value exactly at its edge and one np.nextafter step on
each side, and lands on the side that the README tolerance table documents:

  * VERDICT_TOL: the partial-transpose verdict is entangled when
    lambda_min < -VERDICT_TOL, and boundary when |lambda_min| <= VERDICT_TOL;
  * PSD_TOL: the input is a state when lambda_min >= -PSD_TOL;
  * _PSD_ACCEPT_TOL: the sampler accepts a candidate when
    lambda_min >= -_PSD_ACCEPT_TOL.

Spectra are in 4*lambda units; 4 * x is exact for these x, so the comparison
in lambda units sees x itself.
"""

import math

import numpy as np
import pytest

from qubitsep import (
    ENTANGLED,
    SEPARABLE,
    InvalidStateError,
    SampleSpec,
    SamplingExhaustedError,
    r_from_hs,
    random_state,
    sampling,
)
from qubitsep.hs import PSD_TOL
from qubitsep.pt import VERDICT_TOL, ppt_verdict, require_state
from qubitsep.sampling import _PSD_ACCEPT_TOL, _draw_block, _new_stack, _proven_indefinite

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
