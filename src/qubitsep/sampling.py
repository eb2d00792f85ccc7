"""Random state families and brute-force cross-validation of the two pipelines.

Each sample stream is fully determined by (seed, index) through a counter
keyed PCG64 generator, so batches are reproducible bit for bit and can be
sharded arbitrarily.  States are produced by rejection against the dense
eigenvalue solver; parameter draws are pre-scaled to [-0.9, 0.9] to keep
acceptance workable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import BETA_LIMIT
from .errors import InvalidParameterError, SamplingExhaustedError
from .hs import (
    DIAG_TOL,
    HSParams,
    eigenvalues_hermitian,
    rho_from_hs,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from .normal_form import (
    Classification,
    SolveReport,
    separability_verdict,
    solve_normal_form,
)
from .pt import VERDICT_TOL, Verdict, peres_horodecki

RNG_ALGORITHM = "pcg64"

FAMILIES = (
    "mds",
    "single-pair",
    "symmetric-two",
    "symmetric-three",
    "full-symmetric",
    "product-mixture",
)

_PSD_ACCEPT_TOL = 1e-12
_MAX_ATTEMPTS = 10_000
_BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class SampleSpec:
    """A reproducible batch: family name, sample count and stream seed."""

    family: str
    count: int
    seed: int
    axis: int = 1  # used by the single-pair family only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.count < 1:
            raise InvalidParameterError("count must be >= 1")
        if self.axis not in (1, 2, 3):
            raise InvalidParameterError("axis must be 1, 2 or 3")


@dataclass(frozen=True)
class CrossValidation:
    """Verdicts of both pipelines on one state, plus solve diagnostics."""

    ppt: Verdict
    classification: Classification
    lorentz: Verdict | None
    report: SolveReport
    boundary: bool
    agree: bool | None


@dataclass(frozen=True)
class AgreementReport:
    family: str
    count: int
    seed: int
    total: int
    generic_count: int
    nongeneric_count: int
    agree_count: int
    disagree_count: int
    boundary_count: int
    mean_offdiag_residual: float
    max_offdiag_residual: float
    rng_algorithm: str = RNG_ALGORITHM


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _draw_params(family: str, axis: int, rng: np.random.Generator) -> HSParams:
    zeros = np.zeros(3)
    if family == "mds":
        return HSParams.diagonal(zeros, zeros, rng.uniform(-0.9, 0.9, 3))
    if family == "single-pair":
        tvals = rng.uniform(-0.9, 0.9, 3)
        pair = rng.uniform(-0.9, 0.9, 2)
        k = axis - 1
        order = [k, (k + 1) % 3, (k + 2) % 3]
        tdiag = np.empty(3)
        tdiag[order] = tvals
        a = np.zeros(3)
        b = np.zeros(3)
        a[k], b[k] = pair
        return HSParams.diagonal(a, b, tdiag)
    if family == "symmetric-two":
        tdiag = rng.uniform(-0.9, 0.9, 3)
        vals = rng.uniform(-0.9, 0.9, 2)
        quiet = int(rng.integers(3))
        a = np.zeros(3)
        a[[k for k in range(3) if k != quiet]] = vals
        return HSParams.diagonal(a, a.copy(), tdiag)
    if family == "symmetric-three":
        tdiag = rng.uniform(-0.9, 0.9, 3)
        a = rng.uniform(0.05, 0.9, 3) * rng.choice([-1.0, 1.0], 3)
        return HSParams.diagonal(a, a.copy(), tdiag)
    if family == "full-symmetric":
        a = rng.uniform(-0.9, 0.9, 3)
        m = rng.uniform(-0.9, 0.9, (3, 3))
        return HSParams(a, a.copy(), 0.5 * (m + m.T))
    if family == "product-mixture":
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        u = _unit_rows(rng.normal(size=(k, 3)))
        v = _unit_rows(rng.normal(size=(k, 3)))
        a = weights @ u
        b = weights @ v
        t = np.einsum("k,ki,kj->ij", weights, u, v)
        return HSParams(a, b, t)
    raise InvalidParameterError(f"unknown family {family!r}")


def random_state(
    spec: SampleSpec, index: int, max_attempts: int = _MAX_ATTEMPTS
) -> HSParams:
    """Deterministic valid-state draw for (spec.seed, index)."""
    rng = np.random.default_rng((spec.seed, index))
    for _ in range(max_attempts):
        params = _draw_params(spec.family, spec.axis, rng)
        spectrum = eigenvalues_hermitian(rho_from_hs(params))
        if float(spectrum.values[0]) >= -_PSD_ACCEPT_TOL:
            return params
    raise SamplingExhaustedError(
        f"no valid state after {max_attempts} attempts "
        f"(family={spec.family}, seed={spec.seed}, index={index})"
    )


def reduce_to_diagonal(params: HSParams) -> tuple[HSParams, str | None]:
    """Diagonalize t by proper local rotations; return the result and a note.

    A symmetric state (a == b, t symmetric) gets one shared rotation so the
    symmetric boost solvers still apply; any other state gets independent
    rotations on the two qubits.  The note says which was used and is None
    when t was already diagonal.
    """
    if params.is_t_diagonal():
        return params, None
    if params.is_symmetric() and float(np.abs(params.t - params.t.T).max()) <= DIAG_TOL:
        work, _ = tdiag_via_symmetric_rotation(params)
        return work, (
            "correlation matrix diagonalized by one shared local rotation "
            "(symmetric state preserved)"
        )
    work, _, _ = tdiag_via_local_rotations(params)
    return work, "correlation matrix diagonalized by local rotations"


def cross_validate(
    params: HSParams,
    tol: float = VERDICT_TOL,
    beta_limit: float = BETA_LIMIT,
) -> CrossValidation:
    """Run the exact partial-transpose test and the boost pipeline side by side.

    Samples whose partial-transpose witness sits within 1e-8 of zero are
    bucketed as boundary and excluded from disagreement accounting; both
    criteria are exact only in exact arithmetic.
    """
    ppt = peres_horodecki(rho_from_hs(params), tol=tol)
    work, _ = reduce_to_diagonal(params)
    report = solve_normal_form(work, beta_limit=beta_limit)
    boundary = abs(ppt.witness) < _BOUNDARY_TOL
    lorentz = None
    agree = None
    if report.classification.is_generic:
        lorentz = separability_verdict(report.sigma, tol=tol)
        if not boundary:
            agree = lorentz.kind == ppt.kind
    return CrossValidation(
        ppt=ppt,
        classification=report.classification,
        lorentz=lorentz,
        report=report,
        boundary=boundary,
        agree=agree,
    )


def batch_stats(spec: SampleSpec) -> AgreementReport:
    """Aggregate cross-validation over `spec.count` samples; deterministic."""
    generic = 0
    nongeneric = 0
    agree = 0
    disagree = 0
    boundary = 0
    residuals: list[float] = []
    for index in range(spec.count):
        params = random_state(spec, index)
        rec = cross_validate(params)
        if rec.classification.is_generic:
            generic += 1
            residuals.append(rec.report.offdiag_residual)
            if rec.agree is None:
                boundary += 1
                agree += 1  # boundary samples are never disagreements
            elif rec.agree:
                agree += 1
            else:
                disagree += 1
        else:
            nongeneric += 1
    return AgreementReport(
        family=spec.family,
        count=spec.count,
        seed=spec.seed,
        total=spec.count,
        generic_count=generic,
        nongeneric_count=nongeneric,
        agree_count=agree,
        disagree_count=disagree,
        boundary_count=boundary,
        mean_offdiag_residual=float(np.mean(residuals)) if residuals else 0.0,
        max_offdiag_residual=float(np.max(residuals)) if residuals else 0.0,
    )
