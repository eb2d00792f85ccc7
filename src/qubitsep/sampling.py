"""Random state families and brute-force cross-validation of the two pipelines.

Each sample stream is fully determined by (seed, index) through a counter
keyed PCG64 generator, so batches are reproducible bit for bit and can be
sharded arbitrarily.  States are produced by rejection against the dense
eigenvalue solver.  To keep acceptance workable, the correlation entries and
linear terms of the first five families lie within [-0.9, 0.9]
(symmetric-three's linear terms have magnitudes in [0.05, 0.9]);
product-mixture is a convex mixture of pure product states and is not scaled.

Candidates are drawn and PSD-checked in blocks, and the first candidate that
passes is the sample.  A family's first block is near its expected number of
candidates per accepted state (_FIRST_BLOCK: mds 2, single-pair 8,
symmetric-two 16, symmetric-three 64, full-symmetric 256, product-mixture 1),
and each later block doubles, up to 256.  A block takes exactly the draws
that one-at-a-time sampling would take for its candidates, in the same
order: uniform-only families in one call, symmetric-two and symmetric-three
decoded from one call for raw PCG64 output (this reads and writes PCG64's
spare 32-bit half in the bit generator's state; symmetric-two falls back to
per-candidate calls when integers(3) would reject a half), product-mixture
one candidate at a time.  Indices are sampled together in windows of 32: in
each round every pending index of the window draws its next block from its
own generator, and the blocks are checked as one stack.  A cheap test on
the diagonal and the 2x2 principal minors of each candidate (Cauchy
interlacing) discards those that are provably below the accept threshold;
it reads each candidate alone, so its result does not depend on the rest of
the stack.  The others get one stacked assembly and one stacked eigensolve,
and each stacked result equals the per-matrix one bit for bit.  So the
accepted candidate is the same as a candidate-at-a-time loop's, whatever the
block sizes and whichever indices share a round.  Draws past it are thrown
away; they cannot shift any other sample, because every (seed, index) has
its own generator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .boost import BETA_LIMIT
from .errors import InvalidParameterError, SamplingExhaustedError
from .hs import (
    PSD_TOL,
    HSParams,
    _rho_from_r,
    pack_r,
    require_hermitian,
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
from .pt import VERDICT_TOL, Verdict, ppt_verdict, require_state, spectra

# Not called here; perfbench/tracing.py wraps these names on this module.
from .hs import eigenvalues_hermitian  # noqa: F401
from .pt import peres_horodecki  # noqa: F401

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
_MAX_BLOCK = 256
# First block of each family: the power of two nearest 1/p, where p is the
# share of candidates accepted (4096 candidates at seed 5).  Block sizes
# change only the speed, never which candidate is accepted.
_FIRST_BLOCK = {
    "mds": 2,
    "single-pair": 8,
    "symmetric-two": 16,
    "symmetric-three": 64,
    "full-symmetric": 256,
    "product-mixture": 1,
}
_WINDOW = 32  # indices sampled together, so a round's stack stays bounded
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
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.axis not in (1, 2, 3):
            raise InvalidParameterError("axis must be 1, 2 or 3")


@dataclass(frozen=True)
class CrossValidation:
    """Verdicts of both pipelines on one state, the spectra of rho and of its partial
    transpose (read-only, ascending, 4*lambda units), and `reduced`, the diagonal-t
    form solved (`note` names the rotation)."""

    ppt: Verdict
    classification: Classification
    lorentz: Verdict | None
    report: SolveReport
    boundary: bool
    agree: bool | None
    spectrum: np.ndarray
    pt_spectrum: np.ndarray
    reduced: HSParams
    note: str | None


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


_AXES = np.arange(3)
_SIGNS = np.array([-1.0, 1.0])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    # Generator.uniform's arithmetic on standard doubles u in [0, 1)
    return low + (high - low) * u


def _decode_raw(bitgen, n: int, doubles: int, halves: int, choices: int):
    """The draws of n candidates, decoded from raw PCG64 output.

    Candidate by candidate, the generator would give `doubles` standard
    doubles, each (raw >> 11) * 2**-53 of one 64-bit output, then `halves`
    calls integers(choices).  Each of those is Lemire's bounded method on a
    32-bit half h: the value is (h * choices) >> 32, and the half is rejected
    and redrawn when (h * choices) mod 2**32 < (2**32 - choices) % choices
    (never for choices 2; for choices 3 only when h == 0).  The halves come
    from PCG64's spare-half buffer: an empty buffer takes a fresh 64-bit
    output, hands out its low half and keeps the high one (`has_uint32`,
    `uinteger` in the bit generator's state) for the next 32-bit draw.
    Returns the doubles (n, doubles) and the values (n, halves), and leaves
    the generator in the state the candidate-at-a-time calls would.  Returns
    None, with the generator state restored, when a half would be rejected.
    """
    before = bitgen.state
    spare = before["has_uint32"]
    c = np.arange(n)
    # 64-bit outputs that the halves have taken before candidate c, and the
    # position of half output m in the block: candidate (2m + spare) // halves
    # fetches it after its doubles
    taken = (halves * c - spare + 1) // 2
    m = np.arange((halves * n - spare + 1) // 2)
    half_pos = doubles * ((2 * m + spare) // halves + 1) + m
    raw = bitgen.random_raw(doubles * n + m.size)
    u = (raw[(doubles * c + taken)[:, None] + np.arange(doubles)] >> 11) * 2.0**-53
    half_raw = raw[half_pos]
    buffer = np.empty(spare + 2 * m.size, dtype=np.uint64)
    buffer[:spare] = before["uinteger"]
    buffer[spare::2] = half_raw & 0xFFFFFFFF
    buffer[spare + 1 :: 2] = half_raw >> 32
    product = buffer[: halves * n] * np.uint64(choices)
    if ((product & 0xFFFFFFFF) < (2**32 - choices) % choices).any():
        bitgen.state = before
        return None
    state = bitgen.state
    state["has_uint32"] = buffer.size - halves * n
    # a consumed spare stays in `uinteger`, so either way it holds the last high half
    state["uinteger"] = int(buffer[-1])
    bitgen.state = state
    return u, (product >> 32).reshape(n, halves)


def _symmetric_two_calls(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # the candidate-at-a-time draws; random(5) takes the doubles of uniform(size 3)
    # and uniform(size 2), and integers(3) redraws a rejected half
    u = np.empty((n, 5))
    quiet = np.empty((n, 1), dtype=np.int64)
    for c in range(n):
        u[c] = rng.random(5)
        quiet[c] = rng.integers(3)
    return u, quiet


# Real map from a flattened R to the diagonal, then the real and the
# imaginary parts of the upper off-diagonal entries, of 4 rho: row k is read
# off 4 rho of the R whose flattened entry k is 1 (all entries exact)
_ROW, _COL = np.triu_indices(4, 1)
_UNIT_RHO = 4.0 * _rho_from_r(np.eye(16).reshape(16, 4, 4))
_MINOR_MAP = np.concatenate(
    [
        _UNIT_RHO[:, range(4), range(4)].real,
        _UNIT_RHO[:, _ROW, _COL].real,
        _UNIT_RHO[:, _ROW, _COL].imag,
    ],
    axis=1,
)
_PREFILTER_MARGIN = 1e-9


def _proven_indefinite(rs: np.ndarray) -> np.ndarray:
    """Mask of the candidates whose lambda_min is surely below -_PSD_ACCEPT_TOL.

    Proof.  For one candidate let C = max |R_mn| over its own R (C >= 1,
    as R_00 = 1) and D = 4 rho.  Each entry of D sums four terms of modulus
    <= C, so |D_ij| <= 4C.  For a 2x2 principal block S of D, Cauchy
    interlacing gives lambda_min(D) <= lambda_min(S) <= min(D_ii, D_jj), and
    when det S < 0, lambda_min(S) = det S / lambda_max(S) with
    0 < lambda_max(S) <= 8C (its largest row sum).  So D_ii < -m C gives
    lambda_min(rho) < -m C / 4, and det S < -m C^2 gives
    lambda_min(rho) < -m C / 32 <= -3.1e-11 for m = 1e-9.  Rounding moves
    the computed D_ii by less than 1e-14 C, the minors by less than
    1e-13 C^2 and the eigvalsh result by about 1e-14 C, all far inside that
    room, so every candidate marked here is one that eigvalsh would reject
    at -1e-12.  Each candidate's mark depends on its own R alone, so the
    mask of a stack is the concatenation of the masks of its parts.

    Raises InvalidParameterError on a non-finite R anywhere in the stack.
    """
    scale = np.abs(rs).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        raise InvalidParameterError("R matrices must be finite")
    x = rs.reshape(len(rs), 16) @ _MINOR_MAP
    diag = x[:, :4]
    minors = diag[:, _ROW] * diag[:, _COL] - x[:, 4:10] ** 2 - x[:, 10:] ** 2
    margin = _PREFILTER_MARGIN * scale
    return (diag.min(axis=1) < -margin) | (minors.min(axis=1) < -margin * scale)


def _draw_block(family: str, axis: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """The R matrices (n, 4, 4) of the next n candidates (see pack_r).

    Families drawn from uniforms alone take the block in one call, which
    yields the same numbers as n calls in a row; symmetric-two and
    symmetric-three decode the same numbers from raw generator output, and
    symmetric-two falls back to its per-candidate calls on the rare block
    where integers(3) would reject a half and redraw.  product-mixture keeps
    one set of calls per candidate, in the original order: its dirichlet and
    normal calls cannot be merged across candidates without changing the
    stream.
    """
    a = np.zeros((n, 3))
    b = np.zeros((n, 3))
    t = np.zeros((n, 3, 3))
    if family == "mds":
        t[:, _AXES, _AXES] = rng.uniform(-0.9, 0.9, (n, 3))
    elif family == "single-pair":
        u = rng.uniform(-0.9, 0.9, (n, 5))
        k = axis - 1
        order = [k, (k + 1) % 3, (k + 2) % 3]
        t[:, order, order] = u[:, :3]
        a[:, k] = u[:, 3]
        b[:, k] = u[:, 4]
    elif family == "symmetric-two":
        u, quiet = _decode_raw(rng.bit_generator, n, 5, 1, 3) or _symmetric_two_calls(rng, n)
        u = _uniform(u, -0.9, 0.9)
        t[:, _AXES, _AXES] = u[:, :3]
        # row by row, the two axes other than the quiet one, in order
        a[_AXES != quiet] = u[:, 3:].ravel()
        b = a
    elif family == "symmetric-three":
        u, signs = _decode_raw(rng.bit_generator, n, 6, 3, 2)
        t[:, _AXES, _AXES] = _uniform(u[:, :3], -0.9, 0.9)
        a = b = _uniform(u[:, 3:], 0.05, 0.9) * _SIGNS[signs]
    elif family == "full-symmetric":
        u = rng.uniform(-0.9, 0.9, (n, 12))
        a = b = u[:, :3]
        m = u[:, 3:].reshape(n, 3, 3)
        t = 0.5 * (m + m.transpose(0, 2, 1))
    elif family == "product-mixture":
        for c in range(n):
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            u = _unit_rows(rng.normal(size=(k, 3)))
            v = _unit_rows(rng.normal(size=(k, 3)))
            a[c] = weights @ u
            b[c] = weights @ v
            t[c] = np.einsum("k,ki,kj->ij", weights, u, v)
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    return pack_r(a, b, t)


def _sample(spec: SampleSpec, indices: range, max_attempts: int) -> Iterator[HSParams]:
    """The samples of `indices`, in order, drawn in stacked rounds.

    The indices go in windows of _WINDOW.  In a round, every pending index of
    the window draws its next block from its own generator; the blocks share
    one prefilter, one assembly and one eigensolve, and each index takes its
    first accepted candidate in stream order.  Block sizes start at the
    family's _FIRST_BLOCK and double up to _MAX_BLOCK; an index's last block
    is cut short at `max_attempts` candidates.  Samples are yielded window by
    window, so memory does not grow with the number of indices.
    """
    for start in range(0, len(indices), _WINDOW):
        window = indices[start : start + _WINDOW]
        rngs = [np.random.default_rng((spec.seed, index)) for index in window]
        found: list[HSParams | None] = [None] * len(window)
        pending = list(range(len(window)))
        checked = 0  # candidates each pending index has checked
        size = _FIRST_BLOCK[spec.family]
        while pending and checked < max_attempts:
            n = min(size, max_attempts - checked)
            rs = np.concatenate(
                [_draw_block(spec.family, spec.axis, rngs[k], n) for k in pending]
            )
            accepted = np.zeros(len(rs), dtype=bool)
            survivors = np.flatnonzero(~_proven_indefinite(rs))
            if survivors.size:
                rho = require_hermitian(_rho_from_r(rs[survivors]), stacked=True)
                accepted[survivors] = np.linalg.eigvalsh(rho)[:, 0] >= -_PSD_ACCEPT_TOL
            hits = accepted.reshape(len(pending), n)
            first = hits.argmax(axis=1)
            still = []
            for j, k in enumerate(pending):
                if hits[j, first[j]]:
                    found[k] = HSParams.from_r(rs[j * n + first[j]])
                else:
                    still.append(k)
            pending = still
            checked += n
            size = min(2 * size, _MAX_BLOCK)
        if pending:
            raise SamplingExhaustedError(
                f"no valid state after {max_attempts} attempts "
                f"(family={spec.family}, seed={spec.seed}, index={window[pending[0]]})"
            )
        yield from found


def random_state(
    spec: SampleSpec, index: int, max_attempts: int = _MAX_ATTEMPTS
) -> HSParams:
    """Deterministic valid-state draw for (spec.seed, index).

    Checks at most the first `max_attempts` candidates of the stream; the
    last block is cut short so that no later candidate is considered.
    """
    if index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index}")
    return next(_sample(spec, range(index, index + 1), max_attempts))


def reduce_to_diagonal(params: HSParams) -> tuple[HSParams, str | None]:
    """Diagonalize t by proper local rotations; return the result and a note.

    A symmetric state (a == b, t symmetric) gets one shared rotation so the
    symmetric boost solvers still apply; any other state gets independent
    rotations on the two qubits.  The note says which was used and is None
    when t was already diagonal.
    """
    if params.is_t_diagonal():
        return params, None
    if params.is_symmetric():
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
    tol_psd: float = PSD_TOL,
) -> CrossValidation:
    """Run the exact partial-transpose test and the boost pipeline side by side.

    An eigenvalue below -tol_psd raises InvalidStateError, spectrum attached.
    `tol` decides both verdicts; a PPT witness within 1e-8 of zero is boundary,
    not a disagreement (both criteria are exact only in exact arithmetic).
    """
    spectrum, pt_spectrum = spectra(rho_from_hs(params))
    require_state(spectrum, tol_psd)
    ppt = ppt_verdict(pt_spectrum, tol)
    work, note = reduce_to_diagonal(params)
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
        spectrum=spectrum,
        pt_spectrum=pt_spectrum,
        reduced=work,
        note=note,
    )


def batch_stats(spec: SampleSpec) -> AgreementReport:
    """Aggregate cross-validation over `spec.count` samples; deterministic."""
    generic = 0
    nongeneric = 0
    agree = 0
    disagree = 0
    boundary = 0
    residuals: list[float] = []
    for params in _sample(spec, range(spec.count), _MAX_ATTEMPTS):
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
