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
spare 32-bit half in the bit generator's state, and the positions of the
draws in that output are computed once per block shape; symmetric-two falls
back to per-candidate calls when integers(3) would reject a half),
product-mixture one candidate at a time.  Indices are sampled together in
windows of 32: each round allocates one zero R stack, every pending index of
the window draws its next block from its own generator straight into its
rows of that stack, and the stack is checked as a whole.  A cheap test on
the diagonal and the 2x2 principal minors of each candidate (Cauchy
interlacing), run on the stack's columns, discards those that are provably
below the accept threshold; it reads each candidate alone, so its result
does not depend on the rest of the stack.  The others get one stacked
assembly and one stacked eigensolve, and each stacked result equals the
per-matrix one bit for bit.  So the accepted candidate is the same as a
candidate-at-a-time loop's, whatever the block sizes and whichever indices
share a round; its sample holds a read-only copy of its R
(HSParams.from_r).  Draws past it are thrown away; they cannot shift any
other sample, because every (seed, index) has its own generator.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .boost import BETA_LIMIT
from .errors import InvalidParameterError, SamplingExhaustedError
from .hs import (
    PSD_TOL,
    HSParams,
    _as_real,
    _local_rotations,
    _rho_from_r,
    _symmetric_rotation,
    r_from_hs,
)
from .normal_form import (
    Classification,
    SolveReport,
    _separability_verdict,
    _solve_normal_form,
)
from .pt import VERDICT_TOL, Verdict, _spectra_of_r, ppt_verdict, require_state

# Not called here; perfbench/tracing.py wraps these names on this module.
from .hs import eigenvalues_hermitian, rho_from_hs  # noqa: F401
from .hs import tdiag_via_local_rotations, tdiag_via_symmetric_rotation  # noqa: F401
from .normal_form import separability_verdict, solve_normal_form  # noqa: F401
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
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise InvalidParameterError("count must be >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.axis, (int, np.integer)) or self.axis not in (1, 2, 3):
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
_DIAG = _AXES + 1  # rows and columns of R that hold the diagonal of t
_SIGNS = np.array([-1.0, 1.0])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    # Generator.uniform's arithmetic on standard doubles u in [0, 1)
    return low + (high - low) * u


@functools.lru_cache(maxsize=64)
def _decode_layout(n: int, doubles: int, halves: int, spare: int):
    """The raw-output layout of _decode_raw's block: the number of 64-bit
    outputs, the (n, doubles) positions of the doubles and the positions of
    the outputs that the halves take, as read-only index arrays."""
    c = np.arange(n)
    # 64-bit outputs that the halves have taken before candidate c, and the
    # position of half output m in the block: candidate (2m + spare) // halves
    # fetches it after its doubles
    taken = (halves * c - spare + 1) // 2
    m = np.arange((halves * n - spare + 1) // 2)
    double_pos = (doubles * c + taken)[:, None] + np.arange(doubles)
    half_pos = doubles * ((2 * m + spare) // halves + 1) + m
    double_pos.setflags(write=False)
    half_pos.setflags(write=False)
    return doubles * n + m.size, double_pos, half_pos


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
    Where each draw sits in the block's raw output depends only on
    (n, doubles, halves, spare), so that layout is computed once per key
    (_decode_layout).  Returns the doubles (n, doubles) and the values
    (n, halves), and leaves the generator in the state the
    candidate-at-a-time calls would.  Returns None, with the generator state
    restored, when a half would be rejected.
    """
    before = bitgen.state
    spare = before["has_uint32"]
    draws, double_pos, half_pos = _decode_layout(n, doubles, halves, spare)
    raw = bitgen.random_raw(draws)
    u = (raw[double_pos] >> 11) * 2.0**-53
    half_raw = raw[half_pos]
    buffer = np.empty(spare + 2 * half_pos.size, dtype=np.uint64)
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
    mask of a stack is the concatenation of the masks of its parts.  All
    seven tests stay: on the family draws only the (0, 3) and (1, 2) minors
    are ever a sole mark, yet up to 11% of candidates (symmetric-three) are
    marked only by two or more of the other five, each an eigensolve saved.

    The work runs on columns: candidate c is column c of the (16, n) view of
    the stack, so the map is one product and each reduction runs across rows,
    over whole rows of n candidates at a time.

    Raises InvalidParameterError on a non-finite R anywhere in the stack.
    """
    cols = rs.reshape(len(rs), 16).T
    scale = np.maximum.reduce(np.abs(cols))
    if not np.isfinite(scale).all():
        raise InvalidParameterError("R matrices must be finite")
    y = _MINOR_MAP.T @ cols
    diag = y[:4]
    minors = diag[_ROW] * diag[_COL] - y[4:10] ** 2 - y[10:] ** 2
    margin = _PREFILTER_MARGIN * scale
    return (np.minimum.reduce(diag) < -margin) | (np.minimum.reduce(minors) < -margin * scale)


def _new_stack(n: int) -> np.ndarray:
    """n zero R matrices (n, 4, 4) with corner 1, for _draw_block to fill."""
    rs = np.zeros((n, 4, 4))
    rs[:, 0, 0] = 1.0
    return rs


def _draw_block(
    family: str, axis: int, rng: np.random.Generator, n: int, rs: np.ndarray
) -> np.ndarray:
    """The R matrices (n, 4, 4) of the next n candidates (see pack_r).

    They are written into `rs`, which must be a zero stack with corner 1
    (_new_stack; in _sample, a block of rows of the round's stack), and `rs`
    is returned.  Each family writes its draws straight into the entries of
    R they set; the others stay 0.

    Families drawn from uniforms alone take the block in one call, which
    yields the same numbers as n calls in a row; symmetric-two and
    symmetric-three decode the same numbers from raw generator output, and
    symmetric-two falls back to its per-candidate calls on the rare block
    where integers(3) would reject a half and redraw.  product-mixture keeps
    one set of calls per candidate, in the original order: its dirichlet and
    normal calls cannot be merged across candidates without changing the
    stream.
    """
    a = rs[:, 0, 1:]
    b = rs[:, 1:, 0]
    t_transposed = rs[:, 1:, 1:]
    if family == "mds":
        rs[:, _DIAG, _DIAG] = rng.uniform(-0.9, 0.9, (n, 3))
    elif family == "single-pair":
        u = rng.uniform(-0.9, 0.9, (n, 5))
        k = axis - 1
        order = [k + 1, (k + 1) % 3 + 1, (k + 2) % 3 + 1]
        rs[:, order, order] = u[:, :3]
        a[:, k] = u[:, 3]
        b[:, k] = u[:, 4]
    elif family == "symmetric-two":
        u, quiet = _decode_raw(rng.bit_generator, n, 5, 1, 3) or _symmetric_two_calls(rng, n)
        u = _uniform(u, -0.9, 0.9)
        rs[:, _DIAG, _DIAG] = u[:, :3]
        # row by row, the two axes other than the quiet one, in order
        loud = _AXES != quiet
        a[loud] = b[loud] = u[:, 3:].ravel()
    elif family == "symmetric-three":
        u, signs = _decode_raw(rng.bit_generator, n, 6, 3, 2)
        rs[:, _DIAG, _DIAG] = _uniform(u[:, :3], -0.9, 0.9)
        a[:] = b[:] = _uniform(u[:, 3:], 0.05, 0.9) * _SIGNS[signs]
    elif family == "full-symmetric":
        u = rng.uniform(-0.9, 0.9, (n, 12))
        a[:] = b[:] = u[:, :3]
        m = u[:, 3:].reshape(n, 3, 3)
        # t = (m + m^T) / 2 is symmetric bit for bit, so it is its own transpose
        np.multiply(m + m.transpose(0, 2, 1), 0.5, out=t_transposed)
    elif family == "product-mixture":
        for c in range(n):
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            u = _unit_rows(rng.normal(size=(k, 3)))
            v = _unit_rows(rng.normal(size=(k, 3)))
            a[c] = weights @ u
            b[c] = weights @ v
            t_transposed[c] = np.einsum("k,ki,kj->ij", weights, u, v).T
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    return rs


def _sample(spec: SampleSpec, indices: range) -> Iterator[HSParams]:
    """The samples of `indices`, in order, drawn in stacked rounds.

    The indices go in windows of _WINDOW.  In a round, every pending index of
    the window draws its next block from its own generator into its rows of
    the round's one R stack; the stack gets one prefilter, one assembly and
    one eigensolve, and each index takes its first accepted candidate in
    stream order.  Block sizes start at the family's _FIRST_BLOCK and double
    up to _MAX_BLOCK; an index's last block is cut short at _MAX_ATTEMPTS
    candidates.  Samples are yielded window by window, so memory does not
    grow with the number of indices.
    """
    for start in range(0, len(indices), _WINDOW):
        window = indices[start : start + _WINDOW]
        rngs = [np.random.default_rng((spec.seed, index)) for index in window]
        found: list[HSParams | None] = [None] * len(window)
        pending = list(range(len(window)))
        checked = 0  # candidates each pending index has checked
        size = _FIRST_BLOCK[spec.family]
        while pending and checked < _MAX_ATTEMPTS:
            n = min(size, _MAX_ATTEMPTS - checked)
            rs = _new_stack(len(pending) * n)
            for j, k in enumerate(pending):
                _draw_block(spec.family, spec.axis, rngs[k], n, rs[j * n : (j + 1) * n])
            accepted = np.zeros(len(rs), dtype=bool)
            survivors = np.flatnonzero(~_proven_indefinite(rs))
            if survivors.size:
                rho = _rho_from_r(rs[survivors])
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
                f"no valid state after {_MAX_ATTEMPTS} attempts "
                f"(family={spec.family}, seed={spec.seed}, index={window[pending[0]]})"
            )
        yield from found


def random_state(spec: SampleSpec, index: int) -> HSParams:
    """Deterministic valid-state draw for (spec.seed, index).

    Checks at most the first _MAX_ATTEMPTS candidates of the stream; the
    last block is cut short so that no later candidate is considered.
    """
    if not isinstance(index, (int, np.integer)) or index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index}")
    return next(_sample(spec, range(index, index + 1)))


def reduce_to_diagonal(params: HSParams) -> tuple[HSParams, str | None]:
    """Diagonalize t by proper local rotations; return the result and a note.

    A symmetric state (a == b, t symmetric) gets one shared rotation so the
    symmetric boost solvers still apply; any other state gets independent
    rotations on the two qubits.  The note says which was used and is None
    when t was already diagonal.
    """
    if params.is_t_diagonal():
        return params, None
    # the rotation cores: t is not diagonal, and is_symmetric covers t's symmetry
    if params.is_symmetric():
        work, _ = _symmetric_rotation(params)
        return work, (
            "correlation matrix diagonalized by one shared local rotation "
            "(symmetric state preserved)"
        )
    work, _, _ = _local_rotations(params)
    return work, "correlation matrix diagonalized by local rotations"


def cross_validate(
    params: HSParams,
    tol: float = VERDICT_TOL,
    beta_limit: float = BETA_LIMIT,
    tol_psd: float = PSD_TOL,
) -> CrossValidation:
    """Run the exact partial-transpose test and the boost pipeline side by side.

    tol and tol_psd must be finite and >= 0 and beta_limit in [0, 1), the ranges
    of the analyze options (InvalidParameterError, before any solve).
    An eigenvalue below -tol_psd raises InvalidStateError, spectrum attached;
    coefficients whose rho overflows raise InvalidParameterError.
    `tol` decides both verdicts; a PPT witness within 1e-8 of zero is boundary,
    not a disagreement (both criteria are exact only in exact arithmetic).
    Past this gate every value is checked or built here, so the solve and the
    verdict run on the unchecked cores, and t's diagonality is read once, by
    reduce_to_diagonal (its result has an exactly diagonal t).
    """
    try:
        tol, tol_psd = _as_real(tol, (), "tol"), _as_real(tol_psd, (), "tol_psd")
        beta_limit = _as_real(beta_limit, (), "beta_limit")
        valid = 0.0 <= tol and 0.0 <= tol_psd and 0.0 <= beta_limit < 1.0
    except InvalidParameterError:
        valid = False
    if not valid:
        raise InvalidParameterError("tol and tol_psd must be finite and >= 0, beta_limit in [0, 1)")
    spectrum, pt_spectrum = _spectra_of_r(r_from_hs(params))
    require_state(spectrum, tol_psd)
    ppt = ppt_verdict(pt_spectrum, tol)
    work, note = reduce_to_diagonal(params)
    report = _solve_normal_form(work, work.t.diagonal().tolist(), beta_limit)
    boundary = abs(ppt.witness) < _BOUNDARY_TOL
    lorentz = None
    agree = None
    if report.classification.is_generic:
        lorentz = _separability_verdict(report.sigma, tol)
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
    """Cross-validation counts over `spec.count` samples, deterministic; boundary ones agree."""
    residuals: list[float] = []
    boundary = disagree = 0
    for params in _sample(spec, range(spec.count)):
        rec = cross_validate(params)
        if rec.classification.is_generic:
            residuals.append(rec.report.offdiag_residual)
            boundary += rec.agree is None
            disagree += rec.agree is False
    generic = len(residuals)
    return AgreementReport(
        family=spec.family,
        count=spec.count,
        seed=spec.seed,
        total=spec.count,
        generic_count=generic,
        nongeneric_count=spec.count - generic,
        agree_count=generic - disagree,
        disagree_count=disagree,
        boundary_count=boundary,
        mean_offdiag_residual=float(np.mean(residuals)) if residuals else 0.0,
        max_offdiag_residual=float(np.max(residuals)) if residuals else 0.0,
    )
