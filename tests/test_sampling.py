import dataclasses
import hashlib
import json
import re
import types

import numpy as np
import pytest

from qubitsep import (
    SEPARABLE,
    HSParams,
    InvalidParameterError,
    InvalidStateError,
    SampleSpec,
    SamplingExhaustedError,
    batch_stats,
    cross_validate,
    eigenvalues_hermitian,
    mds_criterion,
    peres_horodecki,
    random_state,
    rho_from_hs,
    spectra,
    tdiag_via_local_rotations,
)
from qubitsep.hs import _rho_from_r, pack_r
from qubitsep import sampling
from qubitsep.sampling import (
    _FIRST_BLOCK,
    _WINDOW,
    FAMILIES,
    _decode_raw,
    _draw_block,
    _new_stack,
    _proven_indefinite,
    _sample,
)

from conftest import corpus_rows
from sampler_oracles import (
    decode_raw_uncached,
    draw_block_packed,
    proven_indefinite_rows,
    sole_marks_rows,
)


def test_determinism_per_sample():
    spec = SampleSpec(family="symmetric-two", count=10, seed=99)
    first = random_state(spec, 3)
    second = random_state(spec, 3)
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.b, second.b)
    assert np.array_equal(first.t, second.t)


def test_batch_stats_bitwise_deterministic():
    spec = SampleSpec(family="single-pair", count=50, seed=4)
    r1 = json.dumps(dataclasses.asdict(batch_stats(spec)))
    r2 = json.dumps(dataclasses.asdict(batch_stats(spec)))
    assert r1 == r2


def test_family_zero_patterns():
    for index in range(20):
        p = random_state(SampleSpec(family="mds", count=1, seed=1), index)
        assert np.all(p.a == 0.0) and np.all(p.b == 0.0)
        assert np.array_equal(p.t, np.diag(p.t.diagonal()))

        p = random_state(SampleSpec(family="single-pair", count=1, seed=1, axis=2), index)
        assert p.a[0] == 0.0 and p.a[2] == 0.0
        assert p.b[0] == 0.0 and p.b[2] == 0.0

        p = random_state(SampleSpec(family="symmetric-two", count=1, seed=1), index)
        assert np.array_equal(p.a, p.b)
        assert (p.a == 0.0).sum() == 1

        p = random_state(SampleSpec(family="symmetric-three", count=1, seed=1), index)
        assert np.array_equal(p.a, p.b)
        assert np.all(np.abs(p.a) >= 0.05)

        p = random_state(SampleSpec(family="full-symmetric", count=1, seed=1), index)
        assert np.array_equal(p.a, p.b)
        assert np.abs(p.t - p.t.T).max() == 0.0


def test_single_pair_axis_variants_are_relabelings():
    # identical (seed, index) across axes produce the same draws, relabeled
    sums = []
    for axis in (1, 2, 3):
        spec = SampleSpec(family="single-pair", count=1, seed=21, axis=axis)
        p = random_state(spec, 0)
        rec = cross_validate(p)
        assert rec.classification.is_generic
        sums.append(rec.report.sigma.tprime_sum)
    assert max(sums) - min(sums) < 1e-9


def test_samples_are_valid_states():
    for family in ("mds", "single-pair", "symmetric-three", "full-symmetric"):
        spec = SampleSpec(family=family, count=1, seed=8)
        for index in range(25):
            p = random_state(spec, index)
            peres_horodecki(rho_from_hs(p))  # raises on non-states


def test_product_mixture_is_separable():
    spec = SampleSpec(family="product-mixture", count=1, seed=12)
    for index in range(100):
        p = random_state(spec, index)
        assert peres_horodecki(rho_from_hs(p)).kind == SEPARABLE


def test_product_mixture_necessity():
    spec = SampleSpec(family="product-mixture", count=1, seed=14)
    for index in range(100):
        p = random_state(spec, index)
        reduced, _, _ = tdiag_via_local_rotations(p)
        assert np.abs(np.diag(reduced.t)).sum() <= 1.0 + 1e-9
        assert mds_criterion(np.diag(reduced.t))


def test_cross_validate_reference_states(pair64, one_sided02, cubic_state):
    rec = cross_validate(pair64)
    assert rec.ppt.kind == "entangled"
    assert rec.lorentz is not None and rec.lorentz.kind == "entangled"
    assert rec.agree is True
    rec = cross_validate(one_sided02)
    assert rec.ppt.kind == SEPARABLE and rec.lorentz.kind == SEPARABLE
    rec = cross_validate(cubic_state)
    assert rec.ppt.kind == SEPARABLE and rec.lorentz.kind == SEPARABLE


def test_cross_validate_reduces_full_t():
    rng = np.random.default_rng(77)
    # build a separable state with a non-diagonal correlation matrix
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    p = HSParams(0.6 * u, 0.6 * v, 0.6 * np.outer(u, v))
    rec = cross_validate(p)
    assert rec.ppt.kind == SEPARABLE
    # the record keeps what was solved and how it was reached
    assert rec.report.note == "correlation matrix diagonalized by local rotations"
    assert rec.report.reduced.is_t_diagonal()
    assert np.allclose(np.abs(np.diag(rec.report.reduced.t)), np.linalg.svd(p.t, compute_uv=False))
    spectrum, pt_spectrum = spectra(rho_from_hs(p))
    assert rec.spectrum.tobytes() == spectrum.tobytes()
    assert rec.pt_spectrum.tobytes() == pt_spectrum.tobytes()
    assert rec.ppt.witness == float(pt_spectrum[0])


def test_cross_validate_diagonal_input_is_solved_as_given(pair64):
    rec = cross_validate(pair64)
    assert rec.report.reduced is pair64
    assert rec.report.note is None


def test_cross_validate_tol_psd_decides_validity():
    # 4 lambda_min is about -3e-8: a state at tol_psd 1e-6, not at the default
    t = 1 / 3 + 1e-8
    p = HSParams.diagonal([0, 0, 0], [0, 0, 0], [t, t, t])
    with pytest.raises(InvalidStateError) as info:
        cross_validate(p)
    expected = spectra(rho_from_hs(p))[0]
    assert info.value.spectrum.tobytes() == expected.tobytes()
    rec = cross_validate(p, tol_psd=1e-6)
    assert rec.ppt.kind == SEPARABLE
    assert float(rec.spectrum[0]) < 0.0


@pytest.mark.parametrize(
    "name, value",
    [
        ("tol", np.nan),
        ("tol", -1e-10),
        ("tol", np.inf),
        ("tol_psd", np.nan),
        ("tol_psd", -1.0),
        ("beta_limit", np.nan),
        ("beta_limit", 1.0),
        ("beta_limit", -1e-9),
    ],
)
def test_cross_validate_rejects_tolerances_the_cli_rejects(pair64, name, value):
    # the ranges of the analyze options, checked before any solve; unchecked,
    # a nan tol calls the entangled pair64 separable, and a nan tol_psd takes
    # the non-state t = (1, 1, 1) for a state
    non_state = HSParams.diagonal([0, 0, 0], [0, 0, 0], [1, 1, 1])
    for params in (pair64, non_state):
        with pytest.raises(InvalidParameterError, match="beta_limit in"):
            cross_validate(params, **{name: value})


def test_batch_stats_counts():
    spec = SampleSpec(family="mds", count=200, seed=3)
    report = batch_stats(spec)
    assert report.total == 200
    assert report.generic_count + report.nongeneric_count == report.total
    assert report.agree_count + report.disagree_count == report.generic_count
    assert report.disagree_count == 0
    assert report.max_offdiag_residual < 1e-8
    # no boost is needed in this family, so elimination is exact
    assert report.generic_count == 200


def test_batch_stats_counts_non_generic_samples():
    # product-mixture samples are often outside the supported boost families;
    # the counters must match the records, whatever the non-generic share
    spec = SampleSpec(family="product-mixture", count=20, seed=1)
    report = batch_stats(spec)
    records = [cross_validate(random_state(spec, index)) for index in range(spec.count)]
    generic = [rec for rec in records if rec.classification.is_generic]
    assert report.total == spec.count
    assert report.nongeneric_count == spec.count - len(generic)
    assert report.generic_count == len(generic)
    assert report.agree_count + report.disagree_count == report.generic_count
    assert report.boundary_count == sum(rec.agree is None for rec in generic)
    assert report.disagree_count == 0


def test_mds_normal_form_sum_is_plain_correlation_sum():
    # without linear terms the normalized sum reduces to sum |t_i| directly
    spec = SampleSpec(family="mds", count=1, seed=19)
    for index in range(100):
        p = random_state(spec, index)
        rec = cross_validate(p)
        assert rec.classification.is_generic
        assert abs(
            rec.report.sigma.tprime_sum - np.abs(np.diag(p.t)).sum()
        ) < 1e-12


def test_batch_stats_counts_every_outcome(monkeypatch):
    # one record per outcome: generic agree, boundary, disagree, non-generic
    def record(generic, agree, residual):
        return types.SimpleNamespace(
            classification=types.SimpleNamespace(is_generic=generic),
            report=types.SimpleNamespace(offdiag_residual=residual),
            agree=agree,
        )

    records = iter(
        [
            record(True, True, 2e-13),
            record(True, None, 4e-13),
            record(True, False, 9e-13),
            record(False, None, float("nan")),
        ]
    )
    monkeypatch.setattr(sampling, "_validate", lambda params, *spectra_and_tols: next(records))
    report = batch_stats(SampleSpec(family="mds", count=4, seed=0))
    assert (report.total, report.generic_count, report.nongeneric_count) == (4, 3, 1)
    # a boundary sample counts as agreement and as boundary
    assert (report.agree_count, report.disagree_count, report.boundary_count) == (2, 1, 1)
    assert report.mean_offdiag_residual == float(np.mean([2e-13, 4e-13, 9e-13]))
    assert report.max_offdiag_residual == 9e-13


def test_batch_stats_single_sample():
    report = batch_stats(SampleSpec(family="mds", count=1, seed=7))
    assert report.total == 1


@pytest.mark.parametrize(
    "family",
    ["single-pair", "symmetric-two", "symmetric-three", "full-symmetric"],
)
def test_batch_stats_zero_disagreement(family):
    report = batch_stats(SampleSpec(family=family, count=300, seed=2))
    assert report.disagree_count == 0
    assert report.max_offdiag_residual < 1e-8


def test_invalid_specs():
    with pytest.raises(InvalidParameterError):
        SampleSpec(family="unknown", count=1, seed=0)
    with pytest.raises(InvalidParameterError):
        SampleSpec(family="mds", count=0, seed=0)


def test_negative_seed_and_index_rejected():
    # numpy's SeedSequence would raise a bare ValueError on either
    with pytest.raises(InvalidParameterError, match="seed"):
        SampleSpec(family="mds", count=1, seed=-1)
    with pytest.raises(InvalidParameterError, match="index"):
        random_state(SampleSpec(family="mds", count=1, seed=0), -1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: batch_stats(SampleSpec("mds", True, 0)), "count must be >= 1"),
        (lambda: SampleSpec("single-pair", 2, True), "seed must be >= 0, got True"),
        (lambda: SampleSpec("single-pair", 2, 0, axis=True), "axis must be 1, 2 or 3"),
        (lambda: random_state(SampleSpec("mds", 1, 0), True), "index must be >= 0, got True"),
    ],
    ids=["count", "seed", "axis", "index"],
)
def test_bools_are_not_whole_numbers(build, message):
    # bool subclasses int, but True is no count, seed, axis or index
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        build()


def test_sampling_exhausted(monkeypatch):
    spec = SampleSpec(family="symmetric-three", count=1, seed=0)
    # find an index whose first draw is rejected, then cap attempts at one
    for index in range(200):
        rng = np.random.default_rng((spec.seed, index))
        c = _draw_block(spec.family, spec.axis, rng, 1, _new_stack(1))[0]
        if eigenvalues_hermitian(_rho_from_r(c))[0] / 4 < -1e-12:
            monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 1)
            with pytest.raises(SamplingExhaustedError):
                random_state(spec, index)
            return
    pytest.fail("no rejecting draw found to exercise the attempt bound")


def _state_bits(p: HSParams) -> bytes:
    return b"".join(np.ascontiguousarray(x, dtype="<f8").tobytes() for x in (p.a, p.b, p.t))


# sha256 over the float bits of random_state(SampleSpec(family, 1, seed, axis), i)
# for seeds 0, 7, 2024 and i = 0..15, pinned from the one-candidate-at-a-time
# sampler; any change to a family's draw order or accept rule shows here.
PINNED_STREAMS = {
    ("mds", 1): "4ac2bc61694e91f0bd415778efc0b9deceb92bb6b4f2ac7393e8a87b259a9464",
    ("single-pair", 1): "ab5ae01db52a7148bfd3f3687ad682dc822cb0855bc81a3b451b596153bdbd2b",
    ("single-pair", 2): "20e6847b3369e2ccf8c27adaffb2154ec022bca56754961e6d16b3a720700c1e",
    ("single-pair", 3): "5760d3adde0803bf8d143216c23d1287e0599abbd43face828d5bec6a036652c",
    ("symmetric-two", 1): "be4e9ee85ecbffd762a00c5caea5deab8550097ac176bfa29ed3d223f40eda9e",
    ("symmetric-three", 1): "5701e88bb76a5b5e1a1ae1488c1efb9478a997e7d3349f3b0998a4044d4b48df",
    ("full-symmetric", 1): "ea119acffd550fa127503dc682ed1eba012aee21fc908bd9e9f33a4e4995aeee",
    ("product-mixture", 1): "48f16ed1deb1129d6372afbf88a114854cd035b0bc5feeaddcb2ef873b89f950",
}


def test_random_state_streams_pinned():
    assert {family for family, _ in PINNED_STREAMS} == set(FAMILIES)
    for (family, axis), expected in PINNED_STREAMS.items():
        digest = hashlib.sha256()
        for seed in (0, 7, 2024):
            spec = SampleSpec(family, 1, seed, axis)
            for index in range(16):
                digest.update(_state_bits(random_state(spec, index)))
        assert digest.hexdigest() == expected, (family, axis)


@pytest.mark.parametrize(
    "family, index, rejected",
    # (seed 0, index): the first `rejected` candidates fail the PSD check and
    # the next one passes.  6 cuts symmetric-three's first block of 64 and 420
    # cuts full-symmetric's second block of 256, so both bounds truncate a block.
    [("symmetric-three", 4, 6), ("full-symmetric", 12, 420)],
)
def test_random_state_exact_attempt_bound(monkeypatch, family, index, rejected):
    spec = SampleSpec(family=family, count=1, seed=0)
    monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", rejected)
    with pytest.raises(SamplingExhaustedError):
        random_state(spec, index)
    monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", rejected + 1)
    bounded = random_state(spec, index)
    monkeypatch.undo()
    assert _state_bits(bounded) == _state_bits(random_state(spec, index))


def _cross_validate_hex(rec) -> str:
    r = rec.report
    values = [rec.ppt.witness, *r.betas, r.polynomial_residual, r.offdiag_residual]
    if r.sigma is not None:
        values += [r.sigma.s0, *r.sigma.s]
    return rec.classification.kind + ":" + ",".join(float(v).hex() for v in values) + ";"


# sha256 over cross_validate(random_state(SampleSpec(family, 1, seed, axis), i))
# for seeds 3, 11, 409 and i = 0..15: the classification kind, then float.hex of
# the PPT witness, betas, polynomial and off-diagonal residuals and sigma.
# Pinned before the root polish and the PPT eigensolve were sped up, and
# re-pinned when sigma came to be read off the unnormalized boosted R (s and
# the off-diagonal residual moved by rounding only), and the symmetric
# families when case b) came to be solved as one secular equation (velocities
# and sigma moved by rounding only), and single-pair when the pair solve
# became the closed form by rapidities (the same), and the symmetric families
# when case b) came to be solved by Newton's method from mu = 1 (the same),
# and the symmetric families when their polynomial residual became |g(mu)|
# instead of |P(mu)| (no other value moved);
# any change to a solve, a residual or the PPT witness shows here bit for bit.
PINNED_CROSS_VALIDATE = {
    ("mds", 1): "5d3f6798ef676d92bb01423631d0550c9b9fd2c4323917a811315f663cdede3f",
    ("single-pair", 1): "2576e4e7d04001ef6d78cd4d5382cfdc0e9d31f614a1e4b2707c01bf9e56d4cc",
    ("single-pair", 2): "8104be28230a24cd3db99146cfd7f84732c22a3f5d7498d2c43cab9b6298c2e4",
    ("single-pair", 3): "961a77ae06abe28c2b04f2ab3a3cbafd213d3f348ef4f15f6d8fbc93cce89275",
    ("symmetric-two", 1): "af68a95314e1ffa96271eb328aeebf4ba8b86df7895d51371f8c921c02481d74",
    ("symmetric-three", 1): "b6de363fe12e34826aba0d14ba9ec777db64b3f44cd611c7eeff403bed1c0137",
    ("full-symmetric", 1): "291580812dedf111a18219b38736e998b69f3853628be672b3f0585afb0c0072",
    ("product-mixture", 1): "9d58e1dbf4ecb9bceb2e344d01e19f49b10af80a6f7864ed3334634f7870b5a1",
}


def test_cross_validate_outputs_pinned():
    assert {family for family, _ in PINNED_CROSS_VALIDATE} == set(FAMILIES)
    for (family, axis), expected in PINNED_CROSS_VALIDATE.items():
        digest = hashlib.sha256()
        for seed in (3, 11, 409):
            spec = SampleSpec(family, 1, seed, axis)
            for index in range(16):
                rec = cross_validate(random_state(spec, index))
                digest.update(_cross_validate_hex(rec).encode())
        assert digest.hexdigest() == expected, (family, axis)


def _report_hex(report) -> str:
    fields = (getattr(report, f.name) for f in dataclasses.fields(report))
    return ",".join(v.hex() if isinstance(v, float) else repr(v) for v in fields) + ";"


# sha256 over every AgreementReport field (floats as float.hex) of
# batch_stats(SampleSpec(family, count, seed, axis)) for seeds 0, 3, 11 and
# counts 1, 2, 33, 70 (33 and 70 span two and three windows of _WINDOW).
# The single-pair axes are relabelings of each other, so their reports agree.
PINNED_BATCH_STATS = {
    ("mds", 1): "5d07f6b16a791a0cbae0c57ec1b9adfc78395941d145dead7420ac69cafbe6db",
    ("single-pair", 1): "ee9fd6735a31c7e9d367b926bb91be8b3771874c229f9cc4c0b224f80dd252eb",
    ("single-pair", 2): "ee9fd6735a31c7e9d367b926bb91be8b3771874c229f9cc4c0b224f80dd252eb",
    ("single-pair", 3): "ee9fd6735a31c7e9d367b926bb91be8b3771874c229f9cc4c0b224f80dd252eb",
    ("symmetric-two", 1): "03de640bb7b57ab33a19da73d775abccbe57bd0d818992881fbcc3649b4c6c60",
    ("symmetric-three", 1): "50a086241bfef2eedd1e155111455f08975b16cffce56f9727cc51b1a81a1937",
    ("full-symmetric", 1): "f7743968f5cb043249f4e03504136628e8d9791f0f667d3b0f604d1b9b7fd4be",
    ("product-mixture", 1): "590558758987e9556c9a7c636fc7fda9f64d2246eb1a14f20f6fa4dd96bb7f63",
}


def test_batch_stats_reports_pinned():
    assert {family for family, _ in PINNED_BATCH_STATS} == set(FAMILIES)
    for (family, axis), expected in PINNED_BATCH_STATS.items():
        digest = hashlib.sha256()
        for seed in (0, 3, 11):
            for count in (1, 2, 33, 70):
                report = batch_stats(SampleSpec(family, count, seed, axis))
                digest.update(_report_hex(report).encode())
        assert digest.hexdigest() == expected, (family, axis)


def test_batch_stats_validates_with_the_spectra_of_cross_validate(monkeypatch):
    # batch_stats hands the validation core the sampler's accept eigensolve
    # row and a stacked partial-transpose eigensolve per window; both must be
    # what cross_validate computes for the same params, bit for bit
    handed = []
    validate = sampling._validate

    def recording(params, spectrum, pt_spectrum, *tols):
        handed.append((params, spectrum, pt_spectrum))
        return validate(params, spectrum, pt_spectrum, *tols)

    monkeypatch.setattr(sampling, "_validate", recording)
    for family, axis in PINNED_BATCH_STATS:
        for seed in (0, 3, 11):
            for count in (1, 2, 33, 70):
                spec = SampleSpec(family, count, seed, axis)
                handed.clear()
                batch_stats(spec)
                batch = handed[:]  # cross_validate below goes through the core too
                assert len(batch) == count
                for index, (params, spectrum, pt_spectrum) in enumerate(batch):
                    assert _state_bits(params) == _state_bits(random_state(spec, index))
                    rec = cross_validate(params)
                    assert spectrum.tobytes() == rec.spectrum.tobytes(), (spec, index)
                    assert pt_spectrum.tobytes() == rec.pt_spectrum.tobytes(), (spec, index)
                    assert not spectrum.flags.writeable and not pt_spectrum.flags.writeable


def _symmetric_three_loop(rng, n):
    # the candidate-at-a-time draws that the raw-bit decoder must reproduce
    axes = np.arange(3)
    a = np.zeros((n, 3))
    t = np.zeros((n, 3, 3))
    for c in range(n):
        t[c, axes, axes] = rng.uniform(-0.9, 0.9, 3)
        a[c] = rng.uniform(0.05, 0.9, 3) * np.array([-1.0, 1.0])[rng.integers(0, 2, 3)]
    return pack_r(a, a, t)


@pytest.mark.parametrize("spare", [False, True])
def test_symmetric_three_decoder_matches_loop(spare):
    sizes = [2**k for k in range(9)] + [37]
    for seed in range(20):
        loop = np.random.default_rng(seed)
        decoded = np.random.default_rng(seed)
        if spare:
            # one 32-bit draw leaves PCG64's spare half full
            loop.integers(0, 2)
            decoded.integers(0, 2)
        assert decoded.bit_generator.state["has_uint32"] == spare
        for n in sizes:
            expected = _symmetric_three_loop(loop, n)
            got = _draw_block("symmetric-three", 1, decoded, n, _new_stack(n))
            assert got.tobytes() == expected.tobytes(), (seed, n)
            assert decoded.bit_generator.state == loop.bit_generator.state, (seed, n)


def _symmetric_two_loop(rng, n):
    # the candidate-at-a-time draws that the raw-bit decoder must reproduce
    axes = np.arange(3)
    a = np.zeros((n, 3))
    t = np.zeros((n, 3, 3))
    for c in range(n):
        t[c, axes, axes] = rng.uniform(-0.9, 0.9, 3)
        vals = rng.uniform(-0.9, 0.9, 2)
        a[c, axes != int(rng.integers(3))] = vals
    return pack_r(a, a, t)


@pytest.mark.parametrize("spare", [False, True])
def test_symmetric_two_decoder_matches_loop(spare):
    for seed in range(40):
        loop = np.random.default_rng(seed)
        decoded = np.random.default_rng(seed)
        if spare:
            # one 32-bit draw leaves PCG64's spare half full
            loop.integers(0, 2)
            decoded.integers(0, 2)
        assert decoded.bit_generator.state["has_uint32"] == spare
        for n in (1, 2, 3, 7, 64):
            expected = _symmetric_two_loop(loop, n)
            got = _draw_block("symmetric-two", 1, decoded, n, _new_stack(n))
            assert got.tobytes() == expected.tobytes(), (seed, n)
            assert decoded.bit_generator.state == loop.bit_generator.state, (seed, n)


def _reject_next_half(rng: np.random.Generator) -> None:
    # a spare half of 0 is the one 32-bit value integers(3) rejects and redraws
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state


def test_symmetric_two_decoder_falls_back_on_a_rejected_half():
    for seed in range(10):
        for n in (1, 2, 3, 7, 16, 64, 256):
            loop = np.random.default_rng(seed)
            decoded = np.random.default_rng(seed)
            uncached = np.random.default_rng(seed)
            for rng in (loop, decoded, uncached):
                _reject_next_half(rng)
            before = decoded.bit_generator.state
            assert _decode_raw(decoded.bit_generator, n, 5, 1, 3) is None
            assert decode_raw_uncached(uncached.bit_generator, n, 5, 1, 3) is None
            assert decoded.bit_generator.state == uncached.bit_generator.state == before
            expected = _symmetric_two_loop(loop, n)
            got = _draw_block("symmetric-two", 1, decoded, n, _new_stack(n))
            assert got.tobytes() == expected.tobytes(), (seed, n)
            assert decoded.bit_generator.state == loop.bit_generator.state, (seed, n)


def _scaled(rs: np.ndarray, factor: float) -> np.ndarray:
    # every coefficient but the corner R_00 = 1 times factor
    scaled = factor * rs
    scaled[:, 0, 0] = 1.0
    return scaled


def _edge_blocks() -> list[np.ndarray]:
    # t = diag(0, 0, -1 - eps) puts -eps on the diagonal of 4 rho: caught for
    # eps above about 1e-9 alone, but not next to non-states whose coefficients
    # reach 100 if the margin were scaled by the largest coefficient of the stack
    eps = np.logspace(-12, -6, 100)
    t = np.zeros((100, 3, 3))
    t[:, 2, 2] = -1.0 - eps
    edge = pack_r(np.zeros((100, 3)), np.zeros((100, 3)), t)
    block = _draw_block("full-symmetric", 1, np.random.default_rng(31), 8, _new_stack(8))
    large = _scaled(block, 100.0)
    return [edge[:50], large, edge[50:]]


def test_prefilter_mask_is_per_candidate():
    blocks = _edge_blocks()
    per_block = np.concatenate([_proven_indefinite(block) for block in blocks])
    caught = np.concatenate([per_block[:50], per_block[58:]])
    assert 0 < caught.sum() < 100
    assert np.array_equal(_proven_indefinite(np.concatenate(blocks)), per_block)


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_matches_single_draws(family):
    # count spans one full window and part of a second
    for seed in range(60):
        spec = SampleSpec(family, _WINDOW + 1, seed)
        batch = [params for found, _, _ in _sample(spec, range(spec.count)) for params in found]
        assert len(batch) == spec.count
        for index, params in enumerate(batch):
            single = random_state(spec, index)
            assert _state_bits(params) == _state_bits(single), (seed, index)


def test_first_blocks_match_acceptance():
    # the first block is the power of two nearest the expected number of
    # candidates per accepted state; a factor of 2 either way is allowed
    assert set(_FIRST_BLOCK) == set(FAMILIES)
    for family in FAMILIES:
        rs = _draw_block(family, 1, np.random.default_rng(5), 4096, _new_stack(4096))
        accept = np.mean(np.linalg.eigvalsh(_rho_from_r(rs))[:, 0] >= -1e-12)
        assert accept > 0, family
        assert 0.5 <= _FIRST_BLOCK[family] * accept <= 2.0, (family, accept)


def test_batch_exhaustion_names_the_first_exhausted_index(monkeypatch):
    # seed 0: symmetric-three index 4 rejects its first 6 candidates (see
    # test_random_state_exact_attempt_bound), so a batch capped at 6 fails
    spec = SampleSpec(family="symmetric-three", count=8, seed=0)
    monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 6)
    exhausted = []
    for index in range(spec.count):
        try:
            random_state(spec, index)
        except SamplingExhaustedError:
            exhausted.append(index)
    assert 4 in exhausted
    message = f"family=symmetric-three, seed=0, index={exhausted[0]})"
    with pytest.raises(SamplingExhaustedError, match=re.escape(message)):
        list(_sample(spec, range(spec.count)))


def test_prefilter_never_discards_an_accepted_candidate():
    # 400 blocks of 256 per family.  Observed catch rates among the rejected
    # candidates (seed 2024): mds 100%, full-symmetric 97.3%,
    # symmetric-three 94.7%, symmetric-two 85.3%, single-pair 70.1%;
    # product-mixture has no rejects.
    catch_rate = {}
    for family in FAMILIES:
        rng = np.random.default_rng(2024)
        rejected = caught = 0
        for _ in range(400):
            rs = _draw_block(family, 1, rng, 256, _new_stack(256))
            accepted = np.linalg.eigvalsh(_rho_from_r(rs))[:, 0] >= -1e-12
            discarded = _proven_indefinite(rs)
            assert not (discarded & accepted).any(), family
            rejected += int((~accepted).sum())
            caught += int(discarded.sum())
        catch_rate[family] = caught / max(rejected, 1)
        # candidates moved to lambda_min in [-3e-12, 3e-12]: scaling every
        # coefficient but R_00 by s maps lambda to (1 - s) / 4 + s * lambda
        lam = np.linalg.eigvalsh(_rho_from_r(rs))[:, 0]
        target = np.linspace(-3e-12, 3e-12, rs.shape[0])
        near = rs * ((0.25 - target) / (0.25 - lam))[:, None, None]
        near[:, 0, 0] = 1.0
        assert not _proven_indefinite(near).any(), family
    assert catch_rate["full-symmetric"] > 0.95
    assert catch_rate["mds"] == 1.0


def _product_mixture_stack(rng: np.random.Generator, n: int) -> np.ndarray:
    # n product-mixture candidates drawn all at once: the family's
    # distribution for one number of terms k, not its stream
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k), size=n)
    u, v = (rng.normal(size=(n, k, 3)) for _ in range(2))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    t = np.einsum("ck,cki,ckj->cij", weights, u, v)
    return pack_r(np.einsum("ck,cki->ci", weights, u), np.einsum("ck,cki->ci", weights, v), t)


@pytest.mark.parametrize("family", FAMILIES)
def test_prefilter_columns_match_the_row_formula(family):
    # 204,800 candidates per family, as drawn and scaled by 100: the column
    # layout marks exactly what the row formula marks.  product-mixture's
    # stream draws one candidate at a time, so its candidates here come from
    # the same distribution drawn in bulk.
    rng = np.random.default_rng(4096)
    marked = 0
    for _ in range(800):
        if family == "product-mixture":
            rs = _product_mixture_stack(rng, 256)
        else:
            rs = _draw_block(family, 1, rng, 256, _new_stack(256))
        for stack in (rs, _scaled(rs, 100.0)):
            mask = _proven_indefinite(stack)
            assert np.array_equal(mask, proven_indefinite_rows(stack)), family
            marked += int(mask.sum())
    assert marked > 0, family


def test_prefilter_columns_match_the_row_formula_on_every_criterion():
    # on the family draws only the (0, 3) and (1, 2) minors are ever the sole
    # mark; on R with every entry in [-0.6, 0.6] each of the six minors is the
    # sole mark of some candidates, so a slip in any of them shows
    rs = np.random.default_rng(1).uniform(-0.6, 0.6, (100_000, 4, 4))
    rs[:, 0, 0] = 1.0
    assert sole_marks_rows(rs)[:, 1:].any(axis=0).all()
    for stack in [rs, _scaled(rs, 100.0), *_edge_blocks(), np.concatenate(_edge_blocks())]:
        assert np.array_equal(_proven_indefinite(stack), proven_indefinite_rows(stack))


@pytest.mark.parametrize("family", FAMILIES)
def test_draw_block_fills_the_stack_as_pack_r_would(family):
    # into a new stack and into the middle rows of a larger one: the bits that
    # packing the block's a, b and t gives, and the same generator state
    axes = (1, 2, 3) if family == "single-pair" else (1,)
    starts = ("fresh", "rejected half") if family == "symmetric-two" else ("fresh",)
    for axis in axes:
        for seed in range(3):
            for start in starts:
                oracle, fresh, into = (np.random.default_rng((seed, axis)) for _ in range(3))
                if start == "rejected half":
                    for rng in (oracle, fresh, into):
                        _reject_next_half(rng)
                for n in (1, 2, 7, 64, 256):
                    expected = draw_block_packed(family, axis, oracle, n)
                    got = _draw_block(family, axis, fresh, n, _new_stack(n))
                    assert got.tobytes() == expected.tobytes()
                    stack = _new_stack(3 * n)
                    rows = stack[n : 2 * n]
                    assert _draw_block(family, axis, into, n, rows) is rows
                    assert rows.tobytes() == expected.tobytes(), (axis, seed, start, n)
                    untouched = np.concatenate([stack[:n], stack[2 * n :]])
                    assert untouched.tobytes() == _new_stack(2 * n).tobytes()
                    for rng in (fresh, into):
                        assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("doubles, halves, choices", [(5, 1, 3), (6, 3, 2)])
@pytest.mark.parametrize("spare", [0, 1])
def test_decode_layout_cache_matches_the_uncached_decoder(doubles, halves, choices, spare):
    # every call twice over, so the second pass reads cached layouts; equal
    # draws and equal generator state after each call (the rejected half of
    # integers(3): test_symmetric_two_decoder_falls_back_on_a_rejected_half)
    for seed in range(4):
        cached, uncached = np.random.default_rng(seed), np.random.default_rng(seed)
        if spare:
            cached.integers(0, 2)
            uncached.integers(0, 2)
        for n in (1, 7, 16, 64, 256) * 2:
            got = _decode_raw(cached.bit_generator, n, doubles, halves, choices)
            expected = decode_raw_uncached(uncached.bit_generator, n, doubles, halves, choices)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected], (seed, n)
            assert cached.bit_generator.state == uncached.bit_generator.state, (seed, n)


def test_random_state_rejects_non_finite_draws(monkeypatch):
    # block 1 is one non-PSD candidate (t = I); block 2 starts with the
    # maximally mixed state and ends with a NaN, which must still raise.
    # Each block is written into its rows of the round's zero stack.
    def draw(family, axis, rng, n, out):
        if n == 1:
            out[:, 1:, 1:] = np.eye(3)
        else:
            out[-1, 1, 1] = np.nan
        return out

    monkeypatch.setattr(sampling, "_draw_block", draw)
    with pytest.raises(InvalidParameterError):
        random_state(SampleSpec(family="mds", count=1, seed=0), 0)


def _field_bits(value) -> str:
    # every field, recursively: floats as float.hex, arrays as their bytes
    if dataclasses.is_dataclass(value):
        fields = (getattr(value, f.name) for f in dataclasses.fields(value))
        return "{" + ",".join(map(_field_bits, fields)) + "}"
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_field_bits, value)) + ")"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


# sha256 over every CrossValidation field of cross_validate on each state of
# perfbench/inputs.corpus(0, 1024): zero, pair, symmetric two- and three-pair,
# structural a)-d), full symmetric t, Hilbert-Schmidt and near-boundary states.
# Re-pinned when the spectra became plain arrays: same values, serialized
# without the wrapper that used to hold them; and when the pair solve became
# the closed form by rapidities: pair velocities, sigma and residuals moved by
# rounding only; and when case b) came to be solved by Newton's method from
# mu = 1: symmetric velocities, sigma and residuals moved by rounding only;
# and when the symmetric polynomial residual became |g(mu)| instead of
# |P(mu)|: with that field masked, every field is bit-identical; and when
# `reduced` and `note` moved from CrossValidation to the end of its report:
# the earlier records, serialized in that layout, give this digest.
PINNED_CORPUS = "36bfbe9b8da95f3f2fc0111754f2589d2582d4801ac8f96f50ffb3a6d01540e6"


def test_cross_validate_corpus_pinned(monkeypatch):
    rows = corpus_rows(monkeypatch, 0, 1024)
    digest = hashlib.sha256()
    for row in rows:
        params = HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3)))
        digest.update(_field_bits(cross_validate(params)).encode())
    assert digest.hexdigest() == PINNED_CORPUS


def test_corpus_rho_is_exactly_hermitian(monkeypatch):
    # the assembly of cross_validate and the sampler gives mirror entries
    # from the same operations, so only finiteness is checked
    rows = corpus_rows(monkeypatch, 0, 1024)
    rs = pack_r(rows[:, 0:3], rows[:, 3:6], rows[:, 6:].reshape(-1, 3, 3))
    rho = _rho_from_r(rs)
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    for r, m in zip(rs, rho):
        single = _rho_from_r(r)
        assert np.array_equal(single, m) and np.array_equal(single, single.conj().T)
