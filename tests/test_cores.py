"""The unchecked cores that stay beside the one function of each stage, each
against an independent oracle, bit for bit, signed zeros included, with the
same errors:

  * pt._PT_INDEX (the partial transpose as one index map of rho's 16
    entries), moving the stacked rho of hs._rho_from_r as batch_stats does,
    against partial_transpose_matrix of rho_from_r and the entry-by-entry
    formula, and the spectra of both of cross_validate's paths against
    pt.spectra;
  * boost._boost_general and normal_form._certify against their earlier
    formulations in tests/solver_oracles.py;
  * hs._local_rotations and _symmetric_rotation, which solve_normal_form
    calls, against the svd / eigh, np.diag and pack_r formulation in
    tests/solver_oracles.py, and the public tdiag_via_local_rotations and
    tdiag_via_symmetric_rotation against the cores on the inputs their gates
    pass.
"""

import math

import numpy as np

import pytest

from qubitsep import (
    HSParams,
    InvalidParameterError,
    SolverInconsistencyError,
    cross_validate,
    eliminate_and_diagonalize,
    normal_form,
    partial_transpose_matrix,
    r_from_hs,
    rho_from_r,
    spectra,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from qubitsep.boost import _boost_general
from qubitsep.hs import _local_rotations, _rho_from_r, _symmetric_rotation, pack_r
from qubitsep.normal_form import _certify
from qubitsep.pt import _PT_INDEX, _pair_spectra, _spectra

from conftest import corpus_rows, record_symmetric_solves
from solver_oracles import (
    boost_general_rows,
    certify_lists,
    local_rotations_packed,
    symmetric_rotation_packed,
)

SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 1.0, -1e-8, 1e-300]


def _outcome(fn, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)


def _bits(x) -> str:
    return x.hex() if isinstance(x, float) else x.tobytes().hex()


def _certified(q, scale, certify):
    out = _outcome(certify, q, scale)
    if isinstance(out[0], type):
        return out
    sigma, offdiag = out
    assert type(sigma.s0) is float and not sigma.s.flags.writeable
    return _bits(sigma.s0), _bits(sigma.s), sigma.s.dtype, _bits(offdiag)


def _corpus_r(monkeypatch) -> list[np.ndarray]:
    rows = corpus_rows(monkeypatch, 0, 1024)
    return list(pack_r(rows[:, 0:3], rows[:, 3:6], rows[:, 6:].reshape(-1, 3, 3)))


def _random_r_with_zeros(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    rs = rng.uniform(-1.0, 1.0, (n, 4, 4))
    rs[rng.random(rs.shape) < 0.4] = 0.0
    rs[rng.random(rs.shape) < 0.2] *= -0.0
    rs[:, 0, 0] = 1.0
    return list(rs)


def _pt_by_entries(rho: np.ndarray) -> np.ndarray:
    # transpose on qubit A: <i j| pt |k l> = <k j| rho |i l>, basis |qubit A, qubit B>
    pt = np.empty_like(rho)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        pt[2 * i + j, 2 * k + l] = rho[2 * k + j, 2 * i + l]
    return pt


def test_pt_index_map_is_the_partial_transpose_bit_for_bit(monkeypatch):
    rs = _corpus_r(monkeypatch) + _random_r_with_zeros(29, 4000)
    assert sum(int((np.signbit(r) & (r == 0.0)).sum()) for r in rs) > 1000
    assert not _PT_INDEX.flags.writeable
    # one assembly of the whole stack and one move, as batch_stats does per window
    stacked = _rho_from_r(np.array(rs))
    moved = stacked.reshape(-1, 16)[:, _PT_INDEX]
    pt_spectra = _spectra(np.linalg.eigvalsh(moved))
    assert not pt_spectra.flags.writeable
    for r, rho_k, pt_k, pt_spectrum in zip(rs, stacked, moved, pt_spectra):
        rho = rho_from_r(r)
        pt = partial_transpose_matrix(rho)
        # tobytes tells -0.0 from 0.0
        assert rho_k.tobytes() == rho.tobytes()
        assert pt_k.tobytes() == pt.tobytes() == _pt_by_entries(rho).tobytes()
        got, want = _pair_spectra(rho), spectra(rho)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        assert not got[0].flags.writeable and not got[1].flags.writeable
        assert pt_spectrum.tobytes() == want[1].tobytes()


def test_pt_index_map_paths_raise_as_rho_from_r_on_overflow():
    # every coefficient 1e308 is finite, but rho overflows before any map
    r = np.full((4, 4), 1e308)
    r[0, 0] = 1.0
    expected = _outcome(rho_from_r, r)
    assert expected[0] is InvalidParameterError
    assert _outcome(cross_validate, HSParams.from_r(r)) == expected
    stack = np.array([np.eye(4), r])
    assert _outcome(lambda rs: _rho_from_r(rs).reshape(-1, 16)[:, _PT_INDEX], stack) == expected


def test_boost_general_core_is_the_row_comprehension(monkeypatch):
    rng = np.random.default_rng(41)
    velocities = rng.uniform(-0.57, 0.57, (3000, 3))
    velocities[rng.random(velocities.shape) < 0.3] = 0.0
    velocities[rng.random(velocities.shape) < 0.3] *= -0.0
    # and the velocities of every symmetric solve of the corpus
    solves = record_symmetric_solves(monkeypatch)
    for row in corpus_rows(monkeypatch, 0, 1024):
        cross_validate(HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))))
    monkeypatch.undo()
    solved = [normal_form._solve_symmetric(*args) for args in solves]
    assert len(solved) > 100
    cases = [(v.tolist(), float(v @ v)) for v in velocities]
    cases += [(v.tolist(), beta_sq) for v, _, beta_sq in solved]
    for vs, beta_sq in cases:
        assert _boost_general(vs, beta_sq).tobytes() == boost_general_rows(vs, beta_sq).tobytes()


def test_certify_is_the_list_formulation_on_the_corpus(monkeypatch):
    calls = []

    def recording(q, scale):
        calls.append((q, scale))
        return _certify(q, scale)

    monkeypatch.setattr(normal_form, "_certify", recording)
    for row in corpus_rows(monkeypatch, 0, 1024):
        cross_validate(HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))))
    monkeypatch.undo()
    assert len(calls) > 500
    for q, scale in calls:
        assert _certified(q, scale, _certify) == _certified(q, scale, certify_lists)


def _error_path_cases():
    # a certified form to start from: small linear terms, a symmetric block
    base = np.array(
        [
            [1.2, 1e-13, -1e-14, 0.0],
            [2e-13, 0.3, 0.1, -0.2],
            [0.0, 0.1, -0.4, 0.05],
            [-3e-14, -0.2, 0.05, 0.1],
        ]
    )
    cases = [(base, 1.0)]
    for i in range(4):
        for j in range(4):
            for x in SPECIAL:
                q = base.copy()
                q[i, j] = x
                cases.append((q, 1.0))
    for s0 in (0.0, -0.0, -1.0, math.inf, math.nan, 5e-324):
        q = base.copy()
        q[0, 0] = s0
        cases.append((q, 1.0))
    # a non-finite q11 as the first entry of the symmetry check, with and without asymmetry
    for q11 in (math.inf, math.nan):
        for q12 in (0.1, 0.7):
            q = base.copy()
            q[1, 1], q[1, 2] = q11, q12
            cases.append((q, 1.0))
    rng = np.random.default_rng(43)
    for _ in range(3000):
        q = base.copy()
        q[1:, 1:] = rng.uniform(-1.0, 1.0, (3, 3))
        q[1:, 1:] += q[1:, 1:].T
        q[0, 0] = rng.uniform(-0.2, 2.0)
        hits = rng.random((4, 4)) < 0.12
        q[hits] = rng.choice(SPECIAL, int(hits.sum()))
        cases.append((q, float(rng.choice([1.0, 1e4, 1e30]))))
    return cases


def test_certify_is_the_list_formulation_on_its_error_paths():
    kinds = set()
    for q, scale in _error_path_cases():
        want = _certified(q, scale, certify_lists)
        assert _certified(q, scale, _certify) == want, q
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
        kinds.add(want[1].split(":")[0] if isinstance(want[0], type) else "ok")
    # every way out was taken: a Sigma, the four certificate errors (the last
    # for a finite block whose eigensolve overflows) and the s0 and s gates;
    # no raw numpy error is left
    assert {"ok", "linear terms not eliminated", "transformed spatial block is not symmetric"} <= kinds
    assert {"boosted R has entries that are not finite", "s0 must be finite and positive"} <= kinds
    assert {"boosted spatial block has no computable spectrum", "s must be finite real 3-vector"} <= kinds
    assert np.linalg.LinAlgError not in kinds
    # a non-finite s0 no longer reaches the s0 gate
    assert "s0 must be finite real number" not in kinds


def test_a_boosted_r_that_is_not_finite_fails_the_certificate():
    # a nan on the diagonal used to give a Sigma (eigvalsh of diag(nan, 0, 1)
    # is [0, -0, 1]), an inf one numpy's LinAlgError
    for x in (math.nan, math.inf, -math.inf):
        for i in range(4):
            q = np.diag([1.0, 0.5, 0.0, 1.0])
            q[i, i] = x
            with pytest.raises(SolverInconsistencyError, match="not finite"):
                _certify(q, 1.0)
    # the spatial block overflows while the linear terms stay zero
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverInconsistencyError, match="not finite"):
            eliminate_and_diagonalize(
                np.diag([1, 1e308, 1e308, 1e308]), np.diag([1, 10, 10, 10.0]), np.eye(4)
            )


def test_a_block_whose_eigensolve_fails_fails_the_certificate():
    # finite entries near the float limit: eigvalsh used to raise numpy's LinAlgError
    with pytest.raises(SolverInconsistencyError, match="no computable spectrum"):
        eliminate_and_diagonalize(np.diag([1.0, 1.0, 1e308, 1.0]), np.eye(4), np.eye(4))


def _corpus_params(monkeypatch) -> list[HSParams]:
    rows = corpus_rows(monkeypatch, 0, 1024)
    return [HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))) for row in rows]


def _reduction_bits(reduction) -> list[str]:
    # a reduction's params (or the oracle's R) and rotations, as bits
    reduced, *rotations = reduction
    r = reduced if isinstance(reduced, np.ndarray) else r_from_hs(reduced)
    return [_bits(x) for x in (r, *rotations)]


def test_rotation_cores_are_the_public_reductions(monkeypatch):
    rng = np.random.default_rng(53)
    params = _corpus_params(monkeypatch)
    for _ in range(1000):
        a, b = rng.uniform(-1.0, 1.0, (2, 3))
        t = rng.uniform(-1.0, 1.0, (3, 3))
        params += [HSParams(a, b, t), HSParams(a, a, t + t.T)]
    local = symmetric = 0
    for p in params:
        if p.is_t_diagonal():
            continue
        want = _reduction_bits(_local_rotations(p))
        assert _reduction_bits(local_rotations_packed(p)) == want
        assert _reduction_bits(tdiag_via_local_rotations(p)) == want
        local += 1
        if p.is_symmetric():
            want = _reduction_bits(_symmetric_rotation(p))
            assert _reduction_bits(symmetric_rotation_packed(p)) == want
            assert _reduction_bits(tdiag_via_symmetric_rotation(p)) == want
            symmetric += 1
    assert local > 1500 and symmetric > 1000
