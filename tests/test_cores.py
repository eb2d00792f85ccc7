"""cross_validate checks its inputs once, then runs unchecked cores on the
values it built itself.  Each core must give its checked counterpart's
result bit for bit, signed zeros included, and the same errors:

  * pt._rho_and_pt (one einsum over a stacked basis) against rho_from_r and
    partial_transpose_matrix, and pt._spectra_of_r against pt.spectra;
  * normal_form._solve_pair and boost._boost_x against solve_pair_general
    and boost_x;
  * boost._boost_general and normal_form._certify against their earlier
    formulations in tests/solver_oracles.py;
  * normal_form._solve_normal_form and _separability_verdict against
    solve_normal_form and separability_verdict, and hs._local_rotations and
    _symmetric_rotation against tdiag_via_local_rotations and
    tdiag_via_symmetric_rotation, on the inputs their public gates pass.
"""

import math

import numpy as np

import pytest

from qubitsep import (
    HSParams,
    SolverInconsistencyError,
    boost_x,
    cross_validate,
    eliminate_and_diagonalize,
    normal_form,
    partial_transpose_matrix,
    r_from_hs,
    rho_from_r,
    separability_verdict,
    solve_normal_form,
    solve_pair_general,
    spectra,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from qubitsep.boost import _boost_general, _boost_x
from qubitsep.hs import PAULI_KRON, _local_rotations, _symmetric_rotation, pack_r
from qubitsep.normal_form import (
    _certify,
    _pair_residual,
    _separability_verdict,
    _solve_normal_form,
    _solve_pair,
)
from qubitsep.pt import _RHO_AND_PT_BASIS, _rho_and_pt, _spectra_of_r
from qubitsep.sampling import reduce_to_diagonal

from conftest import corpus_rows, record_symmetric_solves
from solver_oracles import boost_general_rows, certify_lists

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


def test_stacked_basis_is_the_pauli_products_and_their_partial_transposes():
    assert _RHO_AND_PT_BASIS.shape == (2, 4, 4, 4, 4) and not _RHO_AND_PT_BASIS.flags.writeable
    assert _RHO_AND_PT_BASIS[0].tobytes() == PAULI_KRON.tobytes()
    for m in range(4):
        for n in range(4):
            moved = partial_transpose_matrix(PAULI_KRON[m, n])
            assert _RHO_AND_PT_BASIS[1, m, n].tobytes() == moved.tobytes()


def test_rho_and_pt_are_the_separate_assembly_bit_for_bit(monkeypatch):
    rs = _corpus_r(monkeypatch) + _random_r_with_zeros(29, 4000)
    assert sum(int((np.signbit(r) & (r == 0.0)).sum()) for r in rs) > 1000
    for r in rs:
        rho = rho_from_r(r)
        pt = partial_transpose_matrix(rho)
        pair = _rho_and_pt(r)
        # tobytes tells -0.0 from 0.0
        assert pair[0].tobytes() == rho.tobytes() and pair[1].tobytes() == pt.tobytes()
        got, want = _spectra_of_r(r), spectra(rho)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        assert not got[0].flags.writeable and not got[1].flags.writeable


def test_rho_and_pt_overflow_raises_as_rho_from_r():
    r = np.full((4, 4), 1e308)
    r[0, 0] = 1.0
    assert _outcome(_rho_and_pt, r) == _outcome(rho_from_r, r)
    assert _outcome(_spectra_of_r, r)[0] is _outcome(rho_from_r, r)[0]


def _pair_inputs(monkeypatch):
    # the (a1, b1, t1) of every corpus pair state, then random and edge values
    rows = corpus_rows(monkeypatch, 0, 1024)
    triples = []
    for row in rows:
        a, b, t = row[0:3], row[3:6], np.reshape(row[6:], (3, 3))
        active = np.flatnonzero(np.abs(a) + np.abs(b))
        if np.count_nonzero(t - np.diag(np.diag(t))) == 0 and active.size == 1:
            k = active[0]
            triples.append((float(a[k]), float(b[k]), float(t[k, k])))
    assert len(triples) > 100
    rng = np.random.default_rng(31)
    triples += [tuple(x) for x in rng.uniform(-1.0, 1.0, (2000, 3)).tolist()]
    triples += [(0.7, 0.3, 0.0), (0.5, 0.5, 1.0), (0.2, -0.2, -1.0), (0.0, 0.0, 0.0)]
    return triples


def test_pair_core_is_solve_pair_general(monkeypatch):
    for a1, b1, t1 in _pair_inputs(monkeypatch):
        for beta_limit in (1e-9, 0.0, 0.3):
            public = _outcome(solve_pair_general, a1, b1, t1, beta_limit)
            core = _outcome(_solve_pair, a1, b1, t1, beta_limit)
            if isinstance(public[0], type):
                assert core == public
                continue
            beta_a, beta_b, residual = core
            assert [_bits(beta_a), _bits(beta_b)] == [_bits(x) for x in public]
            assert _bits(residual) == _bits(_pair_residual(a1, b1, t1, beta_a, beta_b))


def test_boost_x_core_is_boost_x():
    rng = np.random.default_rng(37)
    betas = rng.uniform(-0.999, 0.999, 600).tolist() + [0.0, -0.0, 0.5, 1 - 2e-9]
    for i, beta in enumerate(betas):
        axis = 1 + i % 3
        assert _boost_x(beta, axis).tobytes() == boost_x(beta, axis).tobytes()


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
    # every way out was taken: a Sigma, the three certificate errors, the s0
    # and s gates, and numpy's error on a finite block whose eigensolve overflows
    assert {"ok", "linear terms not eliminated", "transformed spatial block is not symmetric"} <= kinds
    assert {"boosted R has entries that are not finite", "s0 must be finite and positive"} <= kinds
    assert {"s must be finite real 3-vector", np.linalg.LinAlgError} <= kinds
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


def _report_bits(report):
    sigma = report.sigma
    return (
        report.classification,
        report.boost_kind,
        [_bits(x) for x in report.betas],
        report.axis,
        _bits(report.polynomial_residual),
        _bits(report.offdiag_residual),
        None if sigma is None else (_bits(sigma.s0), _bits(sigma.s)),
    )


def _corpus_params(monkeypatch) -> list[HSParams]:
    rows = corpus_rows(monkeypatch, 0, 1024)
    return [HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))) for row in rows]


def _diagonal_params(monkeypatch) -> list[HSParams]:
    # the diagonal forms cross_validate solves on the corpus, then random
    # diagonal parameters with zeros (states or not) and the reference edges
    params = [reduce_to_diagonal(p)[0] for p in _corpus_params(monkeypatch)]
    rng = np.random.default_rng(47)
    for _ in range(1500):
        a, b, t = rng.uniform(-1.0, 1.0, (3, 3))
        a[rng.random(3) < 0.4] = 0.0
        b[rng.random(3) < 0.4] = 0.0
        if rng.random() < 0.4:
            b = a.copy()
        params.append(HSParams.diagonal(a, b, t))
    params.append(HSParams.diagonal([1, 0, 0], [1, 0, 0], [1, 0, 0]))
    params.append(HSParams.diagonal([0.7, 0, 0], [0.3, 0, 0], [0, 0, 0]))
    return params


def test_solve_core_is_solve_normal_form(monkeypatch):
    kinds = set()
    for params in _diagonal_params(monkeypatch):
        tdiag = params.t.diagonal().tolist()
        for beta_limit in (1e-9, 0.0, 0.3):
            public = _outcome(solve_normal_form, params, beta_limit)
            core = _outcome(_solve_normal_form, params, tdiag, beta_limit)
            if isinstance(public, tuple):
                assert core == public
                continue
            assert _report_bits(core) == _report_bits(public)
            kinds.add((public.classification.kind, public.boost_kind))
            if public.sigma is not None:
                for tol in (1e-10, 0.0, 0.5):
                    want = separability_verdict(public.sigma, tol)
                    got = _separability_verdict(public.sigma, tol)
                    assert got == want and _bits(got.witness) == _bits(want.witness)
    assert {("generic", "pair"), ("generic", "symmetric"), ("no-physical-boost", "none")} <= kinds
    assert {("non-generic-a", "none"), ("non-generic-c", "none"), ("non-generic-d", "none")} <= kinds


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
        want, got = tdiag_via_local_rotations(p), _local_rotations(p)
        assert [_bits(x) for x in got[1:]] == [_bits(x) for x in want[1:]]
        assert _bits(r_from_hs(got[0])) == _bits(r_from_hs(want[0]))
        local += 1
        if p.is_symmetric():
            want, got = tdiag_via_symmetric_rotation(p), _symmetric_rotation(p)
            assert _bits(got[1]) == _bits(want[1])
            assert _bits(r_from_hs(got[0])) == _bits(r_from_hs(want[0]))
            symmetric += 1
    assert local > 1500 and symmetric > 1000
