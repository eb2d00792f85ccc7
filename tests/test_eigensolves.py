"""hs._eigvalsh, hs._eigh and hs._svd, the package's eigensolves and its SVD,
against numpy's public np.linalg.eigvalsh, np.linalg.eigh and np.linalg.svd:
bit for bit on every kind of array the package solves, the same LinAlgError
where a solve does not converge, and no RuntimeWarning.  eigenvalues_hermitian
and pt.spectra share one range check.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg

from qubitsep import (
    FAMILIES,
    HSParams,
    InvalidParameterError,
    cross_validate,
    eigenvalues_hermitian,
    normal_form,
    spectra,
)
from qubitsep.hs import _SVD_GUFUNC, _eigh, _eigvalsh, _rho_from_r, _svd, pack_r
from qubitsep.pt import _PAIR_INDEX, _PT_INDEX
from qubitsep.sampling import _draw_block, _new_stack, _proven_indefinite

from conftest import corpus_rows


def _same_as_numpy(m: np.ndarray) -> None:
    assert _eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()
    if m.dtype.kind == "f":
        (w, v), want = _eigh(m), np.linalg.eigh(m)
        assert (w.tobytes(), v.tobytes()) == (want[0].tobytes(), want[1].tobytes())


def _same_svd_as_numpy(m: np.ndarray) -> None:
    assert [x.tobytes() for x in _svd(m)] == [x.tobytes() for x in np.linalg.svd(m)]


def test_numpys_eigensolve_gufuncs_resolve():
    missing = [name for name in ("eigvalsh_lo", "eigh_lo") if not hasattr(_umath_linalg, name)]
    assert missing == [], (
        f"numpy {np.__version__} has no numpy.linalg._umath_linalg.{missing}, "
        "which hs._eigvalsh and hs._eigh call"
    )
    assert _SVD_GUFUNC is not None, (
        f"numpy {np.__version__} has neither numpy.linalg._umath_linalg.svd_f "
        "nor svd_n_f (before numpy 2.0), which hs._svd calls"
    )


def _corpus_params(monkeypatch) -> list[HSParams]:
    rows = corpus_rows(monkeypatch, 0, 1024)
    return [HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3))) for row in rows]


def test_helpers_are_numpys_solves_on_the_corpus_pairs(monkeypatch):
    rows = corpus_rows(monkeypatch, 0, 1024)
    rho = _rho_from_r(pack_r(rows[:, 0:3], rows[:, 3:6], rows[:, 6:].reshape(-1, 3, 3)))
    # rho and its partial transpose, one (2, 4, 4) pair per state as
    # cross_validate solves them, and the whole stack at once
    pairs = rho.reshape(-1, 16)[:, _PAIR_INDEX]
    for pair in pairs:
        _same_as_numpy(pair)
    _same_as_numpy(pairs)


@pytest.mark.parametrize("family", FAMILIES)
def test_helpers_are_numpys_solves_on_sampler_stacks(family):
    rs = _draw_block(family, 1, np.random.default_rng((3, 0)), 256, _new_stack(256))
    survivors = np.flatnonzero(~_proven_indefinite(rs))
    assert survivors.size
    # the accept eigensolve of _sample and the window eigensolve of batch_stats
    rho = _rho_from_r(rs[survivors])
    _same_as_numpy(rho)
    _same_as_numpy(rho.reshape(-1, 16)[:, _PT_INDEX])


def test_helpers_are_numpys_solves_on_certificate_and_rotation_blocks(monkeypatch):
    blocks = []

    def recording(m):
        blocks.append(m)
        return _eigvalsh(m)

    monkeypatch.setattr(normal_form, "_eigvalsh", recording)
    symmetric = 0
    for p in _corpus_params(monkeypatch):
        cross_validate(p)
        t = p.t
        # params.t is a transposed view of R, not contiguous
        assert not t.flags.c_contiguous
        _same_as_numpy(t)
        sym = 0.5 * (t + t.T)
        _same_as_numpy(sym)
        if p.is_symmetric() and not p.is_t_diagonal():
            symmetric += 1
    assert len(blocks) > 500 and symmetric > 50
    for block in blocks:
        assert block.shape == (3, 3)
        _same_as_numpy(block)


def test_svd_is_numpys_on_every_full_t_of_the_corpus(monkeypatch):
    full = 0
    for p in _corpus_params(monkeypatch):
        if not p.is_t_diagonal():
            # params.t is a transposed view of R, as _local_rotations passes it
            _same_svd_as_numpy(p.t)
            _same_svd_as_numpy(np.ascontiguousarray(p.t))
            full += 1
    assert full > 150


def test_helpers_are_numpys_solves_on_strided_views():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
    h = m + m.conj().transpose(0, 2, 1)
    for view in (h.transpose(0, 2, 1), h[::-2], h[:, ::-1, ::-1], h.real.transpose(0, 2, 1)):
        assert not view.flags.c_contiguous
        _same_as_numpy(view)
    t = rng.normal(size=(64, 3, 3))
    for view in (t.transpose(0, 2, 1), t[::-2], t[:, ::-1, ::-1], t[:, :, ::-1].transpose(0, 2, 1)):
        assert not view.flags.c_contiguous
        _same_svd_as_numpy(view)
        for one in view[:4]:
            _same_svd_as_numpy(one)


def _solved(solve, m):
    """The bytes of what a solve gives, or the type and message of its error."""
    try:
        out = solve(m)
    except LinAlgError as exc:
        return type(exc), str(exc)
    return [x.tobytes() for x in out] if isinstance(out, tuple) else out.tobytes()


# blocks that are not finite: LAPACK sets the invalid flag on some of them,
# which numpy turns into LinAlgError, and returns nan on others.  The SVD
# skips the last: LAPACK's SVD of it does not return, through np.linalg.svd
# too (numpy 2.4.6); a t that reaches _svd is finite
ILL_BLOCKS = [
    np.diag([1.0, math.inf, 1.0]),
    np.diag([1.0, 1.0, math.nan]),
    np.full((3, 3), math.nan),
    np.array([[1.0, math.inf, 0.0], [math.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]),
]


@pytest.mark.parametrize(
    "errors", [{}, {"all": "raise"}, {"all": "ignore"}, {"all": "warn"}], ids=repr
)
def test_a_solve_that_does_not_converge_raises_numpys_error(errors):
    # under any error state of the caller, and restoring it, with no warning
    before = np.geterr()
    raised = set()
    with warnings.catch_warnings(), np.errstate(**errors):
        warnings.simplefilter("error")
        inside = np.geterr()
        for solve, public in ((_eigvalsh, np.linalg.eigvalsh), (_eigh, np.linalg.eigh)):
            for block in ILL_BLOCKS + [block.astype(complex) for block in ILL_BLOCKS]:
                if solve is _eigh and block.dtype.kind == "c":
                    continue
                got = _solved(solve, block)
                assert got == _solved(public, block)
                if got == (LinAlgError, "Eigenvalues did not converge"):
                    raised.add((solve.__name__, block.dtype.kind))
        for block in ILL_BLOCKS[:-1]:
            got = _solved(_svd, block)
            assert got == _solved(np.linalg.svd, block)
            if got == (LinAlgError, "SVD did not converge"):
                raised.add(("_svd", block.dtype.kind))
        assert np.geterr() == inside
    assert np.geterr() == before
    assert raised == {("_eigvalsh", "f"), ("_eigvalsh", "c"), ("_eigh", "f"), ("_svd", "f")}


def _outcome(fn, m):
    try:
        return fn(m).tobytes()
    except InvalidParameterError as exc:
        return str(exc)


def test_eigenvalues_hermitian_and_spectra_share_one_range_check():
    # eigenvalues_hermitian used to overflow with a RuntimeWarning and return
    # [0, 0, 0, inf] where pt.spectra raises
    with pytest.raises(InvalidParameterError, match=r"exceeds the float range in 4\*lambda"):
        eigenvalues_hermitian(np.diag([1e308, 0, 0, 0]))
    # a diagonal matrix is its own partial transpose, so both spectra are one
    top = np.finfo(float).max / 4.0
    for x in (1e300, top / 2, np.nextafter(top, 0.0), top, np.nextafter(top, np.inf), 1e308):
        for m in (np.diag([x, 0, 0, 0]), np.diag([-x, 0, 0, 1.0]), np.diag([x, -x, 0, 0])):
            assert _outcome(eigenvalues_hermitian, m) == _outcome(lambda m: spectra(m)[0], m)
