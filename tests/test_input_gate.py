"""Every numeric input of the public API passes one gate: a malformed value
raises a QubitSepError subclass that names it, never a raw numpy or Python
error.

Each parameter gets a non-number, a ragged list, a wrong shape and a NaN;
integer parameters also get a float, and real numbers and arrays numeric text
and complex values.  A matrix gets numeric text too.  A rho that
require_hermitian checks raises ContractViolationError for a wrong shape, as it
always has; everything else raises InvalidParameterError.
"""

import math

import numpy as np
import pytest

from qubitsep import (
    ContractViolationError,
    HSParams,
    InvalidParameterError,
    SampleSpec,
    SigmaForm,
    apply_two_sided,
    cross_validate,
    eigenvalues_hermitian,
    eliminate_and_diagonalize,
    mds_criterion,
    partial_transpose_matrix,
    peres_horodecki,
    r_from_rho,
    random_state,
    rho_from_r,
    separability_verdict,
    solve_normal_form,
    solve_pair_general,
    solve_symmetric,
    spectra,
)
from qubitsep import hs
from qubitsep.roots import real_roots

NAN = math.nan
RAGGED = [[0.1, 0.2], [0.3]]
VECTOR = [0.1, 0.0, 0.0]
TDIAG = [0.3, 0.2, 0.1]
RHO = 0.25 * np.eye(4)
PARAMS = HSParams.diagonal(VECTOR, VECTOR, TDIAG)


def _with_nan(m):
    m = np.array(m)
    m.flat[2] = NAN
    return m


# per kind of parameter: (label, value) of each malformed value
BAD = {
    # float() reads numeric text, and drops the imaginary part of a numpy
    # complex scalar with only a ComplexWarning
    "number": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", [0.5, 0.5]),
        ("nan", NAN),
        ("numeric-text", "0.5"),
        ("complex64", np.complex64(0.5 + 0.5j)),
        ("complex128", np.complex128(0.5 + 0.5j)),
    ],
    "integer": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", [1, 1]),
        ("nan", NAN),
        ("float", 1.0),
        ("bool", True),
        ("numpy-bool", np.True_),
    ],
    # (1, 3) was taken as a 3-vector before the gate; now the shape is exact.
    # A float cast would read numeric text and drop an imaginary part.
    "3-vector": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", [VECTOR]),
        ("nan", [0.1, NAN, 0.0]),
        ("numeric-text", ["0.1", "0", "0"]),
        ("complex", np.array([0.1 + 0.1j, 0.0, 0.0])),
    ],
    "3x3": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", np.zeros((3, 4))),
        ("nan", _with_nan(np.zeros((3, 3)))),
        ("numeric-text", np.zeros((3, 3)).astype(str)),
        ("complex", np.zeros((3, 3)) + 0.1j),
    ],
    "4x4": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", np.eye(3)),
        ("nan", _with_nan(np.eye(4))),
        ("numeric-text", np.eye(4).astype(str)),
        ("complex", np.eye(4) + 0.1j),
    ],
    # 16 numbers in another shape are not a 4x4 matrix either
    "rho": [
        ("text", "abc"),
        ("ragged", RAGGED),
        ("shape", np.eye(3)),
        ("nan", _with_nan(RHO)),
        ("numeric-text", RHO.astype(str)),
        ("flat", RHO.ravel()),
        ("wide", RHO.reshape(2, 8)),
    ],
    # any length up to five; a 2-D array is read flattened
    "coefficients": [("text", "abc"), ("ragged", RAGGED), ("nan", [1.0, NAN])],
}

# (callable and parameter, kind, the call with that parameter set to x)
PARAMETERS = [
    ("HSParams.a", "3-vector", lambda x: HSParams(x, VECTOR, np.zeros((3, 3)))),
    ("HSParams.b", "3-vector", lambda x: HSParams(VECTOR, x, np.zeros((3, 3)))),
    ("HSParams.t", "3x3", lambda x: HSParams(VECTOR, VECTOR, x)),
    ("HSParams.diagonal.a", "3-vector", lambda x: HSParams.diagonal(x, VECTOR, TDIAG)),
    ("HSParams.diagonal.b", "3-vector", lambda x: HSParams.diagonal(VECTOR, x, TDIAG)),
    ("HSParams.diagonal.tdiag", "3-vector", lambda x: HSParams.diagonal(VECTOR, VECTOR, x)),
    ("HSParams.from_r.r", "4x4", HSParams.from_r),
    ("rho_from_r.r", "4x4", rho_from_r),
    ("r_from_rho.rho", "rho", r_from_rho),
    ("eigenvalues_hermitian.matrix", "rho", eigenvalues_hermitian),
    ("spectra.rho", "rho", spectra),
    ("peres_horodecki.rho", "rho", peres_horodecki),
    ("peres_horodecki.tol", "number", lambda x: peres_horodecki(RHO, x)),
    ("partial_transpose_matrix.rho", "rho", partial_transpose_matrix),
    ("mds_criterion.tdiag", "3-vector", mds_criterion),
    ("apply_two_sided.r", "4x4", lambda x: apply_two_sided(x, np.eye(4), np.eye(4))),
    ("apply_two_sided.left", "4x4", lambda x: apply_two_sided(np.eye(4), x, np.eye(4))),
    ("apply_two_sided.right", "4x4", lambda x: apply_two_sided(np.eye(4), np.eye(4), x)),
    ("solve_pair_general.a1", "number", lambda x: solve_pair_general(x, 0.1, 0.3)),
    ("solve_pair_general.b1", "number", lambda x: solve_pair_general(0.1, x, 0.3)),
    ("solve_pair_general.t1", "number", lambda x: solve_pair_general(0.1, 0.1, x)),
    ("solve_pair_general.beta_limit", "number", lambda x: solve_pair_general(0.1, 0.1, 0.3, x)),
    ("solve_symmetric.a", "3-vector", lambda x: solve_symmetric(x, TDIAG)),
    ("solve_symmetric.tdiag", "3-vector", lambda x: solve_symmetric(VECTOR, x)),
    ("solve_symmetric.beta_limit", "number", lambda x: solve_symmetric(VECTOR, TDIAG, x)),
    (
        "eliminate_and_diagonalize.r",
        "4x4",
        lambda x: eliminate_and_diagonalize(x, np.eye(4), np.eye(4)),
    ),
    (
        "eliminate_and_diagonalize.left",
        "4x4",
        lambda x: eliminate_and_diagonalize(np.eye(4), x, np.eye(4)),
    ),
    (
        "eliminate_and_diagonalize.right",
        "4x4",
        lambda x: eliminate_and_diagonalize(np.eye(4), np.eye(4), x),
    ),
    ("SigmaForm.s0", "number", lambda x: SigmaForm(x, TDIAG)),
    ("SigmaForm.s", "3-vector", lambda x: SigmaForm(1.0, x)),
    (
        "separability_verdict.tol",
        "number",
        lambda x: separability_verdict(SigmaForm(1.0, TDIAG), x),
    ),
    ("solve_normal_form.beta_limit", "number", lambda x: solve_normal_form(PARAMS, x)),
    ("SampleSpec.count", "integer", lambda x: SampleSpec("mds", x, 0)),
    ("SampleSpec.seed", "integer", lambda x: SampleSpec("mds", 1, x)),
    ("SampleSpec.axis", "integer", lambda x: SampleSpec("single-pair", 1, 0, x)),
    ("random_state.index", "integer", lambda x: random_state(SampleSpec("mds", 1, 0), x)),
    ("cross_validate.tol", "number", lambda x: cross_validate(PARAMS, tol=x)),
    ("cross_validate.beta_limit", "number", lambda x: cross_validate(PARAMS, beta_limit=x)),
    ("cross_validate.tol_psd", "number", lambda x: cross_validate(PARAMS, tol_psd=x)),
    ("real_roots.coefficients", "coefficients", real_roots),
]

CASES = [
    pytest.param(call, kind, value, id=f"{name}-{label}")
    for name, kind, call in PARAMETERS
    for label, value in BAD[kind]
]


@pytest.mark.parametrize("call, kind, value", CASES)
def test_malformed_input_raises_a_package_error(call, kind, value):
    numbers = isinstance(value, np.ndarray) and value.dtype.kind == "f"
    if call is partial_transpose_matrix and numbers and value.shape == (4, 4):
        # a permutation of the entries computes nothing, so it checks type and
        # shape only: the NaN at (0, 2) comes back in its transposed place
        assert np.argwhere(np.isnan(partial_transpose_matrix(value))).tolist() == [[2, 0]]
        return
    if kind == "rho" and numbers and value.shape != (4, 4) and call is not partial_transpose_matrix:
        expected = ContractViolationError  # as require_hermitian always raised
    else:
        expected = InvalidParameterError
    with pytest.raises(expected):
        call(value)


def test_the_gate_returns_a_new_float_array_of_exactly_the_shape():
    given = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    for x in (given, np.array(given), np.array(given, dtype=np.float32)):
        v = hs._as_real(x, (3, 3), "t")
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (3, 3)
        assert v.tolist() == np.array(given, dtype=float).tolist()
        assert v is not x and not np.shares_memory(v, x)
    for x in (2, np.float32(2.0), np.array(2.0), True):
        assert type(hs._as_real(x, (), "s0")) is float
    zero = hs._as_real(-0.0, (), "s0")
    assert zero == 0.0 and math.copysign(1.0, zero) < 0


@pytest.mark.parametrize(
    "x, shape, message",
    [
        ("abc", (), "x must be finite real number"),
        (math.inf, (), "x must be finite real number"),
        (10**400, (), "x must be finite real number"),
        ([[0.1, 0.2, 0.3]], (3,), "x must be finite real 3-vector"),
        (np.zeros((3, 1)), (3,), "x must be finite real 3-vector"),
        ([10**400, 0, 0], (3,), "x must be finite real 3-vector"),
        ([None, 0, 0], (3,), "x must be finite real 3-vector"),
        (np.zeros(3), (3, 3), "x must be finite real 3x3 matrix"),
        (np.full((4, 4), -math.inf), (4, 4), "x must be finite real 4x4 matrix"),
        ("0.5", (), "x must be finite real number"),
        (np.complex64(0.5), (), "x must be finite real number"),
    ],
)
def test_the_gate_names_the_input_and_its_kind(x, shape, message):
    with pytest.raises(InvalidParameterError) as raised:
        hs._as_real(x, shape, "x")
    assert str(raised.value) == message
