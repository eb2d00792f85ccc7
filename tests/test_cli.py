import gc
import hashlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from qubitsep import (
    FAMILIES,
    HSParams,
    InvalidParameterError,
    SampleSpec,
    cross_validate,
    r_from_hs,
    random_state,
)
from qubitsep import cli, hs, normal_form, pt, sampling
from qubitsep.cli import build_parser, load_state_file, main
from qubitsep.errors import QubitSepError


def write_state(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pair64_file(tmp_path):
    return write_state(
        tmp_path,
        {"a": [0, 0.64, 0], "b": [0, 0.64, 0], "t_diag": [0.3, 0.3, 0.3]},
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_entangled_reference(pair64_file, capsys):
    code, out, _ = run(capsys, "analyze", pair64_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["psd"] is True
    assert doc["ppt_verdict"]["kind"] == "entangled"
    assert doc["classification"]["kind"] == "Generic"
    assert doc["lorentz_verdict"]["kind"] == "entangled"
    assert abs(doc["lorentz_sum"] - 1.8042735676021249) < 1e-9
    assert np.allclose(doc["eigenvalues_4l"], [0.02, 0.1, 1.3, 2.58], atol=1e-9)


def test_analyze_trivial_state(tmp_path, capsys):
    path = write_state(tmp_path, {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt_verdict"]["kind"] == "separable"


def test_analyze_cubic_reference(tmp_path, capsys):
    path = write_state(
        tmp_path,
        {"a": [0.1, 0.15, 0], "b": [0.1, 0.15, 0], "t_diag": [0.3, -0.2, 0.4]},
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt_verdict"]["kind"] == "separable"
    assert doc["lorentz_verdict"]["kind"] == "separable"
    got = sorted(doc["tprime"], key=abs, reverse=True)
    expected = [0.415552, 0.303945, -0.238396]
    assert np.abs(np.array(got) - expected).max() < 1e-3


def test_analyze_non_generic_exit_code(tmp_path, capsys):
    path = write_state(tmp_path, {"a": [1, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "NonGenericA"
    assert "lorentz_verdict" not in doc
    assert "sigma" not in doc


def test_analyze_entangled_non_generic_still_gets_ppt_verdict(tmp_path, capsys):
    path = write_state(
        tmp_path, {"a": [0.5, 0, 0], "b": [0.5, 0, 0], "t_diag": [0, 0.4, 0.4]}
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "NonGenericC"
    assert doc["ppt_verdict"]["kind"] == "entangled"
    assert "lorentz_verdict" not in doc
    # case c) holds entangled and separable states alike: the label must not
    # contradict the exact verdict printed next to it
    assert "separable" not in doc["classification"]["detail"]
    assert "ppt_verdict" in doc["classification"]["detail"]


def test_analyze_case_d_detail_matches_ppt_verdict(tmp_path, capsys):
    # |++><++|: the label's known verdict and the exact test must agree.
    path = write_state(tmp_path, {"a": [1, 0, 0], "b": [1, 0, 0], "t_diag": [1, 0, 0]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "NonGenericD"
    assert doc["ppt_verdict"]["kind"] == "separable"
    assert doc["ppt_verdict"]["boundary"] is True
    assert "known verdict: separable" in doc["classification"]["detail"]
    assert "entangled" not in doc["classification"]["detail"]


def test_analyze_rejects_non_state(tmp_path, capsys):
    path = write_state(tmp_path, {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [1, 1, 1]})
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["psd"] is False


def test_analyze_tol_psd_alone_decides_validity(tmp_path, capsys):
    # 4 lambda_min is about -3e-8: a state at --tol-psd 1e-6, not at the default
    t = 1 / 3 + 1e-8
    path = write_state(tmp_path, {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [t, t, t]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 2
    assert json.loads(out)["psd"] is False

    code, out, _ = run(capsys, "analyze", path, "--tol-psd", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["psd"] is True
    assert doc["ppt_verdict"]["kind"] == "separable"


def test_analyze_beta_limit(tmp_path, capsys):
    path = write_state(
        tmp_path, {"a": [0.6, 0, 0], "b": [0.2, 0, 0], "t_diag": [0.3, 0.1, -0.1]}
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "Generic"
    assert np.allclose(doc["betas"], [0.0339, 0.5938], atol=1e-4)

    code, out, _ = run(capsys, "analyze", path, "--beta-limit", "0.5")
    assert code == 3
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "NoPhysicalBoost"
    assert "betas" not in doc
    assert doc["ppt_verdict"]["kind"] == "separable"


def test_analyze_beta_limit_bounds_the_symmetric_boost(tmp_path, capsys):
    # each component of the symmetric velocity stays below 0.5, its length does not
    a = [0.24, -0.45, 0]
    path = write_state(tmp_path, {"a": a, "b": a, "t_diag": [-0.14, 0.3, -0.08]})
    code, out, _ = run(capsys, "analyze", path)
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "Generic"
    assert np.all(np.abs(doc["betas"]) < 0.5)
    assert 0.5 <= np.linalg.norm(doc["betas"]) < 0.707

    code, out, _ = run(capsys, "analyze", path, "--beta-limit", "0.5")
    assert code == 3
    assert json.loads(out)["classification"]["kind"] == "NoPhysicalBoost"


def test_analyze_malformed_file(tmp_path, capsys):
    path = write_state(tmp_path, {"a": [0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]})
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "'a'" in err

    path = write_state(
        tmp_path,
        {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0], "t_full": [0] * 9},
        name="both.json",
    )
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "t_diag" in err and "t_full" in err

    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "analyze", missing)
    assert code == 2

    # an integer past the float range, bytes that are not UTF-8, and nesting
    # deeper than the decoder's recursion: one error line, nothing on stdout
    malformed = {
        "huge-integer.json": b'{"a": [1' + b"0" * 400 + b', 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]}',
        "latin-1.json": '{"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0], "n": "\xe9"}'.encode("latin-1"),
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, content in malformed.items():
        path = tmp_path / name
        path.write_bytes(content)
        for command in ("analyze", "classify"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, ""), (name, command)
            assert re.fullmatch(r"error: [^\n]*\n", err), (name, command, err)


def test_state_file_with_a_byte_order_mark_is_not_json(tmp_path, capsys):
    # json.loads refuses a leading BOM with its own message, which the one
    # shared decoder would turn into "Expecting value"
    path = tmp_path / "bom.json"
    path.write_bytes(b'\xef\xbb\xbf{"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]}')
    for command in ("analyze", "classify"):
        assert run(capsys, command, str(path)) == (
            2,
            "",
            "error: state file is not valid JSON: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig): line 1 column 1 (char 0)\n",
        )


def test_load_state_file_builds_no_decoder(pair64_file, monkeypatch):
    built = []
    init = json.JSONDecoder.__init__

    def counted(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "__init__", counted)
    for _ in range(3):
        params = load_state_file(pair64_file)
    assert built == []
    assert params.a.tolist() == [0.0, 0.64, 0.0] and not params.t.flags.writeable


def test_light_speed_pair_is_labelled(tmp_path, capsys):
    # (a1 + b1)/(1 + t1) = 1: a valid rank-3 state on the light-speed edge of
    # case a) gets the NoPhysicalBoost label and the exact verdict
    path = write_state(tmp_path, {"a": [0.7, 0, 0], "b": [0.3, 0, 0], "t_diag": [0, 0, 0]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "NoPhysicalBoost"
    assert doc["ppt_verdict"]["kind"] == "separable"
    code, out, _ = run(capsys, "classify", path)
    assert code == 0 and out.startswith("NoPhysicalBoost: ")


def test_symmetric_states_without_a_physical_root_are_labelled(tmp_path, capsys):
    # a non-state (4 lambda_min = -0.360) whose only root with |beta| < 1 lies
    # between two poles, and linear terms whose squares leave the float range:
    # no physical boost, exit 3, under a PSD tolerance that admits them
    for doc, tol_psd in (
        ({"a": [0.7, 0, -0.1], "b": [0.7, 0, -0.1], "t_diag": [0.5, 0.1, -0.8]}, "0.1"),
        ({"a": [1e200, 1e200, 0], "b": [1e200, 1e200, 0], "t_diag": [0.1, 0.2, 0.3]}, "1e308"),
    ):
        path = write_state(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", path, "--tol-psd", tol_psd)
        assert code == 3 and err == ""
        report = json.loads(out)
        assert report["classification"]["kind"] == "NoPhysicalBoost"
        assert report["ppt_verdict"]["kind"] == "entangled"
        assert "betas" not in report


def _strict_json(text: str):
    # json.loads, but NaN and Infinity raise instead of parsing
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_symmetric_report_past_the_float_range_is_strict_json(tmp_path, capsys):
    # a non-state with t near the top of the float range, admitted by the PSD
    # tolerance: the cleared secular polynomial of this state overflows, while
    # the reported |g(mu)| is finite, so the report is strict JSON
    a = [0.1306196534258742, 3.858025082164375e-07, -95995.8990039101]
    path = write_state(tmp_path, {"a": a, "b": a, "t_diag": [9.046e158, 6.356e102, 6.943e173]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", path, "--tol-psd", "1e308")
    assert (code, err) == (1, "")
    report = _strict_json(out)
    assert report["boost_kind"] == "symmetric"
    assert 0.0 <= report["residuals"]["polynomial"] <= 1e-10


# generic states next to an edge of the solve: exit 0, strict JSON and the
# Generic label from both commands
CERTIFIED_NEAR_AN_EDGE = {
    # gamma_a gamma_b is about 3.5e6 here: the boosted R rounds past 1e-9, and
    # the certificate's rounding bound accepts it (4 lambda_min = +9.2e-15)
    "near-light-speed": {
        "a": [0.819813367216895, 0, 0],
        "b": [-0.09106559296220595, 0, 0],
        "t_diag": [0.08912103982088992, 0, 0],
    },
    # qubit A maximally mixed, qubit B nearly pure: a generic product state
    # whose pair solve sits next to case b)
    "near-case-b": {"a": [0, 0, 0], "b": [0.999999, 0, 0], "t_diag": [0, 0, 0]},
    # a near tie in t (t3 - t2 = 1e-11) is generic and separable
    "near-tie": {"a": [0.1, 0.15, 0.2], "b": [0.1, 0.15, 0.2], "t_diag": [0.3, -0.2, -0.19999999999]},
}


def test_pair_state_near_light_speed_is_certified(tmp_path, capsys):
    for name, doc in CERTIFIED_NEAR_AN_EDGE.items():
        path = write_state(tmp_path, doc, name=f"{name}.json")
        code, out, err = run(capsys, "analyze", path)
        assert (code, err) == (0, ""), name
        assert _strict_json(out)["classification"]["kind"] == "Generic", name
        assert run(capsys, "classify", path) == (0, "Generic\n", ""), name


def test_analyze_full_t_input(tmp_path, capsys):
    # product state written with a full correlation matrix
    u = np.array([0.6, 0.0, 0.0])
    v = np.array([0.0, 0.6, 0.0])
    t = np.outer(u, v)
    product = write_state(
        tmp_path,
        {"a": list(u), "b": list(v), "t_full": [float(x) for x in t.ravel()]},
    )
    code, out, _ = run(capsys, "analyze", product)
    assert code in (0, 3)
    doc = json.loads(out)
    assert doc["ppt_verdict"]["kind"] == "separable"
    assert any("diagonalized" in note for note in doc["criteria_notes"])

    # symmetric state with a full symmetric t takes the shared rotation
    symmetric = write_state(
        tmp_path,
        {
            "a": [0.2, 0.1, 0],
            "b": [0.2, 0.1, 0],
            "t_full": [0.3, 0.1, 0, 0.1, -0.2, 0.05, 0, 0.05, 0.1],
        },
        name="symmetric.json",
    )
    code, out, _ = run(capsys, "analyze", symmetric)
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["kind"] == "Generic"
    assert any("one shared local rotation" in n for n in doc["criteria_notes"])
    assert doc["boost_kind"] == "symmetric"
    assert all(beta != 0.0 for beta in doc["betas"])

    # one sample per family, written with t turned full by one shared random
    # rotation on both qubits (symmetric samples stay symmetric)
    rng = np.random.default_rng(13)
    sampled = []
    for family in FAMILIES:
        p = random_state(SampleSpec(family, 1, 5), 0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.linalg.det(q))
        doc = {
            "a": list(rot @ p.a),
            "b": list(rot @ p.b),
            "t_full": [float(x) for x in (rot @ p.t @ rot.T).ravel()],
        }
        sampled.append(write_state(tmp_path, doc, name=f"{family}.json"))

    # analyze formats the cross_validate record, bit for bit
    for path in (product, symmetric, *sampled):
        _, out, _ = run(capsys, "analyze", path)
        doc = json.loads(out)
        rec = cross_validate(load_state_file(path))
        assert doc["ppt_verdict"]["witness"] == rec.ppt.witness
        assert doc["pt_eigenvalues_4l"] == list(rec.pt_spectrum)
        assert doc["classification"]["detail"] == rec.classification.detail
        if not rec.classification.is_generic:
            assert "betas" not in doc
            continue
        assert doc["betas"] == list(rec.report.betas)
        assert doc["sigma"] == {
            "s0": rec.report.sigma.s0,
            "s": list(rec.report.sigma.s),
        }


def count_eigensolves(monkeypatch, calls: list) -> None:
    """Append ("eigvalsh", "eigh" or "svd", shape) to `calls` for every call of
    hs._eigvalsh, hs._eigh and hs._svd, in whichever module calls it, and make
    numpy's public eigvalsh, eigh and svd raise, so that a solve through the
    wrapper fails."""
    for name in ("eigvalsh", "eigh", "svd"):
        helper = getattr(hs, f"_{name}")

        def call(m, name=name, helper=helper):
            calls.append((name, np.shape(m)))
            return helper(m)

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")

        for module in (hs, pt, normal_form, sampling):
            if getattr(module, f"_{name}", None) is helper:
                monkeypatch.setattr(module, f"_{name}", call)
        monkeypatch.setattr(np.linalg, name, refuse)


def test_analyze_runs_one_stacked_eigensolve(tmp_path, capsys, monkeypatch):
    # the spectra of rho and of its partial transpose come from one call;
    # the only other eigvalsh call is the 3x3 block of the normal form
    calls = []
    count_eigensolves(monkeypatch, calls)
    path = write_state(
        tmp_path,
        {
            "a": [0.2, 0.1, 0],
            "b": [0.2, 0.1, 0],
            "t_full": [0.3, 0.1, 0, 0.1, -0.2, 0.05, 0, 0.05, 0.1],
        },
    )
    code, _, _ = run(capsys, "analyze", path)
    assert code == 0
    shapes = [shape for name, shape in calls if name == "eigvalsh"]
    assert [s for s in shapes if s[-2:] == (4, 4)] == [(2, 4, 4)]


# (a, b, t, boost kind, rotation calls) of test_cross_validate_numpy_call_budget
CALL_BUDGET_STATES = [
    # a full-t symmetric state: one shared rotation
    (
        [0.2, 0.1, 0],
        [0.2, 0.1, 0],
        [[0.3, 0.1, 0], [0.1, -0.2, 0.05], [0, 0.05, 0.1]],
        "symmetric",
        [("eigh", (3, 3))],
    ),
    # a full t that is not symmetric, and no linear terms: the local rotations' SVD
    (
        [0, 0, 0],
        [0, 0, 0],
        [[0.3, 0.1, 0], [0, -0.2, 0.05], [0.1, 0, 0.1]],
        "symmetric",
        [("svd", (3, 3))],
    ),
    # diagonal t: no rotation
    ([0, 0.64, 0], [0, 0.64, 0], np.diag([0.3] * 3), "pair", []),
    ([0.1, 0.15, 0.2], [0.1, 0.15, 0.2], np.diag([0.3, -0.2, 0.2]), "symmetric", []),
]


def test_cross_validate_numpy_call_budget(monkeypatch):
    # one assembly of rho, one stacked eigensolve of rho and its partial
    # transpose, the rotation a full t needs and one 3x3 block in the
    # certificate; no determinant (rotation signs come from a float triple
    # product) and no companion eigensolve (the secular root is found by Newton)
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            # the shape of the first array argument (einsum's follows the subscripts)
            calls.append((name, np.shape(args[name == "einsum"])))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    count_eigensolves(monkeypatch, calls)
    for name in ("eigvals", "det", "eig"):
        counted(np.linalg, name)
    counted(np, "einsum")
    for a, b, t, kind, rotation in CALL_BUDGET_STATES:
        params = HSParams(a, b, t)
        calls.clear()
        rec = cross_validate(params)
        assert rec.report.boost_kind == kind and (rec.report.note is None) is (not rotation)
        assert sorted(calls) == sorted(
            rotation + [("eigvalsh", (2, 4, 4)), ("eigvalsh", (3, 3)), ("einsum", (4, 4))]
        ), kind


@pytest.mark.parametrize(
    "a, b, t",
    [
        pytest.param([0, 0.64, 0], [0, 0.64, 0], np.diag([0.3] * 3), id="diagonal-t"),
        pytest.param(
            [0.2, 0.1, 0],
            [0.2, 0.1, 0],
            [[0.3, 0.1, 0], [0.1, -0.2, 0.05], [0, 0.05, 0.1]],
            id="full-t-symmetric",
        ),
        pytest.param(
            [0.6, 0, 0], [0, 0.6, 0], [[0, 0.36, 0], [0, 0, 0], [0, 0, 0]], id="full-t-product"
        ),
    ],
)
def test_cross_validate_reads_t_diagonality_once(monkeypatch, a, b, t):
    params = HSParams(a, b, t)
    calls = []
    is_t_diagonal = HSParams.is_t_diagonal

    def counted(self):
        calls.append(self)
        return is_t_diagonal(self)

    monkeypatch.setattr(HSParams, "is_t_diagonal", counted)
    rec = cross_validate(params)
    monkeypatch.undo()
    assert calls == [params]
    assert rec.classification.is_generic


_RHO_OVERFLOW = "matrix entries must be finite"
_SPECTRUM_OVERFLOW = "spectrum exceeds the float range in 4*lambda units"


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            {"a": [1e308] * 3, "b": [1e308] * 3, "t_full": [1e308] * 9}, _RHO_OVERFLOW, id="t_full-9"
        ),
        pytest.param(
            {"a": [1e308] * 3, "b": [1e308] * 3, "t_diag": [1e308] * 3}, _RHO_OVERFLOW, id="t_diag-3"
        ),
        # rho is finite, but its eigenvalues in 4*lambda units are not
        pytest.param(
            {"a": [1.2e308, 0, 0], "b": [1.2e308, 0, 0], "t_diag": [0, 0, 0]},
            _SPECTRUM_OVERFLOW,
            id="spectrum",
        ),
    ],
)
def test_overflowing_state_is_an_input_error(tmp_path, capsys, doc, message):
    # finite coefficients whose rho or spectrum overflows: exit 2 with the
    # error, nothing on stdout, and no RuntimeWarning
    path = write_state(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in ("analyze", "classify"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (2, "")
            assert err == f"error: {message}\n"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cross_validate(load_state_file(path))


@pytest.mark.parametrize(
    "option, value",
    [
        ("--tol-verdict", "-1"),
        ("--tol-verdict", "nan"),
        ("--tol-verdict", "inf"),
        ("--tol-psd", "-1e-10"),
        ("--tol-psd", "nan"),
        ("--tol-psd", "inf"),
        ("--beta-limit", "1.5"),
        ("--beta-limit", "1"),
        ("--beta-limit", "-0.1"),
        ("--beta-limit", "nan"),
        ("--beta-limit", "one"),
    ],
)
def test_analyze_rejects_bad_numeric_options(tmp_path, capsys, option, value):
    # used to print a report: "--tol-verdict -1" an entangled verdict at
    # witness +0.5, "--beta-limit 1.5" a NoPhysicalBoost label (exit 3)
    path = write_state(tmp_path, {"a": [0.2, 0, 0], "b": [0, 0, 0], "t_diag": [0.3, 0.3, 0.3]})
    # "--option=value", since argparse reads "-1e-10" as an option name
    code, out, err = run(capsys, "analyze", path, f"{option}={value}")
    assert code == 2
    assert out == ""
    assert f"argument {option}: {value!r} is not a finite number in [0, " in err


@pytest.mark.parametrize(
    "option, value", [("--tol-verdict", "0"), ("--tol-psd", "0"), ("--beta-limit", "0")]
)
def test_analyze_accepts_zero_options(tmp_path, capsys, option, value):
    path = write_state(tmp_path, {"a": [0.2, 0, 0], "b": [0, 0, 0], "t_diag": [0.3, 0.3, 0.3]})
    code, out, _ = run(capsys, "analyze", path, option, value)
    assert code == 0
    assert json.loads(out)["ppt_verdict"]["kind"] == "separable"


def test_analyze_json_round_trip(pair64_file, capsys):
    code, out, _ = run(capsys, "analyze", pair64_file)
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_one_parser_serves_repeated_calls(pair64_file, capsys):
    assert build_parser() is build_parser()
    fresh = run(capsys, "analyze", pair64_file)
    assert run(capsys, "analyze", pair64_file, "--tol-verdict", "0.5", "--format", "text")[0] == 0
    code, out, err = run(capsys, "analyze", pair64_file, "--beta-limit", "1")
    assert (code, out) == (2, "") and "--beta-limit" in err
    assert run(capsys, "analyze", pair64_file) == fresh
    assert run(capsys, "classify", pair64_file) == (0, "Generic\n", "")
    code, out, _ = run(capsys, "sample", "--family", "mds", "--count", "3", "--seed", "0")
    assert code == 0 and json.loads(out)["total"] == 3


def full_parse_main(argv) -> int:
    # main as it was before the subcommand dispatch: every request through the
    # top-level parser
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except QubitSepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR


SAMPLE = ["sample", "--family", "mds", "--count", "3", "--seed", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["-x"],
        ["bogus"],
        ["anal", "STATE"],
        ["--", "analyze", "STATE"],
        ["analyze", "STATE"],
        ["analyze"],
        ["analyze", "-h", "STATE"],
        ["analyze", "STATE", "-h"],
        ["analyze", "STATE", "extra"],
        ["analyze", "STATE", "--bogus"],
        ["analyze", "STATE", "--tol-p", "1e-6"],
        ["analyze", "STATE", "--format=text"],
        ["analyze", "--format", "text", "STATE"],
        ["analyze", "--", "STATE"],
        ["analyze", "STATE", "--tol-psd"],
        ["analyze", "STATE", "--tol-verdict", "-1"],
        ["analyze", "STATE", "--beta-limit", "1"],
        ["analyze", "MISSING"],
        ["analyze", "MALFORMED"],
        ["analyze", "NON_STATE"],
        ["classify", "STATE"],
        ["classify"],
        ["classify", "STATE", "STATE"],
        ["classify", "NON_STATE"],
        SAMPLE,
        ["sample"],
        ["sample", "--family", "bogus", "--count", "1", "--seed", "1"],
        [*SAMPLE, "--axis", "4"],
        [*SAMPLE, "extra"],
        [*SAMPLE, "--format", "text"],
    ],
)
def test_dispatch_behaves_like_the_full_parse(tmp_path, capsys, argv):
    files = {
        "STATE": write_state(tmp_path, GOLDEN_STATES["pair64"]),
        "MISSING": str(tmp_path / "missing.json"),
        "MALFORMED": write_state(tmp_path, {"a": [0, 0]}, name="malformed.json"),
        "NON_STATE": write_state(tmp_path, GOLDEN_STATES["non-psd"], name="non-state.json"),
    }
    argv = [files.get(arg, arg) for arg in argv]
    dispatched = run(capsys, *argv)
    code = full_parse_main(argv)
    captured = capsys.readouterr()
    assert dispatched == (code, captured.out, captured.err)


def test_a_well_formed_request_skips_the_top_level_parse(pair64_file, capsys, monkeypatch):
    requests = [["analyze", pair64_file], ["classify", pair64_file], SAMPLE]
    expected = [run(capsys, *argv) for argv in requests]

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    assert [run(capsys, *argv) for argv in requests] == expected
    assert [code for code, _, _ in expected] == [1, 0, 0]


def text_mode_open(path, mode, buffering=-1):
    # what load_state_file read before it read bytes: a text-mode read, handed
    # on as the UTF-8 bytes of its text
    assert mode == "rb"
    with open(path, encoding="utf-8") as handle:
        return io.BytesIO(handle.read().encode("utf-8"))


VALID_STATE = '{"a": [0, 0.64, 0],\n "b": [0, 0.64, 0],\n "t_diag": [0.3, 0.3, 0.3]}\n'
MALFORMED_STATE = '{"a": [0, 0, 0],\n "b": [0, 0, 0],\n "t_diag": [0, 0, 0,]}\n'


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(VALID_STATE.encode(), id="lf"),
        pytest.param(VALID_STATE.replace("\n", "\r\n").encode(), id="crlf"),
        pytest.param(VALID_STATE.replace("\n", "\r").encode(), id="cr"),
        pytest.param(
            VALID_STATE.replace("\n", "\r\n", 1).replace("\n ", "\r ").encode(), id="crlf-cr-lf"
        ),
        pytest.param(
            b'{"a": [0, 0, 0], "b": [0, 0, 0],\r\n "t_full": [0.1, 0, 0, 0, 0.2, 0, 0, 0, 0.3]}',
            id="t_full-crlf",
        ),
        pytest.param(MALFORMED_STATE.replace("\n", "\r\n").encode(), id="malformed-crlf"),
        pytest.param(MALFORMED_STATE.replace("\n", "\r").encode(), id="malformed-cr"),
        pytest.param(
            b'{"a": [0, 0, 0],\r\n "b": [0, 0, 0], "t_diag": [0, 0, 0], "n": "x\ry"}',
            id="cr-in-a-string",
        ),
        pytest.param(b"[0.1, 0.2]\r\n", id="not-an-object-crlf"),
        pytest.param(b"\r\n\r", id="newlines-only"),
        pytest.param(b"", id="empty"),
        pytest.param(b"\xef\xbb\xbf" + VALID_STATE.encode(), id="bom"),
        pytest.param(b"\xef\xbb\xbf" + VALID_STATE.replace("\n", "\r\n").encode(), id="bom-crlf"),
        pytest.param(VALID_STATE.replace("]}", '], "n": "\xe9"}').encode("latin-1"), id="latin-1"),
        pytest.param(VALID_STATE.encode("utf-16"), id="utf-16"),
        # an invalid byte at offset 9006, past a text-mode reader's 8192-byte chunk
        pytest.param(b'{"n": "' + b"x" * 8999 + b'\xff", "a": [0, 0, 0]}', id="bad-byte-at-9006"),
        pytest.param("DIRECTORY", id="directory"),
        pytest.param("MISSING", id="missing"),
    ],
)
def test_byte_read_equals_the_text_read(tmp_path, monkeypatch, content):
    path = tmp_path / "state.json"
    if content == "DIRECTORY":
        path.mkdir()
    elif content != "MISSING":
        path.write_bytes(content)

    def outcome():
        try:
            params = load_state_file(str(path))
        except cli.StateFileError as exc:
            return str(exc)
        return r_from_hs(params).tobytes()

    got = outcome()
    monkeypatch.setattr(cli, "open", text_mode_open, raising=False)
    assert got == outcome()


def test_analyze_text_format_same_values(pair64_file, capsys):
    _, out_json, _ = run(capsys, "analyze", pair64_file, "--format", "json")
    _, out_text, _ = run(capsys, "analyze", pair64_file, "--format", "text")
    doc = json.loads(out_json)
    for line in out_text.strip().splitlines():
        key, _, value = line.partition(": ")
        assert json.loads(value) == doc[key]


def test_classify_command(tmp_path, capsys):
    path = write_state(tmp_path, {"a": [1, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]})
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert out.startswith("NonGenericA:")

    path = write_state(
        tmp_path,
        {"a": [0.5, 0, 0], "b": [0.5, 0, 0], "t_diag": [0, 0, 0]},
        name="c.json",
    )
    code, out, _ = run(capsys, "classify", path)
    assert out.startswith("NonGenericC")

    path = write_state(
        tmp_path,
        {"a": [0.1, 0.15, 0], "b": [0.1, 0.15, 0], "t_diag": [0.3, -0.2, 0.4]},
        name="g.json",
    )
    code, out, _ = run(capsys, "classify", path)
    assert out.strip() == "Generic"


def test_sample_command_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "sample", "--family", "mds", "--count", "100", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "sample", "--family", "mds", "--count", "100", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["disagree_count"] == 0
    assert doc["rng_algorithm"] == "pcg64"


def test_sample_command_every_family(capsys):
    for family in FAMILIES:
        code, out, _ = run(capsys, "sample", "--family", family, "--count", "300", "--seed", "1")
        assert code == 0, family
        assert json.loads(out)["disagree_count"] == 0, family


def test_sample_usage_errors(capsys):
    code, _, err = run(
        capsys, "sample", "--family", "mds", "--count", "0", "--seed", "1"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "sample", "--family", "bogus", "--count", "1", "--seed", "1"
    )
    assert code == 2


def test_sample_negative_seed_is_a_usage_error(capsys):
    # exit 1 would mean "disagreement"; a bad seed is a usage error
    code, out, err = run(
        capsys, "sample", "--family", "mds", "--count", "1", "--seed", "-1"
    )
    assert code == 2
    assert out == ""
    assert "seed" in err and "-1" in err


# The states of test_cli_outputs_pinned: the five reference states, the
# structural cases a), c) and d), one state per branch edge of the normal-form
# solve (a non-symmetric multi-pair state, exact ties, whose tied axes share
# one pole of the secular equation, an inactive axis whose |a_i| is not the
# smallest), one symmetric and one non-symmetric full t, and a non-state.
GOLDEN_STATES = {
    "pair64": {"a": [0, 0.64, 0], "b": [0, 0.64, 0], "t_diag": [0.3, 0.3, 0.3]},
    "one-sided": {"a": [0.2, 0, 0], "b": [0, 0, 0], "t_diag": [0.3, 0.3, 0.3]},
    "cubic": {"a": [0.1, 0.15, 0], "b": [0.1, 0.15, 0], "t_diag": [0.3, -0.2, 0.4]},
    "quartic": {
        "a": [0.1, 0.15, 0.2],
        "b": [0.1, 0.15, 0.2],
        "t_diag": [0.3, -0.2, 0.2],
    },
    "werner": {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [-0.5, -0.5, -0.5]},
    "case-a": {"a": [1, 0, 0], "b": [0, 0, 0], "t_diag": [0, 0, 0]},
    "case-c": {"a": [0.5, 0, 0], "b": [0.5, 0, 0], "t_diag": [0, 0.4, 0.4]},
    "case-d": {"a": [1, 0, 0], "b": [1, 0, 0], "t_diag": [1, 0, 0]},
    "non-symmetric-multi-pair": {
        "a": [0.2, 0.1, 0],
        "b": [0.1, 0.2, 0],
        "t_diag": [0.3, 0.1, 0.2],
    },
    "cubic-t2-equals-t1": {
        "a": [0.2, 0.1, 0],
        "b": [0.2, 0.1, 0],
        "t_diag": [0.3, 0.3, 0.1],
    },
    "quartic-tie": {
        "a": [0.1, 0.15, 0.2],
        "b": [0.1, 0.15, 0.2],
        "t_diag": [0.3, -0.2, -0.2],
    },
    "inactive-axis-order": {
        "a": [0.3, 5e-13, 0.2],
        "b": [0.3, 5e-13, 0.2],
        "t_diag": [0.1, -0.2, 0.3],
    },
    "t-full-symmetric": {
        "a": [0.2, 0.1, 0],
        "b": [0.2, 0.1, 0],
        "t_full": [0.3, 0.1, 0, 0.1, -0.2, 0.05, 0, 0.05, 0.1],
    },
    "t-full-product": {
        "a": [0.6, 0, 0],
        "b": [0, 0.6, 0],
        "t_full": [0, 0.36, 0, 0, 0, 0, 0, 0, 0],
    },
    "non-psd": {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [1, 1, 1]},
}

GOLDEN_COMMANDS = (
    ("analyze",),
    ("analyze", "--format", "text"),
    ("analyze", "--beta-limit", "0.5"),
    ("analyze", "--tol-verdict", "1e-6"),
    ("classify",),
)

# sha256 over the exit code and stdout of every GOLDEN_COMMANDS run on the
# state, in order, with the state file's directory stripped.  Any change to
# a report, a label, a detail string or an exit code shows here.  The three
# single-pair states were re-pinned when the pair solve became the closed form
# by rapidities: velocities, sigma and residuals moved by rounding only.  The
# six symmetric-boost states (cubic, quartic, cubic-t2-equals-t1, quartic-tie,
# inactive-axis-order, t-full-symmetric) were re-pinned when residuals.polynomial
# became |g(mu)| instead of |P(mu)|: no other line of their output moved.
PINNED_CLI_OUTPUTS = {
    "pair64": "d2dfed15009df18b24abf48cc002c904a6b9e3e60f571ce77182457e84a0eb90",
    "one-sided": "fca7719cdc54b79d47eb275b2720be7e6abda83904036ad287a20e5aa413de72",
    "cubic": "be3a1734dd58c0dd3ba0da630dc0841302e7515be931d3c4806cbdc16260bb87",
    "quartic": "20229f91b389f693c8a631a48117771a0ea225ce52e2521d44c97b33388e0d7f",
    "werner": "091406044569aa586c1e31e7a2c6d447440fc17c3ad8ae885a9749c5eaa33935",
    "case-a": "ca331174140e4054d8745bd7d918fe09bd950e087cd00d68059152086259f3a4",
    "case-c": "88edbf0f7fee757093a139c92330a1440cb81cfc4c8231766acb7cac5289bb92",
    "case-d": "b76d7cd557df1cace0ff75766027bcc0ed0a848ed42d0f06383cbe5e4230ccb6",
    "non-symmetric-multi-pair": "34bed36b25704611d541a3ce6062bf396dc7577008a2c5ca141f47fdf70fcb22",
    "cubic-t2-equals-t1": "b2d74f125e3d1e3966b949fc749f53f55c058453f24b2079940f29d0f89cb2e6",
    "quartic-tie": "ae713a71d0c159442c2717b1f7c3a85a7f029a9a945e857dcbe3ecb7a1b95705",
    "inactive-axis-order": "7314c6ac929beac7db8ad4a48309b5f6623e07020aa379c86ad376530d3ab1ce",
    "t-full-symmetric": "73f04d24ac1c6a4d811f22b151a2d05870590d33a7afa4ee0c37ce2fc83d497d",
    "t-full-product": "f9fc9060e9a9bcfc99636a680bca1681a967a0850bd2543b35646e754d584c86",
    "non-psd": "6686e59edc1b9a813828ff7fb843b2614bb26d413313fd9a6605cf53fdcc84d0",
}


def cli_outputs_digest(tmp_path, capsys, name) -> str:
    path = write_state(tmp_path, GOLDEN_STATES[name], name=f"{name}.json")
    digest = hashlib.sha256()
    for command, *options in GOLDEN_COMMANDS:
        code, out, _ = run(capsys, command, path, *options)
        digest.update(f"{code}\n{out.replace(str(tmp_path), '')}".encode())
    return digest.hexdigest()


def test_cli_outputs_pinned(tmp_path, capsys):
    assert set(GOLDEN_STATES) == set(PINNED_CLI_OUTPUTS)
    for name, expected in PINNED_CLI_OUTPUTS.items():
        assert cli_outputs_digest(tmp_path, capsys, name) == expected, name


def test_classify_prints_the_analyze_classification(tmp_path, capsys):
    for name, doc in GOLDEN_STATES.items():
        path = write_state(tmp_path, doc, name=f"{name}.json")
        code, out, err = run(capsys, "classify", path)
        if name == "non-psd":
            assert (code, out) == (2, "") and err.startswith("error: ")
            continue
        reported = json.loads(run(capsys, "analyze", path)[1])["classification"]
        label = reported["kind"] + (f": {reported['detail']}" if reported["detail"] else "")
        assert (code, out) == (0, label + "\n"), name


def test_non_state_error_line_is_the_same_for_both_commands(tmp_path, capsys):
    path = write_state(tmp_path, GOLDEN_STATES["non-psd"])
    errors = {run(capsys, command, path)[2] for command in ("analyze", "classify")}
    assert errors == {"error: input is not positive semidefinite; not a state\n"}


class Subfloat(float):
    """A float subclass whose repr is not float's; json writes float.__repr__."""

    def __repr__(self):
        return "Subfloat()"


JSON_EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, np.float64(0.1),
    np.float64(-math.inf), 7, -(2**70), True, False, None,
    "caf\u00e9 \"q\"\n, ", {"\u00e9\n\"": 1.5, ", ": "\u2603"}, [], {}, [[], {}],
    [[0.3, -0.2], [0.1, [0.05, None]]], [0.5, True, None, "s", 2, math.nan],
    {"a": {"b": {"c": [1.5, {}], "d": ()}}}, (1.0, (2.0, "t")),
    {1: 2.0, "x": [{2.5: True, None: [0.1]}]},
    # leaves inside containers, which the formatter writes inline or hands on
    [np.float64(0.1), np.float64(-0.0), Subfloat(0.25), True, False, -0.0, 5e-324],
    {"f": np.float64(2.5), "g": Subfloat(-1e-300), "n": math.nan, "i": math.inf},
    {"j": -math.inf, "t": True, "u": False, "v": None, "w": "\u00e9"},
]


def test_json_formatter_is_json_dumps_indent_2():
    for value in JSON_EDGE_VALUES:
        assert cli._indent2(value) == json.dumps(value, indent=2), value


def test_json_reports_are_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    reports = []  # the report objects that _emit formats
    formatter = cli._indent2

    def record(value, newline="\n"):
        if newline == "\n":
            reports.append(value)
        return formatter(value, newline)

    monkeypatch.setattr(cli, "_indent2", record)
    runs = [
        ("analyze", write_state(tmp_path, doc, name=f"{name}.json"))
        for name, doc in GOLDEN_STATES.items()
    ]
    runs.append(("sample", "--family", "single-pair", "--count", "20", "--seed", "3"))
    for argv in runs:
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(reports[-1], indent=2) + "\n", argv
    assert len(reports) == len(runs)


def test_analyze_leaves_no_reference_cycles(pair64_file, capsys):
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            assert main(["analyze", pair64_file]) == 1
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert capsys.readouterr().out.count('"psd": true') == 5
