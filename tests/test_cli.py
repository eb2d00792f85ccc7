import json

import numpy as np
import pytest

from qubitsep import cross_validate
from qubitsep.cli import load_state_file, main


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

    # analyze and cross_validate share one reduction and solve, bit for bit
    for path in (product, symmetric):
        _, out, _ = run(capsys, "analyze", path)
        doc = json.loads(out)
        rec = cross_validate(load_state_file(path)[0])
        assert doc["ppt_verdict"]["witness"] == rec.ppt.witness
        assert doc["betas"] == list(rec.report.betas)
        assert doc["sigma"] == {
            "s0": rec.report.sigma.s0,
            "s": list(rec.report.sigma.s),
        }


def test_analyze_json_round_trip(pair64_file, capsys):
    code, out, _ = run(capsys, "analyze", pair64_file)
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


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


def test_sample_command_single_pair(capsys):
    code, out, _ = run(
        capsys, "sample", "--family", "single-pair", "--count", "300", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["disagree_count"] == 0


def test_sample_usage_errors(capsys):
    code, _, err = run(
        capsys, "sample", "--family", "mds", "--count", "0", "--seed", "1"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "sample", "--family", "bogus", "--count", "1", "--seed", "1"
    )
    assert code == 2
