"""`python -m qubitsep`, each subcommand, the `qubitsep` console script and
the worked-examples script, run as separate processes: PYTHONPATH=src, and a
RuntimeWarning (an overflow or invalid value) is an error."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the worked-examples script's stdout, byte for byte
WORKED_EXAMPLES = ROOT / "tests" / "golden" / "worked_examples.txt"


def _run(*args):
    env = dict(os.environ, PYTHONPATH="src", PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def _state_file(tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_module_analyze_entangled_state_prints_strict_json(tmp_path):
    path = _state_file(tmp_path, {"a": [0, 0.64, 0], "b": [0, 0.64, 0], "t_diag": [0.3, 0.3, 0.3]})
    proc = _run("-m", "qubitsep", "analyze", path)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["ppt_verdict"]["kind"] == "entangled"
    assert report["lorentz_verdict"]["kind"] == "entangled"


def test_module_analyze_rejects_a_non_state(tmp_path):
    path = _state_file(tmp_path, {"a": [0, 0, 0], "b": [0, 0, 0], "t_diag": [1, 1, 1]})
    proc = _run("-m", "qubitsep", "analyze", path)
    assert proc.returncode == 2
    assert proc.stderr == "error: input is not positive semidefinite; not a state\n"


def test_module_classify_prints_the_label(tmp_path):
    path = _state_file(tmp_path, {"a": [0.7, 0, 0], "b": [0.3, 0, 0], "t_diag": [0, 0, 0]})
    proc = _run("-m", "qubitsep", "classify", path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("NoPhysicalBoost: ") and proc.stdout.count("\n") == 1


def test_console_script_target_classifies_a_state(tmp_path):
    # the `qubitsep` entry of [project.scripts], called as the wrapper pip
    # installs calls it (read with a regex: Python 3.10 has no tomllib)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, function = re.search(r'^qubitsep\s*=\s*"([\w.]+):(\w+)"$', scripts, re.M).groups()
    wrapper = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'qubitsep'; sys.exit({function}())"
    )
    path = _state_file(tmp_path, {"a": [0, 0.64, 0], "b": [0, 0.64, 0], "t_diag": [0.3, 0.3, 0.3]})
    proc = _run("-c", wrapper, "classify", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Generic\n", "")


def test_module_sample_prints_strict_json():
    proc = _run("-m", "qubitsep", "sample", "--family", "symmetric-two", "--count", "5", "--seed", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert (report["total"], report["disagree_count"]) == (5, 0)
    assert proc.stdout == json.dumps(report, indent=2) + "\n"


def test_worked_examples_script_runs():
    proc = _run("scripts/reproduce_worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == WORKED_EXAMPLES.read_text(encoding="utf-8")
