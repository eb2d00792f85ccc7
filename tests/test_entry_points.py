"""`python -m qubitsep` and the worked-examples script, run as separate
processes the way the CI workflow runs them: PYTHONPATH=src, and a
RuntimeWarning (an overflow or invalid value) is an error."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_worked_examples_script_runs():
    proc = _run("scripts/reproduce_worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    headers = [line for line in lines if line.startswith("=== ") and line.endswith(" ===")]
    assert len(headers) == 5
