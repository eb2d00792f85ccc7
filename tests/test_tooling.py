"""The benchmark's tracer and the README's examples name qubitsep's real API."""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qubitsep.{module}.{name}"
        for module, name, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"qubitsep.{module}"), name)
    ]
    assert missing == []


def test_readme_entry_points_import():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
