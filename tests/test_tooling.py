"""The benchmark's tracer wraps qubitsep functions by (module, name)."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
