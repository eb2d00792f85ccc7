"""The benchmark's tracer and the README's examples and tolerance table name
qubitsep's real API, and the CI workflow parses."""

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    missing = [
        f"qubitsep.{module}.{name}"
        for module, name, _ in _load_tracing().WRAPPED
        if not hasattr(importlib.import_module(f"qubitsep.{module}"), name)
    ]
    assert missing == []


def test_unused_imports_are_traced_names():
    # a name a module imports and never uses must be one the tracer wraps there
    wrapped = {(module, name) for module, name, _ in _load_tracing().WRAPPED}
    unused = set()
    for path in (ROOT / "src" / "qubitsep").glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused <= wrapped, sorted(unused - wrapped)


def _entry_points_block() -> str:
    section = (ROOT / "README.md").read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imported_names(source: str) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_readme_entry_points_import():
    exec(compile(_entry_points_block(), "README.md", "exec"), {})


def test_readme_entry_points_are_the_exported_functions():
    # the block lists every function qubitsep exports, and nothing it does not export
    package = importlib.import_module("qubitsep")
    exported = _imported_names((ROOT / "src" / "qubitsep" / "__init__.py").read_text())
    functions = {name for name in exported if inspect.isfunction(getattr(package, name))}
    listed = _imported_names(_entry_points_block())
    assert functions <= listed <= exported, (sorted(functions - listed), sorted(listed - exported))


# exported names that nothing outside the tests reads, each with its reason to stay
PUBLIC_FOR_TESTS_ONLY = {
    "ETA": "the paper's metric diag(1, -1, -1, -1); ROADMAP item 3's Lorentz SVD normalizes in it",
    "mds_criterion": "the MDS criterion of tests/test_acceptance.py calls it",
    "spectra": "both spectra of a matrix from outside, the documented core of peres_horodecki",
}


def _names_read(path: Path) -> set[str]:
    # the names a file imports by name or reads as an attribute
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_export_has_a_reader_outside_the_tests():
    # an exported name stays public only if another module of the package, a
    # script or perfbench reads it, the README's paper section names it, or an
    # exported function returns it; the allowlist is a ratchet: shorten it
    src = ROOT / "src" / "qubitsep"
    init = ast.parse((src / "__init__.py").read_text())
    exports = {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read_in = {path.stem: _names_read(path) for path in src.glob("*.py") if path.stem != "__init__"}
    outside = {name for _, name, _ in _load_tracing().WRAPPED}
    for folder in ("scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= _names_read(path)
    paper = (ROOT / "README.md").read_text().split("## Install and test", 1)[0]
    returned = {
        word
        for module in set(exports.values())
        for node in ast.parse((src / f"{module}.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in exports and node.returns
        for word in re.findall(r"\w+", ast.unparse(node.returns))
    }
    unread = {
        name
        for name, module in exports.items()
        if not any(name in names for stem, names in read_in.items() if stem != module)
        and name not in outside
        and not re.search(rf"\b{name}\b", paper)
        and name not in returned
    }
    assert unread == set(PUBLIC_FOR_TESTS_ONLY), sorted(unread ^ set(PUBLIC_FOR_TESTS_ONLY))


def test_readme_tolerance_table_matches_the_code():
    # every row names a constant of the stated module with the stated value,
    # and every module-level *_TOL, *_MARGIN and BETA_LIMIT has a row
    section = (ROOT / "README.md").read_text().split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `(\w+)` \|", section, re.M)
    wrong = [
        (name, value, module)
        for name, value, module in rows
        if getattr(importlib.import_module(f"qubitsep.{module}"), name, None) != float(value)
    ]
    assert wrong == []
    defined = set()
    for path in (ROOT / "src" / "qubitsep").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"\w+_(TOL|MARGIN)|BETA_LIMIT", target.id):
                    defined.add((target.id, path.stem))
    assert defined == {(name, module) for name, _, module in rows}


def test_sources_parse_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; CI runs a newer Python,
    # so syntax from after 3.10 would only fail for users on the floor
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (int(floor.group(1)), int(floor.group(2)))
    assert version == (3, 10)
    paths = [
        path
        for folder in ("src/qubitsep", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_no_module_calls_numpys_eigensolve_or_svd_wrapper():
    # every eigensolve and SVD goes through hs._eigvalsh, hs._eigh or hs._svd,
    # which call numpy's gufuncs; an attribute or an import named eigvalsh, eigh
    # or svd is a wrapper call
    calls = []
    for path in sorted((ROOT / "src" / "qubitsep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            calls += [
                (path.name, node.lineno, name) for name in names if name in ("eigvalsh", "eigh", "svd")
            ]
    assert calls == []


def test_workflow_run_blocks_parse_as_bash():
    # a broken CI edit shows here, without a CI run; YAML 1.1 loads "on" as True
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert workflow[True] == {"push": None, "pull_request": None}
    blocks = [step["run"] for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    assert len(blocks) >= 4
    for block in blocks:
        proc = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (block, proc.stderr)
