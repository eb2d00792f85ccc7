#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about 15 seconds.

    python3 perfbench/selftest.py

* Every workload runs with --seconds 0 (its fixed prefix only) in both
  trace modes, reports correct, and prints every metric that
  BENCHMARK.json names, with its unit.
* Two traced runs at one seed give identical counts, shares and residuals.
* The oracle flags a deliberately corrupted verdict, and only that one.
* Without src/qubitsep, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run

SEED = 1
EXACT_UNITS = ("count", "ratio", "1")


def bench(workload: str, trace: int, cwd=run.ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result: dict, expected: list[dict]) -> list[str]:
    got = result["metrics"]
    problems = [f"missing {m['name']}" for m in expected if m["name"] not in got]
    problems += [
        f"{m['name']}: unit {got[m['name']]['unit']}, expected {m['unit']}"
        for m in expected
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]
    ]
    names = {m["name"] for m in expected}
    problems += [f"unexpected metric {name}" for name in got if name not in names]
    return problems


def check_workloads(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = bench(workload, trace)
            if code != 0 or result is None:
                problems.append(f"{workload} trace {trace}: exit {code}\n{out[-2000:]}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: not correct\n{out[-2000:]}")
            problems += [f"{workload} trace {trace}: {p}" for p in check_metrics(result, spec[key])]
            if trace:
                _, again, _ = bench(workload, 1)
                for m in spec["per_layer"]:
                    if m["unit"] in EXACT_UNITS:
                        first = result["metrics"][m["name"]]["value"]
                        second = again["metrics"][m["name"]]["value"]
                        if first != second:
                            problems.append(f"{workload}: {m['name']} was {first}, then {second}")
        print(f"{workload}: checked", flush=True)
    return problems


def check_oracle() -> list[str]:
    run.import_package()
    import inputs
    import oracle
    from workloads import hs_params, sampling

    rows, _ = inputs.corpus(SEED, 64)
    entangled = np.array(
        [sampling.cross_validate(hs_params(row)).ppt.kind == "entangled" for row in rows]
    )
    problems = []
    if oracle.mismatches(rows, entangled).size:
        problems.append("oracle rejects the program's correct verdicts")
    _, pt_min = oracle.witnesses(rows)
    target = int(np.flatnonzero(np.abs(pt_min) >= 1e-3)[0])
    corrupted = entangled.copy()
    corrupted[target] = not corrupted[target]
    flagged = oracle.mismatches(rows, corrupted).tolist()
    if flagged != [target]:
        problems.append(f"corrupted verdict {target}: oracle flagged {flagged}")
    return problems


def check_bare_directory() -> list[str]:
    """run.py must fail, without a result, next to nothing but its own files."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("crossval-corpus", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_oracle() + check_bare_directory() + check_workloads(spec)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
