#!/usr/bin/env python3
"""Recompute the digests that run.py checks, for seeds 0-99.

    python3 perfbench/pin_digests.py

Run it only when a workload's inputs are meant to change; a digest that
moves otherwise means the sampled states or the verdicts changed.  Runs at
an unpinned seed check REFERENCE_SEED instead.
"""

import json
import os
import shutil
import sys

import run

SEEDS = range(100)
REFERENCE_SEED = 0


def main() -> int:
    run.import_package()
    import workloads

    table = {"reference_seed": REFERENCE_SEED}
    workdir = run.WORK / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            table[name] = {str(seed): run.prefix_digests(cls, seed, workdir) for seed in SEEDS}
            print(name, "done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
