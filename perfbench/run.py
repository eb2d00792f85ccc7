#!/usr/bin/env python3
"""qubitsep benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload crossval-corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ./src (no
install needed) in this single process, with BLAS/OpenMP pinned to one
thread.  With --trace 0 the end-to-end metrics are measured, with timings
normalized to the machine's uncontended speed (see reference.py); with
--trace 1 the calls into each qubitsep module are traced and the per-layer
metrics are reported instead.  Either way the outputs are checked (numpy oracle,
Lorentz/PPT agreement, replay through the CLI, digest of the states and
verdicts) and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The result, with the environment it ran in, is also written to
.perfbench_out/, together with the spans of a traced run.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
# p99 is taken per block of this many operations (ten beyond the
# percentile in each) and the median over blocks reported.
P99_BLOCK = 1000


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package() -> float:
    """Import qubitsep from ./src; returns the import time in seconds."""
    if not (SRC / "qubitsep" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'qubitsep'} not found; run from a qubitsep checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qubitsep

    elapsed = time.perf_counter() - t0
    if Path(qubitsep.__file__).resolve().parent != SRC / "qubitsep":
        raise SystemExit(f"error: qubitsep imported from {qubitsep.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run_loop(workload, seconds: float, op, record: bool = True, speed=None):
    """Closed loop: run operations until `seconds` have passed and the prefix is done.

    Returns per-operation latencies (ns) and start times (s).  An operation
    that raises is recorded as failed and the loop goes on.  With a
    speedometer, the reference unit is timed after every INTERVAL_S of
    operation time.
    """
    from array import array

    from reference import INTERVAL_S

    latencies = array("q")
    starts = array("d")
    deadline = time.perf_counter() + seconds
    since_sample = INTERVAL_S
    i = 0
    reported = False
    while i < workload.prefix or time.perf_counter() < deadline:
        if speed is not None and since_sample >= INTERVAL_S:
            speed.sample()
            since_sample = 0.0
        start = time.perf_counter()
        t0 = time.perf_counter_ns()
        try:
            out = op(i)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            out = None
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        elapsed = time.perf_counter_ns() - t0
        latencies.append(elapsed)
        starts.append(start)
        since_sample += elapsed / 1e9
        if record:
            workload.record(i, out)
        i += 1
    return latencies, starts


def p99(ms):
    """Median over consecutive P99_BLOCK-operation blocks of each block's p99.

    With fewer than two blocks, the p99 of all operations.
    """
    import numpy as np

    blocks = len(ms) // P99_BLOCK
    if blocks < 2:
        return float(np.percentile(ms, 99))
    return float(np.median(np.percentile(np.reshape(ms[: blocks * P99_BLOCK], (blocks, -1)), 99, axis=1)))


def load_pinned() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def check_digest(cls, seed: int, digests: dict, workdir: Path) -> tuple[dict, list[str]]:
    """Compare the run's digests with the pinned ones.

    Seeds without a pinned entry are reported as unpinned, and the pinned
    reference seed is recomputed instead, so every run checks one digest.
    """
    table = load_pinned()
    pinned = table[cls.name]
    if str(seed) in pinned:
        expected, got, checked_seed = pinned[str(seed)], digests, seed
    else:
        ref = table["reference_seed"]
        expected, got, checked_seed = pinned[str(ref)], prefix_digests(cls, ref, workdir), ref
    status = {"seed": seed, **digests, "checked_seed": checked_seed, "match": got == expected}
    problems = [] if got == expected else [f"digest of seed {checked_seed} is {got}, pinned {expected}"]
    return status, problems


def prefix_digests(cls, seed: int, workdir: Path) -> dict:
    """Digests of the prefix of a workload at a seed, computed without timing."""
    workload = cls(seed, workdir)
    workload.setup()
    for i in range(workload.prefix):
        workload.record(i, workload.op(i))
    return workload.digests()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    import_s = import_package()
    sys.path.insert(0, str(BENCH))
    import numpy as np

    import tracing
    import workloads
    from qubitsep import cli, normal_form, pt, sampling
    from reference import Speedometer

    speed = Speedometer()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env", json.dumps(env))

    workdir = WORK / f"{cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up is import plus input generation and warm-up; the generation is
        # repeated and its median taken, since the import cannot be.
        setups = []
        setup_speed = Speedometer()
        for _ in range(SETUP_REPEATS):
            workload = cls(args.seed, workdir)
            setup_speed.burst()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            setup_speed.burst()
        raw_setup_s = import_s + statistics.median(setups)
        setup_s = raw_setup_s * setup_speed.burst_factor()

        metrics: dict[str, tuple[float, str]] = {}
        if args.trace:
            # untraced pass over the prefix, for the tracing overhead
            plain, _ = run_loop(workload, 0.0, workload.op, record=False)
            tracer = tracing.Tracer()
            modules = {"sampling": sampling, "pt": pt, "normal_form": normal_form, "cli": cli}
            with tracer.installed(modules):
                root = tracer.wrap(tracing.ROOT_SPAN, workload.op)

                def op(i):
                    tracer.state = i
                    return root(i)

                latencies, _ = run_loop(workload, args.seconds, op)
                tracer.state = -1
                failed, problems = workload.check()
            metrics.update(tracing.layer_metrics(tracer, workload.prefix, workload.states_per_op))
            plain_s = sum(plain) / 1e9
            traced_s = tracing.prefix_seconds(tracer, workload.prefix)
            metrics["trace.overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
        else:
            latencies, starts = run_loop(workload, args.seconds, workload.op, speed=speed)
            # before the checks, whose memory is the benchmark's own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed, problems = workload.check()
            # per state: an operation's latency shared among its states
            raw_ms = np.asarray(latencies, dtype=float) / 1e6 / workload.states_per_op
            factors = speed.factors(np.asarray(starts))
            ms = raw_ms * factors
            speed_now = float(np.median(factors))
            metrics["states_per_s"] = (len(ms) / ms.sum() * 1e3, "1/s")
            metrics["state_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
            metrics["state_ms_p99"] = (p99(ms), "ms")
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

        digest, found = check_digest(cls, args.seed, workload.digests(), workdir)
        problems.extend(found)
        attempted = len(latencies)
        n_failed = failed
        correct = n_failed == 0 and not problems

        print(f"workload {cls.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("digest", json.dumps(digest))
        for problem in problems:
            print("problem", problem)
        summary = {
            "states": attempted,
            "error_ratio": n_failed / attempted,
            "raw_setup_s": raw_setup_s,
        }
        if not args.trace:
            summary.update(
                machine_speed=speed_now,
                raw_states_per_s=len(raw_ms) / raw_ms.sum() * 1e3,
                raw_state_ms_p50=float(np.percentile(raw_ms, 50)),
                raw_state_ms_p99=p99(raw_ms),
            )
        if cls.name == "analyze-files" and not args.trace:
            # one request analyzes one state file
            summary.update(
                requests_per_s=metrics["states_per_s"][0],
                request_ms_p50=metrics["state_ms_p50"][0],
                request_ms_p99=metrics["state_ms_p99"][0],
            )
        print("summary", json.dumps(summary))
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{cls.name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(
            json.dumps({"env": env, "digest": digest, "problems": problems, **summary, **result}, indent=1)
        )
        if args.trace:
            tracer.save(OUT / f"{cls.name}-spans.npz")
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
