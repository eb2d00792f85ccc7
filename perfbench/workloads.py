"""The benchmark workloads: one operation each, its inputs and its checks.

Every workload is a closed loop with one caller: operation i runs only after
operation i - 1 has returned.  An operation handles `states_per_op` states.
Operations 0..prefix-1 are a fixed, seed-determined set that every run
completes; the digest and the exact per-layer counts are taken over them.

* sample-mix: rounds of `batch_stats` calls, one per family, so that every
  family has the same count at any point.  Rejection sampling dominates;
  batched sampling would show here and nowhere else.
* crossval-corpus: `cross_validate` over a corpus generated during set-up
  (see `inputs`); the sampler does no timed work.  Eigensolves, rotations and
  the closed-form solves dominate.
* analyze-files: `qubitsep.cli.main(["analyze", path])` on JSON state files,
  half t_diag and half t_full, with stdout captured.  Per-request costs
  (argument parsing, JSON in and out, four eigensolves) dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import oracle
from qubitsep import cli, sampling
from qubitsep.hs import HSParams
from qubitsep.pt import ENTANGLED
from qubitsep.sampling import FAMILIES, SampleSpec

def _row(params: HSParams) -> list[float]:
    return [*params.a, *params.b, *params.t.ravel()]


def hs_params(row) -> HSParams:
    return HSParams(row[0:3], row[3:6], np.reshape(row[6:], (3, 3)))


def write_state(path: Path, row, as_diag: bool) -> None:
    doc = {"a": [float(x) for x in row[0:3]], "b": [float(x) for x in row[3:6]]}
    t = np.reshape(row[6:], (3, 3))
    if as_diag:
        doc["t_diag"] = [float(x) for x in np.diag(t)]
    else:
        doc["t_full"] = [float(x) for x in t.ravel()]
    path.write_text(json.dumps(doc), encoding="utf-8")


def analyze(path) -> tuple[int, str]:
    """One `qubitsep analyze` request in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", str(path)])
    return code, out.getvalue()


def report_problems(code: int, text: str, entangled: bool, witness: float) -> list[str]:
    """What is wrong with an analyze report, given the oracle's verdict."""
    try:
        report = json.loads(text)
        ppt = report["ppt_verdict"]["kind"] == ENTANGLED
        generic = report["classification"]["kind"] == "Generic"
        lorentz = report["lorentz_verdict"]["kind"] == ENTANGLED if generic else None
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc!r}), exit code {code}"]
    problems = []
    off_boundary = abs(witness) >= oracle.BOUNDARY
    if off_boundary and ppt != entangled:
        problems.append("PPT verdict contradicts the oracle")
    if not generic:
        expected = cli.EXIT_NON_GENERIC
    else:
        expected = cli.EXIT_ENTANGLED if ppt else cli.EXIT_SEPARABLE
        if off_boundary and lorentz != ppt:
            problems.append("Lorentz and PPT verdicts disagree")
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
    return problems


def replay(seed: int, workdir: Path) -> tuple[np.ndarray, list[str]]:
    """Replay sample (seed, 0) of every family through `qubitsep analyze`.

    The sampled state is written as a t_full state file; the CLI's report
    must agree with `cross_validate` on the same state and with the oracle.
    Returns the sampled rows and the problems found.
    """
    rows = []
    problems = []
    for family in FAMILIES:
        params = sampling.random_state(SampleSpec(family, 1, seed), 0)
        row = _row(params)
        rows.append(row)
        cv = sampling.cross_validate(params)
        path = workdir / f"replay-{family}.json"
        write_state(path, row, as_diag=False)
        code, text = analyze(path)
        _, pt_min = oracle.witnesses(np.array([row]))
        found = report_problems(code, text, cv.ppt.kind == ENTANGLED, float(pt_min[0]))
        if not found and json.loads(text)["ppt_verdict"]["witness"] != cv.ppt.witness:
            found.append("CLI and cross_validate report different PPT witnesses")
        problems.extend(f"replay {family}: {p}" for p in found)
    return np.array(rows), problems


class SampleMix:
    """One round of `batch_stats` calls, BATCH states for each of the six families.

    Round i runs at a seed made from the run seed and i, so no state repeats.
    A round, not a single call, is one operation: per-state latencies differ
    about forty-fold between families, and a mix of single calls would put
    the median in the gap between two families.  `batch_stats` returns only
    counts, so every report is checked for `disagree_count == 0` and for
    totals that add up, and the prefix rounds and every CHECK_EVERY-th round
    are recomputed state by state (untimed): the per-state results must
    reproduce the report, and the oracle must confirm each PPT verdict.
    """

    name = "sample-mix"
    BATCH = 2
    PREFIX = 4
    CHECK_EVERY = 8
    WARM_SEED = 20170712

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.states_per_op = self.BATCH * len(FAMILIES)
        self.prefix = self.PREFIX
        self.kept: dict[int, list] = {}  # reports of each re-checked round
        self.failed_ops: set[int] = set()
        self.disagree = [0] * len(FAMILIES)
        self._states: dict[tuple[int, int], tuple[list, list]] = {}

    def specs(self, i: int) -> list[SampleSpec]:
        return [SampleSpec(family, self.BATCH, (self.seed << 20) + i) for family in FAMILIES]

    def setup(self) -> None:
        """Nothing to generate; warm up on a fixed seed so set-up work is constant."""
        for family in FAMILIES:
            sampling.batch_stats(SampleSpec(family, 1, self.WARM_SEED))

    def op(self, i: int):
        return [sampling.batch_stats(spec) for spec in self.specs(i)]

    def record(self, i: int, reports) -> None:
        if reports is None:
            self.failed_ops.add(i)
            return
        for k, report in enumerate(reports):
            self.disagree[k] += report.disagree_count
            consistent = (
                report.total == self.BATCH
                and report.generic_count + report.nongeneric_count == self.BATCH
                and report.agree_count + report.disagree_count == report.generic_count
            )
            if report.disagree_count or not consistent:
                self.failed_ops.add(i)
        if i < self.prefix or i % self.CHECK_EVERY == 0:
            self.kept[i] = reports

    def states(self, i: int, k: int) -> tuple[list, list]:
        """Rows and per-state cross-validations of family k in round i, recomputed untimed."""
        if (i, k) not in self._states:
            spec = self.specs(i)[k]
            params = [sampling.random_state(spec, j) for j in range(self.BATCH)]
            cvs = [sampling.cross_validate(p) for p in params]
            self._states[i, k] = ([_row(p) for p in params], cvs)
        return self._states[i, k]

    def digests(self) -> dict:
        rows, verdicts = [], []
        for i in range(self.prefix):
            for k in range(len(FAMILIES)):
                batch_rows, cvs = self.states(i, k)
                rows += batch_rows
                verdicts += [cv.ppt.kind == ENTANGLED for cv in cvs]
        return {"states": oracle.digest(np.array(rows)), "verdicts": oracle.verdict_digest(verdicts)}

    def check(self) -> tuple[int, list[str]]:
        """Failed operations, and problems that are not per operation."""
        problems = [
            f"{name}: disagree_count = {count}"
            for name, count in zip(FAMILIES, self.disagree)
            if count
        ]
        for i, reports in sorted(self.kept.items()):
            for k, report in enumerate(reports):
                found = self._recheck(i, k, report)
                if found:
                    self.failed_ops.add(i)
                    if len(problems) < 5:
                        problems.append(f"round {i}, {FAMILIES[k]}: {'; '.join(found)}")
                if i >= self.prefix:
                    del self._states[i, k]
        replayed, found = replay(self.specs(0)[0].seed, self.workdir)
        problems.extend(found)
        first = np.array([self.states(0, k)[0][0] for k in range(len(FAMILIES))])
        if oracle.digest(replayed) != oracle.digest(first):
            problems.append("replayed samples differ from the first state of each round-0 batch")
        return len(self.failed_ops), problems

    def _recheck(self, i: int, k: int, report) -> list[str]:
        """A report against its states, cross-validated one by one."""
        rows, cvs = self.states(i, k)
        entangled = [cv.ppt.kind == ENTANGLED for cv in cvs]
        problems = []
        if oracle.mismatches(np.array(rows), entangled).size:
            problems.append("a PPT verdict contradicts the oracle")
        generic = [cv for cv in cvs if cv.classification.is_generic]
        residuals = [cv.report.offdiag_residual for cv in generic]
        expected = {
            "generic_count": len(generic),
            "disagree_count": sum(cv.agree is False for cv in generic),
            "boundary_count": sum(cv.agree is None for cv in generic),
            "mean_offdiag_residual": float(np.mean(residuals)) if residuals else 0.0,
            "max_offdiag_residual": max(residuals, default=0.0),
        }
        for key, value in expected.items():
            if getattr(report, key) != value:
                problems.append(f"{key} = {getattr(report, key)}, per-state loop gives {value}")
        return problems


class CrossvalCorpus:
    name = "crossval-corpus"
    SIZE = 1024
    WARM = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.states_per_op = 1
        self.prefix = self.SIZE
        self.first: list = []
        self.repeats = 0
        self.changed = 0

    def setup(self) -> None:
        self.rows, self.kinds = inputs.corpus(self.seed, self.SIZE)
        self.states = [hs_params(row) for row in self.rows]
        for params in self.states[: self.WARM]:
            sampling.cross_validate(params)

    def op(self, i: int):
        return sampling.cross_validate(self.states[i % self.SIZE])

    def record(self, i: int, cv) -> None:
        outcome = None if cv is None else (cv.ppt.kind, cv.agree, cv.classification.kind)
        if i < self.SIZE:
            self.first.append(outcome)
        else:
            self.repeats += 1
            self.changed += outcome != self.first[i % self.SIZE]

    def digests(self) -> dict:
        return {
            "states": oracle.digest(self.rows),
            "verdicts": oracle.verdict_digest(o is not None and o[0] == ENTANGLED for o in self.first),
        }

    def check(self) -> tuple[int, list[str]]:
        n = len(self.first) + self.repeats
        bad = np.array([o is None or o[1] is False for o in self.first])
        entangled = np.array([o is not None and o[0] == ENTANGLED for o in self.first])
        bad[oracle.mismatches(self.rows, entangled)] = True
        # an operation fails when its corpus entry failed on the first pass
        failed = int(bad[np.arange(n) % self.SIZE].sum())
        problems = [
            f"{kind}: {count} corpus states raised, disagreed or contradict the oracle"
            for kind, count in sorted(Counter(np.array(self.kinds)[bad]).items())
        ]
        if self.changed:
            problems.append(f"{self.changed} repeated states gave a different result")
        _, found = replay(self.seed, self.workdir)
        problems.extend(found)
        return failed, problems


class AnalyzeFiles:
    name = "analyze-files"
    SIZE = 256
    WARM = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.states_per_op = 1
        self.prefix = self.SIZE
        self.first: list[tuple[int, str] | None] = []
        self.repeats = 0
        self.changed = 0

    def setup(self) -> None:
        self.rows, self.kinds, self.as_diag = inputs.file_corpus(self.seed, self.SIZE)
        self.paths = []
        for i, row in enumerate(self.rows):
            path = self.workdir / f"state-{i:04d}.json"
            write_state(path, row, bool(self.as_diag[i]))
            self.paths.append(path)
        for path in self.paths[: self.WARM]:
            analyze(path)

    def op(self, i: int):
        return analyze(self.paths[i % self.SIZE])

    def record(self, i: int, out) -> None:
        if i < self.SIZE:
            self.first.append(out)
        else:
            self.repeats += 1
            self.changed += out != self.first[i % self.SIZE]

    def _verdicts(self) -> list[bool]:
        kinds = []
        for out in self.first:
            try:
                kinds.append(json.loads(out[1])["ppt_verdict"]["kind"] == ENTANGLED)
            except (TypeError, ValueError, KeyError):
                kinds.append(False)
        return kinds

    def digests(self) -> dict:
        formats = np.asarray(self.as_diag, dtype=float)[:, None]
        return {
            "states": oracle.digest(np.hstack([self.rows, formats])),
            "verdicts": oracle.verdict_digest(self._verdicts()),
        }

    def check(self) -> tuple[int, list[str]]:
        n = len(self.first) + self.repeats
        rho_min, pt_min = oracle.witnesses(self.rows)
        bad = np.zeros(self.SIZE, dtype=bool)
        problems = []
        for j, out in enumerate(self.first):
            if out is None:
                bad[j] = True
                continue
            found = report_problems(out[0], out[1], bool(pt_min[j] < 0.0), float(pt_min[j]))
            if rho_min[j] < -oracle.PSD_SLACK:
                found.append("state file is not a valid state")
            if found:
                bad[j] = True
                if len(problems) < 5:
                    problems.append(f"state-{j:04d}.json ({self.kinds[j]}): {'; '.join(found)}")
        failed = int(bad[np.arange(n) % self.SIZE].sum())
        if self.changed:
            problems.append(f"{self.changed} repeated requests gave a different report")
        _, found = replay(self.seed, self.workdir)
        problems.extend(found)
        return failed, problems


WORKLOADS = {w.name: w for w in (SampleMix, CrossvalCorpus, AnalyzeFiles)}
