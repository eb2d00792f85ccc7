"""A fixed unit of work that measures how fast the machine is running right now.

On a shared machine the speed of one core changes by 20-40% in phases that
last from seconds to minutes. Those phases come from co-tenants, not from
the program, and they set most of the run-to-run spread of raw timings.  The
benchmark therefore times this unit between operations and reports every
timing at one fixed nominal speed of the unit:

    normalized latency = raw latency * NOMINAL_MS / (median unit time in that second)

Set-up time is normalized the same way, by units timed in bursts around it.

Each sample runs the unit WARM_RUNS times untimed and then times TIMED_RUNS
more.  The untimed runs bring the unit's own code and data back into the
caches, so the timed runs measure the machine, not what the last operation
left behind: after 20 ms of cross-validation, of writing a 32 MB array or of
sleeping, the fourth and later runs of the unit take the same time to within
about 4%, while the first takes two to four times as long.

The unit resembles the program's work: a 4x4 density matrix assembled with
einsum, two dense eigensolves, a partial transpose, and a JSON and argparse
round trip of a small report.  It never calls qubitsep, and a change to the
program cannot change it.
"""

from __future__ import annotations

import argparse
import json
import time
from array import array

import numpy as np

from oracle import PAULI_KRON

# Typical duration of one warm unit on the machine the bounds were set on
# (shared 2-core VM, Python 3.11, numpy 2.4).  It only sets the scale of the
# normalized timings, so that they read close to raw ones there.
NOMINAL_MS = 0.15
# Untimed and timed runs of the unit in one sample.
WARM_RUNS = 3
TIMED_RUNS = 2
# Samples taken back to back before and after each set-up repeat.
BURST = 5
# Sample once per this much operation time (about 2% overhead).
INTERVAL_S = 0.05
# Timings are normalized per window of this length.
WINDOW_S = 1.0

_ROWS = np.random.default_rng(0).uniform(-0.3, 0.3, (64, 15))
_PARSER = argparse.ArgumentParser(add_help=False)
_PARSER.add_argument("state_file")
_PARSER.add_argument("--tol", type=float, default=1e-10)


def unit(j: int) -> float:
    row = _ROWS[j % len(_ROWS)]
    grid = np.empty((4, 4))
    grid[0, 0] = 1.0
    grid[1:, 0] = row[0:3]
    grid[0, 1:] = row[3:6]
    grid[1:, 1:] = row[6:].reshape(3, 3)
    rho = np.einsum("mn,mnij->ij", grid, PAULI_KRON) / 4.0
    low = np.linalg.eigvalsh(rho)[0]
    low += np.linalg.eigvalsh(rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4))[0]
    report = {"a": [float(x) for x in row[0:3]], "t": [[float(x) for x in row[6:9]]] * 3}
    json.loads(json.dumps(report, indent=2))
    _PARSER.parse_args(["state.json", "--tol", "1e-9"])
    return float(low.real)


class Speedometer:
    """Samples of the unit's duration, with the time each was taken."""

    def __init__(self):
        self.at = array("d")
        self.ms = array("d")
        self._n = 0

    def sample(self) -> None:
        for _ in range(WARM_RUNS):
            unit(self._n)
            self._n += 1
        t0 = time.perf_counter()
        for _ in range(TIMED_RUNS):
            unit(self._n)
            self._n += 1
        t1 = time.perf_counter()
        self.at.append(t0)
        self.ms.append((t1 - t0) * 1e3 / TIMED_RUNS)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def burst_factor(self) -> float:
        """NOMINAL_MS / median unit time over all samples."""
        return NOMINAL_MS / float(np.median(self.ms))

    def factors(self, op_start: np.ndarray) -> np.ndarray:
        """Per-operation factor: NOMINAL_MS / median unit time in the op's window."""
        at = np.asarray(self.at)
        ms = np.asarray(self.ms)
        origin = min(float(at.min()), float(op_start.min()))
        sample_win = ((at - origin) // WINDOW_S).astype(int)
        op_win = ((op_start - origin) // WINDOW_S).astype(int)
        median = np.full(int(max(sample_win.max(), op_win.max())) + 1, np.median(ms))
        for win in np.unique(sample_win):
            median[win] = np.median(ms[sample_win == win])
        return NOMINAL_MS / median[op_win]
