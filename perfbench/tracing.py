"""Spans around the calls into each qubitsep module, recorded from outside.

The tracer replaces, in this process only, the names each module imports
(`sampling.rho_from_hs`, `pt.eigenvalues_hermitian`, `normal_form.real_roots`,
...) with wrappers that record one span per call: layer name, start, end,
parent span and the id of the benchmark state being processed.  Spans stay
in memory and are written out once, at the end of the run.  Nothing under
src/qubitsep changes.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

# (module, imported name, layer): a layer is named after the module that
# defines the function, whichever module's namespace the call goes through.
WRAPPED = (
    ("sampling", "random_state", "sampling.random_state"),
    ("sampling", "cross_validate", "sampling.cross_validate"),
    ("sampling", "rho_from_hs", "hs.rho_from_hs"),
    ("sampling", "eigenvalues_hermitian", "hs.eigenvalues_hermitian"),
    ("sampling", "tdiag_via_local_rotations", "hs.tdiag_reduce"),
    ("sampling", "tdiag_via_symmetric_rotation", "hs.tdiag_reduce"),
    ("sampling", "peres_horodecki", "pt.peres_horodecki"),
    ("sampling", "solve_normal_form", "normal_form.solve_normal_form"),
    ("sampling", "separability_verdict", "normal_form.separability_verdict"),
    ("pt", "eigenvalues_hermitian", "hs.eigenvalues_hermitian"),
    ("pt", "partial_transpose_matrix", "pt.partial_transpose_matrix"),
    ("normal_form", "r_from_hs", "rmatrix.r_from_hs"),
    ("normal_form", "real_roots", "roots.real_roots"),
    ("normal_form", "apply_two_sided", "boost.apply_two_sided"),
    ("normal_form", "eliminate_and_diagonalize", "normal_form.eliminate_and_diagonalize"),
    ("cli", "main", "cli.main"),
    ("cli", "load_state_file", "cli.load_state_file"),
    ("cli", "rho_from_hs", "hs.rho_from_hs"),
    ("cli", "eigenvalues_hermitian", "hs.eigenvalues_hermitian"),
    ("cli", "partial_transpose_matrix", "pt.partial_transpose_matrix"),
    ("cli", "peres_horodecki", "pt.peres_horodecki"),
    ("cli", "tdiag_via_local_rotations", "hs.tdiag_reduce"),
    ("cli", "tdiag_via_symmetric_rotation", "hs.tdiag_reduce"),
    ("cli", "solve_normal_form", "normal_form.solve_normal_form"),
    ("cli", "separability_verdict", "normal_form.separability_verdict"),
)

ROOT_SPAN = "bench.state"
SOLVE = "normal_form.solve_normal_form"
BRANCHES = ("zero", "pair", "cubic", "quartic", "none")


def solve_branch(report) -> tuple[int, float]:
    """Branch index of a SolveReport and its elimination residual.

    Non-generic outcomes (structural forms and no physical boost) are
    "none"; a symmetric boost is zero, cubic or quartic by how many of its
    velocity components are nonzero.
    """
    if not report.classification.is_generic:
        return BRANCHES.index("none"), float("nan")
    if report.boost_kind == "pair":
        branch = "pair"
    else:
        active = sum(1 for beta in report.betas if beta != 0.0)
        branch = {0: "zero", 2: "cubic", 3: "quartic"}[active]
    return BRANCHES.index(branch), report.offdiag_residual


class Tracer:
    """In-memory span recorder; `state` stamps every span opened after it is set."""

    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.state = -1
        # typed arrays keep a million spans in tens of megabytes
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.span_state = array("q")
        self.tag = array("b")
        self.value = array("d")
        self._open: list[int] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def wrap(self, layer: str, fn):
        layer_id = self._layer_id(layer)
        tagged = layer == SOLVE

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.span_state.append(self.state)
            self.tag.append(-1)
            self.value.append(float("nan"))
            self.start.append(0)
            self.end.append(0)
            self._open.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if tagged:
                self.tag[idx], self.value[idx] = solve_branch(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Swap the wrapped names into the given modules; restore them on exit."""
        saved = []
        try:
            for module, name, layer in WRAPPED:
                mod = modules[module]
                original = getattr(mod, name)
                saved.append((mod, name, original))
                setattr(mod, name, self.wrap(layer, original))
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)

    def arrays(self) -> dict:
        return {
            "layer": np.array(self.layer, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "state": np.array(self.span_state, dtype=np.int64),
            "tag": np.array(self.tag, dtype=np.int8),
            "value": np.array(self.value, dtype=float),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.array(self.layers), **self.arrays())


def layer_metrics(tracer: Tracer, prefix: int, states_per_op: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Counts, shares and residuals come from the spans of operations 0..prefix-1,
    a fixed seed-determined set that every run completes, so they repeat
    exactly.  Times per call come from every span of the run, the checks
    after the timed loop included.
    """
    s = tracer.arrays()
    layer_of = {name: i for i, name in enumerate(tracer.layers)}
    duration = (s["end_ns"] - s["start_ns"]).astype(float)
    child = np.zeros_like(duration)
    has_parent = s["parent"] >= 0
    np.add.at(child, s["parent"][has_parent], duration[has_parent])
    self_time = duration - child
    counted = (s["state"] >= 0) & (s["state"] < prefix)

    def spans(layer: str) -> np.ndarray:
        return s["layer"] == layer_of.get(layer, -1)

    def per_call(mask: np.ndarray, times: np.ndarray, scale: float) -> float:
        n = int(mask.sum())
        return float(times[mask].sum()) / n / scale if n else 0.0

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    states = int((spans(ROOT_SPAN) & counted).sum()) * states_per_op
    drawn = spans("sampling.random_state") & counted
    candidates = int((spans("hs.rho_from_hs") & counted & np.isin(
        s["parent"], np.flatnonzero(spans("sampling.random_state"))
    )).sum())
    eig_calls = int((spans("hs.eigenvalues_hermitian") & counted).sum())
    root_calls = int((spans("roots.real_roots") & counted).sum())
    solves = spans(SOLVE)
    counted_solves = solves & counted
    useful = counted_solves & (s["tag"] != BRANCHES.index("none"))
    residuals = s["value"][useful]

    us = 1e3
    m: dict[str, tuple[float, str]] = {
        "sampling.candidates_per_state": (ratio(candidates, int(drawn.sum())), "count"),
        "sampling.accept_ratio": (ratio(int(drawn.sum()), candidates), "ratio"),
        "sampling.random_state.self_ms": (
            per_call(spans("sampling.random_state"), self_time, 1e6),
            "ms",
        ),
        "hs.eigenvalues_hermitian.calls": (float(eig_calls), "count"),
        "hs.eigenvalues_hermitian.us_per_call": (
            per_call(spans("hs.eigenvalues_hermitian"), duration, us),
            "us",
        ),
        "hs.eigensolves_per_state": (ratio(eig_calls, states), "count"),
        "hs.rho_from_hs.us_per_call": (per_call(spans("hs.rho_from_hs"), duration, us), "us"),
        "hs.tdiag_reduce.us_per_call": (per_call(spans("hs.tdiag_reduce"), duration, us), "us"),
        "pt.peres_horodecki.self_us_per_call": (
            per_call(spans("pt.peres_horodecki"), self_time, us),
            "us",
        ),
        "pt.partial_transpose_matrix.us_per_call": (
            per_call(spans("pt.partial_transpose_matrix"), duration, us),
            "us",
        ),
    }
    for i, branch in enumerate(BRANCHES):
        m[f"normal_form.solve_normal_form.us_per_call.{branch}"] = (
            per_call(solves & (s["tag"] == i), duration, us),
            "us",
        )
    for i, branch in enumerate(BRANCHES):
        m[f"normal_form.branch_share.{branch}"] = (
            ratio(int((counted_solves & (s["tag"] == i)).sum()), int(counted_solves.sum())),
            "ratio",
        )
    m.update(
        {
            "normal_form.generic_ratio": (
                ratio(int(useful.sum()), int(counted_solves.sum())),
                "ratio",
            ),
            "normal_form.max_offdiag_residual": (
                float(residuals.max()) if residuals.size else 0.0,
                "1",
            ),
            "normal_form.eliminate_and_diagonalize.us_per_call": (
                per_call(spans("normal_form.eliminate_and_diagonalize"), duration, us),
                "us",
            ),
            "roots.real_roots.calls": (float(root_calls), "count"),
            "roots.real_roots.calls_per_state": (ratio(root_calls, states), "count"),
            "roots.real_roots.us_per_call": (
                per_call(spans("roots.real_roots"), duration, us),
                "us",
            ),
            "rmatrix.r_from_hs.us_per_call": (
                per_call(spans("rmatrix.r_from_hs"), duration, us),
                "us",
            ),
            "boost.apply_two_sided.us_per_call": (
                per_call(spans("boost.apply_two_sided"), duration, us),
                "us",
            ),
            "cli.load_state_file.us_per_call": (
                per_call(spans("cli.load_state_file"), duration, us),
                "us",
            ),
            "cli.main.self_us": (per_call(spans("cli.main"), self_time, us), "us"),
        }
    )
    return m


def prefix_seconds(tracer: Tracer, prefix: int) -> float:
    """Traced time spent on operations 0..prefix-1."""
    s = tracer.arrays()
    root = (s["layer"] == tracer.layers.index(ROOT_SPAN)) & (s["state"] >= 0) & (s["state"] < prefix)
    return float((s["end_ns"][root] - s["start_ns"][root]).sum()) / 1e9
