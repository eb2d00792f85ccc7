import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qubitsep import HSParams, normal_form
from qubitsep.boost import _boost_general
from qubitsep.hs import SIGMA


@pytest.fixture
def pair64():
    """The Werner-like reference state: a2 = b2 = 0.64, t = diag(0.3, 0.3, 0.3).

    Its spectrum in 4*lambda units is {0.02, 0.1, 1.30, 2.58} and its partial
    transpose has a negative eigenvalue, so it is entangled although
    sum|t_i| = 0.9 <= 1.
    """
    return HSParams.diagonal([0, 0.64, 0], [0, 0.64, 0], [0.3, 0.3, 0.3])


@pytest.fixture
def one_sided02():
    """One-sided reference state: a1 = 0.2, b = 0, t = diag(0.3, 0.3, 0.3)."""
    return HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3])


@pytest.fixture
def cubic_state():
    """Symmetric two-pair state: a = b = (0.1, 0.15, 0), t = diag(0.3, -0.2, 0.4)."""
    a = [0.1, 0.15, 0.0]
    return HSParams.diagonal(a, a, [0.3, -0.2, 0.4])


@pytest.fixture
def quartic_state():
    """Symmetric three-pair state: a = b = (0.1, 0.15, 0.2), t = diag(0.3, -0.2, 0.2)."""
    a = [0.1, 0.15, 0.2]
    return HSParams.diagonal(a, a, [0.3, -0.2, 0.2])


def random_params(rng: np.random.Generator, scale: float = 1.0) -> HSParams:
    """Unconstrained Pauli coefficients; not necessarily a state."""
    return HSParams(
        rng.uniform(-scale, scale, 3),
        rng.uniform(-scale, scale, 3),
        rng.uniform(-scale, scale, (3, 3)),
    )


def symmetric_boost(v) -> np.ndarray:
    """The symmetric boost of a velocity 3-vector, built as the solve builds it:
    boost._boost_general on its floats and numpy's |v|^2."""
    v = np.asarray(v, dtype=float)
    return _boost_general(v.tolist(), float(v @ v))


def lorentz_of_filter(f: np.ndarray) -> np.ndarray:
    """Lambda(F)_mn = (1/2) Tr[sigma_m F sigma_n F^dagger] of a 2x2 filter F."""
    return 0.5 * np.einsum("mij,jk,nkl,li->mn", SIGMA, f, SIGMA, f.conj().T).real


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """A module of perfbench/, loaded from its file without importing the package."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_rows(monkeypatch, seed: int, n: int) -> np.ndarray:
    """Rows (a, b, t row-major) of perfbench's inputs.corpus(seed, n)."""
    # inputs imports oracle by its bare name; both load from the files read-only
    monkeypatch.setitem(sys.modules, "oracle", load_perfbench("oracle"))
    rows, _ = load_perfbench("inputs").corpus(seed, n)
    return rows


def file_corpus_docs(monkeypatch, seed: int, n: int) -> list[dict]:
    """The state files of perfbench's inputs.file_corpus(seed, n) as JSON
    documents: t_diag where the corpus writes one, else t_full (row-major)."""
    monkeypatch.setitem(sys.modules, "oracle", load_perfbench("oracle"))
    rows, _, as_diag = load_perfbench("inputs").file_corpus(seed, n)
    docs = []
    for row, diag in zip(rows.tolist(), as_diag.tolist()):
        t = {"t_diag": row[6::4]} if diag else {"t_full": row[6:]}
        docs.append({"a": row[0:3], "b": row[3:6], **t})
    return docs


def record_symmetric_solves(monkeypatch) -> list:
    """The arguments (a, tdiag, beta_limit) of every case b) solve from now on."""
    solves = []
    solve = normal_form._solve_symmetric

    def recording(a, tdiag, beta_limit):
        solves.append((a, tdiag, beta_limit))
        return solve(a, tdiag, beta_limit)

    monkeypatch.setattr(normal_form, "_solve_symmetric", recording)
    return solves
