"""Seeded corpora of valid two-qubit states, generated with numpy alone.

The corpus is built so that every route through cross-validation runs:

* diagonal-t states for each `solve_normal_form` branch: no linear terms
  (zero), one linear pair (pair), symmetric with two or three active pairs
  (cubic, quartic);
* the four structural light-speed forms a-d, which are non-generic;
* symmetric states with a full symmetric t, reduced by one shared rotation;
* Hilbert-Schmidt random states (general t, a != b), reduced by two local
  rotations and outside the closed-form families (no physical boost);
* states placed on purpose within 1e-9.5 .. 1e-5.5 of the PPT boundary, on
  the pair, quartic and Hilbert-Schmidt routes.

Rows are 15 Pauli coefficients (a, b, t row-major), as in `oracle`.
"""

from __future__ import annotations

import numpy as np

from oracle import coefficients, witnesses

# Share of each kind in a corpus; the kinds with a diagonal t come first.
MIX = (
    ("zero", 0.09),
    ("pair", 0.15),
    ("cubic", 0.15),
    ("quartic", 0.15),
    ("nongeneric", 0.05),
    ("near-pair", 0.06),
    ("near-quartic", 0.06),
    ("symmetric-full", 0.10),
    ("hilbert-schmidt", 0.14),
    ("near-hilbert-schmidt", 0.05),
)
DIAGONAL_KINDS = ("zero", "pair", "cubic", "quartic", "nongeneric", "near-pair", "near-quartic")

# Accepted states keep at least this margin of positivity, so that rounding
# in a float round trip can never make them invalid.
_MARGIN = 1e-9
_SALT = 0x5EB


def _rows(a, b, t) -> np.ndarray:
    n = a.shape[0]
    return np.hstack([a, b, t.reshape(n, 9)])


def _diag(tdiag: np.ndarray) -> np.ndarray:
    n = tdiag.shape[0]
    t = np.zeros((n, 3, 3))
    t[:, [0, 1, 2], [0, 1, 2]] = tdiag
    return t


def _signed(rng, m, lo, hi, shape=3) -> np.ndarray:
    return rng.uniform(lo, hi, (m, shape)) * rng.choice([-1.0, 1.0], (m, shape))


def _zero(rng, m):
    z = np.zeros((m, 3))
    return _rows(z, z, _diag(rng.uniform(-1.0, 1.0, (m, 3))))


def _pair(rng, m):
    a = np.zeros((m, 3))
    b = np.zeros((m, 3))
    k = rng.integers(3, size=m)
    a[np.arange(m), k] = _signed(rng, m, 0.05, 0.9, 1)[:, 0]
    b[np.arange(m), k] = _signed(rng, m, 0.05, 0.9, 1)[:, 0]
    return _rows(a, b, _diag(rng.uniform(-0.9, 0.9, (m, 3))))


def _cubic(rng, m):
    a = _signed(rng, m, 0.05, 0.9)
    a[np.arange(m), rng.integers(3, size=m)] = 0.0
    return _rows(a, a.copy(), _diag(rng.uniform(-0.9, 0.9, (m, 3))))


def _quartic(rng, m):
    a = _signed(rng, m, 0.05, 0.9)
    return _rows(a, a.copy(), _diag(rng.uniform(-0.9, 0.9, (m, 3))))


def _symmetric_full(rng, m):
    a = rng.uniform(-0.5, 0.5, (m, 3))
    s = rng.uniform(-0.6, 0.6, (m, 3, 3))
    return _rows(a, a.copy(), 0.5 * (s + s.transpose(0, 2, 1)))


def _hilbert_schmidt(rng, m):
    g = rng.normal(size=(m, 4, 4)) + 1j * rng.normal(size=(m, 4, 4))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return coefficients(rho)


def _nongeneric(rng, m):
    """The four normalized light-speed forms, on a random axis and sign."""
    a = np.zeros((m, 3))
    b = np.zeros((m, 3))
    tdiag = np.zeros((m, 3))
    k = rng.integers(3, size=m)
    sign = rng.choice([-1.0, 1.0], m)
    tau = rng.uniform(-0.5, 0.5, m)
    for row in range(m):
        kk, s = k[row], sign[row]
        form = row % 4
        if form == 0:  # a: qubit A pure, qubit B maximally mixed
            a[row, kk] = s
        elif form == 1:  # b: mirror image of a
            b[row, kk] = s
        elif form == 2:  # c: symmetric half-strength pair, t_k = 0, t_i = t_j
            a[row, kk] = b[row, kk] = 0.5 * s
            tdiag[row] = tau[row]
            tdiag[row, kk] = 0.0
        else:  # d: symmetric unit pair with unit axis correlation
            a[row, kk] = b[row, kk] = s
            tdiag[row, kk] = 1.0
    return _rows(a, b, _diag(tdiag))


def _near_boundary(base):
    """Mix entangled states with I/4 until the PPT witness is nearly zero.

    rho(p) = p rho + (1 - p) I/4 scales every coefficient by p, and its
    partial-transpose witness is (1 - p) + p w, so the target witness w_t is
    reached exactly at p = (1 - w_t) / (1 - w).
    """

    def draw(rng, m):
        rows = base(rng, m)
        _, w = witnesses(rows)
        rows = rows[w < -0.05]
        w = w[w < -0.05]
        target = rng.choice([-1.0, 1.0], len(rows)) * 10.0 ** rng.uniform(-9.5, -5.5, len(rows))
        return rows * ((1.0 - target) / (1.0 - w))[:, None]

    return draw


_DRAW = {
    "zero": _zero,
    "pair": _pair,
    "cubic": _cubic,
    "quartic": _quartic,
    "nongeneric": _nongeneric,
    "near-pair": _near_boundary(_pair),
    "near-quartic": _near_boundary(_quartic),
    "symmetric-full": _symmetric_full,
    "hilbert-schmidt": _hilbert_schmidt,
    "near-hilbert-schmidt": _near_boundary(_hilbert_schmidt),
}


def _valid(rng, kind: str, n: int) -> np.ndarray:
    """n states of one kind, by rejection against positivity."""
    draw = _DRAW[kind]
    # the light-speed forms are rank-deficient by construction
    floor = -1e-12 if kind == "nongeneric" else _MARGIN
    found = []
    total = 0
    while total < n:
        rows = draw(rng, 4 * n + 32)
        rho_min, _ = witnesses(rows)
        rows = rows[rho_min > floor]
        found.append(rows)
        total += len(rows)
    return np.concatenate(found)[:n]


def _counts(n: int) -> list[int]:
    counts = [int(round(share * n)) for _, share in MIX]
    counts[0] += n - sum(counts)
    return counts


def corpus(seed: int, n: int, salt: int = _SALT) -> tuple[np.ndarray, list[str]]:
    """(rows, kinds): n valid states in a seeded, shuffled order."""
    rng = np.random.default_rng([seed, salt])
    rows = []
    kinds: list[str] = []
    for (kind, _), count in zip(MIX, _counts(n)):
        rows.append(_valid(rng, kind, count))
        kinds.extend([kind] * count)
    order = rng.permutation(n)
    return np.concatenate(rows)[order], [kinds[i] for i in order]


def file_corpus(seed: int, n: int) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(rows, kinds, as_diag): a corpus where exactly half the files use t_diag.

    Only diagonal-t states can be written as t_diag; the rest of them, and
    every state with a full t, are written as t_full.
    """
    rows, kinds = corpus(seed, n, salt=_SALT + 1)
    as_diag = np.zeros(n, dtype=bool)
    diag = [i for i, kind in enumerate(kinds) if kind in DIAGONAL_KINDS]
    as_diag[diag[: n // 2]] = True
    return rows, kinds, as_diag
