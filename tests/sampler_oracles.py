"""The sampler's candidate-stage code before it moved onto one R stack, kept as
test references.

  * draw_block_packed: a block's draws gathered into a, b and t and packed
    with pack_r, one new stack per block;
  * proven_indefinite_rows: the prefilter on the (n, 16) row layout, one
    candidate per row, reduced over the trailing axis (sole_marks_rows says
    which of its tests decided each mark);
  * decode_raw_uncached: the raw PCG64 decoder that rebuilds its index
    arrays on every call.

sampling._draw_block, _proven_indefinite and _decode_raw must give the same
bits (and, for the draws, leave the generator in the same state).
"""

import numpy as np

from qubitsep.errors import InvalidParameterError
from qubitsep.hs import pack_r
from qubitsep.sampling import (
    _MINOR_MAP,
    _PREFILTER_MARGIN,
    _symmetric_two_calls,
    _uniform,
    _unit_rows,
)

_AXES = np.arange(3)
_SIGNS = np.array([-1.0, 1.0])
_ROW, _COL = np.triu_indices(4, 1)


def decode_raw_uncached(bitgen, n, doubles, halves, choices):
    before = bitgen.state
    spare = before["has_uint32"]
    c = np.arange(n)
    taken = (halves * c - spare + 1) // 2
    m = np.arange((halves * n - spare + 1) // 2)
    half_pos = doubles * ((2 * m + spare) // halves + 1) + m
    raw = bitgen.random_raw(doubles * n + m.size)
    u = (raw[(doubles * c + taken)[:, None] + np.arange(doubles)] >> 11) * 2.0**-53
    half_raw = raw[half_pos]
    buffer = np.empty(spare + 2 * m.size, dtype=np.uint64)
    buffer[:spare] = before["uinteger"]
    buffer[spare::2] = half_raw & 0xFFFFFFFF
    buffer[spare + 1 :: 2] = half_raw >> 32
    product = buffer[: halves * n] * np.uint64(choices)
    if ((product & 0xFFFFFFFF) < (2**32 - choices) % choices).any():
        bitgen.state = before
        return None
    state = bitgen.state
    state["has_uint32"] = buffer.size - halves * n
    state["uinteger"] = int(buffer[-1])
    bitgen.state = state
    return u, (product >> 32).reshape(n, halves)


def _prefilter_terms(rs):
    scale = np.abs(rs).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        raise InvalidParameterError("R matrices must be finite")
    x = rs.reshape(len(rs), 16) @ _MINOR_MAP
    diag = x[:, :4]
    minors = diag[:, _ROW] * diag[:, _COL] - x[:, 4:10] ** 2 - x[:, 10:] ** 2
    margin = _PREFILTER_MARGIN * scale
    return diag, minors, margin, scale


def proven_indefinite_rows(rs):
    diag, minors, margin, scale = _prefilter_terms(rs)
    return (diag.min(axis=1) < -margin) | (minors.min(axis=1) < -margin * scale)


def sole_marks_rows(rs):
    """(n, 7): for the diagonal test, then each 2x2 minor in triu_indices(4, 1)
    order, whether it is the only test that marks the candidate."""
    diag, minors, margin, scale = _prefilter_terms(rs)
    marks = np.column_stack([diag.min(axis=1) < -margin, minors < (-margin * scale)[:, None]])
    return marks & (marks.sum(axis=1) == 1)[:, None]


def draw_block_packed(family, axis, rng, n):
    a = np.zeros((n, 3))
    b = np.zeros((n, 3))
    t = np.zeros((n, 3, 3))
    if family == "mds":
        t[:, _AXES, _AXES] = rng.uniform(-0.9, 0.9, (n, 3))
    elif family == "single-pair":
        u = rng.uniform(-0.9, 0.9, (n, 5))
        k = axis - 1
        order = [k, (k + 1) % 3, (k + 2) % 3]
        t[:, order, order] = u[:, :3]
        a[:, k] = u[:, 3]
        b[:, k] = u[:, 4]
    elif family == "symmetric-two":
        u, quiet = decode_raw_uncached(rng.bit_generator, n, 5, 1, 3) or _symmetric_two_calls(
            rng, n
        )
        u = _uniform(u, -0.9, 0.9)
        t[:, _AXES, _AXES] = u[:, :3]
        a[_AXES != quiet] = u[:, 3:].ravel()
        b = a
    elif family == "symmetric-three":
        u, signs = decode_raw_uncached(rng.bit_generator, n, 6, 3, 2)
        t[:, _AXES, _AXES] = _uniform(u[:, :3], -0.9, 0.9)
        a = b = _uniform(u[:, 3:], 0.05, 0.9) * _SIGNS[signs]
    elif family == "full-symmetric":
        u = rng.uniform(-0.9, 0.9, (n, 12))
        a = b = u[:, :3]
        m = u[:, 3:].reshape(n, 3, 3)
        t = 0.5 * (m + m.transpose(0, 2, 1))
    elif family == "product-mixture":
        for c in range(n):
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            u = _unit_rows(rng.normal(size=(k, 3)))
            v = _unit_rows(rng.normal(size=(k, 3)))
            a[c] = weights @ u
            b[c] = weights @ v
            t[c] = np.einsum("k,ki,kj->ij", weights, u, v)
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    return pack_r(a, b, t)
