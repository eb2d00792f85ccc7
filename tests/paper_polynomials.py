"""The paper's case b) polynomials in beta_1, kept as test references.

The solver works on the secular equation in mu instead (see
normal_form.solve_symmetric); these are the monic cubic (two symmetric
pairs) and quartic (three pairs) the paper writes down, against which the
tests check its velocities.
"""

import numpy as np


def cubic_coefficients(a1: float, a2: float, tdiag) -> np.ndarray:
    t1, t2, _ = np.asarray(tdiag, dtype=float).reshape(3)
    t = t2 - t1
    big_t = 1.0 + t1
    return np.array(
        [
            1.0,
            ((a1 * a1 + a2 * a2) / t - big_t) / a1,
            1.0 - big_t / t,
            a1 / t,
        ]
    )


def quartic_coefficients(a, tdiag) -> np.ndarray:
    a1, a2, a3 = a
    t1, t2, t3 = tdiag
    t = t2 - t1
    tp = t3 - t1
    big_t = 1.0 + t1
    return np.array(
        [
            1.0,
            a1 / t + a1 / tp - big_t / a1 + a2 * a2 / (a1 * t) + a3 * a3 / (a1 * tp),
            1.0 + (a1 * a1 + a2 * a2 + a3 * a3) / (t * tp) - big_t / tp - big_t / t,
            a1 / tp + a1 / t - a1 * big_t / (t * tp),
            a1 * a1 / (t * tp),
        ]
    )
