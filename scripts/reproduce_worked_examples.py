#!/usr/bin/env python3
"""Run the five built-in reference states end to end and print the numbers.

Covers: the correlation-sum insufficiency example, the symmetric single
pair, the one-sided pair, and the symmetric two- and three-pair states
solved through the cubic and quartic reductions.
"""

import numpy as np

from qubitsep import (
    HSParams,
    cross_validate,
    solve_pair_general,
    solve_symmetric,
)

np.set_printoptions(precision=6, suppress=True)


def show(title: str, params: HSParams) -> None:
    print(f"\n=== {title} ===")
    print(f"a = {params.a}  b = {params.b}  t = {np.diag(params.t)}")
    rec = cross_validate(params)
    print(f"4*lambda          : {rec.spectrum}")
    print(f"ppt verdict       : {rec.ppt.kind}  (witness {rec.ppt.witness:+.6f})")
    print(f"classification    : {rec.classification.kind}")
    if rec.classification.is_generic:
        rep = rec.report
        print(f"boost kind        : {rep.boost_kind}, betas = {np.array(rep.betas)}")
        print(f"sigma             : s0 = {rep.sigma.s0:.6f}  s = {rep.sigma.s}")
        print(f"sum |t'_i|        : {rep.sigma.tprime_sum:.6f}")
        print(f"lorentz verdict   : {rec.lorentz.kind}  (witness {rec.lorentz.witness:+.6f})")
        print(f"elimination resid : {rep.offdiag_residual:.3e}")


def main() -> None:
    show(
        "entangled although sum |t_i| = 0.9 <= 1",
        HSParams.diagonal([0, 0.64, 0], [0, 0.64, 0], [0.3, 0.3, 0.3]),
    )
    (beta, _), _ = solve_pair_general(0.64, 0.64, 0.3)
    print(f"symmetric pair solve: beta = {beta:.7f},  gamma^2 = {1/(1-beta**2):.6f}")

    show(
        "one-sided pair (b = 0), separable",
        HSParams.diagonal([0.2, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3]),
    )
    (ba, bb), _ = solve_pair_general(0.2, 0.0, 0.3)
    print(f"pair solve: beta_a = {ba:.7f}, beta_b = {bb:.7f}")

    show(
        "symmetric two-pair state (cubic reduction)",
        HSParams.diagonal([0.1, 0.15, 0], [0.1, 0.15, 0], [0.3, -0.2, 0.4]),
    )
    (b1, b2, _), _ = solve_symmetric([0.1, 0.15, 0.0], [0.3, -0.2, 0.4])
    print(f"cubic solve: beta_1 = {b1:.7f}, beta_2 = {b2:.7f}")

    show(
        "symmetric three-pair state (quartic reduction)",
        HSParams.diagonal([0.1, 0.15, 0.2], [0.1, 0.15, 0.2], [0.3, -0.2, 0.2]),
    )
    (q1, q2, q3), _ = solve_symmetric([0.1, 0.15, 0.2], [0.3, -0.2, 0.2])
    print(f"quartic solve: beta = ({q1:.7f}, {q2:.7f}, {q3:.7f})")

    show(
        "maximally disordered subsystems, entangled Werner point",
        HSParams.diagonal([0, 0, 0], [0, 0, 0], [-0.5, -0.5, -0.5]),
    )


if __name__ == "__main__":
    main()
