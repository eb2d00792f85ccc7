"""Separability analysis of two-qubit density matrices.

Two independent pipelines decide separability: the exact partial-transpose
test, and the boost normal form of the real 4x4 coefficient matrix R, where
separability reads |s1| + |s2| + |s3| <= s0 after the linear terms are
eliminated by Lorentz boosts.
"""

from .boost import (
    BETA_LIMIT,
    ETA,
    apply_two_sided,
    boost_general,
    boost_x,
)
from .errors import (
    BoostLimitError,
    ContractViolationError,
    InvalidParameterError,
    InvalidStateError,
    NoPhysicalBoostError,
    QubitSepError,
    SamplingExhaustedError,
    SolverInconsistencyError,
    UnsupportedFormError,
)
from .hs import (
    HSParams,
    eigenvalues_closed_form_pair,
    eigenvalues_hermitian,
    is_positive_semidefinite,
    rho_from_hs,
    hs_from_rho,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from .normal_form import (
    Classification,
    SigmaForm,
    SolveReport,
    eliminate_and_diagonalize,
    separability_verdict,
    sigma_pair_b1zero,
    sigma_pair_symmetric,
    solve_normal_form,
    solve_pair_general,
    solve_pair_symmetric,
    solve_symmetric,
)
from .pt import (
    ENTANGLED,
    SEPARABLE,
    Verdict,
    half_eigenvalue_criterion,
    mds_criterion,
    necessity_check,
    partial_transpose,
    partial_transpose_matrix,
    peres_horodecki,
    ptu,
    spectra,
)
from .rmatrix import is_symmetric_r, r_from_hs, r_from_rho, rho_from_r
from .roots import real_roots
from .sampling import (
    FAMILIES,
    AgreementReport,
    CrossValidation,
    SampleSpec,
    batch_stats,
    cross_validate,
    random_state,
)

__version__ = "0.1.0"
