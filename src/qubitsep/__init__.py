"""Separability analysis of two-qubit density matrices.

Two independent pipelines decide separability: the exact partial-transpose
test, and the boost normal form of the real 4x4 coefficient matrix R, where
separability reads |s1| + |s2| + |s3| <= s0 after the linear terms are
eliminated by Lorentz boosts.
"""

from .boost import BETA_LIMIT, ETA, apply_two_sided
from .errors import (
    BoostLimitError,
    ContractViolationError,
    InvalidParameterError,
    InvalidStateError,
    NoPhysicalBoostError,
    QubitSepError,
    SamplingExhaustedError,
    SolverInconsistencyError,
)
from .hs import (
    HSParams,
    eigenvalues_hermitian,
    r_from_hs,
    r_from_rho,
    rho_from_hs,
    rho_from_r,
    tdiag_via_local_rotations,
    tdiag_via_symmetric_rotation,
)
from .normal_form import (
    Classification,
    SigmaForm,
    SolveReport,
    eliminate_and_diagonalize,
    separability_verdict,
    solve_normal_form,
    solve_pair_general,
    solve_symmetric,
)
from .pt import (
    ENTANGLED,
    SEPARABLE,
    Verdict,
    mds_criterion,
    partial_transpose_matrix,
    peres_horodecki,
    spectra,
)
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
