"""Numerical laboratory for the elliptic R-matrix family and the graded
operator calculus built on it: theta-function kernels, the R-matrix with
its transformation laws, tensor-power chain operators, rank/dimension
verifiers, an exact classical oracle, and a CLI (``ellr``) that runs the
whole verification suite."""

from .theta import (
    e_fn,
    LatticeParams,
    ThetaContext,
    theta1,
    theta_alpha,
    theta_char,
    factor_constant,
    nearest_lattice_distance,
)
from .linalg import (
    AmbiguousRankError,
    NonFiniteMatrixError,
    RankPolicy,
    svd_rank,
    kernel,
    image,
)
from .rmatrix import (
    DEFAULT_ETA,
    AlgebraParams,
    HalfPeriodPoint,
    make_params,
    basis_ops,
    r_matrix,
    r_matrices,
    sym_op,
    weight_ops,
    det_closed_form,
)
from .tensorops import (
    ScaledOp,
    scaled_residual,
    scaled_rank,
    perm_op,
    symmetrizer,
    antisymmetrizer,
    t_op,
)
from .classical import classical_w_dim, shuffle_identity_check
from .verifiers import CheckResult, Report, run_suite, ALL_CHECKS, VERSION

__version__ = VERSION
