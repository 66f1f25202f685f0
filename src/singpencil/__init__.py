"""Eigenvalues of singular matrix pencils by a rank-completing perturbation.

The core solver perturbs a singular pencil A - lambda B by a random
perturbation of rank exactly n - nrank(A, B), solves the resulting
regular pencil once, and separates the surviving true eigenvalues from
the newly created ones by orthogonality tests on the left and right
eigenvectors.  On top of the core sit a singular two-parameter
eigenvalue solver, a double-eigenvalue finder, and a solver for systems
of two bivariate polynomials in determinantal form.
"""

from .matrix_core import (
    EPS,
    EigDecomposition,
    HomogeneousEigenvalue,
    NumericalError,
    as_cmatrix,
    chordal_distance,
    generalized_eig,
    greedy_match,
    kron,
    random_orthonormal,
    rank_with_tol,
)
from .pencil import (
    NormalRankReport,
    Pencil,
    normal_rank,
    read_pencil,
    scale,
    squarify,
    write_pencil,
)
from .solver import (
    EigenClass,
    EigenRecord,
    GapReport,
    IntersectionResult,
    PerturbationSpec,
    SolveOptions,
    SolveResult,
    classify,
    make_perturbation,
    perturb,
    solve,
    solve_by_intersection,
)
from .kcf_gen import (
    GroundTruth,
    Jordan,
    KcfSpec,
    LeftSingular,
    Nilpotent,
    RightSingular,
    build,
    oracle_eigenvalues,
    spec_from_json,
    spec_to_json,
)
from .two_param import (
    DeltaTriple,
    DoubleEigResult,
    Eigenpair2EP,
    TwoParamProblem,
    double_eig,
    double_eig_linearization,
    operator_determinants,
    pair_mu_candidates,
    read_problem,
    solve_2ep,
    solutions_to_csv,
    write_problem,
)
from . import gallery

__version__ = "0.1.0"
