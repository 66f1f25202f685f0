"""Eigenvalues of singular matrix pencils by a rank-completing perturbation.

The core solver perturbs a singular pencil A - lambda B by a random
perturbation of rank exactly n - nrank(A, B), solves the resulting
regular pencil once, and separates the surviving true eigenvalues from
the newly created ones by orthogonality tests on the left and right
eigenvectors.  On top of the core sit a singular two-parameter
eigenvalue solver, a double-eigenvalue finder, and a solver for systems
of two bivariate polynomials in determinantal form.
"""

import importlib as _importlib

# each eager module's __all__ is the one list of its public names
from .matrix_core import *  # noqa: F403
from .pencil import *  # noqa: F403
from .solver import *  # noqa: F403

# The generator, the 2EP layer and the gallery load on first use (PEP 562),
# so a command that needs none of them does not pay for their import.
_LAZY = {
    "kcf_gen": (
        "GroundTruth",
        "Jordan",
        "KcfSpec",
        "LeftSingular",
        "Nilpotent",
        "RightSingular",
        "build",
        "oracle_eigenvalues",
        "spec_from_json",
        "spec_to_json",
    ),
    "two_param": (
        "DeltaTriple",
        "DoubleEigResult",
        "Eigenpair2EP",
        "TwoParamProblem",
        "double_eig",
        "double_eig_linearization",
        "operator_determinants",
        "pair_mu_candidates",
        "read_problem",
        "solve_2ep",
        "write_problem",
    ),
    "gallery": (),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name):
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_OWNER))


__version__ = "0.1.0"
# the public names and submodules, the lazy ones included
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY_OWNER))
