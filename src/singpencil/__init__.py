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

# each module's __all__ is the one list of its public names
from .matrix_core import *  # noqa: F403
from .pencil import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"
_EAGER = {name for name in globals() if not name.startswith("_")}  # and the three modules
# The generator, the 2EP layer and the gallery load on first use (PEP 562), so a
# command that needs none of them does not pay for their import.
_LAZY = ("kcf_gen", "two_param", "gallery")


def __getattr__(name):
    """A lazy module, or a name of ``__all__`` (which loads kcf_gen and two_param, not gallery).

    A dunder other than ``__all__``, as tools probe for, loads nothing.
    """
    if name in _LAZY:
        return _importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("__") or name == "__all__":
        lazy = {n: getattr(m, n) for m in map(__getattr__, _LAZY[:2]) for n in m.__all__}
        globals().update(lazy, __all__=sorted(_EAGER | set(lazy) | set(_LAZY)))
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
