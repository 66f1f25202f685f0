"""Built-in demonstration problems with known ground truth.

Small singular pencils and one bivariate polynomial system that exercise
every part of the solver.  Each constructor documents the exact Kronecker
structure (and therefore the exact spectrum), so these double as
end-to-end oracles for the test suite and as ready-made inputs for the
command line tool.
"""

from __future__ import annotations

import numpy as np

from .pencil import Pencil
from .two_param import TwoParamProblem

__all__ = [
    "showcase_pencil",
    "diagonal_demo_pencil",
    "control_benchmark_pencil",
    "staircase_sensitive_pencil",
    "bivariate_cubic_system",
    "evaluate_bivariate",
    "double_eig_problem",
]


def showcase_pencil() -> Pencil:
    """Dense 7x7 singular pencil containing all four Kronecker block types.

    Kronecker structure: Jordan blocks of size 1 at 1/2 and 1/3, one
    nilpotent block of size 1 (a simple infinite eigenvalue), one right
    singular block of minimal index 1 and one left singular block of
    minimal index 2.  Normal rank 6, so the rank defect is 1.  The
    finite eigenvalues are exactly {1/3, 1/2}.
    """
    A = np.array(
        [
            [-1, -1, -1, -1, -1, -1, -1],
            [1, 0, 0, 0, 0, 0, 0],
            [1, 2, 1, 1, 1, 1, 1],
            [1, 2, 3, 3, 3, 3, 3],
            [1, 2, 3, 2, 2, 2, 2],
            [1, 2, 3, 4, 3, 3, 3],
            [1, 2, 3, 4, 5, 5, 4],
        ],
        dtype=np.complex128,
    )
    B = np.array(
        [
            [-2, -2, -2, -2, -2, -2, -2],
            [2, -1, -1, -1, -1, -1, -1],
            [2, 5, 5, 5, 5, 5, 5],
            [2, 5, 5, 4, 4, 4, 4],
            [2, 5, 5, 6, 5, 5, 5],
            [2, 5, 5, 6, 7, 7, 7],
            [2, 5, 5, 6, 7, 6, 6],
        ],
        dtype=np.complex128,
    )
    return Pencil(A=A, B=B)


def diagonal_demo_pencil() -> Pencil:
    """diag(1,2,3,0,0,0) - lambda diag(2,3,4,0,0,0): the textbook warm-up.

    Three simple finite eigenvalues 1/2, 2/3, 3/4 plus three trivial
    singular block pairs from the common zero rows and columns; rank
    defect 3.
    """
    return Pencil(A=np.diag([1, 2, 3, 0, 0, 0.0]), B=np.diag([2, 3, 4, 0, 0, 0.0]))


def control_benchmark_pencil() -> Pencil:
    """Rectangular 4x5 descriptor-system benchmark with eigenvalues {1, 2}.

    A classic transmission-zeros test case whose staircase rank
    decisions are notoriously sensitive.  Kronecker structure: one right
    singular block of minimal index 2 plus Jordan blocks of size 1 at
    1 and 2; squarifying appends a zero row, i.e. a left singular block
    of minimal index 0.
    """
    A = np.array(
        [
            [1, -2, 100, 0, 0],
            [1, 0, -1, 0, 0],
            [0, 0, 0, 1, -75],
            [0, 0, 0, 0, 2],
        ],
        dtype=np.complex128,
    )
    B = np.array(
        [
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    return Pencil(A=A, B=B)


def staircase_sensitive_pencil(eps_scale=1.5e-8) -> Pencil:
    """3x4 pencil with a double eigenvalue 0 that defeats staircase methods.

    Kronecker structure: one Jordan block of size 2 at 0 and one right
    singular block of minimal index 1.  The tiny ``eps_scale`` entries
    make the staircase rank decisions ill posed once noise is added,
    while the perturbation approach still recovers the split pair near
    zero.
    """
    A = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    B = np.array(
        [
            [eps_scale, 0, 0, 0],
            [0, eps_scale, 0, 0],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    return Pencil(A=A, B=B)


# Where coefficient j of [1, x, y, x^2, x y, y^2, x^3, x^2 y, x y^2, y^3] sits in
# the stack (A, B, C) of _determinantal_cubic: matrix, row and column indices.
_CUBIC_ENTRIES = ([0, 0, 0, 0, 0, 0, 1, 1, 1, 2], [2, 1, 2, 0, 1, 2, 0, 1, 2, 2],
                  [2, 2, 1, 2, 1, 0, 2, 1, 0, 0])


def _determinantal_cubic(c):
    """The 5x5 matrices (A, B, C) with det(A + x B + y C) the cubic with coefficients ``c``."""
    M = np.zeros((3, 5, 5), dtype=np.complex128)
    M[0, [0, 1, 3, 4], [3, 4, 0, 1]] = 1
    M[1, [1, 2], [3, 4]] = -1
    M[2, [3, 4], [1, 2]] = -1
    M[_CUBIC_ENTRIES] = c
    return M


def bivariate_cubic_system():
    """A pair of bivariate cubics in determinantal form, with 9 common roots.

    Returns ``(problem, coeffs1, coeffs2)`` where the coefficient vectors
    list each polynomial over the monomial basis

        [1, x, y, x^2, x y, y^2, x^3, x^2 y, x y^2, y^3]

    (coefficients 1..10 and 10..1).  The 5x5 matrix families of the
    returned :class:`TwoParamProblem` are built from these vectors: each
    coefficient sits in one entry of A_i, B_i or C_i, beside a fixed
    pattern of ones and minus ones, so that
    ``det(A_i + x B_i + y C_i) = p_i(x, y)``.  The finite regular
    eigenvalues of the induced singular 2EP are exactly the 9 solutions
    of ``p_1 = p_2 = 0``.
    """
    coeffs1 = np.arange(1.0, 11.0)
    coeffs2 = np.arange(10.0, 0.0, -1.0)
    A1, B1, C1 = _determinantal_cubic(coeffs1)
    A2, B2, C2 = _determinantal_cubic(coeffs2)
    problem = TwoParamProblem(A1=A1, B1=B1, C1=C1, A2=A2, B2=B2, C2=C2)
    return problem, coeffs1, coeffs2


def evaluate_bivariate(coeffs, x, y):
    """Evaluate a degree-3 bivariate polynomial given on the monomial basis.

    Basis order: [1, x, y, x^2, x y, y^2, x^3, x^2 y, x y^2, y^3].
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (10,):
        raise ValueError("expected 10 coefficients for a bivariate cubic")
    mono = np.array(
        [1.0, x, y, x * x, x * y, y * y, x**3, x * x * y, x * y * y, y**3],
        dtype=np.complex128,
    )
    return complex(coeffs @ mono)


def double_eig_problem(seed) -> TwoParamProblem:
    """The 2EP (A, B, -I; P, Q, R) whose lambdas make A + lambda B have a double eigenvalue.

    A and B are 6 x 6 standard normal matrices from
    ``numpy.random.default_rng(seed)``, and P, Q, R the 18 x 18 blocks of
    the squared double-eigenvalue 2EP (:func:`_double_eig_2ep`),
    formed in real arithmetic.  Its operator determinants are 108 x 108,
    against the 72 x 72 of
    :func:`~singpencil.two_param.double_eig_linearization` at n = 6, which
    :func:`~singpencil.two_param.double_eig` solves.  This is the problem
    of the benchmark's ``twoparam`` workload: its mu pencils are 6 x 6
    and 18 x 18, and each lambda has a double eigenvalue mu of
    A + lambda B.
    """
    rng = np.random.default_rng(seed)
    return _double_eig_2ep(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))


def _double_eig_2ep(A, B):
    """The squared 2EP (A, B, -I; P, Q, R) of the double-eigenvalue problem, 3n x 3n.

    The second equation asks for (A + lambda B - mu I)^2 y = 0 with the
    3n x 3n block matrices

        P = [[A^2, AB + BA, -2A], [0, I, 0], [0, 0, I]],
        Q = [[0, B^2, -B], [-I, 0, 0], [0, 0, 0]],
        R = [[0, -B, I], [0, 0, 0], [-I, 0, 0]],

    acting on (y, lambda y, mu y), so its operator determinants are
    3 n^2 x 3 n^2 (normal rank 3 n^2 - n).
    :func:`~singpencil.two_param.double_eig` uses the smaller form of
    :func:`~singpencil.two_param.double_eig_linearization`; this one is
    the 2EP of :func:`double_eig_problem` and of the benchmark's
    ``twoparam`` workload.  The blocks are formed in the dtype of A and
    B, so real inputs give the bits of a real-arithmetic construction.
    """
    n = A.shape[0]
    I = np.eye(n, dtype=A.dtype)
    Z = np.zeros((n, n), dtype=A.dtype)
    P = np.block([[A @ A, A @ B + B @ A, -2.0 * A], [Z, I, Z], [Z, Z, I]])
    Q = np.block([[Z, B @ B, -B], [-I, Z, Z], [Z, Z, Z]])
    R = np.block([[Z, -B, I], [Z, Z, Z], [-I, Z, Z]])
    return TwoParamProblem(A1=A, B1=B, C1=-I, A2=P, B2=Q, C2=R)
